"""What a process loads, and how it leaves.

A campaign run loads only the modules it runs: never ``ris_scma.reference``,
which holds the counted reference, the oracle and the ``verify-complexity``
and ``selftest`` bodies.  ``import ris_scma`` loads no submodule, and every
public name still resolves from the package.  The command-line entry flushes
and leaves by ``os._exit`` after the run; ``main`` called in a process leaves
the interpreter alone.
"""

import ast
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ris_scma import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_CASE = ROOT / "tests" / "golden" / "fan_out_ragged"
TINY = {"scenario": "n_sweep", "sweep": {"grid": [2, 4]}, "num_trials": 25,
        "num_elements": 4, "algorithms": ["blind", "ao", "lc_ao", "no_ris"]}
# The modules a `run` loads, the package itself included; the command-line
# module runs as __main__.
RUN_PATH = {"ris_scma", "ris_scma.campaign", "ris_scma.channel",
            "ris_scma.config", "ris_scma.factor_graph", "ris_scma.opcount",
            "ris_scma.optimizer", "ris_scma.writers"}
PUBLIC_NAMES = [
    "Campaign", "CampaignResult", "ChannelRealization", "ConfigError",
    "DEFAULT_EXHAUSTIVE_BUDGET", "DeploymentProfile", "FactorGraph",
    "FadingConfig", "Geometry", "LcAoWorkspace", "OpCount", "PhaseAlphabet",
    "PhaseAssignment", "ResultRow", "RunConfig", "ScmaConfig", "ao_optimize",
    "blind_phases", "build_factor_graph", "build_lc_workspace", "campaign",
    "campaign_from_config", "cascaded_path_loss", "channel",
    "composite_channel", "config", "config_from_document", "config_hash",
    "db_from_linear", "deploy_sweep_profile", "direct_path_loss",
    "draw_channels", "draw_link_channels", "draw_trial_block",
    "emit_plot_data", "exhaustive_optimize", "factor_graph", "lc_ao_optimize",
    "measured_run", "no_ris_snr", "opcount", "optimizer", "parse_config",
    "predicted_ao", "predicted_exhaustive", "predicted_lc_ao", "received_snr",
    "result_from_json_text", "result_to_csv_text", "result_to_json_text",
    "run_campaign", "serialize_config", "snr_decomposition",
    "stack_realizations", "term_split", "trial_seed", "write_results",
    "writers"]


def _python(*args, **kwargs) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120, **kwargs)


def _tiny_config(tmp_path) -> Path:
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY))
    return config


def test_cli_run_loads_only_the_run_path(tmp_path):
    # -X importtime names every module the process imports, on stderr.
    proc = _python("-X", "importtime", "-m", "ris_scma.cli", "run",
                   str(_tiny_config(tmp_path)), "--output-dir", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert {name for name in loaded if name.partition(".")[0] == "ris_scma"} == RUN_PATH


def test_benchmark_set_up_never_loads_the_reference(tmp_path):
    # The benchmark's own set-up code, read from its source without running it.
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    setup_code = next(ast.literal_eval(node.value) for node in tree.body
                      if isinstance(node, ast.Assign)
                      and getattr(node.targets[0], "id", None) == "SETUP_CODE")
    code = setup_code + "assert 'ris_scma.reference' not in sys.modules\n"
    proc = _python("-c", code, str(_tiny_config(tmp_path)))
    assert proc.returncode == 0, proc.stderr


def test_package_import_is_lazy_and_every_public_name_resolves():
    code = ("import sys\n"
            "import ris_scma\n"
            "loaded = [m for m in sys.modules if m.startswith('ris_scma.')]\n"
            "assert not loaded, loaded\n"
            f"assert ris_scma.__all__ == {PUBLIC_NAMES!r}, ris_scma.__all__\n"
            f"from ris_scma import {', '.join(PUBLIC_NAMES)}\n"
            "assert all(globals()[name] is getattr(ris_scma, name)\n"
            "           for name in ris_scma.__all__)\n")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_main_in_process_leaves_the_collector_unfrozen(tmp_path):
    before = gc.get_freeze_count()
    assert cli.main(["run", str(_tiny_config(tmp_path)),
                     "--output-dir", str(tmp_path / "out")]) == 0
    assert gc.get_freeze_count() == before


def test_entry_flushes_and_exits_with_mains_code(monkeypatch):
    events = []

    class Stream:
        def __init__(self, name):
            self.name = name

        def flush(self):
            events.append(f"flush {self.name}")

    monkeypatch.setattr(cli, "main", lambda: events.append("main") or 3)
    monkeypatch.setattr(cli.sys, "stdout", Stream("stdout"))
    monkeypatch.setattr(cli.sys, "stderr", Stream("stderr"))
    monkeypatch.setattr(cli.os, "_exit", lambda code: events.append(f"exit {code}"))
    cli.entry()
    assert events == ["main", "flush stdout", "flush stderr", "exit 3"]


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_cli_process_on_a_closed_pipe_is_one_error_line(tmp_path, unbuffered):
    # Unbuffered, the print inside main fails; buffered, the entry's flush.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ris_scma.cli", "run", str(_tiny_config(tmp_path)),
             "--output-dir", str(tmp_path / "out")],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"]["type"] == "BrokenPipeError"


def test_console_script_is_the_entry():
    project = (ROOT / "pyproject.toml").read_text()
    assert '\nris-scma = "ris_scma.cli:entry"\n' in project


def test_cli_process_prints_the_paths_and_writes_the_golden_bytes(tmp_path):
    out = tmp_path / "out"
    proc = _python("-m", "ris_scma.cli", "run", str(GOLDEN_CASE / "config.json"),
                   "--output-dir", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout == f"{out / 'results.csv'}\n{out / 'results.json'}\n"
    for name in ("results.csv", "results.json"):
        assert (out / name).read_bytes() == (GOLDEN_CASE / name).read_bytes(), name


def test_cli_process_failure_is_one_error_line(tmp_path):
    proc = _python("-m", "ris_scma.cli", "run", str(tmp_path / "missing.json"))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"]["type"] == "OSError"
