import json
import math
import time

import pytest

from ris_scma import campaign, cli
from ris_scma.cli import main

TINY = {"scenario": "n_sweep", "sweep": {"grid": [2, 4]}, "num_trials": 25,
        "num_elements": 4, "algorithms": ["blind", "ao"]}


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest: PASS" in out


def test_run_writes_results(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY))
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg), "--output-dir", str(out_dir)]) == 0
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "results.json").exists()


def test_seed_flag_changes_results(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY))
    main(["run", str(cfg), "--output-dir", str(tmp_path / "a"), "--seed", "1"])
    main(["run", str(cfg), "--output-dir", str(tmp_path / "b"), "--seed", "2"])
    main(["run", str(cfg), "--output-dir", str(tmp_path / "c"), "--seed", "1"])
    a = (tmp_path / "a" / "results.csv").read_bytes()
    b = (tmp_path / "b" / "results.csv").read_bytes()
    c = (tmp_path / "c" / "results.csv").read_bytes()
    assert a != b
    assert a == c


def test_output_dir_env_override(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY))
    monkeypatch.setenv("RIS_SCMA_OUTPUT_DIR", str(tmp_path / "env_out"))
    assert main(["run", str(cfg)]) == 0
    assert (tmp_path / "env_out" / "results.csv").exists()


def test_empty_output_dir_env_is_unset(tmp_path, monkeypatch):
    # As tempfile treats an empty TMPDIR: the document's directory holds.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TINY, "output": {"directory": str(tmp_path / "doc_out")}}))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("RIS_SCMA_OUTPUT_DIR", "")
    assert main(["run", str(cfg)]) == 0
    assert (tmp_path / "doc_out" / "results.csv").exists()
    assert not (tmp_path / "results.csv").exists()


def test_sweep_preset_emits_plot_series(tmp_path):
    out = tmp_path / "fig"
    assert main(["sweep", "fig6a", "--output-dir", str(out)]) == 0
    assert (out / "fig6a_ao.csv").exists()
    assert (out / "fig6a_lc_ao.csv").exists()
    out2 = tmp_path / "fig4"
    assert main(["sweep", "fig4", "--trials", "20", "--output-dir", str(out2)]) == 0
    assert (out2 / "fig4_ao.csv").exists()


def test_bad_config_machine_readable_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"no_such_key": 1}')
    rc = main(["run", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()[-1]
    doc = json.loads(err)
    assert doc["error"]["type"] == "config"
    assert "no_such_key" in doc["error"]["message"]


def test_malformed_config_reports_line_and_column(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{\n  "scenario": "n_sweep",\n  "num_trials" 5\n}')
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    doc = json.loads(err[0])
    assert doc["error"]["type"] == "config"
    assert "line 3, column 16" in doc["error"]["message"]


# 8 users on 4 OREs pass the edge-count checks, but the all-combinations
# factor graph needs C(4, 2) = 6 users.
NO_GRAPH_SYSTEM = {"num_users": 8, "num_ores": 4, "nonzero_per_user": 2,
                   "nonzero_per_ore": 4}


REFUSED_DOCS = [
    ({"scenario": "n_sweep", "sweep": {"grid": [0, 4]}}, "num_elements"),
    ({"scenario": "n_sweep", "sweep": {"grid": [-3]}}, "num_elements"),
    ({"scenario": "convergence", "sweep": {"grid": [0, 2]}}, "num_iterations"),
    ({"scenario": "bits_sweep", "sweep": {"grid": [0, 2]}}, "phase_bits"),
    ({"scenario": "deploy_sweep", "sweep": {"grid": [2.0, 50.0]}}, "ris_horizontal_offset"),
    ({"scenario": "n_sweep", "sweep": {"grid": [2]}, "system": NO_GRAPH_SYSTEM}, "num_users"),
    ({"scenario": "complexity_grid", "system": NO_GRAPH_SYSTEM}, "num_users"),
    # Above b = 8 a scenario that runs trials would build a 2^b alphabet and
    # a 2^b-row score table per block: at b = 40 an 8 TiB allocation.
    ({"phase_bits": 40}, "phase_bits"),
    ({"scenario": "bits_sweep", "sweep": {"grid": [1, 70]}}, "phase_bits"),
    ({"scenario": "convergence", "phase_bits": 16}, "phase_bits"),
    # An integer literal past the float range for a float key.
    ({"geometry": {"carrier_frequency": 10**400}}, "geometry.carrier_frequency"),
    ({"fading": {"rician_factor": 10**400}}, "fading.rician_factor"),
    # complexity_grid's 2^b counts past Python's 4300-digit integer-to-string
    # limit could not be written; at b = 10^11 building 2^b does not finish.
    ({"scenario": "complexity_grid", "phase_bits": 20000}, "phase_bits"),
    ({"scenario": "complexity_grid", "phase_bits": 10**11}, "phase_bits"),
    # Counts past the digit limit at a small b: N^2 alone has 4401 digits.
    ({"scenario": "complexity_grid", "sweep": {"axis": "phase_bits", "grid": [4]},
      "num_elements": 10**2200}, "num_elements"),
    # Raw document text: json.loads refuses an integer literal past the
    # digit limit (json.dumps could not write one) and nesting past the
    # recursion limit.
    ('{"num_trials": 1' + "0" * 5000 + "}", "4300 digits"),
    ("[" * 100_000, "recursion"),
    # Checked by bit length: 2^(b*N) at N = 10^30 is never built.
    ({"algorithms": ["blind", "exhaustive"], "sweep": {"grid": [10**30]}},
     "exhaustive budget"),
    # The wavelength's fourth power overflows, or both path gains underflow
    # to 0; either is refused before any trial runs.
    ({"geometry": {"carrier_frequency": 1e-80}, "num_trials": 4, "sweep": {"grid": [4]}},
     "geometry.carrier_frequency"),
    ({"geometry": {"carrier_frequency": 1e300}, "num_trials": 4, "sweep": {"grid": [4]}},
     "geometry.carrier_frequency"),
    # Layouts whose C(R, d_v) has about 282,000 and 602,000 digits: refused
    # once the running binomial passes num_users, without computing either.
    ({"system": {"num_users": 10_000_000, "num_ores": 2_000_000,
                 "nonzero_per_user": 200_000, "nonzero_per_ore": 1_000_000}}, "num_users"),
    ({"system": {"num_users": 4_000_000, "num_ores": 2_000_000,
                 "nonzero_per_user": 1_000_000, "nonzero_per_ore": 2_000_000}}, "num_users"),
    # E/sigma^2 x direct gain x scale overflows, so every SNR would: refused
    # before any draw.
    ({"fading": {"direct_loss_scale": 1e308}, "num_trials": 4, "sweep": {"grid": [4]}},
     "fading.direct_loss_scale"),
    # Messages about products with more digits than Python writes an
    # integer with: both give bit lengths instead.
    ({"system": {"num_users": 10**4000, "num_ores": 4, "nonzero_per_user": 10**4000,
                 "nonzero_per_ore": 3}}, "num_users*nonzero_per_user"),
    ({"algorithms": ["blind", "exhaustive"], "phase_bits": 8,
      "sweep": {"grid": [10**4300 - 1]}}, "exhaustive_budget"),
    # A valid R = 10^40 layout: one trial's channel is past numpy's largest
    # array, so the document is refused before anything is allocated.
    ({"system": {"num_users": math.comb(10**40, 2), "num_ores": 10**40,
                 "nonzero_per_user": 2, "nonzero_per_ore": 10**40 - 1},
      "num_trials": 4, "sweep": {"grid": [4]}}, "system.num_ores"),
    # Campaign fields out of their domains, a document that is not an
    # object, and an output format no writer has.
    ({"sweep": {"grid": []}}, "sweep_grid"),
    ({"algorithms": []}, "algorithms"),
    ({"num_trials": 0}, "num_trials"),
    ({"average_mode": "median"}, "average_mode"),
    ({"workers": 0}, "workers"),
    ("[]", "JSON object"),
    ({"output": {"formats": ["xml"]}}, "output.formats"),
    # A run that would write no file.
    ({"output": {"formats": []}}, "output.formats"),
    # A base value below 1 on an axis the scenario does not sweep.
    ({"scenario": "bits_sweep", "num_elements": 0}, "num_elements"),
    ({"scenario": "deploy_sweep", "num_iterations": 0}, "num_iterations"),
    # A repeated algorithm would write each of its rows twice.
    ({"algorithms": ["ao", "ao"]}, "algorithm 'ao' is listed more than once"),
    ({"scenario": "complexity_grid", "algorithms": ["ao", "ao"]},
     "algorithm 'ao' is listed more than once"),
    # Link budgets whose SNRs would be subnormal (every row -3125.74 dB with
    # a standard error of 0) or whose squares would overflow after a full run.
    ({"fading": {"symbol_energy": 1e-300}, "geometry": {"carrier_frequency": 1e15}},
     "SNRs out of the normal float range"),
    ({"fading": {"symbol_energy": 1e300, "noise_variance": 1.0, "direct_loss_scale": 1.0}},
     "SNRs out of the normal float range"),
]


@pytest.mark.parametrize("doc, key", REFUSED_DOCS,
                         ids=[f"doc{i}" for i in range(len(REFUSED_DOCS))])
def test_invalid_grid_point_is_a_config_error(doc, key, tmp_path, capsys, monkeypatch):
    # Each grid value replaces a base parameter, so each is checked up front
    # rather than failing mid-campaign: no channel is drawn.  So is the SCMA
    # layout, for every scenario, including complexity_grid, which runs no
    # trials.
    def draw(*args, **kwargs):
        raise AssertionError("a channel was drawn")
    monkeypatch.setattr(campaign, "draw_trial_block", draw)
    cfg = tmp_path / "bad.json"
    cfg.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    start = time.perf_counter()
    assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    error = json.loads(err[0])["error"]
    assert error["type"] == "config" and key in error["message"]
    assert not (tmp_path / "out").exists()


def test_complexity_grid_counts_any_phase_bits(tmp_path, capsys):
    # complexity_grid only counts, so b = 40 stays a valid document there,
    # and so do path gains out of the float range: it draws no channel.
    for i, extra in enumerate([{}, {"geometry": {"carrier_frequency": 1e-80}}]):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps({"scenario": "complexity_grid", "phase_bits": 40,
                                   "sweep": {"grid": [4, 8]}, **extra}))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / f"out{i}")]) == 0
        rows = json.loads((tmp_path / f"out{i}" / "results.json").read_text())["rows"]
        assert len(rows) == 4 and all(row["real_mults"] > 2**40 for row in rows)


def test_memory_error_is_one_error_line(tmp_path, capsys, monkeypatch):
    # A valid document too large for the machine fails like any other run
    # error, without a traceback.
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 TiB")
    monkeypatch.setattr(cli, "run_campaign", too_large)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY))
    assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [json.dumps({"error": {"type": "MemoryError",
                                         "message": "Unable to allocate 8.00 TiB"}})]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc", [
    {"fading": {"symbol_energy": 1e308}},
    {"fading": {"noise_variance": 1e-320}},
], ids=["inf_energy", "inf_noise"])
def test_infinite_link_budget_is_a_config_error(doc, tmp_path, capsys):
    # symbol_energy / noise_variance overflows, so every SNR would be inf:
    # refused with the config, before any trial runs.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"num_trials": 4, "num_elements": 4,
                               "sweep": {"grid": [4]}, **doc}))
    assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    error = json.loads(err[0])["error"]
    assert error["type"] == "config"
    assert "symbol_energy / noise_variance" in error["message"]
    assert error["message"].endswith("is not finite")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc", [
    {"fading": {"symbol_energy": 1e290}},             # finite SNRs, std overflows
    {"fading": {"symbol_energy": 1e-300, "noise_variance": 1e20},
     "average_mode": "mean_of_db"},                   # every SNR is exactly 0
    {"fading": {"symbol_energy": 1e-300, "noise_variance": 1e20}},
    # E/sigma^2 x direct gain x scale = 1.2e308 is finite, but each ORE's SNR
    # sums three such users and overflows.
    {"fading": {"direct_loss_scale": 2e307}},
], ids=["std_overflow", "zero_mean_of_db", "zero_db_of_mean", "direct_overflow"])
def test_out_of_range_link_budget_writes_nothing(doc, tmp_path, capsys, monkeypatch):
    # Each of these documents is refused before any draw (_SNR_RANGE).  With
    # that range lifted, the late check still fails a run whose SNR
    # statistics are not finite with one error line naming the row and the
    # whole budget, before any results file is written; no numpy warning
    # reaches stderr before it.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"num_trials": 4, "num_elements": 4,
                               "sweep": {"grid": [4]}, **doc}))
    assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
    assert "SNRs out of the normal float range" in capsys.readouterr().err
    monkeypatch.setattr(campaign, "_SNR_RANGE", (0.0, math.inf))
    assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    error = json.loads(err[0])["error"]
    assert error["type"] == "ValueError"
    assert error["message"].startswith("blind at num_elements = 4: ")
    for part in ("symbol_energy / noise_variance", "direct path gain",
                 "fading.direct_loss_scale", "cascaded path gain"):
        assert part in error["message"]
    assert not (tmp_path / "out").exists()


def test_missing_config_file(capsys):
    rc = main(["run", "/nonexistent/cfg.json"])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert json.loads(err)["error"]["type"] == "OSError"


def test_output_dir_under_a_file_is_one_error_line(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY))
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(["run", str(cfg), "--output-dir", str(blocker / "out")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    error = json.loads(err[0])["error"]
    assert error["type"] == "OSError"
    assert error["message"].startswith("cannot create output directory")


def test_verify_complexity_custom_grid(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"num_ores": [1], "num_elements": [1, 3],
                                "phase_bits": [2], "num_interferers": [2],
                                "iterations": [1]}))
    assert main(["verify-complexity", str(grid)]) == 0
    out = capsys.readouterr().out
    assert "0 mismatches" in out
    assert "MISMATCH" not in out


def test_verify_complexity_rejects_unknown_axis(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"num_towers": [1]}))
    assert main(["verify-complexity", str(grid)]) == 1


@pytest.mark.parametrize("axes", [{"num_ores": 1}, {"phase_bits": []},
                                  {"iterations": [1, 0]}, {"num_elements": [True]},
                                  ["num_ores"]])
def test_verify_complexity_rejects_malformed_axis(axes, tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(axes))
    assert main(["verify-complexity", str(grid)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"]["type"] == "ValueError"
