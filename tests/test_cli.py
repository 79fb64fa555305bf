import json

import pytest

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


def test_missing_config_file(capsys):
    rc = main(["run", "/nonexistent/cfg.json"])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert json.loads(err)["error"]["type"] == "OSError"


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
