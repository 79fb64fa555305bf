"""The layer benchmark's runner, its worker interpreters, its cheapest
call-level layers and its command layer.

The script is loaded by path: nothing else imports it, so a renamed private
name it imports from the package would otherwise go unnoticed.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "run_bench.py"


@pytest.fixture(scope="module")
def bench():
    path = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("run_bench", SCRIPT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


@pytest.fixture(scope="module")
def workers(bench):
    """Two worker interpreters on this tree, as ``--against`` would pair them."""
    pair = {prefix: bench._Worker(bench.SRC) for prefix in ("", bench.AGAINST)}
    yield pair
    for worker in pair.values():
        worker.close()


def test_measure_rotates_the_calls_and_gives_quartiles(bench):
    calls = []

    def run(name, seconds, result, peak):
        def call(traced):
            calls.append((name, traced))
            return next(seconds), result, peak if traced else None
        return call
    runs = {"a": run("a", iter([3.0, 1.0, 2.0, 9.0]), "A", None),
            "b": run("b", iter([2.0, 4.0, 3.0, 9.0]), "B", 7)}
    stats, results = bench._measure(runs, 3)
    # Three timed repeats, each rotated by one, then one untimed, traced run
    # each, whose seconds are not counted.
    assert [name for name, _ in calls] == ["a", "b", "b", "a", "a", "b", "a", "b"]
    assert [traced for _, traced in calls] == [False] * 6 + [True] * 2
    assert results == {"a": "A", "b": "B"}
    assert stats["a"] == {"median_s": 2.0, "q1_s": 1.5, "q3_s": 2.5}
    # Only a call whose traced run reports a peak carries one.
    assert stats["b"] == {"median_s": 3.0, "q1_s": 2.5, "q3_s": 3.5, "peak_bytes": 7}


def test_measure_records_the_seconds_each_call_reports(bench):
    # The calls take no time: each entry holds the seconds its call reports,
    # one entry per phase for a call that reports phases.
    runs = {"a": lambda _: (5.0, None, None),
            "b": lambda _: ({"x": 1.0, "y": 2.0}, None, None)}
    stats, _ = bench._measure(runs, 3)
    assert stats == {name: {"median_s": s, "q1_s": s, "q3_s": s}
                     for name, s in (("a", 5.0), ("b.x", 1.0), ("b.y", 2.0))}


def _assert_paired(row, calls):
    # Every call ran on both trees with the same result, once per entry;
    # this tree's calls carry the ratio to the other tree's, and every call
    # its traced peak.
    assert row["equal"] is True
    assert set(row["runs"]) == calls | {"against:" + call for call in calls}
    for call in calls:
        assert row["runs"][call]["against"]["pairs"] == row["params"]["repeats"]
        assert "against" not in row["runs"]["against:" + call]
        for name in (call, "against:" + call):
            assert row["runs"][name]["peak_bytes"] > 0


def test_seeding_layer_checks_the_states(bench, workers, monkeypatch):
    monkeypatch.setattr(bench, "SEED_REPEATS", 2)
    [row] = bench.seeding_layer(workers)
    assert row["params"] == {"trials": bench.TRIALS, "repeats": 2}
    _assert_paired(row, {"vectorized", "default_rng"})


@pytest.mark.parametrize("layer, repeats, calls", [
    ("draw_layer", "DRAW_REPEATS", {"draw_trial_block", "per_trial_stacked"}),
    ("snr_layer", "SNR_REPEATS", {"received_snr"}),
])
def test_call_layers_run_on_both_trees(bench, workers, monkeypatch, layer, repeats, calls):
    monkeypatch.setattr(bench, "ELEMENTS", (8,))
    monkeypatch.setattr(bench, repeats, 2)
    [row] = getattr(bench, layer)(workers)
    assert row["params"]["num_elements"] == 8
    _assert_paired(row, calls)


def test_layer_row_is_unequal_when_a_digest_differs(bench, workers):
    row = bench._layer_row("seeds", {}, {"one": (bench._seeds, (1,)),
                                         "two": (bench._seeds, (2,))}, 2, workers)
    assert row["equal"] is False


def test_measure_compares_a_call_with_its_twin_on_the_other_tree(bench):
    runs = {"a": lambda _: (0.001, None, None), "against:a": lambda _: (0.004, None, None)}
    stats, _ = bench._measure(runs, 3)
    assert stats["a"]["against"] == {"ratio": 0.25, "wins": 3, "pairs": 3}
    assert "against" not in stats["against:a"]


def test_worker_runs_a_call_on_a_source_tree(bench, workers):
    worker = workers[""]
    for block in (3, 4):
        seconds, digest, peak = worker.call(bench._seeds, block, traced=True)
        assert digest == bench._digest(bench._seeds(block))
        assert seconds >= 0 and peak > 0
    assert bench._digest(bench._seeds(3)) != bench._digest(bench._seeds(4))


def test_worker_hashes_and_traces_only_a_traced_call(bench, workers):
    worker = workers[""]
    seconds, digest, peak = worker.call(bench._seeds, 5)
    assert seconds >= 0 and digest is None and peak is None
    # A block not drawn before, so that the call allocates.
    _, digest, peak = worker.call(bench._seeds, 6, traced=True)
    assert digest == bench._digest(bench._seeds(6)) and peak > 0


def test_layer_row_of_one_call_in_all_has_nothing_to_compare(bench, workers):
    calls = {"seeds": (bench._seeds, (1,))}
    one = bench._layer_row("seeds", {}, calls, 2, {"": workers[""]})
    assert one["equal"] is None
    assert bench._layer_row("seeds", {}, calls, 2, workers)["equal"] is True


def test_commands_name_every_preset_default_and_workload(bench):
    assert set(bench._commands()) == (set(bench.FIGURE_PRESETS) | set(bench.WORKLOADS)
                                      | {"default_workers_1", "default_workers_2"})


def test_command_layer_runs_each_command_on_both_trees(bench, workers, monkeypatch):
    tiny = {"scenario": "n_sweep", "sweep": {"grid": [2, 4]}, "num_trials": 8,
            "num_elements": 4, "algorithms": ["blind", "ao"]}
    commands = {"fig6b": ["sweep", "fig6b"],
                "tiny": ["run", json.dumps(tiny), "--workers", "2"]}
    monkeypatch.setattr(bench, "_commands", lambda: commands)
    monkeypatch.setattr(bench, "COMMAND_REPEATS", 2)
    rows = bench.command_layer(workers)
    assert [row["params"]["command"] for row in rows] == ["fig6b", "tiny"]
    for row, name in zip(rows, commands):
        _assert_paired(row, {name})


def test_command_fails_on_a_nonzero_exit_code(bench):
    with pytest.raises(RuntimeError, match="exited with code 2"):
        bench._command(["run", '{"num_trials": 0}'])


def test_startup_rows_on_one_tree_have_nothing_to_compare(bench, monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "STARTUP_REPEATS", 2)
    rows = bench.startup_layer({"": bench.SRC}, tmp_path)
    assert [row["equal"] for row in rows] == [None, None]
    assert set(rows[1]["runs"]) == {"cli_run.import", "cli_run.work", "cli_run.exit",
                                    "importtime.ris_scma.cli"}
