"""The layer benchmark's runner, its worker interpreters and its cheapest
call-level layers.

The script is loaded by path: nothing else imports it, so a renamed private
name it imports from the package would otherwise go unnoticed.
"""

import importlib.util
import sys
import time
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
    runs = {"a": lambda traced: calls.append(("a", traced)) or "A",
            "b": lambda traced: calls.append(("b", traced)) or bench._Reply(0.0, "B", 7)}
    stats, results = bench._measure(runs, 3)
    # Three timed repeats, each rotated by one, then one untimed, traced run each.
    assert [name for name, _ in calls] == ["a", "b", "b", "a", "a", "b", "a", "b"]
    assert [traced for _, traced in calls] == [False] * 6 + [True] * 2
    assert results["a"] == "A" and results["b"].digest == "B"
    for s in stats.values():
        assert 0 <= s["q1_s"] <= s["median_s"] <= s["q3_s"]
    # Only a worker's reply carries a peak.
    assert "peak_bytes" not in stats["a"]
    assert stats["b"]["peak_bytes"] == 7


def _assert_paired(row, calls):
    # Every call ran on both trees with the same result; this tree's calls
    # and their timed phases carry the ratio to the other tree's, and every
    # call its traced peak.
    assert row["equal"] is True
    both = calls | {"against:" + call for call in calls}
    assert set(row["runs"]) == both | {name + ".run" for name in both}
    for call in calls:
        for name in (call, call + ".run"):
            assert row["runs"][name]["against"]["pairs"] == row["params"]["repeats"]
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
    runs = {"a": lambda _: None, "against:a": lambda _: time.sleep(0.002)}
    stats, _ = bench._measure(runs, 3)
    assert stats["a"]["against"]["wins"] == 3 and stats["a"]["against"]["pairs"] == 3
    assert stats["a"]["against"]["ratio"] < 1
    assert "against" not in stats["against:a"]


def test_worker_runs_a_call_on_a_source_tree(bench, workers):
    worker = workers[""]
    reply = worker.call(bench._seeds, 3)
    traced = worker.call(bench._seeds, 4, traced=True)
    assert reply.digest == bench._digest(bench._seeds(3))
    assert traced.digest == bench._digest(bench._seeds(4))
    assert reply["run"] >= 0 and reply.peak_bytes is None
    assert traced.peak_bytes > 0
