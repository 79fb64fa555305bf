"""The layer benchmark's runner and its cheapest layer.

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


def test_measure_rotates_the_calls_and_gives_quartiles(bench):
    calls = []
    runs = {"a": lambda: calls.append("a") or "A",
            "b": lambda: calls.append("b") or "B"}
    stats, results = bench._measure(runs, 3, out_of_process=("b",))
    # Three timed repeats, each rotated by one, then one untimed run each.
    assert calls == ["a", "b", "b", "a", "a", "b", "a", "b"]
    assert results == {"a": "A", "b": "B"}
    for s in stats.values():
        assert 0 <= s["q1_s"] <= s["median_s"] <= s["q3_s"]
    assert stats["a"]["peak_bytes"] >= 0
    assert "peak_bytes" not in stats["b"]


def test_seeding_layer_checks_the_states(bench, monkeypatch):
    monkeypatch.setattr(bench, "SEED_REPEATS", 2)
    [row] = bench.seeding_layer()
    assert row["params"] == {"trials": bench.TRIALS, "repeats": 2}
    assert set(row["runs"]) == {"vectorized", "default_rng"}
    assert row["equal"] is True


def test_measure_compares_a_call_with_its_twin_on_the_other_tree(bench):
    runs = {"a": lambda: None, "against:a": lambda: time.sleep(0.002)}
    stats, _ = bench._measure(runs, 3, out_of_process=tuple(runs))
    assert stats["a"]["against"]["wins"] == 3 and stats["a"]["against"]["pairs"] == 3
    assert stats["a"]["against"]["ratio"] < 1
    assert "against" not in stats["against:a"]


def test_worker_runs_a_call_on_a_source_tree(bench):
    worker = bench._Worker(bench.SRC)
    try:
        reply = worker.call(bench._seeds, 3)
    finally:
        worker.close()
    assert reply.digest == bench._digest(bench._seeds(3))
    assert reply["run"] >= 0
