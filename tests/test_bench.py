"""The layer benchmark's runner and its cheapest layer.

The script is loaded by path: nothing else imports it, so a renamed private
name it imports from the package would otherwise go unnoticed.
"""

import importlib.util
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
