"""Stored golden outputs: each ``tests/golden/<scenario>/config.json`` is rerun
through ``ris-scma run`` and must reproduce the stored ``results.csv`` and
``results.json`` byte for byte.

Unlike a rerun-vs-rerun comparison, this catches a refactor that shifts every
number the same way.  Together the configs cover every scenario and every
algorithm (blind, ao, lc_ao, no_ris, exhaustive at N <= 4) and both average
modes.  Regenerate a file only for a change that is meant to alter results.
"""

from pathlib import Path

import pytest

from ris_scma.campaign import SCENARIOS as ALL_SCENARIOS
from ris_scma.cli import main

GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = sorted(p.name for p in GOLDEN.iterdir() if (p / "config.json").exists())


def test_golden_covers_every_scenario():
    assert SCENARIOS == sorted(ALL_SCENARIOS)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_golden_outputs_reproduce_byte_for_byte(scenario, tmp_path):
    case = GOLDEN / scenario
    assert main(["run", str(case / "config.json"), "--output-dir", str(tmp_path)]) == 0
    for name in ("results.csv", "results.json"):
        assert (tmp_path / name).read_bytes() == (case / name).read_bytes(), name
