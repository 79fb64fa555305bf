"""Stored golden outputs: each ``tests/golden/<scenario>/config.json`` is rerun
through ``ris-scma run`` and must reproduce the stored ``results.csv`` and
``results.json`` byte for byte.

Unlike a rerun-vs-rerun comparison, this catches a refactor that shifts every
number the same way.  Together the configs cover every scenario and every
algorithm (blind, ao, lc_ao, no_ris, exhaustive at N <= 4) and both average
modes.  ``fan_out_ragged`` runs two groups of two blocks each, the second
block short (300 trials), on two forked workers; ``chunked_kernel`` runs the
ascent kernel at N = 128 on 256 ORE rows, whose cascaded paths exceed the
scratch budget and are processed in two element chunks, and its SNR
evaluations contract the elements in two chunks too.  ``random_los`` runs
random LoS phases at N = 16 and 24, ``no_direct_link`` a campaign with
``direct_loss_scale`` = 0, ``high_bits`` b = 5 and 8 at N = 4, and
``wide_ores`` a d_f = 4 layout (10 users on 5 OREs, 2 OREs each).

``pure_los`` pins K = inf, which no config document can set (a document's
numbers are finite): its ``base.json`` is run with the Rician factor
replaced by infinity, through the library rather than the command line.
Regenerate a file only for a change that is meant to alter results.
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from ris_scma.campaign import SCENARIOS as ALL_SCENARIOS
from ris_scma.campaign import run_campaign
from ris_scma.cli import main
from ris_scma.config import parse_config
from ris_scma.writers import write_results

GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = sorted(p.name for p in GOLDEN.iterdir() if (p / "config.json").exists())
PURE_LOS = GOLDEN / "pure_los"


def test_golden_covers_every_scenario():
    covered = {json.loads((GOLDEN / case / "config.json").read_text())["scenario"]
               for case in SCENARIOS}
    assert covered == set(ALL_SCENARIOS)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_golden_outputs_reproduce_byte_for_byte(scenario, tmp_path):
    case = GOLDEN / scenario
    assert main(["run", str(case / "config.json"), "--output-dir", str(tmp_path)]) == 0
    for name in ("results.csv", "results.json"):
        assert (tmp_path / name).read_bytes() == (case / name).read_bytes(), name


def test_pure_los_golden_reproduces_byte_for_byte(tmp_path):
    cfg = parse_config((PURE_LOS / "base.json").read_text())
    base = cfg.campaign
    campaign = replace(base, fading=replace(base.fading, rician_factor=math.inf))
    write_results(run_campaign(campaign), str(tmp_path), cfg.output_formats)
    for name in ("results.csv", "results.json"):
        assert (tmp_path / name).read_bytes() == (PURE_LOS / name).read_bytes(), name
