"""Layer benchmark for ris_scma: the channel-draw layer.

Run from the root of a source checkout (``src`` is put on the path here):

    python3 bench/run_bench.py --output report.json

For 256-trial blocks at N in {16, 64, 256} (calibrated fading: R=4, d_f=3,
common-phase LoS) it times the block draw ``draw_trial_block`` against
stacking one ``draw_link_channels`` per trial, and checks that both give the
same bytes.  Each timing is the median of REPEATS runs; the generators are
built outside the timed region, since both paths consume the same streams.
The JSON report (medians plus Python, numpy, BLAS and core count) goes to
stdout and, with ``--output``, to that file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np                                                    # noqa: E402

from ris_scma.campaign import trial_seed                               # noqa: E402
from ris_scma.channel import (FadingConfig, Geometry, draw_link_channels,  # noqa: E402
                              draw_trial_block, stack_realizations)

TRIALS = 256
ELEMENTS = (16, 64, 256)
REPEATS = 7
NUM_ORES, NUM_INTERFERERS = 4, 3
GEOM = Geometry(40.0, 1.5, 2.0, 2.4e9)
FADING = FadingConfig(los_phase="common", direct_loss_scale=0.0025)


def _generators(n: int) -> list:
    return [np.random.default_rng(trial_seed(n, 0, i)) for i in range(TRIALS)]


def _block(rngs, n):
    return draw_trial_block(rngs, NUM_ORES, NUM_INTERFERERS, GEOM, FADING, n)


def _per_trial(rngs, n):
    return stack_realizations([draw_link_channels(g, NUM_ORES, NUM_INTERFERERS,
                                                  GEOM, FADING, n) for g in rngs])


def _median_seconds(draw, n: int) -> tuple:
    """(median seconds, last realization) over REPEATS fresh-stream draws."""
    times = []
    for _ in range(REPEATS):
        rngs = _generators(n)
        start = time.perf_counter()
        ch = draw(rngs, n)
        times.append(time.perf_counter() - start)
    return statistics.median(times), ch


def _bytes(ch) -> list:
    return [a.tobytes() for a in (ch.direct, ch.ris_to_bs, ch.user_to_ris)]


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpu_count": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, help="also write the report here")
    args = parser.parse_args(argv)
    rows = []
    for n in ELEMENTS:
        block_s, block = _median_seconds(_block, n)
        per_trial_s, reference = _median_seconds(_per_trial, n)
        if _bytes(block) != _bytes(reference):
            raise SystemExit(f"draw_trial_block differs from per-trial draws at N={n}")
        rows.append({"num_elements": n, "trials": TRIALS,
                     "draw_trial_block_s": block_s,
                     "per_trial_stacked_s": per_trial_s,
                     "speedup": per_trial_s / block_s})
        print(f"N={n}: draw_trial_block {block_s:.4f} s, per-trial + stack "
              f"{per_trial_s:.4f} s ({per_trial_s / block_s:.1f}x), median of "
              f"{REPEATS}", file=sys.stderr)
    report = {"layer": "channel_draw", "repeats": REPEATS,
              "num_ores": NUM_ORES, "num_interferers": NUM_INTERFERERS,
              "fading": {"los_phase": FADING.los_phase,
                         "direct_loss_scale": FADING.direct_loss_scale,
                         "rician_factor": FADING.rician_factor},
              "results": rows, "environment": environment()}
    text = json.dumps(report, indent=2) + "\n"
    if args.output is not None:
        args.output.write_text(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
