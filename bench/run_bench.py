"""Layer benchmark for ris_scma: the seeding, channel-draw and ascent layers.

Run from the root of a source checkout (``src`` is put on the path here):

    python3 bench/run_bench.py --output report.json

Every layer uses 256-trial blocks of campaign child seeds (``trial_seed``) and
calibrated fading (R=4, d_f=3, common-phase LoS).

* Seeding: the vectorized seed-to-stream pass that ``draw_trial_block`` runs
  (every seed's PCG64 state, set in turn on one reused generator) against
  constructing one ``np.random.default_rng`` per seed; the states must agree.
* Channel draw, at N in {16, 64, 256}: ``draw_trial_block(seeds, ...)``
  against stacking one ``draw_link_channels(np.random.default_rng(seed),
  ...)`` per seed; both start from the seeds and must give the same bytes.
* Ascent kernel, at N in {16, 64, 256}: ``optimizer._ascent`` (the kernel
  behind ``ao_optimize``/``lc_ao_optimize``) on one block's 1024 ORE rows at
  b=3, T=3, also given per element step (one update of element n on every row).

Each timing is the median of that layer's repeats.  The JSON report (medians
plus Python, numpy, BLAS and core count) goes to stdout and, with
``--output``, to that file.
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
from ris_scma.channel import (FadingConfig, Geometry, _pcg64_states,   # noqa: E402
                              _streams, draw_link_channels,
                              draw_trial_block, stack_realizations)
from ris_scma.optimizer import PhaseAlphabet, _ascent                 # noqa: E402

TRIALS = 256
ELEMENTS = (16, 64, 256)
DRAW_REPEATS = 7
SEED_REPEATS = 51
ASCENT_REPEATS = 9
ASCENT_BITS, ASCENT_SWEEPS = 3, 3
NUM_ORES, NUM_INTERFERERS = 4, 3
GEOM = Geometry(40.0, 1.5, 2.0, 2.4e9)
FADING = FadingConfig(los_phase="common", direct_loss_scale=0.0025)


def _seeds(block: int) -> list:
    return [trial_seed(block, 0, i) for i in range(TRIALS)]


def _median_seconds(run, repeats: int) -> tuple:
    """(median seconds, last result) of ``run(repeat index)``."""
    times = []
    for repeat in range(repeats):
        start = time.perf_counter()
        result = run(repeat)
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def _seed_vectorized(seeds) -> int:
    """Set the reused generator to every seed's state, as a block draw does."""
    count = 0
    for _ in _streams(_pcg64_states(seeds)):
        count += 1
    return count


def _seed_default_rng(seeds) -> list:
    return [np.random.default_rng(s) for s in seeds]


def seeding_layer() -> dict:
    # Each repeat seeds a fresh block, hashed before the clock starts; the
    # states are compared untimed.
    blocks = [_seeds(r) for r in range(SEED_REPEATS)]
    vectorized_s, _ = _median_seconds(lambda r: _seed_vectorized(blocks[r]),
                                      SEED_REPEATS)
    default_rng_s, _ = _median_seconds(lambda r: _seed_default_rng(blocks[r]),
                                       SEED_REPEATS)
    for seeds in blocks:
        states = [rng.bit_generator.state for rng in _streams(_pcg64_states(seeds))]
        if states != [rng.bit_generator.state for rng in _seed_default_rng(seeds)]:
            raise SystemExit("vectorized seeding differs from default_rng")
    print(f"seeding: vectorized {vectorized_s * 1e3:.3f} ms, default_rng "
          f"{default_rng_s * 1e3:.3f} ms per {TRIALS} seeds "
          f"({default_rng_s / vectorized_s:.1f}x), median of {SEED_REPEATS}",
          file=sys.stderr)
    return {"trials": TRIALS, "repeats": SEED_REPEATS,
            "vectorized_s": vectorized_s, "default_rng_s": default_rng_s,
            "speedup": default_rng_s / vectorized_s}


def _block(seeds, n):
    return draw_trial_block(seeds, NUM_ORES, NUM_INTERFERERS, GEOM, FADING, n)


def _per_trial(seeds, n):
    return stack_realizations([
        draw_link_channels(np.random.default_rng(s), NUM_ORES, NUM_INTERFERERS,
                           GEOM, FADING, n) for s in seeds])


def _bytes(ch) -> list:
    return [a.tobytes() for a in (ch.direct, ch.ris_to_bs, ch.user_to_ris)]


def draw_layer() -> dict:
    rows = []
    for n in ELEMENTS:
        seeds = _seeds(n)
        block_s, block = _median_seconds(lambda r: _block(seeds, n), DRAW_REPEATS)
        per_trial_s, reference = _median_seconds(lambda r: _per_trial(seeds, n),
                                                 DRAW_REPEATS)
        if _bytes(block) != _bytes(reference):
            raise SystemExit(f"draw_trial_block differs from per-trial draws at N={n}")
        rows.append({"num_elements": n, "trials": TRIALS,
                     "draw_trial_block_s": block_s,
                     "per_trial_stacked_s": per_trial_s,
                     "speedup": per_trial_s / block_s})
        print(f"N={n}: draw_trial_block {block_s:.4f} s, per-trial + stack "
              f"{per_trial_s:.4f} s ({per_trial_s / block_s:.1f}x), median of "
              f"{DRAW_REPEATS}", file=sys.stderr)
    return {"repeats": DRAW_REPEATS, "num_ores": NUM_ORES,
            "num_interferers": NUM_INTERFERERS,
            "fading": {"los_phase": FADING.los_phase,
                       "direct_loss_scale": FADING.direct_loss_scale,
                       "rician_factor": FADING.rician_factor},
            "results": rows}


def ascent_layer() -> dict:
    alphabet = PhaseAlphabet.from_bits(ASCENT_BITS)
    rows = []
    for n in ELEMENTS:
        ch = _block(_seeds(n), n)
        kernel_s, _ = _median_seconds(
            lambda r: _ascent(ch, alphabet, ASCENT_SWEEPS, None, None), ASCENT_REPEATS)
        step_us = kernel_s / (ASCENT_SWEEPS * n) * 1e6
        rows.append({"num_elements": n, "trials": TRIALS,
                     "ore_rows": ch.num_ores, "ascent_s": kernel_s,
                     "element_step_us": step_us})
        print(f"N={n}: _ascent {kernel_s * 1e3:.2f} ms per block, {step_us:.1f} us "
              f"per element step on {ch.num_ores} rows, median of {ASCENT_REPEATS}",
              file=sys.stderr)
    return {"repeats": ASCENT_REPEATS, "bits": ASCENT_BITS,
            "iterations": ASCENT_SWEEPS, "num_interferers": NUM_INTERFERERS,
            "results": rows}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpu_count": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, help="also write the report here")
    args = parser.parse_args(argv)
    report = {"layers": {"seeding": seeding_layer(), "channel_draw": draw_layer(),
                         "ascent": ascent_layer()},
              "environment": environment()}
    text = json.dumps(report, indent=2) + "\n"
    if args.output is not None:
        args.output.write_text(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
