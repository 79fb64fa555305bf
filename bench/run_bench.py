"""Layer benchmark for ris_scma: start-up, fan-out, grid point, seeding,
channel draw, ascent, SNR evaluation.

Run from the root of a source checkout (``src`` is put on the path here):

    python3 bench/run_bench.py --output report.json

Every timing comes from one runner, ``_measure``.  A row of a layer is a dict
of named zero-argument calls; each repeat runs every call once, the order
rotated by one each repeat so no call always runs first, and each result is
dropped before the next call starts so every call sees the same allocator
state.  Then every call runs once more, untimed: that result feeds the row's
equality check, and for a call that runs in this process ``tracemalloc``
gives its peak bytes.  Every row has one shape and prints as one line::

    {"params": {...}, "runs": {name: {"median_s", "q1_s", "q3_s"[, "peak_bytes"]}},
     "equal": true | false | null}

with ``null`` for a row that has nothing to compare.

* startup: fresh interpreters running ``pass``, ``import numpy`` and
  ``import ris_scma.cli``; the parameters list the standard-library modules
  the package imports beyond numpy.
* fan_out: whole campaigns at 1 and 2 workers, equal when their result bytes
  are: the benchmark's ``draw_bound_deploy`` workload (112 blocks) and the
  ``fig5b`` preset at 2000 trials (32 blocks).
* grid_point: one grid point of the benchmark's ``large_n_cached`` workload
  (``n_sweep``, 256 trials, blind and lc_ao: draw, ascent and two SNR
  evaluations) at N in {64, 128, 256}, run through ``_trial_block`` as the
  blocks ``_plan_blocks`` gives and as one 256-trial block; equal when the
  per-trial bytes are.

The seeding, channel-draw, ascent and SNR layers use 256-trial blocks of
campaign child seeds (``trial_seed``) and calibrated fading (R=4, d_f=3,
common-phase LoS), at N in {8, 16, 64, 256}.

* seeding: the vectorized seed-to-stream pass that ``draw_trial_block`` runs
  (every seed's PCG64 state, set in turn on one reused generator) against
  constructing one ``np.random.default_rng`` per seed, on a fresh block each
  repeat; equal when every block's states agree.
* channel_draw: ``draw_trial_block(seeds, ...)`` against stacking one
  ``draw_link_channels(np.random.default_rng(seed), ...)`` per seed; both
  start from the seeds, and are equal when their bytes are.
* ascent: ``ao_optimize`` (``lc_ao_optimize`` is the same function) on one
  block's 1024 ORE rows at b=3, T=3, plain and with an ``update_log``; equal
  when both select the same phases.
* snr: ``received_snr`` on one block with the kernel's selections.

The JSON report (the layers' rows plus Python, numpy, BLAS, core count and
``PYTHONDONTWRITEBYTECODE``, which decides whether each fresh process
recompiles the package) goes to stdout and, with ``--output``, to that file.
The exit code is 1 if any row's check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np                                                    # noqa: E402

from ris_scma.campaign import (_plan_blocks, _trial_block,            # noqa: E402
                               run_campaign, trial_seed)
from ris_scma.channel import (FadingConfig, Geometry, _pcg64_states,   # noqa: E402
                              draw_link_channels, draw_trial_block,
                              stack_realizations)
from ris_scma.config import config_from_document, config_hash, parse_config  # noqa: E402
from ris_scma.optimizer import PhaseAlphabet, ao_optimize, received_snr  # noqa: E402
from ris_scma.writers import (FIGURE_PRESETS, result_to_csv_text,    # noqa: E402
                              result_to_json_text)
from workloads import DEFAULT_SEED, WORKLOADS                         # noqa: E402

STARTUP_REPEATS = 25
STARTUP_CODE = {"interpreter": "pass", "numpy": "import numpy",
                "ris_scma.cli": "import ris_scma.cli"}
ADDED_MODULES_CODE = (
    "import sys\n"
    "import numpy\n"
    "before = set(sys.modules)\n"
    "import ris_scma.cli\n"
    "added = sorted(m for m in set(sys.modules) - before\n"
    "               if m.partition('.')[0] not in ('ris_scma', 'numpy'))\n"
    "print(' '.join(added))\n")
FAN_OUT_REPEATS = 7
GRID_POINT_ELEMENTS = (64, 128, 256)
GRID_POINT_REPEATS = 15
TRIALS = 256
ELEMENTS = (8, 16, 64, 256)
DRAW_REPEATS = 15
SEED_REPEATS = 51
ASCENT_REPEATS = 9
SNR_REPEATS = 15
ASCENT_BITS, ASCENT_SWEEPS = 3, 3
NUM_ORES, NUM_INTERFERERS = 4, 3
GEOM = Geometry(40.0, 1.5, 2.0, 2.4e9)
FADING = FadingConfig(los_phase="common", direct_loss_scale=0.0025)
BLOCK = {"trials": TRIALS, "num_ores": NUM_ORES, "num_interferers": NUM_INTERFERERS,
         "fading": {"los_phase": FADING.los_phase,
                    "direct_loss_scale": FADING.direct_loss_scale,
                    "rician_factor": FADING.rician_factor}}


def _measure(runs: dict, repeats: int, out_of_process=()) -> tuple:
    """Run every named zero-argument call of ``runs`` once per repeat, the
    order rotated by one each repeat and each result dropped before the next
    call, then once more untimed: ({name: {"median_s", "q1_s", "q3_s"[,
    "peak_bytes"]}}, {name: result of the untimed run}).  The untimed run is
    traced by ``tracemalloc`` unless the call is named in ``out_of_process``."""
    names = list(runs)
    times = {name: [] for name in names}
    for repeat in range(repeats):
        shift = repeat % len(names)
        for name in names[shift:] + names[:shift]:
            start = time.perf_counter()
            result = runs[name]()
            times[name].append(time.perf_counter() - start)
            del result
    stats, results = {}, {}
    for name in names:
        # With the inclusive method the middle quartile is the median.
        q1, median, q3 = statistics.quantiles(times[name], n=4, method="inclusive")
        stats[name] = {"median_s": median, "q1_s": q1, "q3_s": q3}
        if name in out_of_process:
            results[name] = runs[name]()
            continue
        tracemalloc.start()
        try:
            results[name] = runs[name]()
            stats[name]["peak_bytes"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return stats, results


def _row(layer: str, params: dict, runs: dict, repeats: int, check=None,
         out_of_process=()) -> dict:
    """Measure one row and print it as one line.  ``check(results)`` compares
    the results of the untimed runs; ``equal`` is None without one."""
    stats, results = _measure(runs, repeats, out_of_process)
    row = {"params": {**params, "repeats": repeats}, "runs": stats,
           "equal": None if check is None else bool(check(results))}
    scalars = ", ".join(f"{key}={value}" for key, value in row["params"].items()
                        if isinstance(value, (int, float, str)))
    timings = "; ".join(
        f"{name} {s['median_s'] * 1e3:.3f} ms [{s['q1_s'] * 1e3:.3f}, "
        f"{s['q3_s'] * 1e3:.3f}]"
        + (f" peak {s['peak_bytes'] / 1e6:.2f} MB" if "peak_bytes" in s else "")
        for name, s in stats.items())
    verdict = {None: "", True: " | equal", False: " | NOT EQUAL"}[row["equal"]]
    print(f"{layer}: {scalars} | {timings}{verdict}", file=sys.stderr)
    return row


def _seeds(block: int) -> list:
    return [trial_seed(block, 0, i) for i in range(TRIALS)]


def _python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)


def startup_layer() -> list:
    added = _python(ADDED_MODULES_CODE).stdout.split()
    runs = {name: lambda code=code: _python(code) for name, code in STARTUP_CODE.items()}
    return [_row("startup", {"stdlib_modules_added_beyond_numpy": added}, runs,
                 STARTUP_REPEATS, out_of_process=tuple(runs))]


def _fan_out_campaigns() -> dict:
    deploy = parse_config(WORKLOADS["draw_bound_deploy"].config_text(DEFAULT_SEED))
    fig5b = config_from_document({**FIGURE_PRESETS["fig5b"], "num_trials": 2000})
    return {"draw_bound_deploy": deploy, "fig5b_2000_trials": fig5b}


def _campaign_bytes(cfg, workers: int) -> tuple:
    result = run_campaign(replace(cfg.campaign, workers=workers),
                          config_hash=config_hash(cfg))
    return result_to_csv_text(result), result_to_json_text(result)


def fan_out_layer() -> list:
    # One worker runs the campaign in this process; two fork two children.
    return [_row("fan_out", {"campaign": name, "blocks": len(_plan_blocks(cfg.campaign))},
                 {"one_worker": lambda cfg=cfg: _campaign_bytes(cfg, 1),
                  "two_workers": lambda cfg=cfg: _campaign_bytes(cfg, 2)},
                 FAN_OUT_REPEATS, check=lambda r: r["one_worker"] == r["two_workers"],
                 out_of_process=("two_workers",))
            for name, cfg in _fan_out_campaigns().items()]


def _planned_blocks(campaign) -> dict:
    parts = [_trial_block(campaign, *block) for block in _plan_blocks(campaign)]
    return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}


def _one_block(campaign) -> dict:
    return _trial_block(campaign, (0,), 0, campaign.num_trials)


def _same_trials(results) -> bool:
    return all(results["planned"][key].tobytes() == per_trial.tobytes()
               for key, per_trial in results["one_block"].items())


def grid_point_layer() -> list:
    base = parse_config(WORKLOADS["large_n_cached"].config_text(DEFAULT_SEED)).campaign
    rows = []
    for n in GRID_POINT_ELEMENTS:
        campaign = replace(base, sweep_grid=(n,))
        rows.append(_row(
            "grid_point",
            {"workload": "large_n_cached", "algorithms": list(base.algorithms),
             "num_elements": n, "trials": campaign.num_trials,
             "planned_blocks": len(_plan_blocks(campaign))},
            {"planned": lambda: _planned_blocks(campaign),
             "one_block": lambda: _one_block(campaign)},
            GRID_POINT_REPEATS, check=_same_trials))
    return rows


def _seed_vectorized(seeds) -> int:
    """Set the reused generator to every seed's state, as a block draw does."""
    rng = np.random.Generator(np.random.PCG64(0))
    states = _pcg64_states(seeds)
    for state in states:
        rng.bit_generator.state = state
    return len(states)


def _seed_default_rng(seeds) -> list:
    return [np.random.default_rng(s) for s in seeds]


def seeding_layer() -> list:
    # Each call seeds a fresh block per repeat, hashed before the clock
    # starts, and one more for the untimed run; every block's states are
    # compared.
    blocks = [_seeds(r) for r in range(SEED_REPEATS + 1)]
    vectorized, default_rng = iter(blocks), iter(blocks)
    return [_row("seeding", {"trials": TRIALS},
                 {"vectorized": lambda: _seed_vectorized(next(vectorized)),
                  "default_rng": lambda: _seed_default_rng(next(default_rng))},
                 SEED_REPEATS, check=lambda _: _same_states(blocks))]


def _same_states(blocks) -> bool:
    return all(_pcg64_states(seeds) == [rng.bit_generator.state
                                        for rng in _seed_default_rng(seeds)]
               for seeds in blocks)


def _block(seeds, n):
    return draw_trial_block(seeds, NUM_ORES, NUM_INTERFERERS, GEOM, FADING, n)


def _per_trial(seeds, n):
    return stack_realizations([
        draw_link_channels(np.random.default_rng(s), NUM_ORES, NUM_INTERFERERS,
                           GEOM, FADING, n) for s in seeds])


def _arrays(ch) -> tuple:
    return ch.direct, ch.ris_to_bs, ch.user_to_ris


def draw_layer() -> list:
    rows = []
    for n in ELEMENTS:
        seeds = _seeds(n)
        rows.append(_row(
            "channel_draw",
            {**BLOCK, "num_elements": n,
             "output_bytes": sum(a.nbytes for a in _arrays(_block(seeds, n)))},
            {"draw_trial_block": lambda: _block(seeds, n),
             "per_trial_stacked": lambda: _per_trial(seeds, n)},
            DRAW_REPEATS,
            check=lambda r: all(a.tobytes() == b.tobytes() for a, b in zip(
                _arrays(r["draw_trial_block"]), _arrays(r["per_trial_stacked"])))))
    return rows


def ascent_layer() -> list:
    alphabet = PhaseAlphabet.from_bits(ASCENT_BITS)
    rows = []
    for n in ELEMENTS:
        ch = _block(_seeds(n), n)
        rows.append(_row(
            "ascent",
            {**BLOCK, "num_elements": n, "ore_rows": ch.num_ores,
             "bits": ASCENT_BITS, "iterations": ASCENT_SWEEPS},
            {"ao_optimize": lambda: ao_optimize(ch, alphabet, ASCENT_SWEEPS),
             "ao_optimize_logged": lambda: ao_optimize(ch, alphabet, ASCENT_SWEEPS,
                                                       update_log=[])},
            ASCENT_REPEATS,
            check=lambda r: np.array_equal(r["ao_optimize"].indices,
                                           r["ao_optimize_logged"].indices)))
    return rows


def snr_layer() -> list:
    alphabet = PhaseAlphabet.from_bits(ASCENT_BITS)
    rows = []
    for n in ELEMENTS:
        ch = _block(_seeds(n), n)
        phases = ao_optimize(ch, alphabet, ASCENT_SWEEPS)
        rows.append(_row(
            "snr",
            {**BLOCK, "num_elements": n, "ore_rows": ch.num_ores,
             "bits": ASCENT_BITS, "iterations": ASCENT_SWEEPS},
            {"received_snr": lambda: received_snr(ch, phases, FADING)},
            SNR_REPEATS))
    return rows


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpu_count": os.cpu_count(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, help="also write the report here")
    args = parser.parse_args(argv)
    # Fan-out runs before the big draws, so its children fork from a small
    # process.
    layers = {"startup": startup_layer(), "fan_out": fan_out_layer(),
              "grid_point": grid_point_layer(), "seeding": seeding_layer(),
              "channel_draw": draw_layer(), "ascent": ascent_layer(),
              "snr": snr_layer()}
    text = json.dumps({"layers": layers, "environment": environment()}, indent=2) + "\n"
    if args.output is not None:
        args.output.write_text(text)
    sys.stdout.write(text)
    failed = [f"{layer}[{i}]" for layer, rows in layers.items()
              for i, row in enumerate(rows) if row["equal"] is False]
    if failed:
        print(f"checks failed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
