"""Layer benchmark for ris_scma: start-up, fan-out, seeding, channel draw,
ascent, SNR evaluation.

Run from the root of a source checkout (``src`` is put on the path here):

    python3 bench/run_bench.py --output report.json

* Start-up: fresh interpreters running ``pass``, ``import numpy`` and
  ``import ris_scma.cli``, in alternating order, with the medians and the
  standard-library modules the package imports beyond numpy.
* Fan-out: whole campaigns in this process at 1 and 2 workers, alternating,
  with their result bytes compared: the benchmark's ``draw_bound_deploy``
  workload (112 blocks) and the ``fig5b`` preset at 2000 trials (32 blocks).

The seeding, channel-draw, ascent and SNR layers use 256-trial blocks of
campaign child seeds (``trial_seed``) and calibrated fading (R=4, d_f=3,
common-phase LoS), at N in {8, 16, 64, 256}.

* Seeding: the vectorized seed-to-stream pass that ``draw_trial_block`` runs
  (every seed's PCG64 state, set in turn on one reused generator) against
  constructing one ``np.random.default_rng`` per seed; the states must agree.
* Channel draw: ``draw_trial_block(seeds, ...)`` against stacking one
  ``draw_link_channels(np.random.default_rng(seed), ...)`` per seed; both
  start from the seeds and must give the same bytes (compared untimed).
  Each timed call drops its result before the next starts, so every call
  sees the same allocator state, and the median of its minor page faults
  (``ru_minflt``) is reported beside its median time.  Each block draw's
  ``tracemalloc`` peak (one untimed run) is given with its output bytes.
* Ascent kernel: ``optimizer._ascent`` (the kernel behind
  ``ao_optimize``/``lc_ao_optimize``) on one block's 1024 ORE rows at b=3,
  T=3, also given per element step (one update of element n on every row),
  with its ``tracemalloc`` peak (one untimed run).
* SNR evaluation: ``received_snr`` on one block with the kernel's
  selections, median time and ``tracemalloc`` peak.

Each timing is the median of that layer's repeats.  The JSON report (medians
plus Python, numpy, BLAS, core count and ``PYTHONDONTWRITEBYTECODE``, which
decides whether each fresh process recompiles the package) goes to stdout and,
with ``--output``, to that file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
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

from ris_scma.campaign import _plan_blocks, run_campaign, trial_seed   # noqa: E402
from ris_scma.channel import (FadingConfig, Geometry, _pcg64_states,   # noqa: E402
                              draw_link_channels, draw_trial_block,
                              stack_realizations)
from ris_scma.cli import FIGURE_PRESETS                                # noqa: E402
from ris_scma.config import config_from_document, config_hash, parse_config  # noqa: E402
from ris_scma.optimizer import PhaseAlphabet, _ascent, received_snr   # noqa: E402
from ris_scma.writers import result_to_csv_text, result_to_json_text  # noqa: E402
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


def _seeds(block: int) -> list:
    return [trial_seed(block, 0, i) for i in range(TRIALS)]


def _median_calls(run, repeats: int) -> tuple:
    """(median seconds, median minor page faults) of ``run(repeat index)``;
    each result is dropped before the next call starts, so every call sees
    the same allocator state."""
    times, faults = [], []
    for repeat in range(repeats):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        run(repeat)
        times.append(time.perf_counter() - start)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return statistics.median(times), statistics.median(faults)


def _python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)


def startup_layer() -> dict:
    times = {name: [] for name in STARTUP_CODE}
    names = list(STARTUP_CODE)
    for repeat in range(STARTUP_REPEATS):
        # Rotate the order so no kind always runs first after a pause.
        for name in names[repeat % 3:] + names[:repeat % 3]:
            start = time.perf_counter()
            _python(STARTUP_CODE[name])
            times[name].append(time.perf_counter() - start)
    medians = {name: statistics.median(t) for name, t in times.items()}
    added = _python(ADDED_MODULES_CODE).stdout.split()
    print("start-up: " + ", ".join(f"{name} {s * 1e3:.1f} ms"
                                   for name, s in medians.items())
          + f", median of {STARTUP_REPEATS}; the package adds {len(added)} "
          "stdlib modules beyond numpy", file=sys.stderr)
    return {"repeats": STARTUP_REPEATS,
            "median_s": medians,
            "numpy_over_interpreter_s": medians["numpy"] - medians["interpreter"],
            "package_over_numpy_s": medians["ris_scma.cli"] - medians["numpy"],
            "stdlib_modules_added_beyond_numpy": added}


def _fan_out_campaigns() -> dict:
    deploy = parse_config(WORKLOADS["draw_bound_deploy"].config_text(DEFAULT_SEED))
    fig5b = config_from_document({**FIGURE_PRESETS["fig5b"], "num_trials": 2000})
    return {"draw_bound_deploy": deploy, "fig5b_2000_trials": fig5b}


def _campaign_bytes(cfg, workers: int) -> tuple:
    result = run_campaign(replace(cfg.campaign, workers=workers),
                          config_hash=config_hash(cfg))
    return result_to_csv_text(result), result_to_json_text(result)


def fan_out_layer() -> dict:
    rows = []
    for name, cfg in _fan_out_campaigns().items():
        times, outputs = {1: [], 2: []}, {}
        for repeat in range(FAN_OUT_REPEATS):
            for workers in ((1, 2) if repeat % 2 == 0 else (2, 1)):
                start = time.perf_counter()
                outputs[workers] = _campaign_bytes(cfg, workers)
                times[workers].append(time.perf_counter() - start)
        if outputs[1] != outputs[2]:
            raise SystemExit(f"{name}: 1- and 2-worker result bytes differ")
        one, two = statistics.median(times[1]), statistics.median(times[2])
        rows.append({"campaign": name, "blocks": len(_plan_blocks(cfg.campaign)),
                     "one_worker_s": one, "two_workers_s": two,
                     "speedup": one / two, "bytes_equal": True})
        print(f"{name}: 1 worker {one:.3f} s, 2 workers {two:.3f} s "
              f"({one / two:.2f}x), median of {FAN_OUT_REPEATS}, bytes equal",
              file=sys.stderr)
    return {"repeats": FAN_OUT_REPEATS, "results": rows}


def _seed_vectorized(seeds) -> int:
    """Set the reused generator to every seed's state, as a block draw does."""
    rng = np.random.Generator(np.random.PCG64(0))
    states = _pcg64_states(seeds)
    for state in states:
        rng.bit_generator.state = state
    return len(states)


def _seed_default_rng(seeds) -> list:
    return [np.random.default_rng(s) for s in seeds]


def seeding_layer() -> dict:
    # Each repeat seeds a fresh block, hashed before the clock starts; the
    # states are compared untimed.
    blocks = [_seeds(r) for r in range(SEED_REPEATS)]
    vectorized_s, _ = _median_calls(lambda r: _seed_vectorized(blocks[r]),
                                    SEED_REPEATS)
    default_rng_s, _ = _median_calls(lambda r: _seed_default_rng(blocks[r]),
                                     SEED_REPEATS)
    for seeds in blocks:
        if _pcg64_states(seeds) != [rng.bit_generator.state
                                    for rng in _seed_default_rng(seeds)]:
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


def _traced_peak_bytes(run) -> int:
    """Peak bytes ``tracemalloc`` sees allocated during ``run()``."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def draw_layer() -> dict:
    rows = []
    for n in ELEMENTS:
        seeds = _seeds(n)
        block = _block(seeds, n)
        if _bytes(block) != _bytes(_per_trial(seeds, n)):
            raise SystemExit(f"draw_trial_block differs from per-trial draws at N={n}")
        output_bytes = block.direct.nbytes + block.ris_to_bs.nbytes + block.user_to_ris.nbytes
        del block
        block_s, block_faults = _median_calls(lambda r: _block(seeds, n), DRAW_REPEATS)
        per_trial_s, _ = _median_calls(lambda r: _per_trial(seeds, n), DRAW_REPEATS)
        peak = _traced_peak_bytes(lambda: _block(seeds, n))
        rows.append({"num_elements": n, "trials": TRIALS,
                     "draw_trial_block_s": block_s,
                     "draw_trial_block_minor_faults": block_faults,
                     "draw_trial_block_peak_bytes": peak,
                     "output_bytes": output_bytes,
                     "per_trial_stacked_s": per_trial_s,
                     "speedup": per_trial_s / block_s})
        print(f"N={n}: draw_trial_block {block_s * 1e3:.2f} ms ({block_faults:.0f} page "
              f"faults, peak {peak / 1e6:.2f} MB for {output_bytes / 1e6:.2f} MB of output), "
              f"per-trial + stack {per_trial_s * 1e3:.2f} ms ({per_trial_s / block_s:.1f}x), "
              f"median of {DRAW_REPEATS}", file=sys.stderr)
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
        kernel_s, _ = _median_calls(
            lambda r: _ascent(ch, alphabet, ASCENT_SWEEPS, None, None), ASCENT_REPEATS)
        peak = _traced_peak_bytes(lambda: _ascent(ch, alphabet, ASCENT_SWEEPS, None, None))
        step_us = kernel_s / (ASCENT_SWEEPS * n) * 1e6
        rows.append({"num_elements": n, "trials": TRIALS,
                     "ore_rows": ch.num_ores, "ascent_s": kernel_s,
                     "element_step_us": step_us, "peak_bytes": peak})
        print(f"N={n}: _ascent {kernel_s * 1e3:.2f} ms per block, {step_us:.1f} us "
              f"per element step on {ch.num_ores} rows, peak {peak / 1e6:.2f} MB, "
              f"median of {ASCENT_REPEATS}", file=sys.stderr)
    return {"repeats": ASCENT_REPEATS, "bits": ASCENT_BITS,
            "iterations": ASCENT_SWEEPS, "num_interferers": NUM_INTERFERERS,
            "results": rows}


def snr_layer() -> dict:
    alphabet = PhaseAlphabet.from_bits(ASCENT_BITS)
    rows = []
    for n in ELEMENTS:
        ch = _block(_seeds(n), n)
        phases = _ascent(ch, alphabet, ASCENT_SWEEPS, None, None)
        snr_s, _ = _median_calls(lambda r: received_snr(ch, phases, FADING), SNR_REPEATS)
        peak = _traced_peak_bytes(lambda: received_snr(ch, phases, FADING))
        rows.append({"num_elements": n, "trials": TRIALS, "ore_rows": ch.num_ores,
                     "received_snr_s": snr_s, "peak_bytes": peak})
        print(f"N={n}: received_snr {snr_s * 1e3:.3f} ms per block, peak "
              f"{peak / 1e6:.2f} MB, median of {SNR_REPEATS}", file=sys.stderr)
    return {"repeats": SNR_REPEATS, "bits": ASCENT_BITS, "results": rows}


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
    # Fan-out runs before the big draws, so the pool forks a small process.
    report = {"layers": {"startup": startup_layer(), "fan_out": fan_out_layer(),
                         "seeding": seeding_layer(), "channel_draw": draw_layer(),
                         "ascent": ascent_layer(), "snr": snr_layer()},
              "environment": environment()}
    text = json.dumps(report, indent=2) + "\n"
    if args.output is not None:
        args.output.write_text(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
