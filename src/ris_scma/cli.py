"""Command-line front end.

Verbs: ``run <config>`` (full campaign from a JSON config), ``sweep
<figure_id>`` (preset desk-scale experiments), ``verify-complexity <grid>``
(measured vs closed-form operation counts), ``selftest`` (oracle-equivalence
suite at small N).  Exit code 0 on success; on failure one machine-readable
JSON error line goes to stderr and the exit code is nonzero.

The environment variable ``RIS_SCMA_OUTPUT_DIR`` overrides the output
directory; ``--seed`` overrides the master seed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from .campaign import run_campaign, trial_seed
from .channel import (FadingConfig, Geometry, draw_link_channels,
                      draw_trial_block, stack_realizations)
from .config import DEFAULTS, ConfigError, config_from_document, config_hash, parse_config
from .opcount import measured_run, predicted_ao, predicted_lc_ao
from .optimizer import (PhaseAlphabet, ao_optimize, blind_phases,
                        exhaustive_optimize, received_snr, snr_decomposition)
from .writers import FIGURE_PRESETS, emit_plot_data, write_results

OUTPUT_DIR_ENV = "RIS_SCMA_OUTPUT_DIR"

GEOMETRY = Geometry(**DEFAULTS["geometry"])

# Keys in (R, N, b, d_f, T) order: a grid's values give each cell's.
DEFAULT_COMPLEXITY_GRID = {
    "num_ores": [1, 4],
    "num_elements": [1, 2, 8, 16],
    "phase_bits": [1, 2, 3],
    "num_interferers": [1, 3],
    "iterations": [1, 3],
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        _error_line("config", str(exc))
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        _error_line(type(exc).__name__, str(exc))
        return 1


def _error_line(kind: str, message: str) -> None:
    print(json.dumps({"error": {"type": kind, "message": message}}),
          file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ris-scma",
        description="Monte Carlo experiments for discrete RIS phase optimization "
                    "over an uplink SCMA link.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run a campaign from a JSON config file")
    p_run.add_argument("config", help="path to the config document")
    _common_flags(p_run)
    p_run.set_defaults(handler=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a preset figure experiment")
    p_sweep.add_argument("figure_id", choices=sorted(FIGURE_PRESETS))
    p_sweep.add_argument("--trials", type=int, default=None,
                         help="override the preset trial count")
    _common_flags(p_sweep)
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_ver = sub.add_parser("verify-complexity",
                           help="measured vs closed-form operation counts")
    p_ver.add_argument("grid", help="'default' or a JSON file with axis lists")
    p_ver.set_defaults(handler=_cmd_verify)

    p_self = sub.add_parser("selftest",
                            help="oracle-equivalence checks at small N")
    p_self.set_defaults(handler=_cmd_selftest)
    return parser


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="override master_seed")
    p.add_argument("--output-dir", default=None,
                   help=f"output directory (also settable via {OUTPUT_DIR_ENV})")
    p.add_argument("--workers", type=int, default=None,
                   help="override the worker count")


def _resolve_output_dir(cfg_dir: str, args) -> str:
    if args.output_dir is not None:
        return args.output_dir
    return os.environ.get(OUTPUT_DIR_ENV, cfg_dir)


def _run(cfg, args, figure_id=None) -> int:
    result = run_campaign(cfg.campaign, config_hash=config_hash(cfg))
    out_dir = _resolve_output_dir(cfg.output_directory, args)
    paths = write_results(result, out_dir, cfg.output_formats)
    if figure_id is not None:
        paths += emit_plot_data(result, figure_id, out_dir)
    for path in paths:
        print(path)
    return 0


def _overrides(args) -> dict:
    flags = {"master_seed": args.seed, "workers": args.workers}
    return {key: value for key, value in flags.items() if value is not None}


def _cmd_run(args) -> int:
    path = Path(args.config)
    if not path.exists():
        raise OSError(f"config file not found: {path}")
    return _run(parse_config(path.read_text(), _overrides(args)), args)


def _cmd_sweep(args) -> int:
    doc = FIGURE_PRESETS[args.figure_id]
    if args.trials is not None:
        doc = {**doc, "num_trials": args.trials}
    cfg = config_from_document(doc, _overrides(args))
    return _run(cfg, args, figure_id=args.figure_id)


def _cmd_verify(args) -> int:
    if args.grid == "default":
        grid = DEFAULT_COMPLEXITY_GRID
    else:
        grid = json.loads(Path(args.grid).read_text())
        if not isinstance(grid, dict):
            raise ValueError(f"complexity grid must be a JSON object, got {grid!r}")
        unknown = set(grid) - set(DEFAULT_COMPLEXITY_GRID)
        if unknown:
            raise ValueError(f"unknown grid axes: {sorted(unknown)}")
        for axis, values in grid.items():
            if not (isinstance(values, list) and values and all(
                    type(v) is int and v >= 1 for v in values)):
                raise ValueError(f"grid axis {axis!r} must be a non-empty list "
                                 f"of positive integers, got {values!r}")
        grid = {**DEFAULT_COMPLEXITY_GRID, **grid}
    mismatches = 0
    for ok, line in _count_checks(itertools.product(*grid.values())):
        mismatches += not ok
        print(line)
    print(f"verify-complexity: {mismatches} mismatches")
    return 0 if mismatches == 0 else 1


def _count_checks(cells):
    """(ok, line) comparing measured and closed-form ao and lc_ao counts on
    each (R, N, b, d_f, T) cell; counts do not depend on channel values."""
    for r, n, b, df, t in cells:
        rng = np.random.default_rng(trial_seed(0, 0, r * 1000 + n))
        ch = draw_link_channels(rng, r, df, GEOMETRY, FadingConfig(), n)
        alphabet = PhaseAlphabet.from_bits(b)
        for kind, predict in (("ao", predicted_ao), ("lc_ao", predicted_lc_ao)):
            _, measured = measured_run(kind, ch, alphabet, t)
            expected = predict(r, n, b, df, t)
            ok = measured == expected
            yield ok, (f"{'ok' if ok else 'MISMATCH'} {kind:5s} R={r} N={n} b={b} d_f={df} "
                       f"T={t} adds={measured.real_additions}/{expected.real_additions} "
                       f"mults={measured.real_multiplications}/{expected.real_multiplications}")


def _cmd_selftest(args) -> int:
    fading = FadingConfig()
    failures = 0

    # d_f up to 6 and mostly R != N: shapes past the calibrated d_f = 3, on
    # which the kernel's element-major layout and its sum over d_f are checked.
    rng = np.random.default_rng(20240601)
    mismatch = 0
    for _ in range(60):
        n = int(rng.integers(1, 9))
        b = int(rng.integers(1, 4))
        df = int(rng.integers(1, 7))
        r = int(rng.integers(1, 5))
        t = int(rng.integers(1, 4))
        ch = draw_link_channels(rng, r, df, GEOMETRY, fading, n)
        mismatch += _counted_mismatches(ch, PhaseAlphabet.from_bits(b), t)
    failures += _report("vectorized and both counted selections identical "
                        "(60 draws, d_f <= 6)", mismatch == 0)

    bad = 0
    alphabet = PhaseAlphabet.from_bits(2)
    for _ in range(40):
        ch = draw_link_channels(rng, 2, 3, GEOMETRY, fading, 3)
        best = received_snr(ch, exhaustive_optimize(ch, alphabet), fading)
        mid = received_snr(ch, ao_optimize(ch, alphabet, 3), fading)
        low = received_snr(ch, blind_phases(alphabet, 2, 3), fading)
        tol = 1e-12 * best
        if not ((best >= mid - tol).all() and (mid >= low - tol).all()):
            bad += 1
    failures += _report("oracle >= ascent >= blind on every ORE (40 draws)", bad == 0)

    bad = 0
    for _ in range(50):
        ch = draw_link_channels(rng, 4, 3, GEOMETRY, fading, 4)
        phases = ao_optimize(ch, PhaseAlphabet.from_bits(3), 1)
        quad, cross, direct = snr_decomposition(ch, phases)
        total = (quad + cross + direct) * fading.symbol_energy / fading.noise_variance
        ref = received_snr(ch, phases, fading)
        if (np.abs(total - ref) > 1e-10 * np.abs(ref)).any():
            bad += 1
    failures += _report("objective decomposition identity (50 draws)", bad == 0)

    ok = all(passed for passed, _ in _count_checks(((1, 2, 2, 1, 1), (2, 4, 2, 3, 2))))
    failures += _report("measured operation counts match closed forms", ok)

    seeds = [0, 2**64 - 1] + [trial_seed(0, 1, i) for i in range(62)]
    ok = True
    for mode in ("random", "common"):
        mode_fading = FadingConfig(los_phase=mode)
        block = draw_trial_block(seeds, 2, 3, GEOMETRY, mode_fading, 4)
        ref = stack_realizations([
            draw_link_channels(np.random.default_rng(s), 2, 3, GEOMETRY, mode_fading, 4)
            for s in seeds])
        ok = ok and all(getattr(block, name).tobytes() == getattr(ref, name).tobytes()
                        for name in ("direct", "ris_to_bs", "user_to_ris"))
    failures += _report("seeded block draw equals per-seed default_rng draws "
                        "(64 seeds, both LoS modes)", ok)

    # One element's column duplicates another's, so candidates can tie in
    # exact arithmetic and differ only by rounding; half have no direct link.
    rng = np.random.default_rng(20240602)
    mismatch = 0
    for k in range(500):
        n, r, df, b, t = (int(x) for x in rng.integers([2, 1, 1, 1, 1], [6, 4, 4, 4, 4]))
        ch = draw_link_channels(rng, r, df, GEOMETRY, FadingConfig(
            direct_loss_scale=(0.0025, 0.0)[k % 2]), n)
        src, dst = rng.permutation(n)[:2]
        ch.ris_to_bs[:, dst], ch.user_to_ris[:, dst] = ch.ris_to_bs[:, src], ch.user_to_ris[:, src]
        mismatch += _counted_mismatches(ch, PhaseAlphabet.from_bits(b), t)
    failures += _report("kernel and both counted selections identical on "
                        "duplicated-column channels (500 draws)", mismatch == 0)

    print(f"selftest: {'PASS' if failures == 0 else 'FAIL'}")
    return 0 if failures == 0 else 1


def _counted_mismatches(ch, alphabet, iterations) -> int:
    """How many of the counted ao and lc_ao runs select other phases than
    the kernel."""
    kernel = ao_optimize(ch, alphabet, iterations).indices
    return sum(not np.array_equal(kernel, measured_run(kind, ch, alphabet, iterations)[0])
               for kind in ("ao", "lc_ao"))


def _report(name: str, ok: bool) -> int:
    print(f"[{'ok' if ok else 'FAIL'}] {name}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
