"""Command-line front end.

Verbs: ``run <config>`` (full campaign from a JSON config), ``sweep
<figure_id>`` (preset desk-scale experiments), ``verify-complexity <grid>``
(measured vs closed-form operation counts), ``selftest`` (oracle-equivalence
suite at small N).  Exit code 0 on success; on failure one machine-readable
JSON error line goes to stderr and the exit code is nonzero.

The environment variable ``RIS_SCMA_OUTPUT_DIR``, unless empty, overrides
the output directory; ``--seed`` overrides the master seed.

``run`` and ``sweep`` import only what a campaign runs; the bodies of
``verify-complexity`` and ``selftest`` live in :mod:`~ris_scma.reference`,
which only those two commands load.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .campaign import run_campaign
from .config import ConfigError, config_from_document, config_hash, parse_config
from .writers import FIGURE_PRESETS, emit_plot_data, write_results

OUTPUT_DIR_ENV = "RIS_SCMA_OUTPUT_DIR"


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
    return os.environ.get(OUTPUT_DIR_ENV) or cfg_dir


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
    from .reference import verify_complexity
    return verify_complexity(args.grid)


def _cmd_selftest(args) -> int:
    from .reference import selftest
    return selftest()


def entry() -> int:
    """The process entry of the ``ris-scma`` script and of ``python -m
    ris_scma.cli``: :func:`main`, then flush stdout and stderr and leave by
    :func:`os._exit` with its code.  That skips the interpreter's teardown
    of numpy, the package and the results, which the OS reclaims anyway;
    every file is closed by then.  A stdout that fails to flush (a closed
    pipe) gives the one JSON error line and code 1, as a print inside
    :func:`main` does.  In-process callers of :func:`main` keep their
    interpreter as it is."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        _error_line(type(exc).__name__, str(exc))
        code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    sys.exit(entry())
