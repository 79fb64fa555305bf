"""Layer benchmark for ris_scma: start-up, whole CLI commands, grid point,
seeding, channel draw, ascent, SNR evaluation.

Run from the root of a source checkout (``src`` is put on the path here):

    python3 bench/run_bench.py --output report.json [--against OTHER_CHECKOUT]

Every timing comes from one runner, ``_measure``.  A row of a layer is a dict
of named calls; each repeat runs every call once, the order rotated by one
each repeat so no call always runs first, and each result is dropped before
the next call starts so every call sees the same allocator state.  Each
call reports its own seconds, measured where it runs, and ``_measure``
reads no clock; a call that reports the seconds of its phases gets one
entry per phase, ``<call>.<phase>``, and none for itself.  An entry run on
both trees (``X`` and ``against:X``, see ``--against``) also gets
``against``: the ratio of the medians, this tree's over the other's, and in
how many repeats this tree's was the faster.  Then every call runs once
more, untimed: that result feeds the row's equality check.  Every row has
one shape and prints as one line::

    {"params": {...}, "runs": {name: {"median_s", "q1_s", "q3_s"[, "peak_bytes"]
                                      [, "against": {"ratio", "wins", "pairs"}]}},
     "equal": true | false | null}

with ``null`` for a row that has nothing to compare.

One layer times whole fresh processes, each call reporting the wall time
around its process; it measures what only a fresh process pays: start-up,
imports and exit.

* startup: fresh interpreters running ``pass``, ``import numpy`` and
  ``import ris_scma.cli``; the parameters list the standard-library modules
  the package imports beyond numpy.  A second row runs a whole
  ``python -m ris_scma.cli run`` of a tiny config, which reports its phases
  ``cli_run.import`` (to the open of the config file), ``cli_run.work`` (to
  ``os._exit`` or the first ``atexit`` call) and ``cli_run.exit`` (to the
  process's end), and a ``-X importtime`` process, which reports the
  cumulative microseconds of ``ris_scma.cli`` imported after numpy
  (``importtime.ris_scma.cli``); equal when every tree wrote the same result
  bytes, and null on one tree.

The other six layers time calls of this script's functions, each run in a
long-lived interpreter per source tree (``WORKER_CODE``).  Each call's
seconds are timed in its interpreter around the function call alone.  Only
the untimed run is traced and hashed there: the peak of its traced
allocations is the call's ``peak_bytes``, and the row is equal when every
call of every tree gave the same result bytes (``_digest``); a row of one
call in all (no ``--against``, one call per tree) has nothing to compare.

* command: whole CLI commands, ``ris_scma.cli.main(argv)``, one row per
  command and one call per tree: ``sweep`` of each preset (fig2, fig4,
  fig5a, fig5b, fig6a, fig6b) at its own trial count, ``run`` of the
  default 10^4-trial document at ``--workers 1`` and 2, and ``run`` of each
  ``perfbench`` workload's document.  A call's result is every file the
  command wrote (results and plot data); a nonzero exit code fails the
  run.  A two-worker call's ``peak_bytes`` is the interpreter's own,
  without its forked children.
* grid_point: one grid point of the benchmark's ``large_n_cached`` workload
  (``n_sweep``, 256 trials, blind and lc_ao: draw, ascent and two SNR
  evaluations) at N in {64, 128, 256}, run as the campaign runs the blocks
  ``_plan_blocks`` gives (``_run_blocks``: one channel store per group) and
  through ``_trial_block`` as one 256-trial block of fresh arrays.

The seeding, channel-draw, ascent and SNR layers use 256-trial blocks of
campaign child seeds (``trial_seed``, hashed before the clock starts) and
the default document's layout, geometry and calibrated fading
(``config.DEFAULTS``: R=4, d_f=3, common-phase LoS), at N in
{8, 16, 64, 256}.

* seeding: the PCG64 states of one block's seeds, from the vectorized
  seed-to-stream pass that ``draw_trial_block`` runs (every seed's state,
  set in turn on one reused generator) and from one
  ``np.random.default_rng`` per seed.
* channel_draw: ``draw_trial_block(seeds, ...)`` against stacking one
  ``draw_link_channels(np.random.default_rng(seed), ...)`` per seed.
* ascent: ``ao_optimize`` (``lc_ao_optimize`` is the same function) on one
  block's 1024 ORE rows at b in {1, 3, 5, 8}, T=3, plain and with an
  ``update_log``.
* snr: ``received_snr`` on one block with the kernel's selections at b=3.

With ``--against DIR`` every call also runs on the source tree at DIR,
named ``against:<call>``, in the same rotation as this tree's, so that both
see the same stretch of machine load: each fresh process on that tree, and
each other call in a second worker interpreter on it.

The JSON report (the layers' rows plus Python, numpy, BLAS, core count and
``PYTHONDONTWRITEBYTECODE``, which decides whether each fresh process
recompiles the package) goes to stdout and, with ``--output``, to that file.
The exit code is 1 if any row's check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np                                                    # noqa: E402

from ris_scma import cli                                               # noqa: E402
from ris_scma.campaign import _plan_blocks, _run_blocks, _trial_block, trial_seed  # noqa: E402
from ris_scma.channel import (FadingConfig, Geometry, _pcg64_states,   # noqa: E402
                              draw_link_channels, draw_trial_block,
                              stack_realizations)
from ris_scma.config import DEFAULTS, parse_config                    # noqa: E402
from ris_scma.optimizer import PhaseAlphabet, ao_optimize, received_snr  # noqa: E402
from ris_scma.writers import FIGURE_PRESETS                            # noqa: E402
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
# `python -m ris_scma.cli run CONFIG --output-dir OUT` as runpy runs it, with
# two perf_counter stamps on stderr: when the command opens its config file
# (every import and the argument parsing done) and when it leaves, at
# os._exit in this process (not in a forked child) or at the first atexit
# call, whichever comes (the command returned; what follows is the exit).
CLI_RUN_CODE = (
    "import atexit, os, runpy, sys, time\n"
    "config, out = sys.argv[1:]\n"
    "def stamp():\n"
    "    print(*stamps, time.perf_counter(), file=sys.stderr, flush=True)\n"
    "def leave(code, _exit=os._exit, pid=os.getpid()):\n"
    "    if os.getpid() == pid:\n"
    "        stamp()\n"
    "    _exit(code)\n"
    "def opened(event, args):\n"
    "    if event == 'open' and args[0] == config and not stamps:\n"
    "        stamps.append(time.perf_counter())\n"
    "        atexit.register(stamp)\n"
    "stamps = []\n"
    "os._exit = leave\n"
    "sys.addaudithook(opened)\n"
    "sys.argv = ['ris-scma', 'run', config, '--output-dir', out]\n"
    "runpy.run_module('ris_scma.cli', run_name='__main__', alter_sys=True)\n")
CLI_RUN_CONFIG = {"scenario": "n_sweep", "sweep": {"grid": [4, 8]}, "num_trials": 64,
                  "algorithms": ["blind", "ao", "lc_ao", "no_ris"]}
IMPORTTIME_CODE = "import numpy\nimport ris_scma.cli"
# An interpreter that runs this script's calls on the source tree SRC_DIR:
# ``import ris_scma`` binds the package there before the script puts its own
# tree first on the path.  Each stdin line is [function name, arguments,
# traced]; each reply is [the call's seconds, and on a traced call the
# digest of its result and the peak of its traced allocations, else null].
WORKER_CODE = (
    "import importlib.util, json, sys, time, tracemalloc\n"
    "script, src = sys.argv[1:]\n"
    "sys.path.insert(0, src)\n"
    "import ris_scma\n"
    "spec = importlib.util.spec_from_file_location('run_bench', script)\n"
    "bench = importlib.util.module_from_spec(spec)\n"
    "spec.loader.exec_module(bench)\n"
    "for line in sys.stdin:\n"
    "    name, args, traced = json.loads(line)\n"
    "    if traced:\n"
    "        tracemalloc.start()\n"
    "    start = time.perf_counter()\n"
    "    result = getattr(bench, name)(*args)\n"
    "    seconds = time.perf_counter() - start\n"
    "    peak = tracemalloc.get_traced_memory()[1] if traced else None\n"
    "    tracemalloc.stop()\n"
    "    digest = bench._digest(result) if traced else None\n"
    "    print(json.dumps([seconds, digest, peak]), flush=True)\n"
    "    del result\n")
AGAINST = "against:"
COMMAND_REPEATS = 10
GRID_POINT_ELEMENTS = (64, 128, 256)
GRID_POINT_REPEATS = 15
TRIALS = 256
ELEMENTS = (8, 16, 64, 256)
DRAW_REPEATS = 15
SEED_REPEATS = 51
ASCENT_REPEATS = 10
SNR_REPEATS = 15
ASCENT_BITS, ASCENT_SWEEPS = (1, 3, 5, 8), 3
SNR_BITS = 3
# The default document's layout, deployment and calibrated fading.
NUM_ORES = DEFAULTS["system"]["num_ores"]
NUM_INTERFERERS = DEFAULTS["system"]["nonzero_per_ore"]
GEOM = Geometry(**DEFAULTS["geometry"])
FADING = FadingConfig(**DEFAULTS["fading"])
ORE_ROWS = TRIALS * NUM_ORES
BLOCK = {"trials": TRIALS, "num_ores": NUM_ORES, "num_interferers": NUM_INTERFERERS,
         "fading": {"los_phase": FADING.los_phase,
                    "direct_loss_scale": FADING.direct_loss_scale,
                    "rician_factor": FADING.rician_factor}}


def _measure(runs: dict, repeats: int) -> tuple:
    """Run every named call of ``runs`` once per repeat, the order rotated by
    one each repeat and each result dropped before the next call, then once
    more untimed: ({entry: {"median_s", "q1_s", "q3_s"[, "peak_bytes"]}},
    {name: result of the untimed run}).  Each call takes one argument,
    ``traced``, true on the untimed run only, and returns (its seconds, its
    result, its traced peak bytes or None).  A call's seconds are its entry;
    seconds given as {phase: seconds} are one entry per phase,
    ``name.phase``."""
    names = list(runs)
    times = {}
    for repeat in range(repeats):
        shift = repeat % len(names)
        for name in names[shift:] + names[:shift]:
            seconds = runs[name](False)[0]
            phases = seconds if isinstance(seconds, dict) else {"": seconds}
            for phase, s in phases.items():
                times.setdefault(f"{name}.{phase}" if phase else name, []).append(s)
    stats, results = {}, {}
    for name, samples in times.items():
        # With the inclusive method the middle quartile is the median.
        q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
        stats[name] = {"median_s": median, "q1_s": q1, "q3_s": q3}
    for name, other in times.items():
        if name.startswith(AGAINST) and name[len(AGAINST):] in times:
            mine = times[name[len(AGAINST):]]
            stats[name[len(AGAINST):]]["against"] = {
                "ratio": statistics.median(mine) / statistics.median(other),
                "wins": sum(a < b for a, b in zip(mine, other)), "pairs": len(mine)}
    for name in names:
        _, results[name], peak = runs[name](True)
        if peak is not None:
            stats[name]["peak_bytes"] = peak
    return stats, results


def _row(layer: str, params: dict, runs: dict, repeats: int, check=None) -> dict:
    """Measure one row and print it as one line.  ``check(results)`` compares
    the results of the untimed runs; ``equal`` is None without one."""
    stats, results = _measure(runs, repeats)
    row = {"params": {**params, "repeats": repeats}, "runs": stats,
           "equal": None if check is None else bool(check(results))}
    scalars = ", ".join(f"{key}={value}" for key, value in row["params"].items()
                        if isinstance(value, (int, float, str)))
    timings = "; ".join(
        f"{name} {s['median_s'] * 1e3:.3f} ms [{s['q1_s'] * 1e3:.3f}, "
        f"{s['q3_s'] * 1e3:.3f}]"
        + (f" peak {s['peak_bytes'] / 1e6:.2f} MB" if "peak_bytes" in s else "")
        + (" x{ratio:.3f} ({wins}/{pairs})".format(**s["against"]) if "against" in s else "")
        for name, s in stats.items())
    verdict = {None: "", True: " | equal", False: " | NOT EQUAL"}[row["equal"]]
    print(f"{layer}: {scalars} | {timings}{verdict}", file=sys.stderr)
    return row


@functools.cache
def _seeds(block: int) -> tuple:
    return tuple(trial_seed(block, 0, i) for i in range(TRIALS))


def _python(args: list, src: Path = SRC) -> subprocess.CompletedProcess:
    """A fresh interpreter with ``src`` first on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True)


def _process(args: list, src: Path = SRC) -> tuple:
    """One fresh process, as ``_measure`` calls it: (wall seconds, None, None)."""
    start = time.perf_counter()
    _python(args, src)
    return time.perf_counter() - start, None, None


def _cli_run(src: Path, config: Path, out: Path) -> tuple:
    """One ``CLI_RUN_CODE`` process: ({"import", "work", "exit"} seconds, None, None)."""
    start = time.perf_counter()
    proc = _python(["-c", CLI_RUN_CODE, str(config), str(out)], src)
    end = time.perf_counter()
    opened, exiting = map(float, proc.stderr.split())
    return {"import": opened - start, "work": exiting - opened, "exit": end - exiting}, None, None


def _importtime(src: Path) -> tuple:
    """({"ris_scma.cli": seconds}, None, None): the cumulative ``-X importtime`` entry."""
    lines = _python(["-X", "importtime", "-c", IMPORTTIME_CODE], src).stderr.splitlines()
    [line] = [x for x in lines if x.rstrip().endswith("| ris_scma.cli")]
    return {"ris_scma.cli": int(line.split("|")[1]) * 1e-6}, None, None


def _output_bytes(out: Path) -> tuple:
    """Every file a command wrote to ``out``, by name."""
    return tuple((path.name, path.read_bytes()) for path in sorted(out.iterdir()))


def _label(prefix: str) -> str:
    return prefix.rstrip(":") or "this"


def startup_layer(trees: dict, work: Path) -> list:
    """Both startup rows, every call run on each source tree of ``trees``
    ({name prefix: src directory}) in one rotation."""
    added = {_label(prefix): _python(["-c", ADDED_MODULES_CODE], src).stdout.split()
             for prefix, src in trees.items()}
    runs = {prefix + name: lambda _, code=code, src=src: _process(["-c", code], src)
            for prefix, src in trees.items() for name, code in STARTUP_CODE.items()}
    rows = [_row("startup", {"stdlib_modules_added_beyond_numpy": added}, runs,
                 STARTUP_REPEATS)]
    config = work / "cli_run.json"
    config.write_text(json.dumps(CLI_RUN_CONFIG))
    outs = {prefix: work / f"{_label(prefix)}_out" for prefix in trees}
    runs = {}
    for prefix, src in trees.items():
        runs[prefix + "cli_run"] = lambda _, src=src, out=outs[prefix]: _cli_run(src, config, out)
        runs[prefix + "importtime"] = lambda _, src=src: _importtime(src)
    check = ((lambda _: len({_output_bytes(out) for out in outs.values()}) == 1)
             if len(trees) > 1 else None)
    rows.append(_row("startup", {"cli_run_config": CLI_RUN_CONFIG}, runs, STARTUP_REPEATS,
                     check))
    return rows


class _Worker:
    """One ``WORKER_CODE`` interpreter on the source tree ``src``."""

    def __init__(self, src: Path):
        self.src = src
        self.proc = subprocess.Popen(
            [sys.executable, "-c", WORKER_CODE, str(Path(__file__).resolve()), str(src)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def call(self, function, *args, traced=False) -> list:
        self.proc.stdin.write(json.dumps([function.__name__, args, traced]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the worker on {self.src} exited with {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def _feed(digest, value) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            digest.update(repr(key).encode())
            _feed(digest, value[key])
    elif isinstance(value, (list, tuple)):
        for item in value:
            _feed(digest, item)
    elif isinstance(value, np.ndarray):
        digest.update(f"{value.dtype}{value.shape}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif is_dataclass(value):
        for field in fields(value):
            _feed(digest, getattr(value, field.name))
    else:
        digest.update(repr(value).encode())


def _digest(value) -> str:
    """The sha256 of a call's result: arrays by their bytes, dataclasses by
    their fields, containers by their items."""
    digest = hashlib.sha256()
    _feed(digest, value)
    return digest.hexdigest()


def _layer_row(layer: str, params: dict, calls: dict, repeats: int, workers: dict) -> dict:
    """One row of ``calls`` ({name: (function, args)}), every call run by each
    of ``workers`` ({name prefix: _Worker}) in one rotation; equal when every
    result's digest is the same, and None for a row of one call in all."""
    runs = {prefix + name: lambda traced, w=w, f=f, args=args: w.call(f, *args, traced=traced)
            for prefix, w in workers.items() for name, (f, args) in calls.items()}
    check = (lambda r: len(set(r.values())) == 1) if len(runs) > 1 else None
    return _row(layer, params, runs, repeats, check)


def _warm(workers: dict, function, *args) -> None:
    """Build what a row's calls share, untimed, in every worker."""
    for worker in workers.values():
        worker.call(function, *args)


def _commands() -> dict:
    """The command layer's argv lists, by row name; a ``run`` argv holds the
    document's text in place of its path."""
    commands = {figure: ["sweep", figure] for figure in sorted(FIGURE_PRESETS)}
    for workers in (1, 2):
        commands[f"default_workers_{workers}"] = ["run", "{}", "--workers", str(workers)]
    for name, workload in WORKLOADS.items():
        commands[name] = ["run", workload.config_text(DEFAULT_SEED)]
    return commands


def _command(argv: list) -> tuple:
    """``cli.main(argv)`` with a ``run`` document written to a file and the
    output to a fresh temporary directory: every file written, by name.  The
    paths ``main`` prints are dropped (in a worker, stdout is the reply
    pipe); a nonzero exit code raises."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if argv[0] == "run":
            (tmp / "config.json").write_text(argv[1])
            argv = ["run", str(tmp / "config.json"), *argv[2:]]
        out = tmp / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--output-dir", str(out)])
        if code != 0:
            raise RuntimeError(f"ris-scma {argv[0]} exited with code {code}")
        return _output_bytes(out)


def command_layer(workers: dict) -> list:
    """One row per command of ``_commands``, one call per tree; equal when
    every tree wrote the same bytes (results and plot data)."""
    return [_layer_row("command", {"command": name, "argv": argv},
                       {name: (_command, (argv,))}, COMMAND_REPEATS, workers)
            for name, argv in _commands().items()]


@functools.cache
def _grid_campaign(n: int):
    base = parse_config(WORKLOADS["large_n_cached"].config_text(DEFAULT_SEED)).campaign
    return replace(base, sweep_grid=(n,))


def _planned_blocks(n: int) -> dict:
    campaign = _grid_campaign(n)
    parts = _run_blocks(campaign, _plan_blocks(campaign))
    return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}


def _one_block(n: int) -> dict:
    campaign = _grid_campaign(n)
    group = _plan_blocks(campaign)[0][0]
    return _trial_block(campaign, group, 0, campaign.num_trials)


def grid_point_layer(workers: dict) -> list:
    rows = []
    for n in GRID_POINT_ELEMENTS:
        _warm(workers, _grid_campaign, n)
        campaign = _grid_campaign(n)
        rows.append(_layer_row(
            "grid_point",
            {"workload": "large_n_cached", "algorithms": list(campaign.algorithms),
             "num_elements": n, "trials": campaign.num_trials,
             "planned_blocks": len(_plan_blocks(campaign))},
            {"planned": (_planned_blocks, (n,)), "one_block": (_one_block, (n,))},
            GRID_POINT_REPEATS, workers))
    return rows


def _seed_vectorized(block: int) -> list:
    """Set the reused generator to every seed's state, as a block draw does."""
    rng = np.random.Generator(np.random.PCG64(0))
    states = _pcg64_states(_seeds(block))
    for state in states:
        rng.bit_generator.state = state
    return states


def _seed_default_rng(block: int) -> list:
    return [np.random.default_rng(s).bit_generator.state for s in _seeds(block)]


def seeding_layer(workers: dict) -> list:
    _warm(workers, _seeds, 0)
    return [_layer_row("seeding", {"trials": TRIALS},
                       {"vectorized": (_seed_vectorized, (0,)),
                        "default_rng": (_seed_default_rng, (0,))},
                       SEED_REPEATS, workers)]


def _block(n: int):
    return draw_trial_block(_seeds(n), NUM_ORES, NUM_INTERFERERS, GEOM, FADING, n)


def _per_trial(n: int):
    return stack_realizations([
        draw_link_channels(np.random.default_rng(s), NUM_ORES, NUM_INTERFERERS,
                           GEOM, FADING, n) for s in _seeds(n)])


def draw_layer(workers: dict) -> list:
    rows = []
    for n in ELEMENTS:
        _warm(workers, _seeds, n)
        rows.append(_layer_row(
            "channel_draw",
            # direct (rows, d_f), ris_to_bs (rows, N), user_to_ris (rows, N, d_f)
            {**BLOCK, "num_elements": n,
             "output_bytes": 16 * ORE_ROWS * (NUM_INTERFERERS + n + n * NUM_INTERFERERS)},
            {"draw_trial_block": (_block, (n,)), "per_trial_stacked": (_per_trial, (n,))},
            DRAW_REPEATS, workers))
    return rows


@functools.cache
def _ascent_block(n: int):
    return _block(n)


def _ascent(n: int, bits: int, logged: bool):
    return ao_optimize(_ascent_block(n), PhaseAlphabet.from_bits(bits), ASCENT_SWEEPS,
                       update_log=[] if logged else None)


def ascent_layer(workers: dict) -> list:
    rows = []
    for bits in ASCENT_BITS:
        for n in ELEMENTS:
            _warm(workers, _ascent_block, n)
            rows.append(_layer_row(
                "ascent",
                {**BLOCK, "num_elements": n, "ore_rows": ORE_ROWS,
                 "bits": bits, "iterations": ASCENT_SWEEPS},
                {"ao_optimize": (_ascent, (n, bits, False)),
                 "ao_optimize_logged": (_ascent, (n, bits, True))},
                ASCENT_REPEATS, workers))
    return rows


@functools.cache
def _snr_phases(n: int):
    return _ascent(n, SNR_BITS, False)


def _snr(n: int):
    return received_snr(_ascent_block(n), _snr_phases(n), FADING)


def snr_layer(workers: dict) -> list:
    rows = []
    for n in ELEMENTS:
        _warm(workers, _snr_phases, n)
        rows.append(_layer_row(
            "snr",
            {**BLOCK, "num_elements": n, "ore_rows": ORE_ROWS,
             "bits": SNR_BITS, "iterations": ASCENT_SWEEPS},
            {"received_snr": (_snr, (n,))}, SNR_REPEATS, workers))
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
    parser.add_argument("--against", type=Path,
                        help="another source checkout whose calls run "
                             "interleaved with this one's")
    args = parser.parse_args(argv)
    trees = {"": SRC}
    if args.against is not None:
        trees[AGAINST] = args.against.resolve() / "src"
    work = ROOT / ".bench_work" / "run_bench"
    work.mkdir(parents=True, exist_ok=True)
    layers = {"startup": startup_layer(trees, work)}
    workers = {prefix: _Worker(src) for prefix, src in trees.items()}
    try:
        # Commands run before the big draws, so their children fork from a
        # small interpreter.
        layers.update(command=command_layer(workers), grid_point=grid_point_layer(workers),
                      ascent=ascent_layer(workers), seeding=seeding_layer(workers),
                      channel_draw=draw_layer(workers), snr=snr_layer(workers))
    finally:
        for worker in workers.values():
            worker.close()
    report = {"layers": layers, "environment": environment(),
              "against": None if args.against is None else str(trees[AGAINST].parent)}
    text = json.dumps(report, indent=2) + "\n"
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
