"""Campaign benchmark for ris_scma.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper_nsweep --seed 1 --seconds 20 --trace 0

``--trace 0`` times whole ``python -m ris_scma.cli run <config>`` processes
and reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb); ``--trace 1``
runs the same campaign in this process at one worker with spans around each
library call and reports the per-layer metrics.  ``--workload all`` runs every
workload in turn.  Every run checks the written results (see
``workloads.check_outputs``); failed checks are counted, never hidden.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import replace
from pathlib import Path

# workers x BLAS threads must stay within the cores; every workload uses at
# most two workers on two cores, so BLAS gets one thread everywhere.  This has
# to happen before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

from tracing import Tracer, traced_library                          # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload, check_outputs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_SAMPLES = 3          # timed CLI runs per invocation, even past --seconds
SETUP_SAMPLES = 5        # minimum set-up processes per invocation; the median is reported
PROBE_TRIALS = 64        # trials in the block the solver probe runs on
CLI_TIMEOUT_S = 150

SETUP_CODE = (
    "import sys\n"
    "import ris_scma.cli\n"
    "from ris_scma.config import campaign_from_config, parse_config\n"
    "with open(sys.argv[1]) as f:\n"
    "    campaign_from_config(parse_config(f.read()))\n")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "optimizer.ao_s": "s", "optimizer.ao_calls": "count",
    "optimizer.ao_candidate_evals": "count", "optimizer.lc_ao_s": "s",
    "optimizer.lc_workspace_s": "s", "optimizer.lc_workspace_bytes": "bytes",
    "optimizer.snr_eval_s": "s", "optimizer.active_row_ratio": "ratio",
    "optimizer.ao_lc_agreement": "ratio", "channel.draw_s": "s",
    "channel.draw_calls": "count", "channel.stack_s": "s",
    "channel.bytes_drawn": "bytes", "campaign.seed_s": "s",
    "campaign.unique_draw_ratio": "ratio", "campaign.self_s": "s",
    "campaign.blocks": "count", "campaign.cpu_s": "s",
    "campaign.parallel_efficiency": "ratio", "factor_graph.build_s": "s",
    "factor_graph.build_calls": "count", "config.parse_s": "s",
    "writers.write_s": "s", "writers.bytes_written": "bytes",
    "opcount.real_adds": "count", "opcount.real_mults": "count",
    "trace.overhead_s": "s",
}


class Operations:
    """Attempted / failed operation tally; each failure reason goes to stderr."""

    def __init__(self, label: str):
        self.label = label
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"[{self.label}] FAILED {what}: {problem}", file=sys.stderr)


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_process(argv: list, log_dir: Path) -> tuple:
    """Run one process to completion: (wall s, peak RSS MB, problems).

    The peak RSS is what ``os.wait4`` reports, the largest resident set of
    the process and of every descendant it waited for."""
    log_dir.mkdir(parents=True, exist_ok=True)
    with open(log_dir / "stdout", "wb") as out, open(log_dir / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=cli_env(), cwd=ROOT)
        killer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}")
    stderr = (log_dir / "stderr").read_bytes()
    if stderr:
        problems.append("stderr: " + stderr.decode(errors="replace").strip()[-500:])
    return wall, usage.ru_maxrss / 1024.0, problems


def read_results(out_dir: Path):
    """(csv bytes, json bytes), or None when either file is missing."""
    try:
        return ((out_dir / "results.csv").read_bytes(),
                (out_dir / "results.json").read_bytes())
    except FileNotFoundError:
        return None


def result_problems(w: Workload, seed: int, results) -> list:
    if results is None:
        return ["results.csv / results.json not written"]
    return check_outputs(w, seed, *results)


def write_config(w: Workload, seed: int, work: Path) -> Path:
    config = work / f"config_{seed}.json"
    config.write_text(w.config_text(seed))
    return config


def run_cli_campaign(w: Workload, seed: int, config: Path, work: Path,
                     tag: str) -> tuple:
    """One ``ris_scma.cli run`` of the workload: (wall, rss, results, problems)."""
    out_dir = work / f"out_{tag}"
    shutil.rmtree(out_dir, ignore_errors=True)
    wall, rss, problems = run_process(
        [sys.executable, "-m", "ris_scma.cli", "run", str(config),
         "--output-dir", str(out_dir)], work / f"log_{tag}")
    results = read_results(out_dir)
    if not problems:
        problems += result_problems(w, seed, results)
    return wall, rss, results, problems


def in_process_results(campaign, cfg_hash: str) -> tuple:
    """Untraced campaign in this process: (wall s, cpu s incl. workers, bytes)."""
    from ris_scma.campaign import run_campaign
    from ris_scma.writers import result_to_csv_text, result_to_json_text
    cpu0, start = os.times(), time.perf_counter()
    result = run_campaign(campaign, config_hash=cfg_hash)
    wall, cpu1 = time.perf_counter() - start, os.times()
    cpu = sum(cpu1[:4]) - sum(cpu0[:4])
    return wall, cpu, (result_to_csv_text(result).encode(),
                       result_to_json_text(result).encode())


def compare_bytes(expected, got) -> list:
    if expected is None or got is None:
        return ["no result bytes to compare"]
    return [f"results.{kind} bytes differ" for kind, a, b
            in zip(("csv", "json"), expected, got) if a != b]


def tail_percentile(samples: list) -> tuple:
    """(p, value): the highest percentile with at least ten samples above it,
    or None while that percentile would not lie above the median."""
    n = len(samples)
    if n < 20:
        return None
    return int(100 * (n - 10) / n), sorted(samples)[n - 11]


def end_to_end(w: Workload, seed: int, seconds: float, work: Path) -> tuple:
    ops = Operations(w.name)
    # Untimed: checks the digests and warms the byte-code and file caches.
    *_, problems = run_cli_campaign(w, DEFAULT_SEED, write_config(w, DEFAULT_SEED, work),
                                    work, "reference")
    ops.record(f"reference run at seed {DEFAULT_SEED}", problems)

    config = write_config(w, seed, work)
    setup = []

    def setup_sample():
        wall, _, problems = run_process(
            [sys.executable, "-c", SETUP_CODE, str(config)], work / "log_setup")
        ops.record(f"set-up {len(setup)}", problems)
        setup.append(wall)

    # Set-up samples are interleaved with the timed runs so that both see the
    # same stretch of machine load.
    walls, rss, first = [], [], None
    start = time.perf_counter()
    while len(walls) < MIN_SAMPLES or time.perf_counter() - start < seconds:
        setup_sample()
        wall, peak, results, problems = run_cli_campaign(w, seed, config, work, "timed")
        if first is None:
            first = results
        elif results is not None:
            problems += compare_bytes(first, results)
        ops.record(f"timed run {len(walls)}", problems)
        walls.append(wall)
        rss.append(peak)
    while len(setup) < SETUP_SAMPLES:
        setup_sample()

    if w.workers > 1:
        from ris_scma.config import campaign_from_config, config_hash, parse_config
        cfg = parse_config(w.config_text(seed))
        *_, serial = in_process_results(replace(campaign_from_config(cfg), workers=1),
                                        config_hash(cfg))
        ops.record(f"1-worker vs {w.workers}-worker bytes", compare_bytes(serial, first))

    metrics = {"wall_s": statistics.median(walls),
               "setup_s": statistics.median(setup),
               "peak_rss_mb": statistics.median(rss)}
    tail = tail_percentile(walls)
    tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail
                 else "no tail percentile below 20 samples")
    print(f"{w.name}: wall_s {metrics['wall_s']:.4f} s median of n={len(walls)} "
          f"({tail_text}) | setup_s {metrics['setup_s']:.4f} s (n={len(setup)}) | "
          f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB | "
          f"error_rate {ops.failed}/{ops.attempted} = {ops.failed / ops.attempted:g}")
    return metrics, ops


def probe_solvers(campaign, trials: int) -> tuple:
    """(active row ratio, ao/lc_ao agreement) on the first block's first trials.

    The active ratio counts ORE rows whose phase indices change in sweep k
    (ao run with k-1 versus k sweeps), for k = 2..T, over rows * (T-1)."""
    import numpy as np
    from ris_scma.campaign import trial_seed
    from ris_scma.channel import draw_link_channels, stack_realizations
    from ris_scma.factor_graph import build_factor_graph
    from ris_scma.optimizer import PhaseAlphabet, ao_optimize, lc_ao_optimize
    geom, n, b, _ = campaign.point_params(campaign.sweep_grid[0])
    sweeps = max(campaign.point_params(x)[3] for x in campaign.sweep_grid)
    graph = build_factor_graph(campaign.scma)
    ch = stack_realizations([
        draw_link_channels(np.random.default_rng(trial_seed(campaign.master_seed, 0, i)),
                           graph.num_ores, graph.users_per_ore, geom,
                           campaign.fading, n)
        for i in range(trials)])
    alphabet = PhaseAlphabet.from_bits(b)
    runs = [ao_optimize(ch, alphabet, k).indices for k in range(1, sweeps + 1)]
    changed = sum(int((later != earlier).any(axis=1).sum())
                  for earlier, later in zip(runs, runs[1:]))
    active = changed / (ch.num_ores * (sweeps - 1)) if sweeps > 1 else 0.0
    agree = (lc_ao_optimize(ch, alphabet, sweeps).indices == runs[-1]).all(axis=1)
    return active, float(agree.mean())


def traced(w: Workload, seed: int, work: Path) -> tuple:
    from ris_scma.campaign import run_campaign
    from ris_scma.config import campaign_from_config, config_hash, parse_config
    from ris_scma.writers import write_results
    ops = Operations(w.name)
    tracer = Tracer(run_id=f"{w.name}-{seed}")
    cfg = tracer.call("parse_config", parse_config, w.config_text(seed))
    campaign = campaign_from_config(cfg)
    cfg_hash = config_hash(cfg)
    serial = replace(campaign, workers=1)

    before_s, serial_cpu, untraced_bytes = in_process_results(serial, cfg_hash)
    out_dir = work / "out_traced"
    shutil.rmtree(out_dir, ignore_errors=True)
    with traced_library(tracer), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        result = tracer.call("run_campaign", run_campaign, serial, config_hash=cfg_hash)
        traced_s = time.perf_counter() - start
        paths = tracer.call("write_results", write_results, result, out_dir,
                            cfg.output_formats)
    # A second untraced run after the traced one, so that warm-up and drift
    # do not all land on one side of the overhead.
    after_s, *_ = in_process_results(serial, cfg_hash)
    untraced_s = (before_s + after_s) / 2
    traced_bytes = read_results(out_dir)
    problems = [f"warning: {warning.message}" for warning in caught]
    problems += result_problems(w, seed, traced_bytes)
    ops.record("traced run", problems)
    ops.record("traced vs untraced bytes", compare_bytes(untraced_bytes, traced_bytes))

    if w.workers > 1:
        parallel_s, cpu_s, parallel_bytes = in_process_results(campaign, cfg_hash)
        ops.record(f"1-worker vs {w.workers}-worker bytes",
                   compare_bytes(traced_bytes, parallel_bytes))
        efficiency = untraced_s / (w.workers * parallel_s)
    else:
        cpu_s, efficiency = serial_cpu, 1.0

    active, agreement = probe_solvers(campaign, PROBE_TRIALS)
    ops.record("ao/lc_ao selections identical",
               [] if agreement == 1.0 else [f"agreement {agreement}"])

    opcount_rows = [r for r in result.rows if r.algorithm in ("ao", "lc_ao")]
    metrics = tracer.layer_metrics()
    metrics.update({
        "optimizer.active_row_ratio": active,
        "optimizer.ao_lc_agreement": agreement,
        "campaign.cpu_s": cpu_s,
        "campaign.parallel_efficiency": efficiency,
        "writers.bytes_written": sum(Path(p).stat().st_size for p in paths),
        "opcount.real_adds": sum(r.real_adds for r in opcount_rows),
        "opcount.real_mults": sum(r.real_mults for r in opcount_rows),
        "trace.overhead_s": traced_s - untraced_s,
    })
    tracer.dump(work / "spans.jsonl")
    for name in PER_LAYER_UNITS:
        print(f"{w.name}: {name} {metrics[name]:.6g} {PER_LAYER_UNITS[name]}")
    print(f"{w.name}: error_rate {ops.failed}/{ops.attempted} = "
          f"{ops.failed / ops.attempted:g}")
    return metrics, ops


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        l3 = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        l3 = None
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpu_count": os.cpu_count(), "l3_cache_bytes": l3,
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ris_scma" / "__init__.py").is_file():
        print(f"error: no ris_scma sources under {SRC}; run from the root of "
              f"a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment(args.seed)
    print("environment: " + json.dumps(env, sort_keys=True))
    attempted = failed = 0
    metrics = {}
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name in names:
        work = WORK / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        (work / "environment.json").write_text(json.dumps(env, indent=2) + "\n")
        if args.trace:
            values, ops = traced(WORKLOADS[name], args.seed, work)
        else:
            values, ops = end_to_end(WORKLOADS[name], args.seed, args.seconds, work)
        attempted += ops.attempted
        failed += ops.failed
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + key: {"value": values[key], "unit": unit}
                        for key, unit in units.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
