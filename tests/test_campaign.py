import hashlib
import importlib
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ris_scma.campaign
from ris_scma.campaign import Campaign, _plan_blocks, run_campaign, trial_seed
from ris_scma.channel import (FadingConfig, Geometry, draw_link_channels,
                              draw_trial_block)
from ris_scma.config import campaign_from_config, parse_config
from ris_scma.factor_graph import ScmaConfig
from ris_scma.optimizer import (PhaseAlphabet, ao_optimize, blind_phases,
                                lc_ao_optimize, received_snr)
from ris_scma.reference import deploy_sweep_profile, exhaustive_optimize


def small_campaign(**overrides):
    doc = {"scenario": "n_sweep", "sweep": {"grid": [2, 4]}, "num_trials": 40,
           "num_elements": 4, "algorithms": ["blind", "ao", "lc_ao"]}
    doc.update(overrides)
    return campaign_from_config(parse_config(json.dumps(doc)))


def test_trial_seed_recipe_is_sha256_prefix():
    # the documented recipe, recomputed here independently
    expected = int.from_bytes(hashlib.sha256(b"12345:2:7").digest()[:8], "big")
    assert trial_seed(12345, 2, 7) == expected
    seeds = {trial_seed(1, g, t) for g in range(4) for t in range(100)}
    assert len(seeds) == 400


def test_rerun_is_bit_identical():
    c = small_campaign()
    a = run_campaign(c)
    b = run_campaign(c)
    assert a == b


def chunked_campaign(workers):
    # 3 offsets x 1100 trials: 15 blocks, each offset's last one of 76 trials.
    return small_campaign(scenario="deploy_sweep", sweep={"grid": [2.0, 20.0, 38.0]},
                          num_elements=2, num_trials=1100,
                          algorithms=["blind", "ao"], workers=workers)


def recording_forks(monkeypatch):
    """Record the pid of every child forked while the test runs; the forks
    and the children's work stay real."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_count_does_not_change_results():
    # 90 trials are two blocks, one per process; the deploy plan's 15 blocks
    # go out round-robin, 8 and 7 to two processes and 5 to each of three.
    for campaign, workers in ((lambda w: small_campaign(num_trials=90, workers=w), (2,)),
                              (chunked_campaign, (2, 3))):
        one_worker = run_campaign(campaign(1)).rows
        for w in workers:
            assert run_campaign(campaign(w)).rows == one_worker


@pytest.mark.parametrize("workers", [2, 3, 64])
def test_pool_gets_one_process_per_block_at_most(monkeypatch, workers):
    one_worker = run_campaign(chunked_campaign(1)).rows
    forks = recording_forks(monkeypatch)
    assert run_campaign(chunked_campaign(workers)).rows == one_worker
    assert len(forks) == min(workers, 15)
    assert_no_child_left()


@pytest.mark.parametrize("overrides", [
    {"sweep": {"grid": [4]}},
    {"scenario": "complexity_grid", "sweep": {"grid": [4, 8]}, "algorithms": ["ao"]},
], ids=["one_block", "complexity_grid"])
def test_no_pool_without_two_blocks(monkeypatch, overrides):
    forks = recording_forks(monkeypatch)
    run_campaign(small_campaign(**overrides, workers=2))
    assert forks == []


def test_platform_without_fork_runs_in_one_process(monkeypatch):
    one_worker = run_campaign(small_campaign(num_trials=90, workers=1)).rows
    monkeypatch.delattr(os, "fork")
    assert run_campaign(small_campaign(num_trials=90, workers=2)).rows == one_worker


def failing_block(campaign, group, lo, hi, store=None):
    """Grid point 0's block raises at once; every other block outlives the
    test unless its process is killed."""
    if tuple(group[3]) == (0,):
        raise ValueError(f"no channel for trials {lo}..{hi}")
    time.sleep(120)


def killed_block(campaign, group, lo, hi, store=None):
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("block, error, message", [
    (failing_block, ValueError, "no channel for trials 0..40"),
    (killed_block, ChildProcessError, f"killed by signal {int(signal.SIGKILL)}"),
], ids=["exception", "sigkill"])
def test_failed_child_is_raised_and_every_child_reaped(monkeypatch, block, error,
                                                        message):
    monkeypatch.setattr(ris_scma.campaign, "_trial_block", block)
    forks = recording_forks(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(error, match=message):
        run_campaign(small_campaign(workers=2))
    assert len(forks) == 2 and time.perf_counter() - start < 60
    assert_no_child_left()


def test_large_results_do_not_block_the_pipes(monkeypatch):
    # Every child sends 5 x 128 KiB, two pipes' worth each time, while this
    # process reads one pipe at a time.  Reaping a child before draining its
    # pipe would hang; the alarm turns that into a failure.
    one_worker = run_campaign(chunked_campaign(1)).rows
    trial_block = ris_scma.campaign._trial_block

    def padded_block(*args):
        return {**trial_block(*args), "padding": np.zeros(2**14)}

    def timed_out(signum, frame):
        raise TimeoutError("the fan-out did not finish in 60 s")

    monkeypatch.setattr(ris_scma.campaign, "_trial_block", padded_block)
    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(60)
    try:
        rows = run_campaign(chunked_campaign(3)).rows
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert rows == one_worker
    assert_no_child_left()


POOL_MODULES = ("multiprocessing", "concurrent.futures.process")
CAMPAIGN_AT_TWO_WORKERS = (
    "from ris_scma.campaign import run_campaign\n"
    "from ris_scma.config import campaign_from_config, config_from_document\n"
    "run_campaign(campaign_from_config(config_from_document(\n"
    "    {{'scenario': 'n_sweep', 'sweep': {{'grid': {grid}}}, 'num_elements': 4,\n"
    "     'num_trials': 40, 'workers': 2}})))")
POOL_FREE_RUNS = {
    "import_cli": "import ris_scma.cli",
    "one_block_campaign_at_two_workers": CAMPAIGN_AT_TWO_WORKERS.format(grid=[4]),
    "two_block_campaign_at_two_workers": CAMPAIGN_AT_TWO_WORKERS.format(grid=[2, 4]),
}


@pytest.mark.parametrize("case", sorted(POOL_FREE_RUNS))
def test_one_process_runs_never_import_the_pool(case):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    code = (POOL_FREE_RUNS[case] + "\nimport sys\n"
            f"loaded = [m for m in {POOL_MODULES!r} if m in sys.modules]\n"
            "assert not loaded, loaded\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# A layout with R = 8 (28 users, d_f = 7): its floor of 512 ORE rows is 64 trials.
EIGHT_ORES = {"num_users": 28, "num_ores": 8, "codebook_size": 2,
              "nonzero_per_user": 2, "nonzero_per_ore": 7}


@pytest.mark.parametrize("system, trials_by_n", [
    (None, {16: 256, 64: 256, 65: 128, 128: 128, 256: 128}),
    (EIGHT_ORES, {16: 256, 64: 128, 65: 64, 128: 64, 256: 64}),
], ids=["four_ores", "eight_ores"])
def test_block_size_halves_with_n_down_to_512_ore_rows(system, trials_by_n):
    overrides = {"system": system} if system else {}
    campaign = small_campaign(sweep={"grid": [16, 64, 65, 128, 256]},
                              num_trials=300, **overrides)
    ranges_by_n = {}
    for (_, _, _, sweeps), lo, hi in _plan_blocks(campaign):
        (gi,) = sweeps
        ranges_by_n.setdefault(campaign.sweep_grid[gi], []).append((lo, hi))
    for n, size in trials_by_n.items():
        ranges = ranges_by_n[n]
        assert ranges == [(lo, min(lo + size, 300)) for lo in range(0, 300, size)], n
        # every block lies inside one 256-aligned range of the fixed plan
        assert all(lo // 256 == (hi - 1) // 256 for lo, hi in ranges), n


@pytest.mark.parametrize("overrides", [
    {"sweep": {"grid": [16, 64, 65, 128]}, "num_trials": 300},
    {"scenario": "convergence", "num_trials": 300},
    {"scenario": "convergence", "sweep": {"grid": [1, 3]}, "num_elements": 128,
     "num_trials": 300},
    {"scenario": "deploy_sweep", "num_trials": 300},
    {"scenario": "bits_sweep", "num_iterations": 2},
], ids=["n_sweep", "convergence", "convergence_large_n", "deploy_sweep", "bits_sweep"])
def test_plan_groups_carry_each_grid_points_parameters(overrides):
    campaign = small_campaign(**overrides)
    plan = _plan_blocks(campaign)
    groups = {id(group): group for group, _, _ in plan}
    covered = []
    for geom, n, b, sweeps in groups.values():
        assert sweeps and list(sweeps) == sorted(sweeps)
        for gi, t in sweeps.items():
            assert campaign.point_params(campaign.sweep_grid[gi]) == (geom, n, b, t)
        covered += list(sweeps)
    assert sorted(covered) == list(range(len(campaign.sweep_grid)))
    assert len(groups) == len({campaign.point_params(x)[:3] for x in campaign.sweep_grid})
    # Each group's blocks run in trial order and cover every trial once.
    for key in groups:
        ranges = [(lo, hi) for g, lo, hi in plan if id(g) == key]
        assert ranges[0][0] == 0 and ranges[-1][1] == campaign.num_trials
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))


def fixed_256_trial_plan(campaign):
    """The plan before blocks were sized by N: 256 trials per block."""
    groups = {id(group): group for group, _, _ in _plan_blocks(campaign)}
    assert [tuple(group[3]) for group in groups.values()] == [
        (gi,) for gi in range(len(campaign.sweep_grid))]
    return [(group, lo, min(lo + 256, campaign.num_trials))
            for group in groups.values()
            for lo in range(0, campaign.num_trials, 256)]


@pytest.mark.parametrize("los_phase", ["common", "random"])
def test_large_n_plan_gives_the_fixed_plan_bytes(monkeypatch, los_phase):
    campaign = small_campaign(sweep={"grid": [128, 256]}, num_trials=256,
                              fading={"los_phase": los_phase},
                              algorithms=["blind", "lc_ao", "no_ris"])
    assert len(_plan_blocks(campaign)) == 4
    planned = run_campaign(campaign)
    monkeypatch.setattr(ris_scma.campaign, "_plan_blocks", fixed_256_trial_plan)
    assert run_campaign(campaign).rows == planned.rows


def test_one_large_n_point_fans_out(monkeypatch):
    def campaign(workers):
        return small_campaign(sweep={"grid": [128]}, num_trials=256,
                              algorithms=["blind", "lc_ao"], workers=workers)
    one_worker = run_campaign(campaign(1)).rows
    forks = recording_forks(monkeypatch)
    assert run_campaign(campaign(2)).rows == one_worker
    assert len(forks) == 2


def test_paired_gain_nonnegative_everywhere():
    result = run_campaign(small_campaign())
    by_alg = {}
    for row in result.rows:
        by_alg.setdefault(row.algorithm, []).append(row)
    for bl, ao in zip(by_alg["blind"], by_alg["ao"]):
        assert ao.mean_snr_db >= bl.mean_snr_db
    for ao, lc in zip(by_alg["ao"], by_alg["lc_ao"]):
        assert ao.mean_snr_db == lc.mean_snr_db   # identical selections


def test_per_trial_ore_dominance(geom):
    fading = FadingConfig()
    alpha = PhaseAlphabet.from_bits(2)
    rng_seeds = [trial_seed(7, 0, t) for t in range(25)]
    for seed in rng_seeds:
        ch = draw_link_channels(np.random.default_rng(seed), 4, 3, geom, fading, 3)
        ex = received_snr(ch, exhaustive_optimize(ch, alpha), fading)
        ao_idx = ao_optimize(ch, alpha, 3).indices
        lc_idx = lc_ao_optimize(ch, alpha, 3).indices
        assert np.array_equal(ao_idx, lc_idx)
        from ris_scma.optimizer import PhaseAssignment
        ao = received_snr(ch, PhaseAssignment(alpha, ao_idx), fading)
        bl = received_snr(ch, blind_phases(alpha, 4, 3), fading)
        assert (ex >= ao * (1 - 1e-12)).all()
        assert (ao >= bl * (1 - 1e-12)).all()


def test_convergence_traces_are_paired_and_monotone():
    c = small_campaign(scenario="convergence", sweep={"grid": [1, 2, 3, 4]},
                       num_trials=50, num_elements=5,
                       algorithms=["ao", "blind"])
    result = run_campaign(c)
    curve = [r.mean_snr_db for r in result.rows if r.algorithm == "ao"]
    assert len(curve) == 4
    for prev, cur in zip(curve, curve[1:]):
        assert cur >= prev - 1e-12
    blind_curve = [r.mean_snr_db for r in result.rows if r.algorithm == "blind"]
    assert all(x == blind_curve[0] for x in blind_curve)  # same draws per point


@pytest.mark.parametrize("workers", [1, 2])
def test_convergence_points_equal_single_point_runs(workers):
    # 300 trials are two batches; each T of one trajectory must give the row
    # an ascent of exactly T sweeps gives on the same draws.
    doc = dict(scenario="convergence", num_trials=300, num_elements=8,
               algorithms=["blind", "ao", "lc_ao"], workers=workers)
    together = run_campaign(small_campaign(**doc, sweep={"grid": [1, 3, 6]}))
    for t in (1, 3, 6):
        alone = run_campaign(small_campaign(**doc, sweep={"grid": [t]}))
        assert [r for r in together.rows if r.axis_value == t] == list(alone.rows)


def test_convergence_draws_and_climbs_once_per_batch(monkeypatch):
    calls = {"draw": 0, "ascent": 0}

    def counting(name, fn):
        def shim(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return shim

    monkeypatch.setattr(ris_scma.campaign, "draw_trial_block",
                        counting("draw", ris_scma.campaign.draw_trial_block))
    monkeypatch.setattr(ris_scma.campaign, "ao_optimize",
                        counting("ascent", ris_scma.campaign.ao_optimize))
    run_campaign(small_campaign(scenario="convergence", sweep={"grid": [1, 2, 3, 4]},
                                num_trials=300, num_elements=4,
                                algorithms=["blind", "ao", "lc_ao"]))
    assert calls == {"draw": 2, "ascent": 2}


def _address(array):
    return array.__array_interface__["data"][0]


def test_blocks_of_a_group_share_one_channel_store(monkeypatch, geom, fading):
    # Two groups of three blocks (256, 256 and 88 trials): each group's blocks
    # are drawn into one store, the short block into its prefix, and the
    # next group gets a store of its own.
    drawn = []
    draw = ris_scma.campaign.draw_trial_block

    def recording(*args, **kwargs):
        drawn.append(draw(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(ris_scma.campaign, "draw_trial_block", recording)
    run_campaign(small_campaign(num_trials=600, algorithms=["blind"]))
    names = ("direct", "ris_to_bs", "user_to_ris")
    assert len(drawn) == 6
    for group in (drawn[:3], drawn[3:]):
        for first, later in zip(group, group[1:]):
            for name in names:
                assert _address(getattr(later, name)) == _address(getattr(first, name))
    for name in names:
        assert not np.shares_memory(getattr(drawn[2], name), getattr(drawn[3], name))
    # Without a store every draw has arrays of its own.
    plain = [draw_trial_block(range(4), 4, 3, geom, fading, 8)
             for _ in range(2)]
    for name in names:
        assert not np.shares_memory(getattr(plain[0], name), getattr(plain[1], name))


@pytest.mark.parametrize("algorithms", [
    ["ao", "blind"], ["lc_ao", "ao"],
    ["blind", "lc_ao", "no_ris"],       # draw_bound_deploy's list: lc_ao alone
], ids=["ao-blind", "lc_ao-ao", "blind-lc_ao-no_ris"])
def test_benchmark_tracer_names_resolve_and_observe(monkeypatch, algorithms):
    # The benchmark's tracer swaps these names on their modules and reads
    # ao_optimize's iterations positionally; a campaign that stopped calling
    # them so would read as 0 calls without any error.  Each block runs one
    # ascent, under the name of the first counted algorithm the document
    # lists.
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    for module_name, names in tracing.TRACED.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"
    c = small_campaign(scenario="convergence", sweep={"grid": [1, 2, 5]},
                       num_trials=300, num_elements=4, algorithms=algorithms)
    blocks = len(_plan_blocks(c))
    assert blocks == 2
    tracer = tracing.Tracer("test")
    with tracing.traced_library(tracer):
        tracer.call("run_campaign", run_campaign, c)
    first = next(alg for alg in algorithms if alg in ("ao", "lc_ao"))
    other = {"ao": "lc_ao", "lc_ao": "ao"}[first]
    spans = [span[0] for span in tracer.spans]
    assert spans.count(f"{first}_optimize") == blocks
    assert spans.count(f"{other}_optimize") == 0
    metrics = tracer.layer_metrics()
    assert metrics["optimizer.ao_calls"] == (blocks if first == "ao" else 0)
    assert metrics["optimizer.ao_candidate_evals"] == (
        300 * c.scma.num_ores * 4 * 2**c.phase_bits * 5 if first == "ao" else 0)


def test_rows_follow_the_documents_algorithm_order():
    # Every golden lists its algorithms in table order, so only a shuffled
    # list shows that the rows, and the ascent a block runs, follow the
    # document rather than the table.
    shuffled = ["no_ris", "lc_ao", "exhaustive", "blind", "ao"]
    canonical = ["blind", "ao", "lc_ao", "exhaustive", "no_ris"]
    doc = dict(sweep={"grid": [2, 4]}, num_trials=40, num_elements=4)
    ours = run_campaign(small_campaign(algorithms=shuffled, **doc))
    ref = run_campaign(small_campaign(algorithms=canonical, **doc))
    assert ours.algorithms == tuple(shuffled)
    assert [(row.axis_value, row.algorithm) for row in ours.rows] == [
        (value, alg) for value in (2.0, 4.0) for alg in shuffled]
    by_cell = {(row.axis_value, row.algorithm): row for row in ref.rows}
    assert len(by_cell) == len(ours.rows)
    for row in ours.rows:
        assert row == by_cell[row.axis_value, row.algorithm]
    for result in (ours, ref):
        snr = {(r.axis_value, r.algorithm): (r.trials, r.mean_linear, r.mean_snr_db,
                                             r.stderr_db) for r in result.rows}
        for value in (2.0, 4.0):
            assert snr[value, "ao"] == snr[value, "lc_ao"]


def test_mean_of_db_mode_differs():
    a = run_campaign(small_campaign())
    b = run_campaign(small_campaign(average_mode="mean_of_db"))
    row_a = next(r for r in a.rows if r.algorithm == "ao")
    row_b = next(r for r in b.rows if r.algorithm == "ao")
    assert row_a.mean_snr_db != row_b.mean_snr_db
    assert row_a.mean_snr_db >= row_b.mean_snr_db  # dB of mean >= mean of dB


def test_campaign_validation():
    with pytest.raises(ValueError, match="scenario must be one of"):
        replace(small_campaign(), scenario="x")
    with pytest.raises(ValueError, match="strictly increasing"):
        small_campaign(sweep={"grid": [4, 2]})
    with pytest.raises(ValueError, match="unknown algorithm"):
        small_campaign(algorithms=["ao", "genie"])
    with pytest.raises(ValueError, match="budget"):
        small_campaign(algorithms=["exhaustive"], sweep={"grid": [4, 64]},
                       phase_bits=3)
    with pytest.raises(ValueError, match="only counts"):
        small_campaign(scenario="complexity_grid", algorithms=["blind"])
    with pytest.raises(ValueError, match="'lc_ao' is listed more than once"):
        small_campaign(algorithms=["lc_ao", "blind", "lc_ao"])
    with pytest.raises(ValueError, match="no_ris needs a direct link"):
        small_campaign(algorithms=["blind", "no_ris"], fading={"direct_loss_scale": 0.0})
    with pytest.raises(ValueError, match="sweeps"):
        Campaign(scenario="n_sweep", scma=ScmaConfig(6, 4, 2, 2, 3),
                 geometry=Geometry(40.0, 1.5, 2.0, 2.4e9),
                 fading=FadingConfig(), num_elements=4, phase_bits=2,
                 num_iterations=1, sweep_axis="phase_bits", sweep_grid=(2, 4),
                 num_trials=5, master_seed=0, algorithms=("ao",))


@pytest.mark.parametrize("scenario, grid", [
    ("n_sweep", (16.5, 64)),        # int() would run N = 16 under the label 16.5
    ("n_sweep", (True, 64)),        # ... and N = 1 here
    ("n_sweep", (np.float64(16.0), 64)),
    ("bits_sweep", (1, "2")),
    ("convergence", (1, 2.0)),
    ("deploy_sweep", (2.0, "5")),
    ("deploy_sweep", (False, 5.0)),
    ("deploy_sweep", (2.0, 5 + 0j)),
])
def test_mistyped_sweep_value_is_refused(scenario, grid):
    base = small_campaign(scenario=scenario)
    with pytest.raises(ValueError, match=f"sweep_grid on axis '{base.sweep_axis}'"):
        replace(base, sweep_grid=grid)


def test_typed_sweep_values_are_accepted():
    base = small_campaign()
    assert replace(base, sweep_grid=(np.int64(2), 4)).point_params(np.int64(2))[1] == 2
    deploy = small_campaign(scenario="deploy_sweep")
    assert replace(deploy, sweep_grid=(2, np.float32(5.5))).sweep_grid == (2, 5.5)


def test_deploy_profile_shape():
    c = small_campaign(scenario="deploy_sweep",
                       sweep={"grid": [2.0, 10.0, 20.0, 30.0, 38.0]},
                       num_trials=60, num_elements=8,
                       algorithms=["blind", "ao"])
    profile = deploy_sweep_profile(run_campaign(c), algorithm="ao")
    assert profile.is_endpoint_high
    assert 2.0 < profile.interior_min_offset < 38.0
    assert profile.argmax_offsets[0] in (2.0, 38.0)


def test_deploy_profile_requires_matching_scenario():
    result = run_campaign(small_campaign())
    with pytest.raises(ValueError, match="deploy_sweep"):
        deploy_sweep_profile(result)


def test_deploy_profile_requires_the_algorithm():
    c = small_campaign(scenario="deploy_sweep", sweep={"grid": [2.0, 20.0, 38.0]},
                       num_trials=10, algorithms=["blind", "lc_ao"])
    with pytest.raises(ValueError, match=r"no 'ao' rows; it has \('blind', 'lc_ao'\)"):
        deploy_sweep_profile(run_campaign(c), "ao")


def test_deploy_profile_degenerate_grid():
    c = small_campaign(scenario="deploy_sweep", sweep={"grid": [2.0, 38.0]},
                       num_trials=10, algorithms=["ao"])
    with pytest.raises(ValueError, match="degenerate"):
        deploy_sweep_profile(run_campaign(c))
