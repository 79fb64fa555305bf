import concurrent.futures
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ris_scma.campaign
from ris_scma.campaign import (Campaign, deploy_sweep_profile, run_campaign,
                               trial_seed)
from ris_scma.channel import FadingConfig, Geometry, draw_link_channels
from ris_scma.config import campaign_from_config, parse_config
from ris_scma.factor_graph import ScmaConfig
from ris_scma.optimizer import (PhaseAlphabet, ao_optimize, blind_phases,
                                composite_channel, exhaustive_optimize,
                                lc_ao_optimize, received_snr)


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


def recording_pool(monkeypatch):
    """Swap in an executor that runs its tasks in this process and records
    each pool's process count, chunk size and task count."""
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append({"processes": max_workers})

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            tasks = list(zip(*iterables))
            pools[-1].update(chunksize=chunksize, tasks=len(tasks))
            return [fn(*task) for task in tasks]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return pools


def test_worker_count_does_not_change_results():
    # 90 trials are two blocks, one per process; the deploy plan's 15 blocks
    # go out in chunks of several, the last chunk short.
    for campaign in (lambda w: small_campaign(num_trials=90, workers=w),
                     chunked_campaign):
        assert run_campaign(campaign(2)).rows == run_campaign(campaign(1)).rows


@pytest.mark.parametrize("workers", [2, 3, 64])
def test_pool_gets_one_process_per_block_at_most(monkeypatch, workers):
    pools = recording_pool(monkeypatch)
    run_campaign(chunked_campaign(workers))
    assert len(pools) == 1
    pool = pools[0]
    assert pool["processes"] == min(workers, 15) and pool["tasks"] == 15
    chunks = -(-pool["tasks"] // pool["chunksize"])
    assert chunks >= pool["processes"]      # no process is left without work
    if workers == 2:
        # what test_worker_count_does_not_change_results runs in real
        # processes: chunks of several blocks, the last one short
        assert pool["chunksize"] > 1 and pool["tasks"] % pool["chunksize"]


@pytest.mark.parametrize("overrides", [
    {"sweep": {"grid": [4]}},
    {"scenario": "complexity_grid", "sweep": {"grid": [4, 8]}, "algorithms": ["ao"]},
], ids=["one_block", "complexity_grid"])
def test_no_pool_without_two_blocks(monkeypatch, overrides):
    pools = recording_pool(monkeypatch)
    run_campaign(small_campaign(**overrides, workers=2))
    assert pools == []


POOL_MODULES = ("multiprocessing", "concurrent.futures.process")
ONE_PROCESS_RUNS = {
    "import_cli": "import ris_scma.cli",
    "one_block_campaign_at_two_workers": (
        "from ris_scma.campaign import run_campaign\n"
        "from ris_scma.config import campaign_from_config, config_from_document\n"
        "run_campaign(campaign_from_config(config_from_document(\n"
        "    {'scenario': 'n_sweep', 'sweep': {'grid': [4]}, 'num_elements': 4,\n"
        "     'num_trials': 40, 'workers': 2})))"),
}


@pytest.mark.parametrize("case", sorted(ONE_PROCESS_RUNS))
def test_one_process_runs_never_import_the_pool(case):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    code = (ONE_PROCESS_RUNS[case] + "\nimport sys\n"
            f"loaded = [m for m in {POOL_MODULES!r} if m in sys.modules]\n"
            "assert not loaded, loaded\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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
        ex = received_snr(ch, exhaustive_optimize(ch, alpha), fading).per_ore_linear
        ao_idx = ao_optimize(ch, alpha, 3).indices
        lc_idx = lc_ao_optimize(ch, alpha, 3).indices
        assert np.array_equal(ao_idx, lc_idx)
        from ris_scma.optimizer import PhaseAssignment
        ao = received_snr(ch, PhaseAssignment(alpha, ao_idx), fading).per_ore_linear
        bl = received_snr(ch, blind_phases(alpha, 4, 3), fading).per_ore_linear
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


def test_benchmark_tracer_names_resolve_and_observe(monkeypatch):
    # The benchmark's tracer swaps these names on their modules and reads
    # ao_optimize's iterations positionally; a campaign that stopped calling
    # them so would read as 0 calls without any error.
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    for module_name, names in tracing.TRACED.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"
    c = small_campaign(scenario="convergence", sweep={"grid": [1, 2, 5]},
                       num_trials=10, num_elements=4, algorithms=["ao", "blind"])
    tracer = tracing.Tracer("test")
    with tracing.traced_library(tracer):
        tracer.call("run_campaign", run_campaign, c)
    metrics = tracer.layer_metrics()
    assert metrics["optimizer.ao_calls"] == 1
    assert metrics["optimizer.ao_candidate_evals"] == (
        10 * c.scma.num_ores * 4 * 2**c.phase_bits * 5)


def test_mean_of_db_mode_differs():
    a = run_campaign(small_campaign())
    b = run_campaign(small_campaign(average_mode="mean_of_db"))
    row_a = next(r for r in a.rows if r.algorithm == "ao")
    row_b = next(r for r in b.rows if r.algorithm == "ao")
    assert row_a.mean_snr_db != row_b.mean_snr_db
    assert row_a.mean_snr_db >= row_b.mean_snr_db  # dB of mean >= mean of dB


def test_campaign_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        small_campaign(sweep={"grid": [4, 2]})
    with pytest.raises(ValueError, match="unknown algorithm"):
        small_campaign(algorithms=["ao", "genie"])
    with pytest.raises(ValueError, match="budget"):
        small_campaign(algorithms=["exhaustive"], sweep={"grid": [4, 64]},
                       phase_bits=3)
    with pytest.raises(ValueError, match="only counts"):
        small_campaign(scenario="complexity_grid", algorithms=["blind"])
    with pytest.raises(ValueError, match="sweeps"):
        Campaign(scenario="n_sweep", scma=ScmaConfig(6, 4, 2, 2, 3),
                 geometry=Geometry(40.0, 1.5, 2.0, 2.4e9),
                 fading=FadingConfig(), num_elements=4, phase_bits=2,
                 num_iterations=1, sweep_axis="phase_bits", sweep_grid=(2, 4),
                 num_trials=5, master_seed=0, algorithms=("ao",))


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


# ---------------------------------------------------------------------------
# Signal synthesis


def test_synthesize_uses_the_snr_composite(geom):
    # the vector multiplying the codewords is the one whose norm is the SNR
    fading = FadingConfig()
    ch = draw_link_channels(np.random.default_rng(6), 3, 3, geom, fading, 5)
    phases = ao_optimize(ch, PhaseAlphabet.from_bits(2), 1)
    w = composite_channel(ch, phases)
    scale = fading.symbol_energy / fading.noise_variance
    assert received_snr(ch, phases, fading).per_ore_linear == pytest.approx(
        scale * (np.abs(w) ** 2).sum(axis=1), rel=1e-12)
