"""Seeded Monte Carlo campaigns over the phase-shift optimizers.

Every trial draws its own channel realization from a child seed derived as
``first 8 bytes (big endian) of SHA-256("{master_seed}:{grid_index}:{trial_index}")``,
so results are bit-identical for any worker count and reproducible in any
language.  A trial's stream is the one numpy's default generator gives its
child seed; each batch's child seeds are mixed into PCG64 states in one
vectorized pass (:func:`~ris_scma.channel.draw_trial_block`).  Grid points
that differ only in the sweep count T (the ``convergence`` scenario) share the
first such point's draws and one ascent trajectory, read after each point's T
sweeps.  All requested algorithms run on the same realization (paired
comparison), and the reduction is ordered by (grid index, trial index), never
by completion order.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .channel import FadingConfig, Geometry, draw_trial_block
# Not called here any more; the benchmark's tracer swaps these two names on
# this module by name, so they must stay importable from it.
from .channel import draw_link_channels, stack_realizations  # noqa: F401
from .factor_graph import ScmaConfig, build_factor_graph
from .opcount import (OpCount, predicted_ao, predicted_exhaustive,
                      predicted_lc_ao)
from .optimizer import (DEFAULT_EXHAUSTIVE_BUDGET, PhaseAlphabet, ao_optimize,
                        blind_phases, db_from_linear, exhaustive_optimize,
                        lc_ao_optimize, no_ris_snr, received_snr)

SCENARIOS = ("deploy_sweep", "bits_sweep", "n_sweep", "convergence", "complexity_grid")
ALGORITHMS = ("blind", "ao", "lc_ao", "exhaustive", "no_ris")
AVERAGE_MODES = ("db_of_mean", "mean_of_db")

AXIS_BY_SCENARIO = {
    "deploy_sweep": "ris_horizontal_offset",
    "bits_sweep": "phase_bits",
    "n_sweep": "num_elements",
    "convergence": "num_iterations",
}
COMPLEXITY_AXES = ("num_elements", "phase_bits")

_TRIAL_BATCH = 256
# Blocks go to pool processes in contiguous chunks, about this many per process.
_CHUNKS_PER_PROCESS = 4


@dataclass(frozen=True)
class Campaign:
    """One experiment: a scenario, its sweep grid, and the shared parameters."""

    scenario: str
    scma: ScmaConfig
    geometry: Geometry
    fading: FadingConfig
    num_elements: int
    phase_bits: int
    num_iterations: int
    sweep_axis: str
    sweep_grid: tuple
    num_trials: int
    master_seed: int
    algorithms: tuple
    average_mode: str = "db_of_mean"
    exhaustive_budget: int = DEFAULT_EXHAUSTIVE_BUDGET
    workers: int = 1

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if len(self.sweep_grid) == 0:
            raise ValueError("sweep_grid must be non-empty")
        if any(b >= a for a, b in zip(self.sweep_grid[1:], self.sweep_grid)):
            raise ValueError(f"sweep_grid must be strictly increasing, got {self.sweep_grid}")
        if self.scenario == "complexity_grid":
            if self.sweep_axis not in COMPLEXITY_AXES:
                raise ValueError(
                    f"complexity_grid sweeps one of {COMPLEXITY_AXES}, "
                    f"got sweep_axis {self.sweep_axis!r}")
        elif self.sweep_axis != AXIS_BY_SCENARIO[self.scenario]:
            raise ValueError(
                f"scenario {self.scenario!r} sweeps "
                f"{AXIS_BY_SCENARIO[self.scenario]!r}, got sweep_axis {self.sweep_axis!r}")
        if not self.algorithms:
            raise ValueError("algorithms must be non-empty")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {alg!r}; choose from {ALGORITHMS}")
        if self.scenario == "complexity_grid":
            bad = [a for a in self.algorithms if a not in ("ao", "lc_ao")]
            if bad:
                raise ValueError(
                    f"complexity_grid only counts ao/lc_ao, got {bad}")
        if self.num_trials < 1 and self.scenario != "complexity_grid":
            raise ValueError(f"num_trials must be >= 1, got {self.num_trials}")
        if self.average_mode not in AVERAGE_MODES:
            raise ValueError(
                f"average_mode must be one of {AVERAGE_MODES}, got {self.average_mode!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        build_factor_graph(self.scma)   # refuse a layout with no graph up front
        if "no_ris" in self.algorithms and self.fading.direct_loss_scale == 0:
            raise ValueError(
                "no_ris needs a direct link: with fading.direct_loss_scale = 0 "
                "its SNR is identically 0")
        for name, value in (("num_elements", self.num_elements),
                            ("phase_bits", self.phase_bits),
                            ("num_iterations", self.num_iterations)):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        for value in self.sweep_grid:
            # point_params also builds the Geometry, which checks the offset.
            _, n, b, t = self.point_params(value)
            for name, param in (("num_elements", n), ("phase_bits", b),
                                ("num_iterations", t)):
                if param < 1:
                    raise ValueError(
                        f"{name} must be >= 1, got {param} at grid point {value}")
            if "exhaustive" in self.algorithms and (2**b) ** n > self.exhaustive_budget:
                raise ValueError(
                    f"exhaustive budget exceeded at grid point {value}: "
                    f"2^(b*N) = {(2**b) ** n} > {self.exhaustive_budget}")

    def point_params(self, axis_value) -> tuple:
        """(geometry, num_elements, phase_bits, num_iterations) at a grid point."""
        geom, n, b, t = (self.geometry, self.num_elements,
                         self.phase_bits, self.num_iterations)
        if self.sweep_axis == "ris_horizontal_offset":
            geom = replace(geom, ris_horizontal_offset=float(axis_value))
        elif self.sweep_axis == "num_elements":
            n = int(axis_value)
        elif self.sweep_axis == "phase_bits":
            b = int(axis_value)
        elif self.sweep_axis == "num_iterations":
            t = int(axis_value)
        return geom, n, b, t


@dataclass(frozen=True)
class ResultRow:
    """One (grid point, algorithm) aggregate."""

    axis_value: float
    algorithm: str
    trials: int
    mean_linear: Optional[float]
    mean_snr_db: Optional[float]
    stderr_db: Optional[float]
    real_adds: int
    real_mults: int


@dataclass(frozen=True)
class CampaignResult:
    scenario: str
    sweep_axis: str
    sweep_grid: tuple
    algorithms: tuple
    num_trials: int
    master_seed: int
    average_mode: str
    config_hash: str
    rows: tuple


def trial_seed(master_seed: int, grid_index: int, trial_index: int) -> int:
    """Stable, language-agnostic child seed for one (grid point, trial)."""
    msg = f"{master_seed}:{grid_index}:{trial_index}".encode("ascii")
    return int.from_bytes(hashlib.sha256(msg).digest()[:8], "big")


def _predicted_ops(algorithm: str, num_ores: int, n: int, b: int, df: int,
                   t: int) -> OpCount:
    """Per-run arithmetic counts reported alongside the SNR aggregates."""
    if algorithm == "ao":
        return predicted_ao(num_ores, n, b, df, t)
    if algorithm == "lc_ao":
        return predicted_lc_ao(num_ores, n, b, df, t)
    if algorithm == "exhaustive":
        return predicted_exhaustive(num_ores, n, b, df)
    return OpCount()


def _trial_block(campaign: Campaign, grid_indices: tuple, trial_lo: int,
                 trial_hi: int) -> dict:
    """Per-trial ORE-mean linear SNRs, keyed by (grid index, algorithm), for
    one batch [trial_lo, trial_hi) of a grid group from :func:`_plan_blocks`:
    one draw, and one ascent to the group's largest T read at each point's T."""
    geom, n, b, _ = campaign.point_params(campaign.sweep_grid[grid_indices[0]])
    sweeps = {gi: campaign.point_params(campaign.sweep_grid[gi])[3]
              for gi in grid_indices}
    alphabet = PhaseAlphabet.from_bits(b)
    scma, fading = campaign.scma, campaign.fading
    ch = draw_trial_block(
        [trial_seed(campaign.master_seed, grid_indices[0], i)
         for i in range(trial_lo, trial_hi)],
        scma.num_ores, scma.nonzero_per_ore, geom, fading, n)

    def trial_means(report):
        return report.per_ore_linear.reshape(trial_hi - trial_lo, scma.num_ores).mean(axis=1)

    out = {}
    ascent = None
    for alg in campaign.algorithms:
        if alg == "ao" or alg == "lc_ao":
            # Both names run one vectorized kernel, so whichever comes first
            # computes the selections for both rows.
            if ascent is None:
                optimize = ao_optimize if alg == "ao" else lc_ao_optimize
                snapshots = dict.fromkeys(sweeps.values())
                optimize(ch, alphabet, max(snapshots), snapshots=snapshots)
                ascent = {t: trial_means(received_snr(ch, p, fading))
                          for t, p in snapshots.items()}
            by_sweeps = ascent
        else:
            if alg == "blind":
                report = received_snr(
                    ch, blind_phases(alphabet, ch.num_ores, ch.num_elements), fading)
            elif alg == "no_ris":
                report = no_ris_snr(ch, fading)
            else:
                report = received_snr(ch, exhaustive_optimize(
                    ch, alphabet, campaign.exhaustive_budget), fading)
            by_sweeps = dict.fromkeys(sweeps.values(), trial_means(report))
        for gi, t in sweeps.items():
            out[gi, alg] = by_sweeps[t]
    return out


def _aggregate(campaign: Campaign, axis_value, algorithm: str,
               per_trial: Optional[np.ndarray]) -> ResultRow:
    """One row; with no per-trial values (complexity_grid) only the counts."""
    _, n, b, t = campaign.point_params(axis_value)
    ops = _predicted_ops(algorithm, campaign.scma.num_ores, n, b,
                         campaign.scma.nonzero_per_ore, t)
    trials, mean_lin, mean_db, stderr_db = 0, None, None, None
    if per_trial is not None:
        trials = per_trial.size
        # Non-finite statistics are refused below, so numpy need not warn.
        with np.errstate(all="ignore"):
            mean_lin = float(per_trial.mean())
            if campaign.average_mode == "db_of_mean":
                mean_db = db_from_linear(mean_lin)
                if trials > 1 and mean_lin > 0:
                    stderr = float(per_trial.std(ddof=1) / np.sqrt(trials))
                    stderr_db = float(10.0 / np.log(10.0) * stderr / mean_lin)
                else:
                    stderr_db = 0.0
            else:
                per_db = 10.0 * np.log10(per_trial)
                mean_db = float(per_db.mean())
                stderr_db = float(per_db.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
        if not all(map(math.isfinite, (mean_lin, mean_db, stderr_db))):
            fading = campaign.fading
            raise ValueError(
                f"{algorithm} at {campaign.sweep_axis} = {axis_value}: the "
                f"{campaign.average_mode} SNR mean or standard error is not finite "
                f"(linear mean {mean_lin:g}); the link budget symbol_energy / "
                f"noise_variance = {fading.symbol_energy:g} / "
                f"{fading.noise_variance:g} is out of range")
    return ResultRow(axis_value=float(axis_value), algorithm=algorithm,
                     trials=trials, mean_linear=mean_lin, mean_snr_db=mean_db,
                     stderr_db=stderr_db, real_adds=ops.real_additions,
                     real_mults=ops.real_multiplications)


def run_campaign(campaign: Campaign, config_hash: str = "") -> CampaignResult:
    """Run every (grid point, trial, algorithm) cell and aggregate.

    Deterministic for a fixed master seed: trials are indexed, not streamed,
    so the worker count never changes the numbers.  ``complexity_grid`` runs
    no trials and reports only the operation counts.

    A process pool starts only when ``workers > 1`` and the plan has at least
    two blocks; it gets ``min(workers, blocks)`` processes and takes the blocks
    in contiguous chunks, about ``_CHUNKS_PER_PROCESS`` per process.  Any other
    run works in this process and never imports the pool.
    """
    counts_only = campaign.scenario == "complexity_grid"
    blocks = [] if counts_only else _plan_blocks(campaign)
    args = ([campaign] * len(blocks), *zip(*blocks))
    processes = min(campaign.workers, len(blocks))
    if processes > 1:
        from concurrent.futures import ProcessPoolExecutor
        chunksize = -(-len(blocks) // (_CHUNKS_PER_PROCESS * processes))
        with ProcessPoolExecutor(max_workers=processes) as pool:
            partials = list(pool.map(_trial_block, *args, chunksize=chunksize))
    else:
        partials = list(map(_trial_block, *args))
    per_cell = {}
    for part in partials:               # a group's blocks come in trial order
        for key, per_trial in part.items():
            per_cell.setdefault(key, []).append(per_trial)
    rows = tuple(
        _aggregate(campaign, axis_value, alg,
                   np.concatenate(per_cell[gi, alg]) if (gi, alg) in per_cell else None)
        for gi, axis_value in enumerate(campaign.sweep_grid)
        for alg in campaign.algorithms)
    return CampaignResult(
        scenario=campaign.scenario, sweep_axis=campaign.sweep_axis,
        sweep_grid=campaign.sweep_grid, algorithms=campaign.algorithms,
        num_trials=0 if counts_only else campaign.num_trials,
        master_seed=campaign.master_seed, average_mode=campaign.average_mode,
        config_hash=config_hash, rows=rows)


def _plan_blocks(campaign: Campaign) -> list:
    """(grid indices, lo, hi) work items, one per batch of trials.  Grid points
    whose parameters agree on everything but T (geometry, N, b) form one group
    that shares draws and ascents; ranges align to the fixed batch size, so
    the stacked groups (and thus every float) are identical for any worker
    count."""
    groups = {}
    for gi, axis_value in enumerate(campaign.sweep_grid):
        geom, n, b, _ = campaign.point_params(axis_value)
        groups.setdefault((geom, n, b), []).append(gi)
    return [(tuple(group), lo, min(lo + _TRIAL_BATCH, campaign.num_trials))
            for group in groups.values()
            for lo in range(0, campaign.num_trials, _TRIAL_BATCH)]


@dataclass(frozen=True)
class DeploymentProfile:
    """Shape summary of a deployment sweep curve."""

    argmax_offsets: tuple
    interior_min_offset: float
    is_endpoint_high: bool


def deploy_sweep_profile(result: CampaignResult,
                         algorithm: str = "ao") -> DeploymentProfile:
    """Locate the best offsets and check the endpoint-high, middle-low shape."""
    if result.scenario != "deploy_sweep":
        raise ValueError(f"expected a deploy_sweep result, got {result.scenario!r}")
    if algorithm not in result.algorithms:
        raise ValueError(f"the result has no {algorithm!r} rows; it has {result.algorithms}")
    curve = [(row.axis_value, row.mean_snr_db) for row in result.rows
             if row.algorithm == algorithm]
    if len(curve) < 3:
        raise ValueError(f"degenerate grid: need >= 3 points, got {len(curve)}")
    xs = [p[0] for p in curve]
    ys = [p[1] for p in curve]
    top = max(ys)
    argmax = tuple(x for x, y in curve if y == top)
    k = int(np.argmin(ys))
    interior = 0 < k < len(ys) - 1
    endpoint_high = min(ys[0], ys[-1]) > ys[k]
    return DeploymentProfile(argmax_offsets=argmax,
                             interior_min_offset=xs[k],
                             is_endpoint_high=interior and endpoint_high)

