"""Seeded Monte Carlo campaigns over the phase-shift optimizers.

Every trial draws its own channel realization from a child seed derived as
``first 8 bytes (big endian) of SHA-256("{master_seed}:{grid_index}:{trial_index}")``,
so results are bit-identical for any worker count and reproducible in any
language.  A trial's stream is the one numpy's default generator gives its
child seed; each block's child seeds are mixed into PCG64 states in one
vectorized pass (:func:`~ris_scma.channel.draw_trial_block`).  Block sizes
shrink with N (:func:`_plan_blocks`).  Grid points that differ only in the
sweep count T (the ``convergence`` scenario) share the first such point's
draws and one ascent trajectory, read after each point's T sweeps.  All
requested algorithms run on the same realization (paired comparison), and
the reduction is ordered by (grid index, trial index), never by completion
order.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import os
import pickle
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .channel import (ChannelStore, FadingConfig, Geometry, _largest_block_array,
                      cascaded_path_loss, direct_path_loss, draw_trial_block)
from .factor_graph import ScmaConfig
from .opcount import OpCount, predicted_ao, predicted_exhaustive, predicted_lc_ao
from .optimizer import (DEFAULT_EXHAUSTIVE_BUDGET, PhaseAlphabet, blind_phases,
                        db_from_linear, no_ris_snr, received_snr)
# The benchmark's tracer swaps these names on this module by name: ALGORITHMS
# calls the ascents by name, and nothing here calls the other three.
from .channel import draw_link_channels, stack_realizations  # noqa: F401
from .factor_graph import build_factor_graph  # noqa: F401
from .optimizer import ao_optimize, lc_ao_optimize  # noqa: F401

# The axes each scenario may sweep, each with its default grid; the first
# axis is the scenario's default.
SWEEPS = {
    "deploy_sweep": {"ris_horizontal_offset": (2.0, 5.0, 10.0, 20.0, 30.0, 35.0, 38.0)},
    "bits_sweep": {"phase_bits": (1, 2, 3, 4)},
    "n_sweep": {"num_elements": (16, 64)},
    "convergence": {"num_iterations": (1, 2, 3, 4, 5, 6)},
    "complexity_grid": {"num_elements": (4, 8, 16, 32, 64, 128),
                        "phase_bits": (1, 2, 3, 4, 5, 6)},
}
SCENARIOS = tuple(SWEEPS)
AVERAGE_MODES = ("db_of_mean", "mean_of_db")

# Block sizes for _plan_blocks.  Every size divides the largest, so a group's
# ranges nest inside 256-aligned ones whatever its N.
_MAX_BLOCK_TRIALS = 256
_BLOCK_ELEMENT_ROWS = 2**16
_MIN_BLOCK_ROWS = 512
# Trials keep phase indices in uint8 and score the ORE rows near a decision
# boundary over all 2^b candidates at once, so b stops at 8 there.
_MAX_TRIAL_PHASE_BITS = 8
# complexity_grid only counts, and each ao or lc_ao count is below
# R T N^2 (d_f + 1) 2^(b+4), so the bit lengths of those factors bound it
# before any 2^b is built.  Counts below 2^floor(4300 log2 10) = 2^14284 have
# at most the 4300 digits Python writes an integer with by default.
_MAX_COUNT_DIGITS = 4300
# A trial scenario refuses each path's link budget E/sigma^2 x p (p the
# direct gain times its scale, or the cascaded gain) outside
# [lo / d_f, hi / (d_f (N + 1)^2 A^4)], so that every SNR and its square are
# normal floats; a zero or infinite gain is refused with the rest, and only
# a zero fading.direct_loss_scale removes the direct path:
# - a unit-power coefficient is lw e^{j theta} + dw z, lw, dw <= 1 and
#   dw = 1 / sqrt(K + 1); numpy's standard_normal never passes 12.3 in
#   magnitude (its ziggurat tail takes the log of a 53-bit uniform), so no
#   coefficient passes A = 1 + 13 / sqrt(K + 1);
# - an ORE's SNR, E/sigma^2 times the sum over its d_f users of
#   |h + sum_n v_n g_n G_n|^2, is at most E/sigma^2 d_f (N + 1)^2 A^4 max p
#   for any phases.  Below hi its square is below 2^958, and a standard
#   error's sum of up to 2^64 squares stays finite;
# - each path alone gives a mean SNR of at least E/sigma^2 d_f p: no_ris's
#   direct link, and blind's, which every ascent starts from and only raises.
#   Above lo a trial 2^32 times below that mean still squares to at least
#   2^-1022, the smallest normal float.
_SNR_RANGE = (2.0**-479, 2.0**479)


@dataclass(frozen=True, repr=False)
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
        if self.sweep_axis not in SWEEPS[self.scenario]:
            raise ValueError(
                f"scenario {self.scenario!r} sweeps one of "
                f"{tuple(SWEEPS[self.scenario])}, got sweep_axis {self.sweep_axis!r}")
        if len(self.sweep_grid) == 0:
            raise ValueError("sweep_grid must be non-empty")
        real = self.sweep_axis == "ris_horizontal_offset"
        for value in self.sweep_grid:
            if isinstance(value, bool) or not isinstance(
                    value, numbers.Real if real else numbers.Integral):
                raise ValueError(
                    f"sweep_grid on axis {self.sweep_axis!r} takes "
                    f"{'real numbers' if real else 'integers'}, got {value!r}")
        if any(b >= a for a, b in zip(self.sweep_grid[1:], self.sweep_grid)):
            raise ValueError(f"sweep_grid must be strictly increasing, got {self.sweep_grid}")
        if not self.algorithms:
            raise ValueError("algorithms must be non-empty")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {alg!r}; choose from {tuple(ALGORITHMS)}")
            if self.algorithms.count(alg) > 1:
                raise ValueError(f"algorithm {alg!r} is listed more than once")
        if self.scenario == "complexity_grid":
            bad = [a for a in self.algorithms if a not in _COUNTED]
            if bad:
                raise ValueError(
                    f"complexity_grid only counts {'/'.join(_COUNTED)}, got {bad}")
        if self.num_trials < 1 and self.scenario != "complexity_grid":
            raise ValueError(f"num_trials must be >= 1, got {self.num_trials}")
        if self.average_mode not in AVERAGE_MODES:
            raise ValueError(
                f"average_mode must be one of {AVERAGE_MODES}, got {self.average_mode!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        fading = self.fading
        budget = fading.symbol_energy / fading.noise_variance
        link = (f"the link budget symbol_energy / noise_variance = "
                f"{fading.symbol_energy:g} / {fading.noise_variance:g}")
        if not math.isfinite(budget):
            raise ValueError(f"{link} is not finite")
        names = ("num_elements", "phase_bits", "num_iterations")
        for name in names:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for value in self.sweep_grid:
            # point_params also builds the Geometry, which checks the offset.
            geom, n, b, t = self.point_params(value)
            for name, param in zip(names, (n, b, t)):
                if param < 1:
                    raise ValueError(
                        f"{name} must be >= 1, got {param} at grid point {value}")
            if self.scenario != "complexity_grid" and b > _MAX_TRIAL_PHASE_BITS:
                raise ValueError(
                    f"phase_bits must be <= {_MAX_TRIAL_PHASE_BITS} for scenario "
                    f"{self.scenario!r}, got {b} at grid point {value}")
            bits = b + 4 + sum(int(x).bit_length() for x in (
                self.scma.num_ores, t, n, n, self.scma.nonzero_per_ore + 1))
            limit = int(_MAX_COUNT_DIGITS * math.log2(10))
            if self.scenario == "complexity_grid" and bits > limit:
                raise ValueError(
                    f"the operation counts at grid point {value} could have more "
                    f"than {_MAX_COUNT_DIGITS} digits: phase_bits + 4 + the bit "
                    f"lengths of system.num_ores, num_iterations, num_elements "
                    f"(twice) and system.nonzero_per_ore + 1 is {bits} > {limit}")
            for alg in self.algorithms:
                if ALGORITHMS[alg][2]:
                    ALGORITHMS[alg][2](self, value, n, b)
            if self.scenario == "complexity_grid":
                continue
            # A group's first block is its largest (_plan_blocks).
            r, df = self.scma.num_ores, self.scma.nonzero_per_ore
            trials = min(_block_trials(n, r), self.num_trials)
            largest = _largest_block_array(trials, r, df, n, fading.los_phase)
            intp = np.iinfo(np.intp)
            if largest > intp.max:
                raise ValueError(
                    f"grid point {value} is too large to allocate: a "
                    f"{trials}-trial block at system.num_ores R = {r}, num_elements "
                    f"N = {n} and system.nonzero_per_ore d_f = {df} needs an array "
                    f"of at least 2^{largest.bit_length() - 1} bytes, past numpy's "
                    f"limit of 2^{intp.bits - 1} - 1")
            lo, hi = _SNR_RANGE
            coefficient = 1 + 13 / math.sqrt(fading.rician_factor + 1)
            lo, hi = lo / df, hi / (df * (n + 1) ** 2 * coefficient**4)
            free_space, cascaded = _path_gains(geom)
            gains = {"direct": free_space * fading.direct_loss_scale, "cascaded": cascaded}
            if fading.direct_loss_scale == 0:
                del gains["direct"]
            for path, gain in gains.items():
                if not lo <= budget * gain <= hi:
                    raise ValueError(
                        f"SNRs out of the normal float range at grid point {value}: "
                        f"geometry.carrier_frequency = {geom.carrier_frequency:g} gives "
                        f"direct path gain {free_space:g} x fading.direct_loss_scale "
                        f"{fading.direct_loss_scale:g} and cascaded path gain "
                        f"{cascaded:g}; {link} times the {path} one is "
                        f"{budget * gain:g}, outside [{lo:g}, {hi:g}] at num_elements "
                        f"N = {n}, system.nonzero_per_ore d_f = {df} and "
                        f"fading.rician_factor {fading.rician_factor:g}")

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


@dataclass(repr=False)
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


@dataclass(repr=False)
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


def _path_gains(geom: Geometry) -> tuple:
    """(free-space direct, cascaded) power gains, inf where a power of the
    wavelength overflows."""
    gains = []
    for gain in (direct_path_loss, cascaded_path_loss):
        try:
            gains.append(gain(geom))
        except OverflowError:
            gains.append(math.inf)
    return tuple(gains)


def trial_seed(master_seed: int, grid_index: int, trial_index: int) -> int:
    """Stable, language-agnostic child seed for one (grid point, trial)."""
    msg = f"{master_seed}:{grid_index}:{trial_index}".encode("ascii")
    return int.from_bytes(hashlib.sha256(msg).digest()[:8], "big")


def _exhaustive_snr(campaign, ch, alphabet):
    from .reference import exhaustive_optimize
    return received_snr(ch, exhaustive_optimize(
        ch, alphabet, campaign.exhaustive_budget), campaign.fading)


def _refuse_past_budget(campaign, value, n, b):
    # 2^(b*N) > budget exactly when b*N reaches the budget's bit length;
    # 2^(b*N) is never built nor b*N written, so a huge N is refused at once.
    budget_bits = max(campaign.exhaustive_budget, 0).bit_length()
    if b * n >= budget_bits:
        raise ValueError(
            f"exhaustive budget exceeded at grid point {value}: "
            f"2^(phase_bits*num_elements) >= 2^{budget_bits} > "
            f"exhaustive_budget = {campaign.exhaustive_budget}")


def _refuse_no_direct_link(campaign, value, n, b):
    if campaign.fading.direct_loss_scale == 0:
        raise ValueError(
            "no_ris needs a direct link: with fading.direct_loss_scale = 0 "
            "its SNR is identically 0")


# Each algorithm: (its SNRs, its counts at (R, N, b, d_f, T) or None, its
# refusal of (campaign, grid value, N, b) or None).  A counted ascent's SNRs
# are its optimizer's name: all choose the same phases, so a block runs the
# first one listed and reads every counted row from it.  Any other gives the
# (R,) SNRs of (campaign, channel, alphabet) at every T.  Names are looked up
# on this module when called, so a function swapped on it is the one run.
ALGORITHMS = {
    "blind": (lambda campaign, ch, alphabet: received_snr(ch, blind_phases(
        alphabet, ch.num_ores, ch.num_elements), campaign.fading), None, None),
    "ao": ("ao_optimize", predicted_ao, None),
    "lc_ao": ("lc_ao_optimize", predicted_lc_ao, None),
    "exhaustive": (_exhaustive_snr, lambda r, n, b, df, t: predicted_exhaustive(r, n, b, df),
                   _refuse_past_budget),
    "no_ris": (lambda campaign, ch, alphabet: no_ris_snr(ch, campaign.fading),
               None, _refuse_no_direct_link),
}
# The counted ascents' closed forms, by name.
_COUNTED = {name: counts for name, (run, counts, _) in ALGORITHMS.items()
            if isinstance(run, str)}


def _trial_block(campaign: Campaign, group: tuple, trial_lo: int,
                 trial_hi: int, store: Optional[ChannelStore] = None) -> dict:
    """Per-trial ORE-mean linear SNRs, keyed by (grid index, algorithm), for
    one batch [trial_lo, trial_hi) of a ``group`` from :func:`_plan_blocks`:
    one draw, into ``store`` if one is given, and one ascent to the group's
    largest T read at each point's T."""
    geom, n, b, sweeps = group
    alphabet = PhaseAlphabet.from_bits(b)
    scma, fading = campaign.scma, campaign.fading
    ch = draw_trial_block(
        [trial_seed(campaign.master_seed, min(sweeps), i)
         for i in range(trial_lo, trial_hi)],
        scma.num_ores, scma.nonzero_per_ore, geom, fading, n, out=store)

    out = {}
    ascent = None
    for alg in campaign.algorithms:
        run = ALGORITHMS[alg][0]
        if isinstance(run, str):
            if ascent is None:
                snapshots = dict.fromkeys(sweeps.values())
                globals()[run](ch, alphabet, max(snapshots), snapshots=snapshots)
                ascent = {t: received_snr(ch, p, fading) for t, p in snapshots.items()}
            snrs = ascent
        else:
            snrs = dict.fromkeys(sweeps.values(), run(campaign, ch, alphabet))
        for gi, t in sweeps.items():
            out[gi, alg] = snrs[t].reshape(trial_hi - trial_lo, scma.num_ores).mean(axis=1)
    return out


def _aggregate(campaign: Campaign, axis_value, algorithm: str,
               per_trial: Optional[np.ndarray]) -> ResultRow:
    """One row; with no per-trial values (complexity_grid) only the counts."""
    geom, n, b, t = campaign.point_params(axis_value)
    r, df = campaign.scma.num_ores, campaign.scma.nonzero_per_ore
    counts = ALGORITHMS[algorithm][1]
    ops = counts(r, n, b, df, t) if counts else OpCount()
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
            free_space, cascaded = _path_gains(geom)
            raise ValueError(
                f"{algorithm} at {campaign.sweep_axis} = {axis_value}: the "
                f"{campaign.average_mode} SNR mean or standard error is not finite "
                f"(linear mean {mean_lin:g}); the link budget is out of range: "
                f"symbol_energy / noise_variance = {fading.symbol_energy:g} / "
                f"{fading.noise_variance:g}, direct path gain {free_space:g} x "
                f"fading.direct_loss_scale {fading.direct_loss_scale:g}, "
                f"cascaded path gain {cascaded:g}")
    return ResultRow(axis_value=float(axis_value), algorithm=algorithm,
                     trials=trials, mean_linear=mean_lin, mean_snr_db=mean_db,
                     stderr_db=stderr_db, real_adds=ops.real_additions,
                     real_mults=ops.real_multiplications)


def run_campaign(campaign: Campaign, config_hash: str = "") -> CampaignResult:
    """Run every (grid point, trial, algorithm) cell and aggregate.

    Deterministic for a fixed master seed: trials are indexed, not streamed,
    so the worker count never changes the numbers.  ``complexity_grid`` runs
    no trials and reports only the operation counts.

    With W = ``min(workers, blocks)`` > 1 the blocks go to W forked child
    processes (:func:`_fan_out`); any other run, and any run on a platform
    without ``os.fork``, works in this process.
    """
    counts_only = campaign.scenario == "complexity_grid"
    blocks = [] if counts_only else _plan_blocks(campaign)
    processes = min(campaign.workers, len(blocks))
    if processes > 1 and hasattr(os, "fork"):
        partials = _fan_out(campaign, blocks, processes)
    else:
        partials = _run_blocks(campaign, blocks)
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


def _run_blocks(campaign: Campaign, blocks: list) -> list:
    """``_trial_block`` of each block, in order, in this process.  Each grid
    group's blocks are drawn into one :class:`~ris_scma.channel.ChannelStore`
    sized by its first block, the largest (:func:`_plan_blocks`), made when
    that block comes; the last group's store is dropped first.  An SNR past
    the float range is refused, with the link budget, by :func:`_aggregate`,
    so numpy need not warn about it."""
    results, current, store = [], None, None
    with np.errstate(over="ignore"):
        for group, lo, hi in blocks:
            if group is not current:
                current, store = group, None
                store = ChannelStore((hi - lo) * campaign.scma.num_ores,
                                     campaign.scma.nonzero_per_ore, group[1])
            results.append(_trial_block(campaign, group, lo, hi, store))
    return results


def _fan_out(campaign: Campaign, blocks: list, processes: int) -> list:
    """``_trial_block`` of every block, in block order, computed by
    ``processes`` forked children: child k takes blocks k, k + processes, ...
    and sends back one pickled list of results, or the exception it raised,
    over its own pipe.  This process takes no block; it reads the pipes in
    fork order, each to its end before reaping that child, so no child waits
    on a full pipe.  A child's exception is raised again here, and a child
    that ends without a result is a ``ChildProcessError``.  Whatever happens,
    every child still running is killed and every child is reaped."""
    read_fds, pids, reaped = [], [], 0
    try:
        for k in range(processes):
            read_fd, write_fd = os.pipe()
            read_fds.append(read_fd)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(campaign, blocks[k::processes], read_fds, write_fd)
                pids.append(pid)
            finally:
                os.close(write_fd)
        partials = [None] * len(blocks)
        for k, (pid, read_fd) in enumerate(zip(pids, read_fds)):
            with open(read_fd, "rb", closefd=False) as pipe:
                payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped += 1
            if code != 0:
                how = f"killed by signal {-code}" if code < 0 else f"exited with code {code}"
                raise ChildProcessError(
                    f"campaign worker process {pid} {how} without a result")
            result = pickle.loads(payload)
            if isinstance(result, Exception):
                raise result
            partials[k::processes] = result
        return partials
    finally:
        for fd in read_fds:
            os.close(fd)
        if reaped < len(pids):
            from signal import SIGKILL      # 1 ms of import no clean run needs
            for pid in pids[reaped:]:
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)


def _child(campaign: Campaign, blocks: list, read_fds: list, write_fd: int) -> None:
    """A forked child's whole life: close the read ends it inherited (so a
    write to a pipe nobody reads fails instead of blocking), compute, write,
    and leave by ``os._exit``, exit code 0 only once the whole result is in
    the pipe."""
    code = 1
    try:
        for fd in read_fds:
            os.close(fd)
        try:
            result = _run_blocks(campaign, blocks)
        except Exception as exc:
            result = exc
        payload = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _plan_blocks(campaign: Campaign) -> list:
    """(group, lo, hi) work items, one per block of trials.  Grid points that
    agree on everything but T share one group, (geometry, N, b, {grid index:
    T}), and its draws and ascents.  A group's block size
    depends only on its N and R = ``scma.num_ores`` (:func:`_block_trials`).
    At R = 4 that is 256 trials up to N = 64 and 128 above, which halves an
    N = 256 block's channel to 8.4 MB.  A trial's values do not depend on its
    block, so every float is identical for any plan and any worker count."""
    groups = {}
    for gi, axis_value in enumerate(campaign.sweep_grid):
        geom, n, b, t = campaign.point_params(axis_value)
        groups.setdefault((geom, n, b), {})[gi] = t
    blocks = []
    for (geom, n, b), sweeps in groups.items():
        # b, not its alphabet, whose numpy pages cost a fan-out parent 0.3 MB.
        group = (geom, n, b, sweeps)
        size = _block_trials(n, campaign.scma.num_ores)
        blocks += [(group, lo, min(lo + size, campaign.num_trials))
                   for lo in range(0, campaign.num_trials, size)]
    return blocks


def _block_trials(n: int, r: int) -> int:
    """Trials per block at N = ``n`` elements and R = ``r`` OREs: 256, halved
    while N x (trials x R) exceeds 2^16 element-rows but never below 512 ORE
    rows."""
    size = _MAX_BLOCK_TRIALS
    while n * size * r > _BLOCK_ELEMENT_ROWS and size // 2 * r >= _MIN_BLOCK_ROWS:
        size //= 2
    return size
