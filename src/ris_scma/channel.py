"""Deployment geometry, path loss, and Rician fading draws for the reflected uplink.

Conventions used throughout:

* Every small-scale coefficient is unit power: sqrt(K/(K+1)) * e^{j theta}
  + sqrt(1/(K+1)) * z with z ~ CN(0, 1) and, in the default mode, theta
  uniform on [-pi, pi) independently per coefficient.
* The direct user->BS entries are scaled by sqrt(direct_path_loss).
* The cascaded loss is attached entirely to the element->BS vector, so each
  user->element->BS product carries sqrt(cascaded_path_loss) exactly once;
  consumers never rescale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .factor_graph import FactorGraph

SPEED_OF_LIGHT = 299_792_458.0

LOS_PHASE_MODES = ("random", "common")


@dataclass(frozen=True, repr=False)
class Geometry:
    """Linear deployment: BS at 0, users at ``bs_user_distance``, panel offset
    ``ris_perpendicular_offset`` from the axis at ``ris_horizontal_offset``
    from the BS."""

    bs_user_distance: float
    ris_perpendicular_offset: float
    ris_horizontal_offset: float
    carrier_frequency: float

    def __post_init__(self) -> None:
        # Written so that NaN fails every bound.
        if not 0 < self.bs_user_distance < math.inf:
            raise ValueError(f"bs_user_distance must be finite and > 0, "
                             f"got {self.bs_user_distance}")
        if not 0 < self.ris_perpendicular_offset < math.inf:
            raise ValueError(f"ris_perpendicular_offset must be finite and > 0, "
                             f"got {self.ris_perpendicular_offset}")
        if not 0 < self.ris_horizontal_offset < self.bs_user_distance:
            raise ValueError(
                f"ris_horizontal_offset must lie strictly between 0 and "
                f"bs_user_distance = {self.bs_user_distance}, got {self.ris_horizontal_offset}")
        if not 0 < self.carrier_frequency < math.inf:
            raise ValueError(f"carrier_frequency must be finite and > 0, "
                             f"got {self.carrier_frequency}")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency

    @property
    def bs_ris_distance(self) -> float:
        return math.hypot(self.ris_perpendicular_offset, self.ris_horizontal_offset)

    @property
    def ris_user_distance(self) -> float:
        return math.hypot(self.ris_perpendicular_offset,
                          self.bs_user_distance - self.ris_horizontal_offset)


@dataclass(frozen=True, repr=False)
class FadingConfig:
    """Fading and link-budget constants shared by all OREs.

    ``direct_loss_scale`` is a power multiplier on top of the free-space
    user->BS gain (1.0 = plain free space; < 1 models a blocked direct link;
    0 removes it).  ``los_phase`` selects per-coefficient random LoS phases
    or a common (all-ones) LoS.
    """

    rician_factor: float = 1.0
    noise_variance: float = 1e-8
    symbol_energy: float = 1.0
    los_phase: str = "random"
    direct_loss_scale: float = 1.0

    def __post_init__(self) -> None:
        # Written so that NaN fails every bound; K = inf is pure LoS.
        if not self.rician_factor >= 0:
            raise ValueError(f"rician_factor must be >= 0, got {self.rician_factor}")
        if not 0 < self.noise_variance < math.inf:
            raise ValueError(f"noise_variance must be finite and > 0, "
                             f"got {self.noise_variance}")
        if not 0 < self.symbol_energy < math.inf:
            raise ValueError(f"symbol_energy must be finite and > 0, "
                             f"got {self.symbol_energy}")
        if self.los_phase not in LOS_PHASE_MODES:
            raise ValueError(
                f"los_phase must be one of {LOS_PHASE_MODES}, got {self.los_phase!r}")
        if not 0 <= self.direct_loss_scale < math.inf:
            raise ValueError(f"direct_loss_scale must be finite and >= 0, "
                             f"got {self.direct_loss_scale}")


def cascaded_path_loss(geom: Geometry) -> float:
    """Power gain of one user->element->BS product:
    lambda^4 / (256 pi^2 d1^2 d2^2)."""
    lam = geom.wavelength
    d1 = geom.bs_ris_distance
    d2 = geom.ris_user_distance
    return lam**4 / (256.0 * math.pi**2 * d1**2 * d2**2)


def direct_path_loss(geom: Geometry) -> float:
    """Free-space power gain of the user->BS link: (lambda / (4 pi d))^2."""
    lam = geom.wavelength
    return (lam / (4.0 * math.pi * geom.bs_user_distance)) ** 2


@dataclass(frozen=True, repr=False, eq=False)
class ChannelRealization:
    """One draw of all per-ORE coefficients, path loss already applied.

    Shapes: ``direct`` (R, d_f) user->BS rows ordered by ascending user index
    within each ORE's interference set, ``ris_to_bs`` (R, N), ``user_to_ris``
    (R, N, d_f) with column u holding user u's element coefficients.

    Every realization stores the element groups element-major, ORE axis last:
    ``ris_to_bs`` and ``user_to_ris`` are transposed views of C-contiguous
    (N, R) and (N, d_f, R) arrays, which the ascent kernel and
    ``composite_channel`` read in place.  Construction copies any other
    layout once; a drawn block is already stored so.
    """

    direct: np.ndarray
    ris_to_bs: np.ndarray
    user_to_ris: np.ndarray

    def __post_init__(self) -> None:
        r, df = self.direct.shape
        rn, n = self.ris_to_bs.shape
        rg, ng, dfg = self.user_to_ris.shape
        if not (r == rn == rg and n == ng and df == dfg):
            raise ValueError(
                f"inconsistent shapes: direct {self.direct.shape}, "
                f"ris_to_bs {self.ris_to_bs.shape}, user_to_ris {self.user_to_ris.shape}")
        object.__setattr__(self, "ris_to_bs", np.ascontiguousarray(self.ris_to_bs.T).T)
        object.__setattr__(self, "user_to_ris", np.ascontiguousarray(
            self.user_to_ris.transpose(1, 2, 0)).transpose(2, 0, 1))
        for name in ("direct", "ris_to_bs", "user_to_ris"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} contains non-finite entries")

    def __reduce__(self):
        # numpy pickles the transposed views as C-ordered copies; rebuilding
        # through the constructor stores them element-major again.
        return type(self), (self.direct, self.ris_to_bs, self.user_to_ris)

    @property
    def num_ores(self) -> int:
        return self.direct.shape[0]

    @property
    def num_interferers(self) -> int:
        return self.direct.shape[1]

    @property
    def num_elements(self) -> int:
        return self.ris_to_bs.shape[1]


# Complex division by sqrt(2) multiplies each part by this rounded reciprocal;
# the transform multiplies by it directly so the bytes match that division.
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _fill_raw(rng: np.random.Generator, row: np.ndarray, sizes: tuple,
              los_phase: str) -> None:
    """Consume one generator's stream into ``row`` for coefficient groups of
    ``sizes``, group by group: LoS phases uniform on [-pi, pi) (random mode
    only), then the real parts, then the imaginary parts of the diffuse term."""
    if los_phase == "common":
        rng.standard_normal(out=row)
        return
    pos = 0
    for m in sizes:
        row[pos:pos + m] = rng.uniform(-math.pi, math.pi, m)
        rng.standard_normal(out=row[pos + m:pos + 3 * m])
        pos += 3 * m


def _rician_transform(raw: np.ndarray, out: np.ndarray, k_factor: float,
                      los_phase: str) -> None:
    """Write unit-power Rician coefficients into complex ``out`` (T, m) from
    one group's raw values ``raw`` (T, width * m), in place.

    Per coefficient this is lw * e^{j theta} + dw * (x + j y) / sqrt(2), with
    every rounding step of that complex expression kept: the LoS term is
    ``exp`` of the complex phase, the diffuse parts are scaled by the rounded
    reciprocal of sqrt(2) and then by dw, and both parts add the LoS part
    (so K = inf gives +0, not -0, imaginary parts under common LoS).  ``raw``
    is overwritten.
    """
    if math.isinf(k_factor):
        lw, dw = 1.0, 0.0
    else:
        lw, dw = math.sqrt(k_factor / (k_factor + 1.0)), math.sqrt(1.0 / (k_factor + 1.0))
    m = out.shape[1]
    parts = out.view(np.float64).reshape(out.shape + (2,))
    if los_phase == "random":
        out.real = 0.0
        out.imag = raw[:, :m]
        np.exp(out, out=out)
        parts *= lw
        los_re, los_im = parts[..., 0], parts[..., 1]
        diffuse = raw[:, m:]
    else:
        los_re, los_im = lw, 0.0
        diffuse = raw
    diffuse *= _INV_SQRT2
    diffuse *= dw
    np.add(los_re, diffuse[:, :m], out=parts[..., 0])
    np.add(los_im, diffuse[:, m:], out=parts[..., 1])


# numpy's SeedSequence (pool of four 32-bit words) and PCG64 seeding
# constants; see numpy/random/bit_generator.pyx and pcg64.h.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_XSHIFT = np.uint32(16)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, calls: int) -> list:
    """The running hash constant before and after each of ``calls`` hashes:
    SeedSequence multiplies it by ``mult`` once per hash, whatever the data."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    return [np.uint32(c) for c in consts]


# Mixing a pool of 4 hashes each word once, then 4 * 3 cross pairs.
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL_SIZE * _POOL_SIZE)
# generate_state(4, uint64) hashes 8 words, cycling over the pool twice.
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL_SIZE)


def _hashmix(words: np.ndarray, consts: list, call: int) -> np.ndarray:
    words = (words ^ consts[call]) * consts[call + 1]
    return words ^ (words >> _XSHIFT)


def _pcg64_states(seeds) -> list:
    """The PCG64 state of each seed, as the ``bit_generator.state`` dict of
    ``np.random.default_rng(seed)``, computed in one pass over all seeds.

    A seed below 2^64 is at most two 32-bit entropy words, and its
    SeedSequence mixing equals that of ``[lo, hi, 0, 0]``, so every seed takes
    the same sequence of ``uint32`` array operations (which wrap, as the C
    code does).  The 128-bit PCG64 ``srandom`` step runs on Python ints.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("draw_trial_block needs at least one seed")
    for seed in seeds:
        if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
                or not 0 <= seed <= 2**64 - 1):
            raise ValueError(f"seeds must be integers in [0, 2^64), got {seed!r}")
    values = np.array(seeds, dtype=np.uint64)
    low = values.astype(np.uint32)
    pool = [low, (values >> np.uint64(32)).astype(np.uint32),
            np.zeros_like(low), np.zeros_like(low)]
    pool = [_hashmix(word, _HASH_A, call) for call, word in enumerate(pool)]
    call = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed = _hashmix(pool[src], _HASH_A, call)
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed
                pool[dst] = mixed ^ (mixed >> _XSHIFT)
                call += 1
    words = [_hashmix(pool[i % _POOL_SIZE], _HASH_B, i).astype(np.uint64)
             for i in range(2 * _POOL_SIZE)]
    # Little-endian uint64 pairs: the initial state's high and low halves,
    # then the stream selector's.
    halves = [(words[2 * i] | words[2 * i + 1] << np.uint64(32)).tolist()
              for i in range(4)]
    states = []
    for state_hi, state_lo, seq_hi, seq_lo in zip(*halves):
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state = ((inc + (state_hi << 64 | state_lo)) * _PCG_MULTIPLIER + inc) & _MASK128
        states.append({"bit_generator": "PCG64",
                       "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


# One block's scratch budget in bytes (1 MiB).  A draw passes its raw stream
# values and its staged element-major groups through one buffer of this size,
# whole trials at a time (a block whose rows fit is one chunk), so it never
# holds a raw array as large as its outputs and transforms each chunk while
# it is in cache.  The ascent kernel holds at most this many bytes of
# cascaded paths at a time.
_SCRATCH_BYTES = 2**20


class ChannelStore:
    """Flat complex buffers that :func:`draw_trial_block` draws blocks into,
    so that the blocks of one grid group reuse one allocation: room for
    ``rows`` ORE rows of ``num_interferers`` users and ``num_elements``
    elements.  A block takes a contiguous prefix of each buffer, so a shorter
    block fits too.  A realization drawn into a store holds views of it and
    is overwritten by the next draw into it."""

    __slots__ = ("direct", "ris_to_bs", "user_to_ris")

    def __init__(self, rows: int, num_interferers: int, num_elements: int):
        self.direct = np.empty(rows * num_interferers, dtype=np.complex128)
        self.ris_to_bs = np.empty(num_elements * rows, dtype=np.complex128)
        self.user_to_ris = np.empty(num_elements * num_interferers * rows,
                                    dtype=np.complex128)


def _trial_layout(num_ores: int, num_interferers: int, num_elements: int,
                  los_phase: str) -> tuple:
    """(width, sizes, row_width, stage_width) of one trial's draw: raw values
    per coefficient (a LoS phase in random mode, then two diffuse parts), its
    direct, element->BS and user->element group sizes, and the float64s of
    its raw row and of its staged user->element group."""
    width = 3 if los_phase == "random" else 2
    sizes = (num_ores * num_interferers, num_ores * num_elements,
             num_ores * num_elements * num_interferers)
    return width, sizes, width * sum(sizes), 2 * sizes[2]


def _largest_block_array(trials: int, num_ores: int, num_interferers: int,
                         num_elements: int, los_phase: str) -> int:
    """Bytes of the largest array a block of ``trials`` trials holds while
    :func:`_draw_block` draws it into a store sized to it: the store's
    user_to_ris, or the scratch of one trial (its raw stream values and its
    staged user->element group), which is larger in a block of one or two
    trials.  A scratch chunk holds at least one trial."""
    _, sizes, row_width, stage_width = _trial_layout(
        num_ores, num_interferers, num_elements, los_phase)
    return max(16 * trials * sizes[2], 8 * (row_width + stage_width))


def _prefix(buffer: np.ndarray, shape: tuple) -> np.ndarray:
    size = math.prod(shape)
    if size > buffer.size:
        raise ValueError(f"a block of shape {shape} does not fit a channel store "
                         f"buffer of {buffer.size} entries")
    return buffer[:size].reshape(shape)


def _draw_block(rng: np.random.Generator, states, num_ores: int,
                num_interferers: int, geom: Geometry, fading: FadingConfig,
                num_elements: int, out: ChannelStore | None = None) -> ChannelRealization:
    """One realization per trial, stacked along the ORE axis.

    ``states`` holds one state of ``rng``'s bit generator per trial, each
    set on ``rng`` before its trial is drawn.  Each trial's stream is consumed in a fixed order
    (direct, then element->BS, then user->element; within each: LoS phases
    in random mode, then real and imaginary diffuse parts) into its own row
    of a scratch buffer.  Each chunk of trial rows goes through the Rician
    transform: the direct rows straight into their output rows, the element
    groups into a staging area of the scratch and from there, transposed,
    into element-major outputs: prefixes of ``out``'s buffers, or of a new
    :class:`ChannelStore` sized to the block.  The path-loss scaling runs
    once over the whole block, in place.
    """
    if num_elements < 1:
        raise ValueError(f"num_elements must be >= 1, got {num_elements}")
    trials = len(states)
    rows = trials * num_ores
    mode = fading.los_phase
    width, sizes, row_width, stage_width = _trial_layout(
        num_ores, num_interferers, num_elements, mode)
    # Element-major storage, ORE axis last: (N, rows) and (N, d_f, rows).
    shapes = ((rows, num_interferers), (num_elements, rows),
              (num_elements, num_interferers, rows))
    if out is None:
        out = ChannelStore(rows, num_interferers, num_elements)
    direct, ris_to_bs, user_to_ris = (
        _prefix(buffer, shape) for buffer, shape in
        zip((out.direct, out.ris_to_bs, out.user_to_ris), shapes))
    # Each element group's storage as (N or N * d_f, rows): a chunk's staged
    # (trial * R, N[ * d_f]) rows land in it transposed.
    element_major = (ris_to_bs, user_to_ris.reshape(-1, rows))
    # The staging area holds one element group at a time.
    chunk = min(trials, max(1, _SCRATCH_BYTES // (8 * (row_width + stage_width))))
    scratch = np.empty(chunk * (stage_width + row_width))
    staged = scratch[:chunk * stage_width].view(np.complex128)
    raw_all = scratch[chunk * stage_width:].reshape(chunk, row_width)
    for lo in range(0, trials, chunk):
        hi = min(lo + chunk, trials)
        raw = raw_all[:hi - lo]
        for trial, row in enumerate(raw, lo):
            rng.bit_generator.state = states[trial]
            _fill_raw(rng, row, sizes, mode)
        _rician_transform(raw[:, :width * sizes[0]],
                          direct.reshape(trials, sizes[0])[lo:hi],
                          fading.rician_factor, mode)
        pos = width * sizes[0]
        for m, dest in zip(sizes[1:], element_major):
            stage = staged[:(hi - lo) * m].reshape(hi - lo, m)
            _rician_transform(raw[:, pos:pos + width * m], stage,
                              fading.rician_factor, mode)
            dest[:, lo * num_ores:hi * num_ores] = stage.reshape(-1, len(dest)).T
            pos += width * m
    # Complex products, as the per-trial scaling was: with direct_loss_scale
    # = 0 the signs of the zeros depend on both parts.
    np.multiply(direct, math.sqrt(direct_path_loss(geom) * fading.direct_loss_scale),
                out=direct)
    np.multiply(ris_to_bs, math.sqrt(cascaded_path_loss(geom)), out=ris_to_bs)
    return ChannelRealization(direct=direct, ris_to_bs=ris_to_bs.T,
                              user_to_ris=user_to_ris.transpose(2, 0, 1))


def draw_trial_block(seeds, num_ores: int, num_interferers: int, geom: Geometry,
                     fading: FadingConfig, num_elements: int,
                     out: ChannelStore | None = None) -> ChannelRealization:
    """Draw one realization per seed, stacked along the ORE axis.

    Each seed is an integer in [0, 2^64), and its stream is exactly that of
    ``np.random.default_rng(seed)``, so the result is byte-identical to
    ``stack_realizations([draw_link_channels(np.random.default_rng(s), ...)
    for s in seeds])``.  The seeds are mixed into PCG64 states in one
    vectorized pass, and one reused generator is set to each state in turn.
    The realization is stored in new arrays, or in ``out``'s buffers.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    return _draw_block(rng, _pcg64_states(seeds), num_ores, num_interferers,
                       geom, fading, num_elements, out)


def draw_link_channels(rng: np.random.Generator, num_ores: int, num_interferers: int,
                       geom: Geometry, fading: FadingConfig,
                       num_elements: int) -> ChannelRealization:
    """Draw coefficients for explicit (R, d_f, N) dimensions from ``rng``, in
    the stream order of :func:`draw_trial_block`, so a given seed pins the
    realization bit for bit.  It continues ``rng``'s stream from its state."""
    return _draw_block(rng, [rng.bit_generator.state], num_ores,
                       num_interferers, geom, fading, num_elements)


def draw_channels(rng: np.random.Generator, graph: FactorGraph, geom: Geometry,
                  fading: FadingConfig, num_elements: int) -> ChannelRealization:
    """Draw one realization sized by the factor graph (R OREs, d_f users each)."""
    return draw_link_channels(rng, graph.num_ores, graph.users_per_ore,
                              geom, fading, num_elements)


def stack_realizations(realizations: list) -> ChannelRealization:
    """Concatenate along the ORE axis; OREs are i.i.d., so a batch of trials
    is just a taller realization."""
    return ChannelRealization(
        direct=np.concatenate([c.direct for c in realizations], axis=0),
        ris_to_bs=np.concatenate([c.ris_to_bs for c in realizations], axis=0),
        user_to_ris=np.concatenate([c.user_to_ris for c in realizations], axis=0),
    )
