"""Received-SNR objective and the discrete phase-shift optimizers.

All optimizers treat OREs independently and share the same conventions:
phases start at 0, coordinates are updated in place (so the objective can
never decrease: the incumbent value is always among the candidates), and
each coordinate update takes the first candidate scoring within 1e-12 times
the ORE's mean objective of the best (:func:`~ris_scma.opcount._select`), so
exact ties stay ties after rounding.

``ao_optimize`` and ``lc_ao_optimize`` run one vectorized kernel that
keeps each ORE's composite row up to date, forms each element's score sum in
O(d_f) and takes the member nearest its angle; it scores all 2^b candidates
with :func:`~ris_scma.opcount._select` only for the rows near a decision
boundary (:func:`_phase_selector`), so its selections are ``_select``'s.
The paper's AO and LC-AO differ only in what a candidate costs, so that
difference lives in the counted scalar reference,
:func:`~ris_scma.reference.measured_run`, which the kernel's selections and
the closed-form counts are checked against.  The exhaustive oracle and the
objective's decomposition live in :mod:`~ris_scma.reference` too, off the
path of a campaign run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import _SCRATCH_BYTES, ChannelRealization, FadingConfig
from .opcount import _TIE_TOLERANCE, _select

DEFAULT_EXHAUSTIVE_BUDGET = 2**20


@dataclass(frozen=True, repr=False, eq=False)
class PhaseAlphabet:
    """The 2^b quantized phase values -pi + l * (2 pi / 2^b), l = 0..2^b-1."""

    bits: int
    values: np.ndarray      # radians, ascending
    rotations: np.ndarray   # e^{-j * values}

    @classmethod
    def from_bits(cls, bits: int) -> "PhaseAlphabet":
        if bits < 1:
            raise ValueError(f"bits must be >= 1, got {bits}")
        size = 2**bits
        step = 2.0 * math.pi / size
        values = -math.pi + step * np.arange(size)
        return cls(bits=bits, values=values, rotations=np.exp(-1j * values))

    @property
    def size(self) -> int:
        return 2**self.bits

    @property
    def zero_index(self) -> int:
        """Index of the 0-radian member (always present)."""
        return 2 ** (self.bits - 1)

    @property
    def index_dtype(self) -> np.dtype:
        """The smallest integer dtype that holds every index (uint8 to b = 8)."""
        return np.min_scalar_type(self.size - 1)


@dataclass(repr=False, eq=False)
class PhaseAssignment:
    """Per-ORE vector of N indices into a :class:`PhaseAlphabet`."""

    alphabet: PhaseAlphabet
    indices: np.ndarray     # (R, N) integer

    def __post_init__(self) -> None:
        if self.indices.ndim != 2:
            raise ValueError(f"indices must be (R, N), got shape {self.indices.shape}")
        if self.indices.min(initial=0) < 0 or self.indices.max(initial=0) >= self.alphabet.size:
            raise ValueError("phase index out of alphabet range")


def db_from_linear(linear) -> float:
    """The one place linear power turns into dB."""
    with np.errstate(divide="ignore"):
        return float(10.0 * np.log10(linear))


# ---------------------------------------------------------------------------
# Objective


def _check_shape(ch: ChannelRealization, phases: PhaseAssignment) -> None:
    if phases.indices.shape != (ch.num_ores, ch.num_elements):
        raise ValueError(
            f"phase indices shape {phases.indices.shape} does not match "
            f"channel dims (R={ch.num_ores}, N={ch.num_elements})")


def _element_spans(num_elem: int, element_bytes: int) -> tuple:
    """The chunk size and the [lo, hi) spans of equal chunks of elements that
    hold at most ``_SCRATCH_BYTES`` of ``element_bytes`` each (one element
    per chunk at least)."""
    chunks = max(1, -(-num_elem * element_bytes // _SCRATCH_BYTES))
    size = -(-num_elem // chunks)
    return size, [(lo, min(lo + size, num_elem)) for lo in range(0, num_elem, size)]


def _continued_sum(total: np.ndarray, v: np.ndarray, xi: np.ndarray,
                   k: int) -> np.ndarray:
    """One einsum over slots 0..k of ``v`` (N, R) and ``xi`` (N, d_f, R), slot
    0 of ``xi`` set to ``total`` and of ``v`` holding 1: it continues the
    running sum over the elements of earlier chunks, so summing N elements
    chunk by chunk gives every byte of one einsum over all of them."""
    xi[0] = total
    return np.einsum("nr,nir->ir", v[:k + 1], xi[:k + 1])


def _cascaded_rows(ch: ChannelRealization, phases: PhaseAssignment,
                   skip: Optional[int] = None) -> np.ndarray:
    """(R, d_f) cascaded rows sum_n u_n xi_n, u_n the phases' rotations with
    element ``skip``'s set to 0: u * ris_to_bs, contracted with user_to_ris,
    element-major, one einsum's bytes whatever the indices' layout.

    The elements go in chunks whose rotations and paths fit
    ``_SCRATCH_BYTES``.  The first chunk reads user_to_ris in place, so a
    block that fits in one chunk copies none of it; each later chunk copies
    its paths behind the running sum (:func:`_continued_sum`).
    """
    g, G = ch.ris_to_bs.T, ch.user_to_ris.transpose(1, 2, 0)
    num_elem, df, num_ores = G.shape
    idx = phases.indices.T
    size, spans = _element_spans(num_elem, 16 * (df + 1) * num_ores)
    u = np.empty((size + 1, num_ores), dtype=np.complex128)
    u[0] = 1.0
    paths = (np.empty((size + 1, df, num_ores), dtype=np.complex128)
             if len(spans) > 1 else None)
    total = None
    for lo, hi in spans:
        k = hi - lo
        # The indices are in range (PhaseAssignment checks them); "clip"
        # writes straight into u, where the default mode buffers.
        np.take(phases.alphabet.rotations, idx[lo:hi], out=u[1:k + 1], mode="clip")
        if skip is not None and lo <= skip < hi:
            u[1 + skip - lo] = 0.0
        np.multiply(u[1:k + 1], g[lo:hi], out=u[1:k + 1])
        if total is None:
            total = np.einsum("nr,nir->ir", u[1:k + 1], G[lo:hi])
        else:
            paths[1:k + 1] = G[lo:hi]
            total = _continued_sum(total, u, paths, k)
    return total.T


def _sq_norms(w: np.ndarray) -> np.ndarray:
    """Squared norm of each row of a complex (R, d) array."""
    return (w.real**2 + w.imag**2).sum(axis=1)


def composite_channel(ch: ChannelRealization, phases: PhaseAssignment) -> np.ndarray:
    """(R, d_f) composite rows: rotated cascaded paths plus the direct path."""
    _check_shape(ch, phases)
    u = _cascaded_rows(ch, phases)
    # C-ordered rows, so _sq_norms sums each row's addends as it always has.
    w = np.empty(ch.direct.shape, dtype=np.complex128)
    return np.add(u, ch.direct, out=w)


def received_snr(ch: ChannelRealization, phases: PhaseAssignment,
                 fading: FadingConfig) -> np.ndarray:
    """(R,) per-ORE linear received SNR: (E / sigma^2) * ||composite row||^2."""
    scale = fading.symbol_energy / fading.noise_variance
    return scale * _sq_norms(composite_channel(ch, phases))


def no_ris_snr(ch: ChannelRealization, fading: FadingConfig) -> np.ndarray:
    """(R,) per-ORE linear SNR of the direct link only: the cascaded term
    removed entirely."""
    scale = fading.symbol_energy / fading.noise_variance
    return scale * _sq_norms(ch.direct)


def blind_phases(alphabet: PhaseAlphabet, num_ores: int,
                 num_elements: int) -> PhaseAssignment:
    """All phases 0: the unoptimized baseline every optimizer starts from.
    Stored element-major, like the kernel's selections."""
    idx = np.full((num_elements, num_ores), alphabet.zero_index,
                  dtype=alphabet.index_dtype)
    return PhaseAssignment(alphabet=alphabet, indices=idx.T)


# ---------------------------------------------------------------------------
# Cached coefficients


@dataclass(repr=False, eq=False)
class LcAoWorkspace:
    """Per-ORE coupling coefficients: the paper's cached-coefficient form of
    the objective, kept as the tests' reference formula and as a name the
    benchmark tracer hooks.  No library path builds it.

    ``element_coupling`` (R, N, N) is Hermitian with real nonnegative
    diagonal; entry (k, n) couples elements k and n through all d_f users.
    ``direct_coupling`` (R, N) correlates each element with the direct rows.
    """

    element_coupling: np.ndarray
    direct_coupling: np.ndarray


def build_lc_workspace(ch: ChannelRealization) -> LcAoWorkspace:
    xi = ch.ris_to_bs[:, :, None] * ch.user_to_ris            # (R, N, d_f)
    coupling = np.einsum("rki,rni->rkn", xi, np.conj(xi))   # xi @ xi^H
    direct = np.einsum("rki,ri->rk", xi, np.conj(ch.direct))
    return LcAoWorkspace(element_coupling=coupling, direct_coupling=direct)


# ---------------------------------------------------------------------------
# Optimizers


# The nearest-member rule's rounding budget, u = 2^-53.  Member l sits at
# theta_l = -pi + l D, D = 2 pi / 2^b, and Re{e^{-j theta_l} t} =
# |t| cos(arg t - theta_l), so the member nearest arg t scores highest.  With
# f its offset from arg t in units of D, its margin over every other member
# is 2 |t| sin(D/2) sin(D (1/2 - |f|)) >= K |t| (1/2 - |f|), K = (4/pi)
# sin(D/2) D (sin x >= 2x/pi on [0, pi/2]).  It is _select's pick whenever
# that margin exceeds the tie gap g plus the rounding of the scores _select
# compares and of its threshold:
# - A stored rotation is within 6u of e^{-j theta_l} (1.1u to b = 3, 5.1u to
#   b = 8), and a computed score's real part within 2u |t| of the exact
#   product's: two scores and the threshold max - g are within
#   16u |t| + u (|t| + g).  _SCORE_ROUNDING = 2^-44 = 512u covers that.
# - f comes from x = arctan2(t) 2^b / 2 pi + 2^(b-1): arctan2 within 4 ulp
#   (16u; 0.7 ulp measured), the product and the sum within 1.5u 2^b, so f
#   is within 4.1u 2^b of its exact value.  _ANGLE_ROUNDING = 2^-48 = 32u,
#   per unit of 2^b.
# So a row keeps its nearest member when |t| (c - |f|) > g (1 + 2^-50) / K +
# 2^-1000, c = 1/2 - 2^b _ANGLE_ROUNDING - _SCORE_ROUNDING / K.  The factor
# covers the threshold's u g and this test's own rounding (4u), and the
# absolute term keeps |t| in the normal range, where every rounding above is
# relative.  Scores of rows
# above _LARGEST_SUM could overflow.
_SCORE_ROUNDING = 2.0**-44
_ANGLE_ROUNDING = 2.0**-48
_LARGEST_SUM = 2.0**1000


def _phase_selector(alphabet: PhaseAlphabet, half_gap: np.ndarray):
    """``select(sums, idx_out, rot_out)`` for one element step: each row's
    :func:`_select` pick over the 2^b scores Re{rot_l sums}, written to
    ``idx_out`` in the alphabet's index dtype, its rotation to ``rot_out``.

    A row takes the member nearest the angle of its sum when the margin
    bound above shows no other member within ``half_gap`` of it.  Every
    other row (near a boundary, a zero sum or a sum beyond _LARGEST_SUM or
    not finite) is scored over all 2^b candidates by :func:`_select`, the one
    tie rule.
    """
    size, rot = alphabet.size, alphabet.rotations
    step = 2.0 * math.pi / size
    k = 4.0 / math.pi * math.sin(step / 2) * step
    c = 0.5 - size * _ANGLE_ROUNDING - _SCORE_ROUNDING / k
    bound = half_gap * ((1.0 + 2.0**-50) / k) + 2.0**-1000
    scale, offset, mask = size / (2.0 * math.pi), float(size // 2), size - 1
    x, near, mag = (np.empty(len(half_gap)) for _ in range(3))
    keep = np.empty(len(half_gap), dtype=bool)
    sel = np.empty(len(half_gap), dtype=np.intp)

    def select(sums, idx_out, rot_out):
        np.arctan2(sums.imag, sums.real, out=x)
        np.multiply(x, scale, out=x)
        np.add(x, offset, out=x)
        np.rint(x, out=near)                      # in 0..2^b; 2^b is member 0
        np.subtract(x, near, out=x)
        np.absolute(x, out=x)
        np.subtract(c, x, out=x)
        np.absolute(sums, out=mag)
        np.multiply(x, mag, out=x)
        np.greater(x, bound, out=keep)
        # initial: a block may have no rows.
        largest = np.maximum.reduce(mag, initial=0.0)
        if not (np.logical_and.reduce(keep) and largest <= _LARGEST_SUM):
            np.logical_and(keep, np.less_equal(mag, _LARGEST_SUM), out=keep)
            rows = np.logical_not(keep, out=keep).nonzero()[0]
            near[rows] = _select((rot[:, None] * sums[rows]).real, half_gap[rows])
        np.copyto(sel, near, casting="unsafe")
        np.bitwise_and(sel, mask, out=sel)
        rot.take(sel, out=rot_out, mode="clip")   # in range; "clip" writes in place
        np.copyto(idx_out, sel, casting="unsafe")

    return select


def ao_optimize(ch: ChannelRealization, alphabet: PhaseAlphabet, iterations: int,
                update_log: Optional[list] = None,
                snapshots: Optional[dict] = None) -> PhaseAssignment:
    """Cyclic coordinate ascent, vectorized over the OREs.

    For each ORE: for t = 1..iterations, for each element, keep the first
    candidate phase whose composite-row norm is within 1e-12 S of the best,
    S = ||h||^2 + sum_k ||xi_k||^2 being the mean objective over random
    phases (:func:`_select`).  The kernel takes the member nearest the
    angle of the element's score sum, and scores all 2^b candidates only for
    the rows whose margin it cannot bound (:func:`_phase_selector`).

    ``update_log`` gets one (R,) float64 array per coordinate update, in
    update order (sweep, then element): each ORE's squared composite-row
    norm after the update, with no energy/noise scaling.  ``snapshots`` maps
    sweep counts in 0..iterations to the :class:`PhaseAssignment` after that
    many sweeps, set in place; the key ``iterations`` gets the returned
    object.

    Keeps the composite row w = h + sum_k v_k xi_k, with xi_k = g_k G_k the
    cascaded path of element k.  Updating element n, base = w - v_n xi_n is w
    without that element, and ||base + e^{-j phi} xi_n||^2 differs across
    candidates only in 2 Re{e^{-j phi} sum_i xi_{n,i} conj(base_i)}: the
    cached score, at O(d_f) per element instead of O(N d_f).  w is summed
    afresh for every sweep, so rounding drift never spans more than one.
    Scores are half the phase-dependent part, so the gap is 1e-12 S / 2, S
    summed on the blind-start pass.

    The channel is read in place, in its element-major storage
    (:class:`~ris_scma.channel.ChannelRealization`).  The state is w, base
    and a few (R,) rows, the (N, R) indices in the alphabet's compact dtype,
    and one chunk of elements' xi and v: at most ``_SCRATCH_BYTES`` of xi,
    rebuilt from the channel and the indices every sweep, or built once when
    all N fit.  The next sweep's w is summed chunk by chunk, and equals one
    einsum over all N exactly.

    Each float is the same complex operation, on operands of the same
    broadcast shape and order, as in an ORE-major layout: numpy's complex
    multiply rounds g * G and G * g differently.  The score sums the d_f
    addends left to right for every d_f.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if snapshots is not None and any(not 0 <= k <= iterations for k in snapshots):
        raise ValueError(f"snapshots need sweep counts in 0..{iterations}, "
                         f"got {sorted(snapshots)}")
    num_ores, num_elem = ch.num_ores, ch.num_elements
    g, G = ch.ris_to_bs.T, ch.user_to_ris.transpose(1, 2, 0)
    df = G.shape[1]
    rot = alphabet.rotations
    idx = np.full((num_elem, num_ores), alphabet.zero_index, dtype=alphabet.index_dtype)
    size, spans = _element_spans(num_elem, 16 * df * num_ores)
    # Slot 0 holds the composite summed over the elements before the chunk
    # (_continued_sum).
    xi = np.empty((size + 1, df, num_ores), dtype=np.complex128)
    v = np.empty((size + 1, num_ores), dtype=np.complex128)
    v[0] = 1.0

    def load(lo, hi):
        np.multiply(g[lo:hi, None, :], G[lo:hi], out=xi[1:hi - lo + 1])
        np.take(rot, idx[lo:hi], out=v[1:hi - lo + 1], mode="clip")

    total = np.zeros((df, num_ores), dtype=np.complex128)
    energy = np.zeros(2 * num_ores)               # sum |xi|^2: re, im per ORE
    for lo, hi in spans:                          # the blind start's composite
        load(lo, hi)
        total = _continued_sum(total, v, xi, hi - lo)
        part = xi[1:hi - lo + 1].view(np.float64)
        energy += np.einsum("nir,nir->r", part, part)
    half_gap = 0.5 * _TIE_TOLERANCE * (_sq_norms(ch.direct) + energy[0::2] + energy[1::2])
    select = _phase_selector(alphabet, half_gap)
    base, tmp = np.empty_like(total), np.empty_like(total)
    sums = np.empty(num_ores, dtype=np.complex128)
    for t in range(iterations):
        if snapshots is not None and t in snapshots:
            snapshots[t] = PhaseAssignment(alphabet=alphabet, indices=idx.copy().T)
        w = total + ch.direct.T
        total = np.zeros_like(w)
        for lo, hi in spans:
            if len(spans) > 1:
                load(lo, hi)
            for j, n in enumerate(range(lo, hi), 1):
                np.multiply(v[j], xi[j], out=tmp)
                np.subtract(w, tmp, out=base)
                np.conjugate(base, out=tmp)
                np.multiply(xi[j], tmp, out=tmp)
                np.add.reduce(tmp, axis=0, out=sums)
                select(sums, idx[n], v[j])
                np.multiply(v[j], xi[j], out=tmp)
                np.add(base, tmp, out=w)
                if update_log is not None:
                    # An (R, d_f) copy: summed in the order _sq_norms uses elsewhere.
                    update_log.append(_sq_norms(np.ascontiguousarray(w.T)))
            if t + 1 < iterations:
                total = _continued_sum(total, v, xi, hi - lo)
    phases = PhaseAssignment(alphabet=alphabet, indices=idx.T)
    if snapshots is not None and iterations in snapshots:
        snapshots[iterations] = phases
    return phases


# The one kernel under the name of each counted ascent in campaign.ALGORITHMS.
lc_ao_optimize = ao_optimize
