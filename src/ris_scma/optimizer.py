"""Received-SNR objective and the discrete phase-shift optimizers.

All optimizers treat OREs independently and share the same conventions:
phases start at 0, coordinates are updated in place (so the objective can
never decrease: the incumbent value is always among the candidates), and
arg-max ties go to the smallest candidate index.

Each optimizer takes an optional ``counter`` (an :class:`~ris_scma.opcount.OpCount`
sink).  With a counter the run goes through one scalar driver
(:mod:`~ris_scma.opcount`) that tallies real arithmetic under the documented
cost model, and AO and LC-AO differ there only in how they score a candidate
phase; these counted paths are the reference the closed-form counts (and the
tests) check against.  Without one, both names run one vectorized kernel that
keeps each ORE's composite row up to date and selects the same phases.
``update_log`` and ``snapshots`` are kernel-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .channel import ChannelRealization, FadingConfig
from .opcount import OpCount, _cached_scores, _counted, _full_norm_scores

DEFAULT_EXHAUSTIVE_BUDGET = 2**20


@dataclass(frozen=True, eq=False)
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


@dataclass(eq=False)
class PhaseAssignment:
    """Per-ORE vector of N indices into a :class:`PhaseAlphabet`."""

    alphabet: PhaseAlphabet
    indices: np.ndarray     # (R, N) integer

    def __post_init__(self) -> None:
        if self.indices.ndim != 2:
            raise ValueError(f"indices must be (R, N), got shape {self.indices.shape}")
        if self.indices.min(initial=0) < 0 or self.indices.max(initial=0) >= self.alphabet.size:
            raise ValueError("phase index out of alphabet range")

    @property
    def num_ores(self) -> int:
        return self.indices.shape[0]

    @property
    def num_elements(self) -> int:
        return self.indices.shape[1]

    def rotations(self) -> np.ndarray:
        return self.alphabet.rotations[self.indices]


def db_from_linear(linear) -> float:
    """The one place linear power turns into dB."""
    with np.errstate(divide="ignore"):
        return float(10.0 * np.log10(linear))


@dataclass(eq=False)
class SnrReport:
    """Per-ORE linear SNRs plus their dB-of-mean average."""

    per_ore_linear: np.ndarray
    average_db: float

    @classmethod
    def from_linear(cls, per_ore_linear: np.ndarray) -> "SnrReport":
        per_ore_linear = np.asarray(per_ore_linear, dtype=float)
        return cls(per_ore_linear=per_ore_linear,
                   average_db=db_from_linear(per_ore_linear.mean()))


class UpdateRecord(NamedTuple):
    """One logged coordinate update: objective is the squared norm of the
    composite row (no energy/noise scaling)."""

    ore: int
    iteration: int
    element: int
    objective: float


# ---------------------------------------------------------------------------
# Objective


def _check_shape(ch: ChannelRealization, phases: PhaseAssignment) -> None:
    if phases.indices.shape != (ch.num_ores, ch.num_elements):
        raise ValueError(
            f"phase indices shape {phases.indices.shape} does not match "
            f"channel dims (R={ch.num_ores}, N={ch.num_elements})")


def _rotations(ch: ChannelRealization, phases: PhaseAssignment) -> np.ndarray:
    """(R, N) rotations e^{-j phi} of ``phases``, checked against the channel."""
    _check_shape(ch, phases)
    return phases.rotations()


def _element_major(ch: ChannelRealization) -> tuple:
    """The (N, R) element->BS and (N, d_f, R) user->element arrays, ORE axis
    last and C-contiguous: views of a drawn block's storage, copies of any
    other layout, so every product below sees the same operand layout."""
    return (np.ascontiguousarray(ch.ris_to_bs.T),
            np.ascontiguousarray(ch.user_to_ris.transpose(1, 2, 0)))


def _cascaded_paths(ch: ChannelRealization) -> np.ndarray:
    """(R, N, d_f) cascaded path xi_n = ris_to_bs_n * user_to_ris_n of each element."""
    return ch.ris_to_bs[:, :, None] * ch.user_to_ris


def _sq_norms(w: np.ndarray) -> np.ndarray:
    """Squared norm of each row of a complex (R, d) array."""
    return (w.real**2 + w.imag**2).sum(axis=1)


def _re_inner2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2 Re<a, b> = 2 Re sum_i a_i conj(b_i), per row."""
    return 2.0 * (a * np.conj(b)).sum(axis=1).real


def composite_channel(ch: ChannelRealization, phases: PhaseAssignment) -> np.ndarray:
    """(R, d_f) composite rows: rotated cascaded paths plus the direct path.

    Runs element-major: u = e^{-j phi} * ris_to_bs as (N, R), its (d_f, R)
    contraction with user_to_ris, then transposed onto the direct rows.
    Each float is the same operation as in the ORE-major form.
    """
    _check_shape(ch, phases)
    g, G = _element_major(ch)
    u = phases.alphabet.rotations[np.ascontiguousarray(phases.indices.T)]
    np.multiply(u, g, out=u)
    # C-ordered rows, so _sq_norms sums each row's addends as it always has.
    w = np.empty(ch.direct.shape, dtype=np.complex128)
    return np.add(np.einsum("nr,nir->ir", u, G).T, ch.direct, out=w)


def received_snr(ch: ChannelRealization, phases: PhaseAssignment,
                 fading: FadingConfig) -> SnrReport:
    """Per-ORE received SNR: (E / sigma^2) * ||composite row||^2."""
    scale = fading.symbol_energy / fading.noise_variance
    return SnrReport.from_linear(scale * _sq_norms(composite_channel(ch, phases)))


def no_ris_snr(ch: ChannelRealization, fading: FadingConfig) -> SnrReport:
    """Direct link only: the cascaded term removed entirely."""
    scale = fading.symbol_energy / fading.noise_variance
    return SnrReport.from_linear(scale * _sq_norms(ch.direct))


def blind_phases(alphabet: PhaseAlphabet, num_ores: int,
                 num_elements: int) -> PhaseAssignment:
    """All phases 0: the unoptimized baseline every optimizer starts from.
    Stored element-major, like the kernel's selections."""
    idx = np.full((num_elements, num_ores), alphabet.zero_index,
                  dtype=alphabet.index_dtype)
    return PhaseAssignment(alphabet=alphabet, indices=idx.T)


# ---------------------------------------------------------------------------
# Cached coefficients and the objective decomposition


@dataclass(eq=False)
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
    xi = _cascaded_paths(ch)                                  # (R, N, d_f)
    coupling = np.einsum("rki,rni->rkn", xi, np.conj(xi))   # xi @ xi^H
    direct = np.einsum("rki,ri->rk", xi, np.conj(ch.direct))
    return LcAoWorkspace(element_coupling=coupling, direct_coupling=direct)


def snr_decomposition(ch: ChannelRealization, phases: PhaseAssignment) -> tuple:
    """Split the squared norm into quadratic, cross, and direct addends
    (each (R,), no energy/noise scaling): v D v^H + 2 Re{v dbar} + ||h||^2.

    From the cascaded row u = sum_k v_k xi_k in O(N d_f) per ORE these are
    ||u||^2, 2 Re<u, h> and ||h||^2 (D, dbar: the :class:`LcAoWorkspace` form).
    """
    u = np.einsum("rn,rni->ri", _rotations(ch, phases), _cascaded_paths(ch))
    return _sq_norms(u), _re_inner2(u, ch.direct), _sq_norms(ch.direct)


def term_split(ch: ChannelRealization, phases: PhaseAssignment, element: int) -> tuple:
    """Split each decomposition addend into its phi_n-dependent and
    phi_n-independent parts for element ``element`` (0-based).

    Returns (a1_phi, a1_rest, a2_phi, a2_rest), each (R,); a1_phi + a1_rest
    reproduces the quadratic addend and a2_phi + a2_rest the cross addend.
    With own = v_n xi_n and base = sum_{k != n} v_k xi_k (summed, not u - own,
    so the rest parts are exactly phi_n-free) these are 2 Re<own, base>,
    ||base||^2 + ||xi_n||^2, 2 Re<own, h> and 2 Re<base, h>, in O(N d_f).
    """
    n = element
    if not 0 <= n < ch.num_elements:
        raise ValueError(f"element must be in [0, {ch.num_elements}), got {n}")
    v = _rotations(ch, phases)                               # e^{-j phi}
    xi = _cascaded_paths(ch)
    base = np.einsum("rk,rki->ri", np.delete(v, n, axis=1), np.delete(xi, n, axis=1))
    own = v[:, n, None] * xi[:, n]
    return (_re_inner2(own, base), _sq_norms(base) + _sq_norms(xi[:, n]),
            _re_inner2(own, ch.direct), _re_inner2(base, ch.direct))


# ---------------------------------------------------------------------------
# Optimizers


def ao_optimize(ch: ChannelRealization, alphabet: PhaseAlphabet, iterations: int,
                counter: Optional[OpCount] = None, update_log: Optional[list] = None,
                snapshots: Optional[dict] = None) -> PhaseAssignment:
    """Cyclic coordinate ascent with a full norm evaluation per candidate.

    For each ORE: for t = 1..iterations, for each element, score all 2^b
    candidate phases by the composite-row norm and keep the first maximizer.
    With a ``counter`` the scalar driver recomputes every norm from scratch,
    which is what the closed-form operation counts describe; without one the
    shared incremental kernel (:func:`_ascent`) selects the same phases.

    Kernel only (either one with a ``counter`` raises): ``update_log`` gets
    an :class:`UpdateRecord` per ORE per update, and ``snapshots`` maps sweep
    counts in 0..iterations to the :class:`PhaseAssignment` after that many
    sweeps, set in place; the key ``iterations`` gets the returned object.
    """
    return _optimize(ch, alphabet, iterations, counter, update_log, snapshots,
                     _full_norm_scores)


def lc_ao_optimize(ch: ChannelRealization, alphabet: PhaseAlphabet, iterations: int,
                   counter: Optional[OpCount] = None, update_log: Optional[list] = None,
                   snapshots: Optional[dict] = None) -> PhaseAssignment:
    """Same schedule and selections as :func:`ao_optimize`, but each candidate
    is scored by Re{e^{-j phi} * (direct coupling + rotated cross couplings)},
    which drops every phi_n-independent addend of the objective.

    With a ``counter`` the same scalar driver as :func:`ao_optimize` runs with
    the cached-coupling scorer (:func:`_cached_scores`) and tallies the cost
    model's operations; without one it runs the same incremental kernel
    (:func:`_ascent`), and ``update_log``/``snapshots`` work as there.
    """
    return _optimize(ch, alphabet, iterations, counter, update_log, snapshots,
                     _cached_scores)


def _optimize(ch, alphabet, iterations, counter, update_log, snapshots, score):
    """Argument checks, then the counted driver with ``score`` or the kernel."""
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if counter is not None:
        if update_log is not None or snapshots is not None:
            raise ValueError("update_log and snapshots need the kernel (no counter)")
        return PhaseAssignment(alphabet, _counted(ch, alphabet, iterations, counter, score))
    if snapshots is not None and any(not 0 <= k <= iterations for k in snapshots):
        raise ValueError(f"snapshots need sweep counts in 0..{iterations}, "
                         f"got {sorted(snapshots)}")
    return _ascent(ch, alphabet, iterations, update_log, snapshots)


# The kernel holds the cascaded paths of at most this many bytes of elements
# at a time (1 MiB), never a whole (N, d_f, R) copy.
_XI_CHUNK_BYTES = 2**20


def _ascent(ch: ChannelRealization, alphabet: PhaseAlphabet, iterations: int,
            update_log: Optional[list], snapshots: Optional[dict]) -> PhaseAssignment:
    """The vectorized coordinate ascent behind both optimizers.

    Keeps the composite row w = h + sum_k v_k xi_k, with xi_k = g_k G_k the
    cascaded path of element k.  Updating element n, base = w - v_n xi_n is w
    without that element, and ||base + e^{-j phi} xi_n||^2 differs across
    candidates only in 2 Re{e^{-j phi} sum_i xi_{n,i} conj(base_i)}: the
    cached score, at O(d_f) per element instead of O(N d_f).  w is summed
    afresh for every sweep, so rounding drift never spans more than one.

    The channel is read in place, element-major (:func:`_element_major`).
    The state is w, base and a few (R,) rows, the (N, R) indices in the
    alphabet's compact dtype, and one chunk of elements' xi and v: at most
    ``_XI_CHUNK_BYTES`` of xi, rebuilt from the channel and the indices every
    sweep, or built once when all N fit.  The next sweep's w is summed chunk
    by chunk, and equals one einsum over all N exactly.

    Each float is the same complex operation, on operands of the same
    broadcast shape and order, as in an ORE-major layout: numpy's complex
    multiply rounds g * G and G * g differently.  The score sums the d_f
    addends left to right, which numpy's ``sum(axis=1)`` does only for
    d_f <= 3.
    """
    num_ores, num_elem = ch.num_ores, ch.num_elements
    g, G = _element_major(ch)
    df = G.shape[1]
    rot, rot_col = alphabet.rotations, alphabet.rotations[:, None]
    idx = np.full((num_elem, num_ores), alphabet.zero_index, dtype=alphabet.index_dtype)
    chunks = max(1, -(-num_elem * df * num_ores * 16 // _XI_CHUNK_BYTES))
    size = -(-num_elem // chunks)
    spans = [(lo, min(lo + size, num_elem)) for lo in range(0, num_elem, size)]
    # Slot 0 holds the composite summed over the elements before the chunk,
    # with weight 1, so that einsum continues that running sum.
    xi = np.empty((size + 1, df, num_ores), dtype=np.complex128)
    v = np.empty((size + 1, num_ores), dtype=np.complex128)
    v[0] = 1.0

    def load(lo, hi):
        np.multiply(g[lo:hi, None, :], G[lo:hi], out=xi[1:hi - lo + 1])
        v[1:hi - lo + 1] = rot[idx[lo:hi]]

    def summed(partial, k):
        xi[0] = partial
        return np.einsum("nr,nir->ir", v[:k + 1], xi[:k + 1])

    total = np.zeros((df, num_ores), dtype=np.complex128)
    for lo, hi in spans:                          # the blind start's composite
        load(lo, hi)
        total = summed(total, hi - lo)
    base, tmp = np.empty_like(total), np.empty_like(total)
    sums = np.empty(num_ores, dtype=np.complex128)
    scores = np.empty((alphabet.size, num_ores), dtype=np.complex128)
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
                term3 = tmp[0]
                for i in range(1, df):
                    term3 = np.add(term3, tmp[i], out=sums)
                np.multiply(rot_col, term3, out=scores)
                sel = scores.real.argmax(axis=0)                # first max wins
                idx[n] = sel
                v[j] = rot[sel]
                np.multiply(v[j], xi[j], out=tmp)
                np.add(base, tmp, out=w)
                if update_log is not None:
                    # An (R, d_f) copy: summed in the order _sq_norms uses elsewhere.
                    norms = _sq_norms(np.ascontiguousarray(w.T))
                    update_log.extend(
                        UpdateRecord(r, t, n, float(norms[r])) for r in range(num_ores))
            if t + 1 < iterations:
                total = summed(total, hi - lo)
    phases = PhaseAssignment(alphabet=alphabet, indices=idx.T)
    if snapshots is not None and iterations in snapshots:
        snapshots[iterations] = phases
    return phases


def exhaustive_optimize(ch: ChannelRealization, alphabet: PhaseAlphabet,
                        eval_budget: int = DEFAULT_EXHAUSTIVE_BUDGET) -> PhaseAssignment:
    """Global maximizer per ORE over all 2^{bN} assignments; ties go to the
    lexicographically smallest index vector."""
    num_ores, num_elem = ch.num_ores, ch.num_elements
    size = alphabet.size
    total = size**num_elem
    if total > eval_budget:
        raise ValueError(
            f"exhaustive budget exceeded: 2^(b*N) = {total} > {eval_budget} "
            f"evaluations per ORE")
    rot = alphabet.rotations
    # ORE-major copies of element-major storage: each ORE's (N, d_f) matrix
    # must be contiguous for matmul to take the BLAS path.
    ris_to_bs = np.ascontiguousarray(ch.ris_to_bs)
    user_to_ris = np.ascontiguousarray(ch.user_to_ris)
    best_idx = np.zeros((num_ores, num_elem), dtype=alphabet.index_dtype)
    best_val = np.full(num_ores, -np.inf)
    chunk = 4096
    shape = (size,) * num_elem
    for start in range(0, total, chunk):
        flat = np.arange(start, min(start + chunk, total))
        cand = np.stack(np.unravel_index(flat, shape), axis=1)       # lexicographic
        cand_rot = rot[cand]                                         # same for every ORE
        for r in range(num_ores):
            w = (cand_rot * ris_to_bs[r]) @ user_to_ris[r] + ch.direct[r]
            obj = _sq_norms(w)
            k = int(obj.argmax())
            if obj[k] > best_val[r]:                                 # strict: keeps first
                best_val[r] = obj[k]
                best_idx[r] = cand[k]
    return PhaseAssignment(alphabet=alphabet, indices=best_idx)
