"""Received-SNR objective and the discrete phase-shift optimizers.

All optimizers treat OREs independently and share the same conventions:
phases start at 0, coordinates are updated in place (so the objective can
never decrease: the incumbent value is always among the candidates), and
arg-max ties go to the smallest candidate index.

Each optimizer takes an optional ``counter`` (an :class:`~ris_scma.opcount.OpCount`
sink).  With a counter the run goes through one scalar driver that tallies real
arithmetic under the documented cost model, and AO and LC-AO differ there only
in how they score a candidate phase; these counted paths are the reference the
closed-form counts (and the tests) check against.  Without one, both names run
one vectorized kernel that keeps each ORE's composite row up to date and
selects the same phases.  ``update_log`` and ``snapshots`` are kernel-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .channel import ChannelRealization, FadingConfig
from .opcount import OpCount

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


def _rotations(ch: ChannelRealization, phases: PhaseAssignment) -> np.ndarray:
    """(R, N) rotations e^{-j phi} of ``phases``, checked against the channel."""
    if phases.indices.shape != (ch.num_ores, ch.num_elements):
        raise ValueError(
            f"phase indices shape {phases.indices.shape} does not match "
            f"channel dims (R={ch.num_ores}, N={ch.num_elements})")
    return phases.rotations()


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
    """(R, d_f) composite rows: rotated cascaded paths plus the direct path."""
    u = _rotations(ch, phases)                                 # (R, N)
    np.multiply(u, ch.ris_to_bs, out=u)
    return np.einsum("rn,rni->ri", u, ch.user_to_ris) + ch.direct


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
    """All phases 0: the unoptimized baseline every optimizer starts from."""
    idx = np.full((num_ores, num_elements), alphabet.zero_index, dtype=np.int64)
    return PhaseAssignment(alphabet=alphabet, indices=idx)


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
        return _counted(ch, alphabet, iterations, counter, score)
    if snapshots is not None and any(not 0 <= k <= iterations for k in snapshots):
        raise ValueError(f"snapshots need sweep counts in 0..{iterations}, "
                         f"got {sorted(snapshots)}")
    return _ascent(ch, alphabet, iterations, update_log, snapshots)


def _ascent(ch: ChannelRealization, alphabet: PhaseAlphabet, iterations: int,
            update_log: Optional[list], snapshots: Optional[dict]) -> PhaseAssignment:
    """The vectorized coordinate ascent behind both optimizers.

    Keeps the composite row w = h + sum_k v_k xi_k, with xi_k the cascaded
    path of element k.  Updating element n, base = w - v_n xi_n is w without
    that element, and ||base + e^{-j phi} xi_n||^2 differs across candidates
    only in 2 Re{e^{-j phi} sum_i xi_{n,i} conj(base_i)}: the cached score,
    at O(d_f) per element instead of O(N d_f).  w is recomputed at the start
    of every sweep, so rounding drift never spans more than one sweep.

    The state is stored element-major, ORE last: xi is one C-contiguous
    (N, d_f, R) array, v is (N, R) and w/base are (d_f, R), so every step
    works on contiguous rows of length R; the indices stay (R, N).  Every
    float is the same complex operation on the same operands as in an
    ORE-major (R, N, d_f) layout, so the selections do not depend on the
    layout.  The one choice of order is the score's sum over the d_f
    addends, taken left to right: numpy's ``sum(axis=1)`` over an
    ORE-major row does the same for d_f <= 3 but pairs the addends for
    d_f >= 4, where the two can differ in the last bit.
    """
    num_ores, num_elem = ch.num_ores, ch.num_elements
    df = ch.user_to_ris.shape[2]
    rot = alphabet.rotations
    idx = np.full((num_ores, num_elem), alphabet.zero_index, dtype=np.int64)
    v = np.full((num_elem, num_ores), rot[alphabet.zero_index], dtype=np.complex128)
    xi = np.empty((num_elem, df, num_ores), dtype=np.complex128)
    np.multiply(ch.ris_to_bs.T[:, None, :], ch.user_to_ris.transpose(1, 2, 0), out=xi)
    direct = ch.direct.T
    for t in range(iterations):
        if snapshots is not None and t in snapshots:
            # The smallest index dtype: R * N int64 copies would raise peak memory.
            compact = idx.astype(np.min_scalar_type(alphabet.size - 1))
            snapshots[t] = PhaseAssignment(alphabet=alphabet, indices=compact)
        w = np.einsum("nr,nir->ir", v, xi) + direct
        for n in range(num_elem):
            xi_n = xi[n]
            base = w - v[n] * xi_n
            p = xi_n * np.conj(base)
            term3 = p[0]
            for i in range(1, df):
                term3 = term3 + p[i]
            sel = (rot[:, None] * term3).real.argmax(axis=0)   # first max wins
            idx[:, n] = sel
            v[n] = rot[sel]
            w = base + v[n] * xi_n
            if update_log is not None:
                # An (R, d_f) copy: summed in the order _sq_norms uses elsewhere.
                norms = _sq_norms(np.ascontiguousarray(w.T))
                update_log.extend(
                    UpdateRecord(r, t, n, float(norms[r])) for r in range(num_ores))
    phases = PhaseAssignment(alphabet=alphabet, indices=idx)
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
    best_idx = np.zeros((num_ores, num_elem), dtype=np.int64)
    best_val = np.full(num_ores, -np.inf)
    chunk = 4096
    shape = (size,) * num_elem
    for start in range(0, total, chunk):
        flat = np.arange(start, min(start + chunk, total))
        cand = np.stack(np.unravel_index(flat, shape), axis=1)       # lexicographic
        cand_rot = rot[cand]                                         # same for every ORE
        for r in range(num_ores):
            w = (cand_rot * ch.ris_to_bs[r]) @ ch.user_to_ris[r] + ch.direct[r]
            obj = _sq_norms(w)
            k = int(obj.argmax())
            if obj[k] > best_val[r]:                                 # strict: keeps first
                best_val[r] = obj[k]
                best_idx[r] = cand[k]
    return PhaseAssignment(alphabet=alphabet, indices=best_idx)


# ---------------------------------------------------------------------------
# Instrumented scalar paths


class _ComplexOps:
    """Scalar complex arithmetic that tallies real operations as it goes."""

    def __init__(self, count: OpCount):
        self.count = count

    def mul(self, a: complex, b: complex) -> complex:
        self.count.real_multiplications += 4
        self.count.real_additions += 2
        return a * b

    def add(self, a: complex, b: complex) -> complex:
        self.count.real_additions += 2
        return a + b

    def abs2(self, a: complex) -> float:
        self.count.real_multiplications += 2
        self.count.real_additions += 1
        return a.real * a.real + a.imag * a.imag

    def add1(self, a, b):
        """Accumulate tallied as a single real addition (the convention the
        cached optimizer's closed-form count is built on)."""
        self.count.real_additions += 1
        return a + b


def _first_argmax(scores: list) -> int:
    """Smallest index whose score is within a relative 1e-12 of the maximum,
    so exact ties do not go to whichever candidate rounding favoured."""
    top = max(scores)
    floor = top - 1e-12 * abs(top)
    return next(i for i, score in enumerate(scores) if score >= floor)


def _counted(ch, alphabet, iterations, counter, score):
    """The instrumented scalar ascent: per ORE, from the blind start, T sweeps
    over the N elements, each keeping the first maximizer of the 2^b scores
    ``score`` gives element n.  AO and LC-AO differ only in that scorer."""
    ops = _ComplexOps(counter)
    rot = [complex(x) for x in alphabet.rotations]
    num_ores, num_elem = ch.num_ores, ch.num_elements
    idx = np.full((num_ores, num_elem), alphabet.zero_index, dtype=np.int64)
    for r in range(num_ores):
        gbar = [complex(x) for x in ch.ris_to_bs[r]]
        g = [[complex(x) for x in row] for row in ch.user_to_ris[r]]
        h = [complex(x) for x in ch.direct[r]]
        v = [rot[alphabet.zero_index]] * num_elem
        for _ in range(iterations):
            for n in range(num_elem):
                sel = _first_argmax(score(ops, rot, gbar, g, h, v, n))
                idx[r, n] = sel
                v[n] = rot[sel]
    return PhaseAssignment(alphabet=alphabet, indices=idx)


def _full_norm_scores(ops, rot, gbar, g, h, v, n):
    """AO: each candidate's composite-row norm, recomputed from scratch."""
    num_elem, df = len(gbar), len(h)
    scores = []
    for candidate in rot:
        vn = list(v)
        vn[n] = candidate
        u = [ops.mul(gbar[k], vn[k]) for k in range(num_elem)]
        squares = []
        for i in range(df):
            acc = h[i]
            for k in range(num_elem):
                acc = ops.add(acc, ops.mul(u[k], g[k][i]))
            squares.append(ops.abs2(acc))
        norm = squares[0]
        for s in squares[1:]:
            norm = ops.add1(norm, s)
        scores.append(norm)
    return scores


def _cached_scores(ops, rot, gbar, g, h, v, n):
    """LC-AO: only the phi_n-dependent part, Re{e^{-j phi} term3}, from the
    couplings of element n with the other elements and with the direct path."""
    num_elem, df = len(gbar), len(h)
    psi = 0j
    for k in range(num_elem):
        if k == n:
            continue
        acc = None
        for i in range(df):
            a = ops.mul(g[k][i], gbar[k])
            b = ops.mul(g[n][i], gbar[n])
            p = ops.mul(a, b.conjugate())
            acc = p if acc is None else ops.add(acc, p)
        rotated = ops.mul(v[k].conjugate(), acc.conjugate())
        psi = ops.add1(psi, rotated)
    dbar = None
    for i in range(df):
        a = ops.mul(g[n][i], gbar[n])
        p = ops.mul(a, h[i].conjugate())
        dbar = p if dbar is None else ops.add(dbar, p)
    term3 = ops.add1(dbar, psi)
    return [ops.mul(candidate, term3).real for candidate in rot]
