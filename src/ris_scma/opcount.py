"""Real-arithmetic accounting for the phase optimizers.

Cost model: one complex multiply = 4 real multiplications + 2 real additions,
one complex add = 2 real additions, one squared magnitude = 2 real
multiplications + 1 real addition.  Loop control, comparisons, the phase
selection (:func:`_select`, its threshold included) and phase-table lookups
are free.  The closed forms are checked against the instrumented scalar
ascent below (:func:`measured_run`), which tallies the same operations one
by one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class OpCount:
    """Mutable tally of real additions and multiplications."""

    real_additions: int = 0
    real_multiplications: int = 0


def _norm_eval_cost(num_elements: int, num_interferers: int) -> tuple:
    """(adds, mults) for one full evaluation of the composite-row norm."""
    n, df = num_elements, num_interferers
    adds = 2 * n * (2 * df + 1) + 2 * df - 1
    mults = 4 * n * (df + 1) + 2 * df
    return adds, mults


def predicted_ao(num_ores: int, num_elements: int, bits: int,
                 num_interferers: int, iterations: int = 1) -> OpCount:
    """Closed-form count for the full-norm coordinate-ascent optimizer."""
    _check_args(num_ores, num_elements, bits, num_interferers, iterations)
    adds, mults = _norm_eval_cost(num_elements, num_interferers)
    evals = num_ores * num_elements * 2**bits * iterations
    return OpCount(evals * adds, evals * mults)


def predicted_lc_ao(num_ores: int, num_elements: int, bits: int,
                    num_interferers: int, iterations: int = 1) -> OpCount:
    """Closed-form count for the cached-coefficient variant."""
    _check_args(num_ores, num_elements, bits, num_interferers, iterations)
    n, df = num_elements, num_interferers
    adds = num_ores * n * (2**(bits + 1) + n * (8 * df + 1) - 2 * (df + 1))
    mults = num_ores * n * (2**(bits + 2) + 4 * n * (3 * df + 1) - 4 * (df + 1))
    return OpCount(adds * iterations, mults * iterations)


def predicted_exhaustive(num_ores: int, num_elements: int, bits: int,
                         num_interferers: int) -> OpCount:
    """Full norm per combination, 2^{bN} combinations per ORE. Informational;
    used only to fill campaign rows for the oracle."""
    _check_args(num_ores, num_elements, bits, num_interferers, 1)
    adds, mults = _norm_eval_cost(num_elements, num_interferers)
    evals = num_ores * (2**bits) ** num_elements
    return OpCount(evals * adds, evals * mults)


def _check_args(num_ores, num_elements, bits, num_interferers, iterations) -> None:
    for name, value in (("num_ores", num_ores), ("num_elements", num_elements),
                        ("bits", bits), ("num_interferers", num_interferers),
                        ("iterations", iterations)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


# ---------------------------------------------------------------------------
# Instrumented scalar paths: the reference the closed forms and the
# vectorized kernel are checked against


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


# Scores within this fraction of S = ||h||^2 + sum_k ||xi_k||^2 (the mean
# objective over uniformly random phases) of the best tie.  Rounding moves
# a score by about 1e-16 S.
_TIE_TOLERANCE = 1e-12


def _select(scores, gap):
    """The tie rule of the kernel and both counted paths: along axis 0 of
    (2^b,) or (2^b, R) scores, the first index scoring at least max - gap."""
    scores = np.asarray(scores)
    return (scores >= scores.max(axis=0) - gap).argmax(axis=0)


def _counted(ch, alphabet, iterations, score, gap_scale):
    """The instrumented scalar ascent: per ORE, from the blind start, T sweeps
    over the N elements, each keeping the :func:`_select` choice among the 2^b
    scores ``score`` gives element n, with a gap of ``gap_scale`` * 1e-12 S.
    AO and LC-AO differ only in the scorer and its gap scale.
    Returns the (R, N) selected indices and their tally."""
    counter = OpCount()
    ops = _ComplexOps(counter)
    rot = [complex(x) for x in alphabet.rotations]
    num_ores, num_elem = ch.num_ores, ch.num_elements
    idx = np.full((num_ores, num_elem), alphabet.zero_index, dtype=alphabet.index_dtype)
    scale = gap_scale * _TIE_TOLERANCE
    for r in range(num_ores):
        gbar = [complex(x) for x in ch.ris_to_bs[r]]
        g = [[complex(x) for x in row] for row in ch.user_to_ris[r]]
        h = [complex(x) for x in ch.direct[r]]
        # Untallied: the selection, its threshold included, is free.
        gap = scale * (sum(abs(x) ** 2 for x in h) + sum(
            abs(gbar[k] * x) ** 2 for k in range(num_elem) for x in g[k]))
        v = [rot[alphabet.zero_index]] * num_elem
        for _ in range(iterations):
            for n in range(num_elem):
                sel = _select(score(ops, rot, gbar, g, h, v, n), gap)
                idx[r, n] = sel
                v[n] = rot[sel]
    return idx, counter


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


# Each kind's scorer and gap scale.  LC-AO's scores, like the kernel's, are
# half the phase-dependent part of the objective, so its gap is halved too.
_KINDS = {"ao": (_full_norm_scores, 1.0), "lc_ao": (_cached_scores, 0.5)}


def measured_run(kind: str, ch, alphabet, iterations: int) -> tuple:
    """The counted reference: one instrumented scalar ascent of ``kind``
    ('ao' or 'lc_ao') over ``iterations`` sweeps, the same schedule and tie
    rule as the optimizers' kernel.  Returns the (R, N) selected indices and
    the :class:`OpCount` the closed forms predict."""
    if kind not in _KINDS:
        raise ValueError(f"kind must be 'ao' or 'lc_ao', got {kind!r}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    return _counted(ch, alphabet, iterations, *_KINDS[kind])
