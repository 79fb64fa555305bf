"""Real-arithmetic accounting for the phase optimizers.

Cost model: one complex multiply = 4 real multiplications + 2 real additions,
one complex add = 2 real additions, one squared magnitude = 2 real
multiplications + 1 real addition.  Loop control, comparisons, arg-max scans
and phase-table lookups are free.  The closed forms are checked against the
instrumented scalar ascent below, which tallies the same operations one by
one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class OpCount:
    """Mutable tally of real additions and multiplications."""

    real_additions: int = 0
    real_multiplications: int = 0


def norm_eval_cost(num_elements: int, num_interferers: int) -> tuple:
    """(adds, mults) for one full evaluation of the composite-row norm."""
    n, df = num_elements, num_interferers
    adds = 2 * n * (2 * df + 1) + 2 * df - 1
    mults = 4 * n * (df + 1) + 2 * df
    return adds, mults


def predicted_ao(num_ores: int, num_elements: int, bits: int,
                 num_interferers: int, iterations: int = 1) -> OpCount:
    """Closed-form count for the full-norm coordinate-ascent optimizer."""
    _check_args(num_ores, num_elements, bits, num_interferers, iterations)
    adds, mults = norm_eval_cost(num_elements, num_interferers)
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
    adds, mults = norm_eval_cost(num_elements, num_interferers)
    evals = num_ores * (2**bits) ** num_elements
    return OpCount(evals * adds, evals * mults)


def measured_run(kind: str, ch, alphabet, iterations: int) -> OpCount:
    """Run one instrumented optimizer pass and return its tally."""
    from . import optimizer  # local import avoids a cycle

    counter = OpCount()
    if kind == "ao":
        optimizer.ao_optimize(ch, alphabet, iterations, counter=counter)
    elif kind == "lc_ao":
        optimizer.lc_ao_optimize(ch, alphabet, iterations, counter=counter)
    else:
        raise ValueError(f"kind must be 'ao' or 'lc_ao', got {kind!r}")
    return counter


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


def _first_argmax(scores: list) -> int:
    """Smallest index whose score is within a relative 1e-12 of the maximum,
    so exact ties do not go to whichever candidate rounding favoured."""
    top = max(scores)
    floor = top - 1e-12 * abs(top)
    return next(i for i, score in enumerate(scores) if score >= floor)


def _counted(ch, alphabet, iterations, counter, score):
    """The instrumented scalar ascent behind ``ao_optimize`` and
    ``lc_ao_optimize`` with a counter: per ORE, from the blind start, T sweeps
    over the N elements, each keeping the first maximizer of the 2^b scores
    ``score`` gives element n.  AO and LC-AO differ only in that scorer.
    Returns the (R, N) selected indices."""
    ops = _ComplexOps(counter)
    rot = [complex(x) for x in alphabet.rotations]
    num_ores, num_elem = ch.num_ores, ch.num_elements
    idx = np.full((num_ores, num_elem), alphabet.zero_index, dtype=alphabet.index_dtype)
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
    return idx


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
