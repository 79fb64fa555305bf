"""Real-arithmetic accounting for the phase optimizers.

Cost model: one complex multiply = 4 real multiplications + 2 real additions,
one complex add = 2 real additions, one squared magnitude = 2 real
multiplications + 1 real addition.  Loop control, comparisons, arg-max scans
and phase-table lookups are free.
"""

from __future__ import annotations

from dataclasses import dataclass


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
