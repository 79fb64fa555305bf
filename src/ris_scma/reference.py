"""The reference code: everything the tests, the demos and the
``verify-complexity`` and ``selftest`` commands check the library against,
and which a campaign run never imports.

* The instrumented scalar ascent (:func:`measured_run`), which tallies real
  operations one by one; the closed forms in :mod:`~ris_scma.opcount` and
  the kernel's selections are checked against it.
* The objective's decomposition (:func:`snr_decomposition`,
  :func:`term_split`) and the exhaustive oracle
  (:func:`exhaustive_optimize`); a campaign loads this module only to run
  the ``exhaustive`` algorithm.
* The deployment-curve summary (:func:`deploy_sweep_profile`).
* The bodies of the ``verify-complexity`` and ``selftest`` commands, which
  :mod:`~ris_scma.cli` loads only for those commands.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .campaign import CampaignResult, trial_seed
from .channel import (ChannelRealization, FadingConfig, Geometry,
                      draw_link_channels, draw_trial_block, stack_realizations)
from .config import DEFAULTS
from .opcount import _TIE_TOLERANCE, OpCount, _select, predicted_ao, predicted_lc_ao
from .optimizer import (DEFAULT_EXHAUSTIVE_BUDGET, PhaseAlphabet, PhaseAssignment,
                        _cascaded_rows, _check_shape, _sq_norms,
                        ao_optimize, blind_phases, received_snr)


# ---------------------------------------------------------------------------
# The counted scalar ascent: the reference the closed forms and the
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


# ---------------------------------------------------------------------------
# The objective's decomposition and the exhaustive oracle


def _re_inner2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2 Re<a, b> = 2 Re sum_i a_i conj(b_i), per row."""
    return 2.0 * (a * np.conj(b)).sum(axis=1).real


def snr_decomposition(ch: ChannelRealization, phases: PhaseAssignment) -> tuple:
    """Split the squared norm into quadratic, cross, and direct addends
    (each (R,), no energy/noise scaling): v D v^H + 2 Re{v dbar} + ||h||^2.

    From the cascaded row u = sum_k v_k xi_k in O(N d_f) per ORE these are
    ||u||^2, 2 Re<u, h> and ||h||^2 (D, dbar: the :class:`~ris_scma.optimizer.LcAoWorkspace`
    form).
    """
    _check_shape(ch, phases)
    u = _cascaded_rows(ch, phases)
    return _sq_norms(u), _re_inner2(u, ch.direct), _sq_norms(ch.direct)


def term_split(ch: ChannelRealization, phases: PhaseAssignment, element: int) -> tuple:
    """Split each decomposition addend into its phi_n-dependent and
    phi_n-independent parts for element ``element`` (0-based).

    Returns (a1_phi, a1_rest, a2_phi, a2_rest), each (R,); a1_phi + a1_rest
    reproduces the quadratic addend and a2_phi + a2_rest the cross addend.
    With own = v_n xi_n and base = sum_{k != n} v_k xi_k (summed with v_n set
    to 0, not as u - own, so the rest parts are exactly phi_n-free) these are
    2 Re<own, base>, ||base||^2 + ||xi_n||^2, 2 Re<own, h> and 2 Re<base, h>,
    in O(N d_f).
    """
    n = element
    if not 0 <= n < ch.num_elements:
        raise ValueError(f"element must be in [0, {ch.num_elements}), got {n}")
    _check_shape(ch, phases)
    xi_n = ch.ris_to_bs[:, n, None] * ch.user_to_ris[:, n]
    own = phases.alphabet.rotations[phases.indices[:, n], None] * xi_n
    base = _cascaded_rows(ch, phases, skip=n)
    return (_re_inner2(own, base), _sq_norms(base) + _sq_norms(xi_n),
            _re_inner2(own, ch.direct), _re_inner2(base, ch.direct))


def exhaustive_optimize(ch: ChannelRealization, alphabet: PhaseAlphabet,
                        eval_budget: int = DEFAULT_EXHAUSTIVE_BUDGET) -> PhaseAssignment:
    """Global maximizer per ORE over all 2^{bN} assignments; ties go to the
    lexicographically smallest index vector.  It keeps the exact first
    maximum, not the ascent's gap rule, so compare the two by objective
    value, not by index."""
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


# ---------------------------------------------------------------------------
# The deployment-curve summary


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


# ---------------------------------------------------------------------------
# The verify-complexity and selftest commands


GEOMETRY = Geometry(**DEFAULTS["geometry"])

# Keys in (R, N, b, d_f, T) order: a grid's values give each cell's.
DEFAULT_COMPLEXITY_GRID = {
    "num_ores": [1, 4],
    "num_elements": [1, 2, 8, 16],
    "phase_bits": [1, 2, 3],
    "num_interferers": [1, 3],
    "iterations": [1, 3],
}


def verify_complexity(source: str) -> int:
    """The ``verify-complexity`` command: measured against closed-form ao and
    lc_ao counts on every cell of the grid ``source`` names, "default" or a
    JSON file of axis lists.  Prints one line per count and a summary; 0
    when all match."""
    if source == "default":
        grid = DEFAULT_COMPLEXITY_GRID
    else:
        grid = json.loads(Path(source).read_text())
        if not isinstance(grid, dict):
            raise ValueError(f"complexity grid must be a JSON object, got {grid!r}")
        unknown = set(grid) - set(DEFAULT_COMPLEXITY_GRID)
        if unknown:
            raise ValueError(f"unknown grid axes: {sorted(unknown)}")
        for axis, values in grid.items():
            if not (isinstance(values, list) and values and all(
                    type(v) is int and v >= 1 for v in values)):
                raise ValueError(f"grid axis {axis!r} must be a non-empty list "
                                 f"of positive integers, got {values!r}")
        grid = {**DEFAULT_COMPLEXITY_GRID, **grid}
    mismatches = 0
    for ok, line in _count_checks(itertools.product(*grid.values())):
        mismatches += not ok
        print(line)
    print(f"verify-complexity: {mismatches} mismatches")
    return 0 if mismatches == 0 else 1


def _count_checks(cells):
    """(ok, line) comparing measured and closed-form ao and lc_ao counts on
    each (R, N, b, d_f, T) cell; counts do not depend on channel values."""
    for r, n, b, df, t in cells:
        rng = np.random.default_rng(trial_seed(0, 0, r * 1000 + n))
        ch = draw_link_channels(rng, r, df, GEOMETRY, FadingConfig(), n)
        alphabet = PhaseAlphabet.from_bits(b)
        for kind, predict in (("ao", predicted_ao), ("lc_ao", predicted_lc_ao)):
            _, measured = measured_run(kind, ch, alphabet, t)
            expected = predict(r, n, b, df, t)
            ok = measured == expected
            yield ok, (f"{'ok' if ok else 'MISMATCH'} {kind:5s} R={r} N={n} b={b} d_f={df} "
                       f"T={t} adds={measured.real_additions}/{expected.real_additions} "
                       f"mults={measured.real_multiplications}/{expected.real_multiplications}")


def selftest() -> int:
    """The ``selftest`` command: oracle-equivalence checks at small N.  Prints
    one line per check and a verdict; 0 when every check passes."""
    fading = FadingConfig()
    failures = 0

    # d_f up to 6 and mostly R != N: shapes past the calibrated d_f = 3, on
    # which the kernel's element-major layout and its sum over d_f are checked.
    rng = np.random.default_rng(20240601)
    mismatch = 0
    for _ in range(60):
        n = int(rng.integers(1, 9))
        b = int(rng.integers(1, 4))
        df = int(rng.integers(1, 7))
        r = int(rng.integers(1, 5))
        t = int(rng.integers(1, 4))
        ch = draw_link_channels(rng, r, df, GEOMETRY, fading, n)
        mismatch += _counted_mismatches(ch, PhaseAlphabet.from_bits(b), t)
    failures += _report("vectorized and both counted selections identical "
                        "(60 draws, d_f <= 6)", mismatch == 0)

    bad = 0
    alphabet = PhaseAlphabet.from_bits(2)
    for _ in range(40):
        ch = draw_link_channels(rng, 2, 3, GEOMETRY, fading, 3)
        best = received_snr(ch, exhaustive_optimize(ch, alphabet), fading)
        mid = received_snr(ch, ao_optimize(ch, alphabet, 3), fading)
        low = received_snr(ch, blind_phases(alphabet, 2, 3), fading)
        tol = 1e-12 * best
        if not ((best >= mid - tol).all() and (mid >= low - tol).all()):
            bad += 1
    failures += _report("oracle >= ascent >= blind on every ORE (40 draws)", bad == 0)

    bad = 0
    for _ in range(50):
        ch = draw_link_channels(rng, 4, 3, GEOMETRY, fading, 4)
        phases = ao_optimize(ch, PhaseAlphabet.from_bits(3), 1)
        quad, cross, direct = snr_decomposition(ch, phases)
        total = (quad + cross + direct) * fading.symbol_energy / fading.noise_variance
        ref = received_snr(ch, phases, fading)
        if (np.abs(total - ref) > 1e-10 * np.abs(ref)).any():
            bad += 1
    failures += _report("objective decomposition identity (50 draws)", bad == 0)

    ok = all(passed for passed, _ in _count_checks(((1, 2, 2, 1, 1), (2, 4, 2, 3, 2))))
    failures += _report("measured operation counts match closed forms", ok)

    seeds = [0, 2**64 - 1] + [trial_seed(0, 1, i) for i in range(62)]
    ok = True
    for mode in ("random", "common"):
        mode_fading = FadingConfig(los_phase=mode)
        block = draw_trial_block(seeds, 2, 3, GEOMETRY, mode_fading, 4)
        ref = stack_realizations([
            draw_link_channels(np.random.default_rng(s), 2, 3, GEOMETRY, mode_fading, 4)
            for s in seeds])
        ok = ok and all(getattr(block, name).tobytes() == getattr(ref, name).tobytes()
                        for name in ("direct", "ris_to_bs", "user_to_ris"))
    failures += _report("seeded block draw equals per-seed default_rng draws "
                        "(64 seeds, both LoS modes)", ok)

    # One element's column duplicates another's, so candidates can tie in
    # exact arithmetic and differ only by rounding; half have no direct link.
    rng = np.random.default_rng(20240602)
    mismatch = 0
    for k in range(500):
        n, r, df, b, t = (int(x) for x in rng.integers([2, 1, 1, 1, 1], [6, 4, 4, 4, 4]))
        ch = draw_link_channels(rng, r, df, GEOMETRY, FadingConfig(
            direct_loss_scale=(0.0025, 0.0)[k % 2]), n)
        src, dst = rng.permutation(n)[:2]
        ch.ris_to_bs[:, dst], ch.user_to_ris[:, dst] = ch.ris_to_bs[:, src], ch.user_to_ris[:, src]
        mismatch += _counted_mismatches(ch, PhaseAlphabet.from_bits(b), t)
    failures += _report("kernel and both counted selections identical on "
                        "duplicated-column channels (500 draws)", mismatch == 0)

    print(f"selftest: {'PASS' if failures == 0 else 'FAIL'}")
    return 0 if failures == 0 else 1


def _counted_mismatches(ch, alphabet, iterations) -> int:
    """How many of the counted ao and lc_ao runs select other phases than
    the kernel."""
    kernel = ao_optimize(ch, alphabet, iterations).indices
    return sum(not np.array_equal(kernel, measured_run(kind, ch, alphabet, iterations)[0])
               for kind in ("ao", "lc_ao"))


def _report(name: str, ok: bool) -> int:
    print(f"[{'ok' if ok else 'FAIL'}] {name}")
    return 0 if ok else 1
