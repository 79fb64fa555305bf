import hashlib
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_channels
from ris_scma import optimizer
from ris_scma.channel import (ChannelRealization, FadingConfig, Geometry,
                              draw_link_channels, draw_trial_block)
from ris_scma.optimizer import (PhaseAlphabet, PhaseAssignment, ao_optimize,
                                blind_phases, build_lc_workspace,
                                composite_channel, db_from_linear,
                                lc_ao_optimize, no_ris_snr, received_snr)
from ris_scma.reference import (exhaustive_optimize, measured_run,
                                snr_decomposition, term_split)


# ---------------------------------------------------------------------------
# Alphabet and assignment


@pytest.mark.parametrize("bits", [1, 2, 3, 4])
def test_alphabet_values(bits):
    alpha = PhaseAlphabet.from_bits(bits)
    step = 2 * math.pi / 2**bits
    expected = [-math.pi + l * step for l in range(2**bits)]
    assert alpha.values == pytest.approx(expected, abs=1e-15)
    assert alpha.values[alpha.zero_index] == pytest.approx(0.0, abs=1e-15)
    assert np.abs(np.abs(alpha.rotations) - 1.0).max() < 1e-15


def test_alphabet_rejects_zero_bits():
    with pytest.raises(ValueError, match="bits"):
        PhaseAlphabet.from_bits(0)


def test_assignment_validation():
    alpha = PhaseAlphabet.from_bits(2)
    with pytest.raises(ValueError, match="out of alphabet"):
        PhaseAssignment(alpha, np.array([[0, 4]]))
    with pytest.raises(ValueError, match=r"indices must be \(R, N\)"):
        PhaseAssignment(alpha, np.array([0, 1]))


def test_blind_phases_are_zero():
    alpha = PhaseAlphabet.from_bits(2)
    blind = blind_phases(alpha, 1, 2)
    assert np.abs(blind.alphabet.values[blind.indices]).max() < 1e-15


# ---------------------------------------------------------------------------
# Objective


def test_snr_direct_link_only_reduction(fading):
    # all cascaded coefficients zero -> (E / sigma^2) ||h||^2
    ch = make_channels(direct=[1 + 2j, 0.5 - 1j, -3j],
                       ris_to_bs=[0, 0],
                       user_to_ris=[[0, 0, 0], [0, 0, 0]])
    phases = blind_phases(PhaseAlphabet.from_bits(2), 1, 2)
    got = received_snr(ch, phases, fading)
    scale = fading.symbol_energy / fading.noise_variance
    expected = scale * (abs(1 + 2j) ** 2 + abs(0.5 - 1j) ** 2 + 9.0)
    assert got[0] == pytest.approx(expected, rel=1e-12)
    assert no_ris_snr(ch, fading)[0] == pytest.approx(expected, rel=1e-12)


def test_snr_coherent_real_case_hand_expanded(fading):
    # N=2, d_f=1, everything real positive, phases 0:
    # Gamma = (E/sigma^2) (a1 g1 + a2 g2 + h)^2
    a1, a2, g1, g2, h = 0.7, 0.4, 1.1, 0.9, 0.25
    ch = make_channels(direct=[h], ris_to_bs=[a1, a2], user_to_ris=[[g1], [g2]])
    phases = blind_phases(PhaseAlphabet.from_bits(3), 1, 2)
    got = received_snr(ch, phases, fading)[0]
    scale = fading.symbol_energy / fading.noise_variance
    assert got == pytest.approx(scale * (a1 * g1 + a2 * g2 + h) ** 2, rel=1e-12)


def test_db_of_mean():
    snr = np.array([1.0, 3.0])
    assert db_from_linear(snr.mean()) == pytest.approx(10 * math.log10(2.0), rel=1e-12)
    assert db_from_linear(0.0) == -math.inf


def test_decomposition_matches_direct_norm(geom, fading):
    rng = np.random.default_rng(42)
    scale = fading.symbol_energy / fading.noise_variance
    for _ in range(200):
        ch = draw_link_channels(rng, 2, 3, geom, fading, 4)
        phases = PhaseAssignment(PhaseAlphabet.from_bits(3),
                                 rng.integers(0, 8, size=(2, 4)))
        quad, cross, direct = snr_decomposition(ch, phases)
        total = scale * (quad + cross + direct)
        ref = received_snr(ch, phases, fading)
        assert np.abs(total - ref).max() <= 1e-10 * np.abs(ref).max()


def test_decomposition_all_zero_phases_real_coupling():
    # v = all-ones: the quadratic addend is the sum of all coupling entries
    ch = make_channels(direct=[0.3], ris_to_bs=[0.5, 0.25],
                       user_to_ris=[[1.0], [2.0]])
    alpha = PhaseAlphabet.from_bits(2)
    quad, cross, direct = snr_decomposition(ch, blind_phases(alpha, 1, 2))
    ws = build_lc_workspace(ch)
    assert quad[0] == pytest.approx(ws.element_coupling[0].sum().real, rel=1e-12)
    assert direct[0] == pytest.approx(0.09, rel=1e-12)


def test_decomposition_no_direct_link(fading):
    ch = make_channels(direct=[0.0, 0.0], ris_to_bs=[1j, 0.4],
                       user_to_ris=[[0.3, 1.0], [0.2, -0.5j]])
    phases = blind_phases(PhaseAlphabet.from_bits(2), 1, 2)
    quad, cross, direct = snr_decomposition(ch, phases)
    assert cross[0] == 0.0
    assert direct[0] == 0.0


def test_coupling_matrix_properties(geom, fading):
    rng = np.random.default_rng(7)
    ch = draw_link_channels(rng, 3, 3, geom, fading, 5)
    ws = build_lc_workspace(ch)
    d = ws.element_coupling
    assert np.array_equal(d, np.conj(np.swapaxes(d, 1, 2)))
    diag = np.einsum("rkk->rk", d)
    assert np.abs(diag.imag).max() == 0.0
    assert diag.real.min() >= 0.0
    # the quadratic form is real for any phase vector
    v = np.exp(-1j * rng.uniform(-math.pi, math.pi, size=(3, 5)))
    quad = np.einsum("rk,rkn,rn->r", v, d, np.conj(v))
    assert np.abs(quad.imag).max() < 1e-12 * np.abs(d).sum()


def test_received_snr_uses_the_composite_row(geom):
    # the vector multiplying the codewords is the one whose norm is the SNR
    fading = FadingConfig()
    ch = draw_link_channels(np.random.default_rng(6), 3, 3, geom, fading, 5)
    phases = ao_optimize(ch, PhaseAlphabet.from_bits(2), 1)
    w = composite_channel(ch, phases)
    scale = fading.symbol_energy / fading.noise_variance
    assert received_snr(ch, phases, fading) == pytest.approx(
        scale * (np.abs(w) ** 2).sum(axis=1), rel=1e-12)


# ---------------------------------------------------------------------------
# term_split


def test_term_split_identities(geom, fading):
    rng = np.random.default_rng(77)
    for _ in range(100):
        ch = draw_link_channels(rng, 2, 3, geom, fading, 4)
        phases = PhaseAssignment(PhaseAlphabet.from_bits(2),
                                 rng.integers(0, 4, size=(2, 4)))
        quad, cross, _ = snr_decomposition(ch, phases)
        n = int(rng.integers(0, 4))
        a1p, a1r, a2p, a2r = term_split(ch, phases, n)
        assert np.abs(a1p + a1r - quad).max() <= 1e-10 * max(np.abs(quad).max(), 1e-300)
        assert np.abs(a2p + a2r - cross).max() <= 1e-10 * max(np.abs(cross).max(), 1e-300)


def test_term_split_single_element():
    ch = make_channels(direct=[0.5, -0.5j], ris_to_bs=[0.8],
                       user_to_ris=[[0.6, 1.2j]])
    phases = blind_phases(PhaseAlphabet.from_bits(2), 1, 1)
    a1p, a1r, a2p, a2r = term_split(ch, phases, 0)
    assert a1p[0] == 0.0  # no cross couplings with N=1
    ws = build_lc_workspace(ch)
    assert a1r[0] == pytest.approx(ws.element_coupling[0, 0, 0].real, rel=1e-12)
    assert a2r[0] == 0.0


def test_term_split_rest_invariant_to_element_phase(geom, fading):
    rng = np.random.default_rng(78)
    ch = draw_link_channels(rng, 1, 3, geom, fading, 4)
    alpha = PhaseAlphabet.from_bits(3)
    idx = rng.integers(0, 8, size=(1, 4))
    n = 2
    rests = []
    for cand in range(8):
        idx2 = idx.copy()
        idx2[0, n] = cand
        _, a1r, _, a2r = term_split(ch, PhaseAssignment(alpha, idx2), n)
        rests.append((a1r[0], a2r[0]))
    assert all(r == rests[0] for r in rests)


def test_term_split_element_bounds(geom, fading):
    ch = draw_link_channels(np.random.default_rng(1), 1, 1, geom, fading, 2)
    with pytest.raises(ValueError, match="element"):
        term_split(ch, blind_phases(PhaseAlphabet.from_bits(1), 1, 2), 2)


@pytest.mark.parametrize("shape", [(1, 4), (2, 1)])
def test_decomposition_rejects_mismatched_phases(geom, fading, shape):
    # A size-1 axis would otherwise broadcast one ORE's (or one element's)
    # phases over the whole channel.
    ch = draw_link_channels(np.random.default_rng(15), 2, 3, geom, fading, 4)
    bad = blind_phases(PhaseAlphabet.from_bits(2), *shape)
    with pytest.raises(ValueError, match="does not match"):
        snr_decomposition(ch, bad)
    with pytest.raises(ValueError, match="does not match"):
        term_split(ch, bad, 0)


def _close(got, want):
    """Criterion 4's tolerance: 1e-10 relative to the largest reference value."""
    return np.abs(got - want).max() <= 1e-10 * max(np.abs(want).max(), 1e-300)


@pytest.mark.parametrize("los_phase", ["random", "common"])
@pytest.mark.parametrize("direct_loss_scale", [0.0, 1.0])
@pytest.mark.parametrize("n_el", [1, 2, 5])
def test_each_addend_matches_coupling_formula(geom, los_phase, direct_loss_scale, n_el):
    # Every addend separately, against the paper's cached-coefficient form:
    # quad = v D v^H, cross = 2 Re{v . dbar}, and the per-element split of
    # both written out over the entries of D and dbar.
    fading = FadingConfig(los_phase=los_phase, direct_loss_scale=direct_loss_scale)
    rng = np.random.default_rng(16)
    alpha = PhaseAlphabet.from_bits(3)
    for _ in range(3):
        ch = draw_link_channels(rng, 32, 3, geom, fading, n_el)
        phases = PhaseAssignment(alpha, rng.integers(0, 8, size=(32, n_el)))
        ws = build_lc_workspace(ch)
        d, dbar = ws.element_coupling, ws.direct_coupling
        v = phases.alphabet.rotations[phases.indices]
        h = ch.direct
        quad, cross, direct = snr_decomposition(ch, phases)
        assert _close(quad, np.einsum("rk,rkn,rn->r", v, d, np.conj(v)).real)
        assert _close(cross, 2.0 * np.einsum("rn,rn->r", v, dbar).real)
        assert _close(direct, (np.abs(h) ** 2).sum(axis=1))
        for n in range(n_el):
            others = np.arange(n_el) != n
            vo = v[:, others]
            do = d[:, others][:, :, others]
            off_diag = ~np.eye(n_el - 1, dtype=bool)
            want = (
                2.0 * (v[:, n] * np.einsum("rk,rk->r", np.conj(vo),
                                           np.conj(d[:, others, n]))).real,
                np.einsum("rkk->rk", d).real.sum(axis=1)
                + (vo[:, :, None] * do * np.conj(vo[:, None, :]))[:, off_diag]
                .sum(axis=1).real,
                2.0 * (v[:, n] * dbar[:, n]).real,
                2.0 * np.einsum("rk,rk->r", vo, dbar[:, others]).real,
            )
            for got, ref in zip(term_split(ch, phases, n), want):
                assert _close(got, ref)


# ---------------------------------------------------------------------------
# Coordinate ascent


def test_ao_coherent_alignment_beats_flip(fading):
    # N=1, b=1, d_f=1, real positive channels: 0 beats the sign flip
    ch = make_channels(direct=[0.4], ris_to_bs=[0.9], user_to_ris=[[1.0]])
    alpha = PhaseAlphabet.from_bits(1)
    phases = ao_optimize(ch, alpha, 1)
    assert phases.indices[0, 0] == alpha.zero_index


def test_ao_equals_blind_when_zero_is_optimal(fading):
    # cascaded and direct terms phase-aligned at 0 for every candidate
    ch = make_channels(direct=[1.0], ris_to_bs=[0.5], user_to_ris=[[1.0]])
    alpha = PhaseAlphabet.from_bits(2)
    phases = ao_optimize(ch, alpha, 3)
    blind = blind_phases(alpha, 1, 1)
    assert np.array_equal(phases.indices, blind.indices)


def test_ao_objective_nondecreasing(geom, fading):
    rng = np.random.default_rng(3)
    for _ in range(10):
        ch = draw_link_channels(rng, 1, 2, geom, fading, 3)
        log = []
        ao_optimize(ch, PhaseAlphabet.from_bits(2), 3, update_log=log)
        objs = np.concatenate(log)
        assert objs.shape == (9,)
        for prev, cur in zip(objs, objs[1:]):
            assert cur >= prev * (1.0 - 1e-12)


def test_blind_never_beats_ao(geom, fading):
    rng = np.random.default_rng(4)
    ch = draw_link_channels(rng, 40, 3, geom, fading, 6)
    alpha = PhaseAlphabet.from_bits(3)
    ao = received_snr(ch, ao_optimize(ch, alpha, 1), fading)
    bl = received_snr(ch, blind_phases(alpha, 40, 6), fading)
    assert (ao >= bl * (1.0 - 1e-12)).all()


def test_ao_and_lc_ao_identical_selections(geom, fading):
    rng = np.random.default_rng(5)
    draws = []
    for _ in range(40):
        n = int(rng.integers(1, 7))
        b = int(rng.integers(1, 4))
        df = int(rng.integers(1, 4))
        draws.append((draw_link_channels(rng, 2, df, geom, fading, n), b,
                       int(rng.integers(1, 4))))
    # No direct link at small N: at N = 1 every candidate ties exactly (the
    # objective ignores a global phase), so the tie rule itself is compared.
    no_direct = FadingConfig(direct_loss_scale=0.0)
    for _ in range(800):
        n = int(rng.integers(1, 4))
        b = int(rng.integers(1, 5))
        df = int(rng.integers(1, 4))
        draws.append((draw_link_channels(rng, 2, df, geom, no_direct, n), b,
                       int(rng.integers(1, 4))))
    # Both optimizer names run one kernel, so it is checked against the two
    # counted scalar paths, which score candidates independently.
    mismatches = 0
    for ch, b, t in draws:
        alpha = PhaseAlphabet.from_bits(b)
        kernel = ao_optimize(ch, alpha, t).indices
        for kind in ("ao", "lc_ao"):
            counted, _ = measured_run(kind, ch, alpha, t)
            mismatches += not np.array_equal(kernel, counted)
    assert mismatches == 0, f"{mismatches} of {2 * len(draws)} counted runs differ"


def test_kernel_matches_counted_paths_on_wide_interference_sets(geom):
    # d_f >= 4, where the kernel's left-to-right sum over the d_f addends and
    # numpy's pairwise sum part ways; N is never R or d_f, so a kernel that
    # mixes up the ORE and element axes cannot pass.
    rng = np.random.default_rng(23)
    mismatches = runs = 0
    for k in range(144):
        df = 4 + k % 3
        r = (1, 3, 5)[k // 3 % 3]
        n = int(rng.choice([m for m in range(1, 7) if m not in (r, df)]))
        b = 1 + k // 9 % 4
        fading = FadingConfig(direct_loss_scale=(0.0025, 0.0)[k % 2])
        ch = draw_link_channels(rng, r, df, geom, fading, n)
        alpha = PhaseAlphabet.from_bits(b)
        t = int(rng.integers(1, 3))
        kernel = ao_optimize(ch, alpha, t).indices
        for kind in ("ao", "lc_ao"):
            counted, _ = measured_run(kind, ch, alpha, t)
            mismatches += not np.array_equal(kernel, counted)
            runs += 1
    assert mismatches == 0, f"{mismatches} of {runs} counted runs differ"


def test_all_zero_channels_select_first_candidate():
    ch = make_channels(direct=[0.0, 0.0], ris_to_bs=[0.0, 0.0, 0.0],
                       user_to_ris=np.zeros((3, 2)))
    assert lc_ao_optimize is ao_optimize
    assert (ao_optimize(ch, PhaseAlphabet.from_bits(2), 2).indices == 0).all()


def test_lc_ao_selects_closest_alphabet_member(geom, fading):
    # with N=1 the score target is the direct coupling alone
    rng = np.random.default_rng(6)
    alpha = PhaseAlphabet.from_bits(3)
    for _ in range(50):
        ch = draw_link_channels(rng, 1, 2, geom, fading, 1)
        target = build_lc_workspace(ch).direct_coupling[0, 0]
        angle = np.angle(target)
        oracle = int(np.argmax(np.cos(angle - alpha.values)))
        got = lc_ao_optimize(ch, alpha, 1).indices[0, 0]
        assert got == oracle


def test_counted_paths_match_vectorized(geom, fading):
    rng = np.random.default_rng(8)
    ch = draw_link_channels(rng, 3, 3, geom, fading, 5)
    alpha = PhaseAlphabet.from_bits(3)
    plain = ao_optimize(ch, alpha, 2).indices
    for kind in ("ao", "lc_ao"):
        counted, _ = measured_run(kind, ch, alpha, 2)
        assert np.array_equal(counted, plain)


def test_iterations_must_be_positive(geom, fading):
    ch = draw_link_channels(np.random.default_rng(9), 1, 1, geom, fading, 1)
    with pytest.raises(ValueError, match="iterations"):
        ao_optimize(ch, PhaseAlphabet.from_bits(1), 0)


@pytest.mark.parametrize("name", ["ao_optimize", "lc_ao_optimize"])
def test_snapshots_equal_shorter_runs(geom, fading, name):
    if name == "lc_ao_optimize":
        # One function under two names: the ao_optimize case checks both.
        assert lc_ao_optimize is ao_optimize
        return
    ch = draw_link_channels(np.random.default_rng(10), 64, 3, geom, fading, 6)
    alphabet = PhaseAlphabet.from_bits(3)
    snapshots = dict.fromkeys([0, 1, 2, 4])
    final = ao_optimize(ch, alphabet, 4, snapshots=snapshots)
    assert snapshots[4] is final
    assert np.array_equal(snapshots[0].indices, blind_phases(alphabet, 64, 6).indices)
    for k in (1, 2, 4):
        assert np.array_equal(snapshots[k].indices, ao_optimize(ch, alphabet, k).indices)
    with pytest.raises(ValueError, match="snapshots"):
        ao_optimize(ch, alphabet, 4, snapshots={5: None})


# ---------------------------------------------------------------------------
# Exhaustive oracle


def test_exhaustive_single_element_matches_first_ao_update(geom, fading):
    rng = np.random.default_rng(10)
    for _ in range(20):
        ch = draw_link_channels(rng, 2, 2, geom, fading, 1)
        alpha = PhaseAlphabet.from_bits(3)
        assert np.array_equal(exhaustive_optimize(ch, alpha).indices,
                              ao_optimize(ch, alpha, 1).indices)


def test_exhaustive_dominates(geom, fading):
    # exhaustive >= ascent(T=3) >= ascent(T=1) >= blind, per ORE
    rng = np.random.default_rng(11)
    alpha = PhaseAlphabet.from_bits(2)
    for _ in range(15):
        ch = draw_link_channels(rng, 2, 3, geom, fading, 3)
        best = received_snr(ch, exhaustive_optimize(ch, alpha), fading)
        mid = received_snr(ch, ao_optimize(ch, alpha, 3), fading)
        one = received_snr(ch, ao_optimize(ch, alpha, 1), fading)
        low = received_snr(ch, blind_phases(alpha, 2, 3), fading)
        assert (best >= mid * (1.0 - 1e-12)).all()
        assert (mid >= one * (1.0 - 1e-12)).all()
        assert (one >= low * (1.0 - 1e-12)).all()


def test_exhaustive_chunks_and_ores_match_unchunked_argmax(geom, fading):
    # N=7, b=2: 16384 candidates, so four 4096-candidate chunks, over 3 OREs
    ch = draw_link_channels(np.random.default_rng(16), 3, 3, geom, fading, 7)
    alpha = PhaseAlphabet.from_bits(2)
    got = exhaustive_optimize(ch, alpha).indices
    cand = np.array(list(product(range(alpha.size), repeat=7)))  # lexicographic
    winners = []
    for r in range(3):
        w = (alpha.rotations[cand] * ch.ris_to_bs[r]) @ ch.user_to_ris[r] + ch.direct[r]
        winners.append(int(np.argmax((w.real**2 + w.imag**2).sum(axis=1))))  # first max
        assert np.array_equal(got[r], cand[winners[-1]])
    # the draw puts the winners in different chunks, the last one included
    assert {k // 4096 for k in winners} == {0, 1, 3}


def test_exhaustive_hand_enumeration():
    # N=2, b=1: four sign patterns, checked against an explicit loop
    alpha = PhaseAlphabet.from_bits(1)
    cases = [
        ([0.3], [0.7, 0.5], [[1.0], [1.0]]),          # all positive: keep zeros
        ([-1.1], [0.7, 0.5], [[1.0], [1.0]]),         # flips win
        ([0.05], [0.8, -0.6], [[1.0], [1.0]]),        # mixed signs
    ]
    for direct, gbar, g in cases:
        ch = make_channels(direct=direct, ris_to_bs=gbar, user_to_ris=g)
        got = exhaustive_optimize(ch, alpha).indices[0]
        best_val, best_pair = -1.0, None
        for i0 in range(2):
            for i1 in range(2):
                w = (alpha.rotations[i0] * gbar[0] * g[0][0]
                     + alpha.rotations[i1] * gbar[1] * g[1][0] + direct[0])
                val = abs(w) ** 2
                if val > best_val + 1e-15:
                    best_val, best_pair = val, (i0, i1)
        assert tuple(got) == best_pair


def test_exhaustive_all_positive_keeps_zero_phases():
    alpha = PhaseAlphabet.from_bits(1)
    ch = make_channels(direct=[0.3], ris_to_bs=[0.7, 0.5], user_to_ris=[[1.0], [1.0]])
    assert exhaustive_optimize(ch, alpha).indices[0].tolist() == [1, 1]


def test_exhaustive_budget_enforced(geom, fading):
    ch = draw_link_channels(np.random.default_rng(12), 1, 1, geom, fading, 4)
    with pytest.raises(ValueError, match="budget"):
        exhaustive_optimize(ch, PhaseAlphabet.from_bits(2), eval_budget=100)


def test_alphabet_nesting_never_hurts_oracle(geom, fading):
    # the 2-bit alphabet is a subset of the 3-bit one
    assert set(np.round(PhaseAlphabet.from_bits(2).values, 12)) <= \
        set(np.round(PhaseAlphabet.from_bits(3).values, 12))
    rng = np.random.default_rng(13)
    for _ in range(10):
        ch = draw_link_channels(rng, 2, 3, geom, fading, 3)
        coarse = received_snr(ch, exhaustive_optimize(ch, PhaseAlphabet.from_bits(2)),
                              fading)
        fine = received_snr(ch, exhaustive_optimize(ch, PhaseAlphabet.from_bits(3)),
                            fading)
        assert (fine >= coarse * (1.0 - 1e-12)).all()


def test_composite_channel_shape_mismatch(geom, fading):
    ch = draw_link_channels(np.random.default_rng(14), 2, 1, geom, fading, 3)
    bad = blind_phases(PhaseAlphabet.from_bits(1), 2, 4)
    with pytest.raises(ValueError, match="does not match"):
        composite_channel(ch, bad)


# ---------------------------------------------------------------------------
# Storage layout


def _both_layouts(ch):
    """A drawn block and the same values rebuilt from nested lists, as
    hand-built channels are: built from trial-major arrays, it is stored
    element-major all the same."""
    hand_built = make_channels(ch.direct.tolist(), ch.ris_to_bs.tolist(),
                               ch.user_to_ris.tolist())
    for case in (ch, hand_built):
        assert case.user_to_ris.transpose(1, 2, 0).flags.c_contiguous
        assert case.ris_to_bs.T.flags.c_contiguous
    return ch, hand_built


LAYOUT_SHAPES = list(product((1, 2, 5, 8), (1, 3, 8), (1, 2, 4, 6)))   # (N, R, d_f)


@pytest.mark.parametrize("los_phase", ["random", "common"])
@pytest.mark.parametrize("direct_loss_scale", [0.0, 0.0025])
def test_selections_and_snr_do_not_depend_on_layout(geom, monkeypatch, los_phase,
                                                    direct_loss_scale):
    fading = FadingConfig(los_phase=los_phase, direct_loss_scale=direct_loss_scale)
    for case, (n, r, df) in enumerate(LAYOUT_SHAPES):
        alpha = PhaseAlphabet.from_bits(1 + case % 3)
        t = 1 + case % 3
        layouts = _both_layouts(draw_trial_block([case], r, df, geom, fading, n))
        logs = [[], []]
        kernel = [ao_optimize(ch, alpha, t, update_log=log).indices
                  for ch, log in zip(layouts, logs)]
        assert np.array_equal(kernel[0], kernel[1]), (n, r, df)
        assert np.array_equal(np.concatenate(logs[0]), np.concatenate(logs[1])), (n, r, df)
        for kind in ("ao", "lc_ao"):
            for ch in layouts:
                counted, _ = measured_run(kind, ch, alpha, t)
                assert np.array_equal(counted, kernel[0]), (n, r, df)
        # Holding one or two elements' cascaded paths at a time runs the
        # chunked sweep sums, which must give every logged objective exactly.
        for chunk_elements in (1, 2):
            with monkeypatch.context() as patch:
                patch.setattr(optimizer, "_SCRATCH_BYTES", 16 * df * r * chunk_elements)
                for ch in layouts:
                    log = []
                    chunked = ao_optimize(ch, alpha, t, update_log=log).indices
                    assert np.array_equal(chunked, kernel[0]), (n, r, df)
                    assert np.array_equal(np.concatenate(log),
                                          np.concatenate(logs[0])), (n, r, df)
        # Element-major indices (the kernel's, blind) and ORE-major ones.
        for phases in (PhaseAssignment(alpha, kernel[0]), blind_phases(alpha, r, n),
                       PhaseAssignment(alpha, np.ascontiguousarray(kernel[0]))):
            rows, snrs = zip(*[(composite_channel(ch, phases).tobytes(),
                                received_snr(ch, phases, fading).tobytes())
                               for ch in layouts])
            assert rows[0] == rows[1] and snrs[0] == snrs[1], (n, r, df)
        if n <= 4:
            best = [exhaustive_optimize(ch, alpha).indices for ch in layouts]
            assert np.array_equal(best[0], best[1]), (n, r, df)


def _one_piece_rows(ch, phases):
    """The composite rows as one einsum over all N elements: the contraction
    before it was chunked, kept here as the reference."""
    u = phases.alphabet.rotations[phases.indices.T]
    np.multiply(u, ch.ris_to_bs.T, out=u)
    cascaded = np.einsum("nr,nir->ir", u, ch.user_to_ris.transpose(1, 2, 0)).T
    return np.add(cascaded, ch.direct, out=np.empty(ch.direct.shape, dtype=np.complex128))


@pytest.mark.parametrize("los_phase", ["random", "common"])
@pytest.mark.parametrize("df", [1, 3, 4])
def test_chunked_contraction_matches_one_einsum(geom, monkeypatch, los_phase, df):
    # One chunk, two, and many, on 13 elements of 8 ORE rows.
    n = 13
    fading = FadingConfig(los_phase=los_phase)
    ch = draw_trial_block(range(4), 2, df, geom, fading, n)
    alpha = PhaseAlphabet.from_bits(3)
    rng = np.random.default_rng(df)
    ore_major = rng.integers(0, alpha.size, size=(ch.num_ores, n)).astype(np.uint8)
    phase_sets = [ao_optimize(ch, alpha, 2), blind_phases(alpha, ch.num_ores, n),
                  PhaseAssignment(alpha, ore_major)]
    element_bytes = 16 * (df + 1) * ch.num_ores
    # term_split sums the rows with one element's rotation set to 0.
    splits = [b"".join(a.tobytes() for a in term_split(ch, phases_, 5))
              for phases_ in phase_sets]
    for per_chunk, chunks in ((n, 1), (7, 2), (2, 7), (1, 13)):
        with monkeypatch.context() as patch:
            patch.setattr(optimizer, "_SCRATCH_BYTES", element_bytes * per_chunk)
            assert len(optimizer._element_spans(n, element_bytes)[1]) == chunks
            for phases, split in zip(phase_sets, splits):
                assert b"".join(a.tobytes() for a in term_split(ch, phases, 5)) == split
                want = _one_piece_rows(ch, phases)
                assert composite_channel(ch, phases).tobytes() == want.tobytes(), chunks
                scale = fading.symbol_energy / fading.noise_variance
                assert (received_snr(ch, phases, fading).tobytes()
                        == (scale * ((want.real**2 + want.imag**2).sum(axis=1))).tobytes())


# sha256 of the objectives the kernel logs and the indices it returns on the
# channels below, recorded with numpy 2.4.6 on x86-64 before the kernel read
# element-major storage.  The golden files see the kernel only through its
# selections, which a last-bit change rarely flips; this pins its arithmetic,
# e.g. numpy's complex multiply rounds g * G and G * g differently.
KERNEL_LOG_SHA256 = "b55832f9e2e3c6c055c01f00d0559e15b20675aadce91080eff30ec38c9a746a"


def test_kernel_arithmetic_is_pinned(geom):
    digest = hashlib.sha256()
    shapes = ((1, 3, 2), (5, 4, 6), (8, 8, 3), (3, 2, 1), (40, 16, 3), (7, 5, 5))
    for case, (n, r, df) in enumerate(shapes):
        fading = FadingConfig(los_phase=("random", "common")[case % 2],
                              direct_loss_scale=(0.0025, 0.0)[case // 2 % 2])
        ch = draw_trial_block(range(10 * case, 10 * case + 3), r, df, geom, fading, n)
        log = []
        phases = ao_optimize(ch, PhaseAlphabet.from_bits(1 + case % 3), 3, update_log=log)
        digest.update(np.concatenate(log).tobytes())
        digest.update(phases.indices.astype(np.int64).tobytes())
    assert digest.hexdigest() == KERNEL_LOG_SHA256


def test_kernel_state_stays_below_one_cascaded_path_copy(geom):
    # On a drawn 256-trial block at N=256 (1024 ORE rows, d_f=3; a campaign
    # draws 128 trials there) one (N, d_f, R) complex array of cascaded paths
    # is 12.6 MB; the kernel reads the channel in place and holds at most
    # 1 MiB of them at a time, and so does the SNR evaluation.  The decomposition and the term split read it
    # in place too, holding one (N, R) array of rotations.
    fading = FadingConfig(los_phase="common", direct_loss_scale=0.0025)
    ch = draw_trial_block(range(256), 4, 3, geom, fading, 256)
    alpha = PhaseAlphabet.from_bits(3)

    def peak_of(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    phases, peak = peak_of(lambda: lc_ao_optimize(ch, alpha, 3))
    assert peak < 4e6, peak
    # The SNR contracts the elements in chunks of the same budget; in one
    # piece its (N, R) rotations alone were 4.2 MB.
    _, peak = peak_of(lambda: received_snr(ch, phases, fading))
    assert peak <= optimizer._SCRATCH_BYTES + 2**19, peak
    path_copy = 256 * 3 * 1024 * 16
    for call in (lambda: snr_decomposition(ch, phases),
                 lambda: term_split(ch, phases, 100)):
        _, peak = peak_of(call)
        assert peak < path_copy, peak
    assert phases.indices.dtype == np.uint8
    assert blind_phases(alpha, 1024, 256).indices.dtype == np.uint8


# ---------------------------------------------------------------------------
# Degenerate channels


def _degenerate_case(seed, num_ores, df, n, fading, duplicate=None, zero=None):
    """A one-trial draw in which column ``duplicate[1]`` copies column
    ``duplicate[0]`` and then column ``zero`` is all zero, with its fading."""
    ch = draw_trial_block([seed], num_ores, df, Geometry(40.0, 1.5, 2.0, 2.4e9),
                          fading, n)
    ris_to_bs, user_to_ris = ch.ris_to_bs.copy(), ch.user_to_ris.copy()
    if duplicate is not None:
        src, dst = duplicate
        ris_to_bs[:, dst], user_to_ris[:, dst] = ris_to_bs[:, src], user_to_ris[:, src]
    if zero is not None:
        ris_to_bs[:, zero], user_to_ris[:, zero] = 0.0, 0.0
    return ChannelRealization(direct=ch.direct, ris_to_bs=ris_to_bs,
                              user_to_ris=user_to_ris), fading


@st.composite
def degenerate_channels(draw):
    """A one-trial draw with any of: no direct link, pure common LoS (K = inf,
    so every coefficient has the same phase), N = 1, an element whose column
    is all zero, and an element whose column duplicates another's."""
    n = draw(st.integers(1, 4))
    df = draw(st.integers(1, 3))
    fading = FadingConfig(
        rician_factor=draw(st.sampled_from([1.0, math.inf])),
        los_phase=draw(st.sampled_from(["random", "common"])),
        direct_loss_scale=draw(st.sampled_from([0.0, 0.0025])))
    seed, num_ores = draw(st.integers(0, 2**64 - 1)), draw(st.integers(1, 3))
    duplicate = (draw(st.permutations(range(n)))[:2]
                 if n > 1 and draw(st.booleans()) else None)
    zero = draw(st.integers(0, n - 1)) if draw(st.booleans()) else None
    return _degenerate_case(seed, num_ores, df, n, fading, duplicate, zero)


def degenerate_examples(test):
    """One explicit example of each degenerate kind, in the strategy's order,
    so that none depends on what Hypothesis happens to draw."""
    cases = (
        _degenerate_case(1, 2, 3, 3, FadingConfig(direct_loss_scale=0.0)),
        _degenerate_case(2, 2, 2, 4, FadingConfig(
            rician_factor=math.inf, los_phase="common", direct_loss_scale=0.0025)),
        _degenerate_case(3, 3, 3, 1, FadingConfig(direct_loss_scale=0.0)),
        _degenerate_case(4, 2, 3, 3, FadingConfig(direct_loss_scale=0.0025), zero=1),
        _degenerate_case(5, 2, 2, 4, FadingConfig(los_phase="common"), duplicate=(0, 2)),
    )
    for i, case in enumerate(cases):
        test = example(case=case, bits=1 + i % 3, sweeps=2)(test)
    return test


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@degenerate_examples
@given(case=degenerate_channels(), bits=st.integers(1, 3), sweeps=st.integers(1, 3))
def test_degenerate_channels_keep_invariants(case, bits, sweeps):
    ch, fading = case
    alpha = PhaseAlphabet.from_bits(bits)
    log = []
    kernel = ao_optimize(ch, alpha, sweeps, update_log=log)
    for kind in ("ao", "lc_ao"):
        counted, _ = measured_run(kind, ch, alpha, sweeps)
        assert np.array_equal(kernel.indices, counted), kind
    blind = blind_phases(alpha, ch.num_ores, ch.num_elements)
    start = np.abs(composite_channel(ch, blind)) ** 2
    objs = np.array(log)
    path = np.vstack([start.sum(axis=1), objs])
    assert (path[1:] >= path[:-1] * (1.0 - 1e-12)).all()
    for phases in (kernel, blind):
        assert np.isfinite(received_snr(ch, phases, fading)).all()


# Hypothesis derives a derandomized test's examples from the test's source, so
# this check has a test of its own: added to the test above, it would give
# that test 50 other channels in place of the ones it has always checked.
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@degenerate_examples
@given(case=degenerate_channels(), bits=st.integers(1, 3), sweeps=st.integers(1, 3))
def test_degenerate_channels_stay_between_blind_and_oracle(case, bits, sweeps):
    # N <= 4 and b <= 3: at most 4096 candidates per ORE for the oracle
    ch, fading = case
    alpha = PhaseAlphabet.from_bits(bits)
    low, mid, best = (received_snr(ch, phases, fading) for phases in (
        blind_phases(alpha, ch.num_ores, ch.num_elements),
        ao_optimize(ch, alpha, sweeps), exhaustive_optimize(ch, alpha)))
    assert (mid >= low * (1.0 - 1e-12)).all()
    assert (best >= mid * (1.0 - 1e-12)).all()


@st.composite
def duplicated_column_channels(draw):
    """A one-trial draw (N 2-5, R 1-3, d_f 1-3, with or without a direct
    link) in which one element's column duplicates another's, so candidates
    can tie in exact arithmetic and differ only by rounding."""
    n = draw(st.integers(2, 5))
    fading = FadingConfig(los_phase=draw(st.sampled_from(["random", "common"])),
                          direct_loss_scale=draw(st.sampled_from([0.0, 0.0025])))
    seed, num_ores, df = (draw(st.integers(0, 2**64 - 1)), draw(st.integers(1, 3)),
                          draw(st.integers(1, 3)))
    duplicate = draw(st.permutations(range(n)))[:2]
    return _degenerate_case(seed, num_ores, df, n, fading, duplicate)[0]


# xi = (1, -2, 1), no direct link: element 0 turns to -pi, and then elements 0
# and 2 cancel except for the 1.2e-16 imaginary part of e^{j pi}, so element
# 1's two candidates tie in exact arithmetic but not after rounding.
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@example(ch=make_channels(direct=[0.0], ris_to_bs=[1.0, 1.0, 1.0],
                          user_to_ris=[[1.0], [-2.0], [1.0]]), bits=1, sweeps=1)
@given(ch=duplicated_column_channels(), bits=st.integers(1, 3), sweeps=st.integers(1, 3))
def test_duplicated_columns_select_identically(ch, bits, sweeps):
    alpha = PhaseAlphabet.from_bits(bits)
    kernel = ao_optimize(ch, alpha, sweeps).indices
    for kind in ("ao", "lc_ao"):
        counted, _ = measured_run(kind, ch, alpha, sweeps)
        assert np.array_equal(kernel, counted), kind
