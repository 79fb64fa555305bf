import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest

from conftest import make_channels
from ris_scma.campaign import trial_seed
from ris_scma.channel import (SPEED_OF_LIGHT, ChannelRealization, ChannelStore,
                              FadingConfig, Geometry, _SCRATCH_BYTES, _pcg64_states,
                              cascaded_path_loss, direct_path_loss, draw_channels,
                              draw_link_channels, draw_trial_block,
                              stack_realizations)
from ris_scma.factor_graph import ScmaConfig, build_factor_graph
from ris_scma.optimizer import PhaseAlphabet, ao_optimize

# Frequency chosen so the wavelength is exactly 0.125 m.
FREQ_LAMBDA_EIGHTH = SPEED_OF_LIGHT / 0.125

# Regression constants evaluated once from the closed forms by hand:
# 0.125^4 / (256 pi^2 * 2.5^2 * (1.5^2 + 38^2)) and (0.125 / (160 pi))^2.
PINNED_CASCADED = 1.0689981460751997e-11
PINNED_DIRECT = 6.18415427504503e-08


def test_cascaded_loss_pinned_value():
    geom = Geometry(40.0, 1.5, 2.0, FREQ_LAMBDA_EIGHTH)
    assert geom.bs_ris_distance == pytest.approx(2.5, rel=1e-15)
    assert cascaded_path_loss(geom) == pytest.approx(PINNED_CASCADED, rel=1e-12)


def test_cascaded_loss_homogeneity():
    # doubling both hop distances divides the gain by 16
    g1 = Geometry(40.0, 1.5, 2.0, FREQ_LAMBDA_EIGHTH)
    g2 = Geometry(80.0, 3.0, 4.0, FREQ_LAMBDA_EIGHTH)
    assert cascaded_path_loss(g1) / cascaded_path_loss(g2) == pytest.approx(16.0, rel=1e-12)


def test_cascaded_loss_minimum_at_midpoint():
    # with the panel nearly on the axis, the loss is worst at the midpoint
    offsets = np.linspace(1.0, 39.0, 381)
    values = [cascaded_path_loss(Geometry(40.0, 1e-3, float(x), FREQ_LAMBDA_EIGHTH))
              for x in offsets]
    assert offsets[int(np.argmin(values))] == pytest.approx(20.0, abs=0.1)


def test_cascaded_loss_symmetric_in_offset():
    a = cascaded_path_loss(Geometry(40.0, 1.5, 5.0, FREQ_LAMBDA_EIGHTH))
    b = cascaded_path_loss(Geometry(40.0, 1.5, 35.0, FREQ_LAMBDA_EIGHTH))
    assert a == pytest.approx(b, rel=1e-12)


def test_direct_loss_pinned_value_and_scalings():
    geom = Geometry(40.0, 1.5, 2.0, FREQ_LAMBDA_EIGHTH)
    assert direct_path_loss(geom) == pytest.approx(PINNED_DIRECT, rel=1e-12)
    doubled = Geometry(80.0, 1.5, 2.0, FREQ_LAMBDA_EIGHTH)
    assert direct_path_loss(geom) / direct_path_loss(doubled) == pytest.approx(4.0, rel=1e-12)
    half_freq = Geometry(40.0, 1.5, 2.0, FREQ_LAMBDA_EIGHTH / 2.0)
    assert direct_path_loss(half_freq) / direct_path_loss(geom) == pytest.approx(4.0, rel=1e-12)


def test_geometry_validation():
    with pytest.raises(ValueError, match="ris_horizontal_offset"):
        Geometry(40.0, 1.5, 45.0, 2.4e9)
    with pytest.raises(ValueError, match="ris_perpendicular_offset"):
        Geometry(40.0, 0.0, 2.0, 2.4e9)
    with pytest.raises(ValueError, match="carrier_frequency"):
        Geometry(40.0, 1.5, 2.0, -1.0)
    # NaN fails no `x <= 0` test, and an infinite distance or frequency
    # would make the path losses NaN or 0.
    nan, inf = math.nan, math.inf
    for args, name in (((nan, 1.5, 2.0, 2.4e9), "bs_user_distance"),
                       ((inf, 1.5, 2.0, 2.4e9), "bs_user_distance"),
                       ((40.0, nan, 2.0, 2.4e9), "ris_perpendicular_offset"),
                       ((40.0, inf, 2.0, 2.4e9), "ris_perpendicular_offset"),
                       ((40.0, 1.5, nan, 2.4e9), "ris_horizontal_offset"),
                       ((40.0, 1.5, 2.0, nan), "carrier_frequency"),
                       ((40.0, 1.5, 2.0, inf), "carrier_frequency")):
        with pytest.raises(ValueError, match=name):
            Geometry(*args)


def test_fading_validation():
    with pytest.raises(ValueError, match="rician_factor"):
        FadingConfig(rician_factor=-0.5)
    with pytest.raises(ValueError, match="noise_variance"):
        FadingConfig(noise_variance=0.0)
    with pytest.raises(ValueError, match="los_phase"):
        FadingConfig(los_phase="fixed")
    with pytest.raises(ValueError, match="direct_loss_scale"):
        FadingConfig(direct_loss_scale=-1.0)
    for name in ("rician_factor", "noise_variance", "symbol_energy", "direct_loss_scale"):
        for value in (math.nan, math.inf, -math.inf):
            if name == "rician_factor" and value == math.inf:
                continue                      # K = inf is pure LoS
            with pytest.raises(ValueError, match=name):
                FadingConfig(**{name: value})
    assert FadingConfig(rician_factor=math.inf).rician_factor == math.inf


def small_scale(geom, seed, samples, k, los_phase="random"):
    """``samples`` Rician coefficients: the user->element entries, which carry
    no path loss."""
    fading = FadingConfig(rician_factor=k, los_phase=los_phase)
    ch = draw_link_channels(np.random.default_rng(seed), 1, 1, geom, fading, samples)
    return ch.user_to_ris.ravel()


@pytest.mark.parametrize("k", [0.0, 1.0, 4.0])
def test_small_scale_unit_power(geom, k):
    coeff = small_scale(geom, 11, 100_000, k)
    assert np.mean(np.abs(coeff) ** 2) == pytest.approx(1.0, rel=0.02)


def test_small_scale_los_only_limit(geom):
    coeff = small_scale(geom, 12, 1000, math.inf)
    assert np.abs(np.abs(coeff) - 1.0).max() < 1e-12


def test_small_scale_common_phase_mean(geom):
    # common-phase LoS at K=1 has mean exactly sqrt(1/2) up to diffuse noise
    coeff = small_scale(geom, 13, 200_000, 1.0, los_phase="common")
    assert coeff.mean().real == pytest.approx(math.sqrt(0.5), abs=5e-3)
    assert abs(coeff.mean().imag) < 5e-3


def test_draw_channels_power_budget(geom):
    fading = FadingConfig(rician_factor=1.0)
    rng = np.random.default_rng(21)
    ch = draw_link_channels(rng, 1, 2, geom, fading, 30_000)
    assert np.mean(np.abs(ch.ris_to_bs) ** 2) == pytest.approx(
        cascaded_path_loss(geom), rel=0.02)
    assert np.mean(np.abs(ch.user_to_ris) ** 2) == pytest.approx(1.0, rel=0.02)
    rng = np.random.default_rng(22)
    ch = draw_link_channels(rng, 1000, 3, geom, fading, 1)
    assert np.mean(np.abs(ch.direct) ** 2) == pytest.approx(
        direct_path_loss(geom), rel=0.05)


def test_direct_loss_scale(geom):
    rng = np.random.default_rng(23)
    scaled = FadingConfig(direct_loss_scale=0.25)
    ch = draw_link_channels(rng, 500, 3, geom, scaled, 1)
    assert np.mean(np.abs(ch.direct) ** 2) == pytest.approx(
        0.25 * direct_path_loss(geom), rel=0.1)
    ch0 = draw_link_channels(np.random.default_rng(24), 5, 3, geom,
                             FadingConfig(direct_loss_scale=0.0), 2)
    assert np.abs(ch0.direct).max() == 0.0


def test_same_seed_bit_identical(geom, fading):
    a = draw_link_channels(np.random.default_rng(99), 4, 3, geom, fading, 8)
    b = draw_link_channels(np.random.default_rng(99), 4, 3, geom, fading, 8)
    assert np.array_equal(a.direct, b.direct)
    assert np.array_equal(a.ris_to_bs, b.ris_to_bs)
    assert np.array_equal(a.user_to_ris, b.user_to_ris)


def test_ore_draws_independent(geom, fading):
    rng = np.random.default_rng(31)
    ch = draw_link_channels(rng, 2, 1, geom, fading, 100_000)
    x = ch.user_to_ris[0, :, 0].real
    y = ch.user_to_ris[1, :, 0].real
    corr = np.corrcoef(x, y)[0, 1]
    assert abs(corr) < 0.02


@pytest.mark.parametrize("mode", ["random", "common"])
def test_draw_link_channels_continues_the_generator(geom, mode):
    # A draw leaves the generator where the documented calls leave a second
    # generator of the same seed, so one reused across draws keeps its
    # stream.  The 32-bit draw first leaves a buffered half-word in the
    # state, which the draw must keep too.
    r, df, n = 4, 3, 5
    fading = FadingConfig(los_phase=mode)
    rng, ref = np.random.default_rng(41), np.random.default_rng(41)
    for gen in (rng, ref):
        gen.integers(2**32, dtype=np.uint32)
    for _ in range(2):
        draw_link_channels(rng, r, df, geom, fading, n)
        if mode == "common":
            ref.standard_normal(2 * (r * df + r * n + r * n * df))
        else:
            for m in (r * df, r * n, r * n * df):
                ref.uniform(-math.pi, math.pi, m)
                ref.standard_normal(2 * m)
        assert rng.bit_generator.state == ref.bit_generator.state


def test_draw_channels_uses_graph_dims(geom, fading):
    graph = build_factor_graph(ScmaConfig(6, 4, 2, 2, 3))
    ch = draw_channels(np.random.default_rng(5), graph, geom, fading, 7)
    assert ch.num_ores == 4
    assert ch.num_interferers == 3
    assert ch.num_elements == 7


def _reference_small_scale(rng, shape, k, los_phase):
    """The per-trial complex expressions the block transform must reproduce."""
    if math.isinf(k):
        lw, dw = 1.0, 0.0
    else:
        lw, dw = math.sqrt(k / (k + 1.0)), math.sqrt(1.0 / (k + 1.0))
    if los_phase == "random":
        los = np.exp(1j * rng.uniform(-math.pi, math.pi, size=shape))
    else:
        los = np.ones(shape, dtype=np.complex128)
    diffuse = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    return lw * los + dw * diffuse


def _reference_block(seeds, r, df, geom, fading, n):
    k, mode = fading.rician_factor, fading.los_phase
    parts = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        direct = _reference_small_scale(rng, (r, df), k, mode)
        ris_to_bs = _reference_small_scale(rng, (r, n), k, mode)
        user_to_ris = _reference_small_scale(rng, (r, n, df), k, mode)
        parts.append((direct * math.sqrt(direct_path_loss(geom) * fading.direct_loss_scale),
                      ris_to_bs * math.sqrt(cascaded_path_loss(geom)), user_to_ris))
    return [np.concatenate(arrays, axis=0) for arrays in zip(*parts)]


def _block_bytes(ch):
    return [a.tobytes() for a in (ch.direct, ch.ris_to_bs, ch.user_to_ris)]


def test_trial_block_matches_reference_formula(geom):
    seeds = range(100, 105)
    for mode in ("random", "common"):
        for k in (0.0, 1.0, 3.7, math.inf):
            for n in (1, 8):
                for scale in (0.0, 0.0025):
                    fading = FadingConfig(rician_factor=k, los_phase=mode,
                                          direct_loss_scale=scale)
                    ch = draw_trial_block(seeds, 4, 3, geom, fading, n)
                    ref = _reference_block(seeds, 4, 3, geom, fading, n)
                    assert ch.user_to_ris.shape == ref[2].shape
                    assert _block_bytes(ch) == [a.tobytes() for a in ref], (mode, k, n, scale)
    # Splitting a block leaves every byte where it was.
    fading = FadingConfig(los_phase="common", direct_loss_scale=0.0025)
    whole = draw_trial_block(range(256), 4, 3, geom, fading, 8)
    pieces = [draw_trial_block(range(lo, hi), 4, 3, geom, fading, 8)
              for lo, hi in ((0, 1), (1, 8), (8, 256))]
    assert _block_bytes(whole) == [b"".join(p) for p in zip(*map(_block_bytes, pieces))]


@pytest.mark.parametrize("mode", ["random", "common"])
def test_trial_block_matches_per_seed_draws_across_chunks(geom, mode):
    # At this N a scratch chunk holds only a few trials, so the block is
    # drawn in several chunks; the bytes must not depend on where they split.
    r, df = 2, 3
    width = 3 if mode == "random" else 2
    n = _SCRATCH_BYTES // (8 * 4 * width * r * (1 + df))
    # A trial takes its raw row plus the staged complex pairs of its largest
    # element group, 8 bytes a float.
    c = _SCRATCH_BYTES // (8 * (width * (r * df + r * n + r * n * df) + 2 * r * n * df))
    assert 2 <= c < 8
    fading = FadingConfig(rician_factor=1.0, los_phase=mode, direct_loss_scale=0.0025)
    for trials in (1, c - 1, c, c + 1, 2 * c + 1):
        seeds = [trial_seed(7, trials, t) for t in range(trials)]
        block = draw_trial_block(seeds, r, df, geom, fading, n)
        per_seed = [draw_link_channels(np.random.default_rng(s), r, df, geom, fading, n)
                    for s in seeds]
        assert _block_bytes(block) == [b"".join(p) for p in
                                       zip(*map(_block_bytes, per_seed))], trials


def test_trial_block_draw_holds_no_block_sized_buffer(geom):
    # A 256-trial block (R=4, d_f=3) at N=256, twice what a campaign draws
    # there: besides its outputs the draw may hold the 1 MiB scratch buffer
    # (raw rows and staged element-major groups) and small temporaries, not a
    # second copy of a group.
    fading = FadingConfig(los_phase="common", direct_loss_scale=0.0025)
    seeds = [trial_seed(1, 0, t) for t in range(256)]
    # The first draw in a process also imports numpy.random (about 0.7 MiB).
    draw_trial_block(seeds[:1], 4, 3, geom, fading, 1)
    tracemalloc.start()
    try:
        ch = draw_trial_block(seeds, 4, 3, geom, fading, 256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out_bytes = ch.direct.nbytes + ch.ris_to_bs.nbytes + ch.user_to_ris.nbytes
    assert out_bytes == 256 * 4 * (3 + 256 + 256 * 3) * 16
    assert peak <= out_bytes + 2 * 2**20, (peak, out_bytes)


def test_trial_block_is_stored_element_major(geom, fading):
    # The public (R, N) and (R, N, d_f) arrays are views of contiguous
    # (N, R) and (N, d_f, R) arrays, ORE axis last; direct stays (R, d_f).
    # A drawn block is stored so as drawn; every other realization is copied
    # into that layout when it is built.
    ch = draw_trial_block(range(5), 4, 3, geom, fading, 6)
    g, G = ch.ris_to_bs, ch.user_to_ris
    assert g.shape == (20, 6) and G.shape == (20, 6, 3)
    assert ch.direct.flags.c_contiguous
    rebuilt = ChannelRealization(direct=ch.direct, ris_to_bs=g, user_to_ris=G)
    assert np.shares_memory(rebuilt.ris_to_bs, g) and np.shares_memory(rebuilt.user_to_ris, G)
    hand_built = make_channels(ch.direct.tolist(), g.tolist(), G.tolist())
    stacked = stack_realizations([draw_link_channels(np.random.default_rng(s), 4, 3,
                                                     geom, fading, 6) for s in range(2)])
    g, G = g.copy(), G.copy()
    g[:, 1], G[:, 1] = 0.0, 0.0
    modified = ChannelRealization(direct=ch.direct, ris_to_bs=g, user_to_ris=G)
    for case in (ch, hand_built, stacked, modified):
        assert case.ris_to_bs.T.flags.c_contiguous
        assert case.user_to_ris.transpose(1, 2, 0).flags.c_contiguous
    assert modified.ris_to_bs.tobytes() == g.tobytes()
    assert modified.user_to_ris.tobytes() == G.tobytes()


def test_malformed_realizations_and_draws_are_refused(geom, fading):
    direct = np.ones((2, 3), dtype=np.complex128)
    ris_to_bs = np.ones((2, 4), dtype=np.complex128)
    user_to_ris = np.ones((2, 4, 3), dtype=np.complex128)
    with pytest.raises(ValueError, match="inconsistent shapes"):
        ChannelRealization(direct=direct, ris_to_bs=ris_to_bs[:1], user_to_ris=user_to_ris)
    ris_to_bs[1, 2] = np.nan
    with pytest.raises(ValueError, match="contains non-finite entries"):
        ChannelRealization(direct=direct, ris_to_bs=ris_to_bs, user_to_ris=user_to_ris)
    with pytest.raises(ValueError, match="num_elements must be >= 1"):
        draw_trial_block([1], 4, 3, geom, fading, 0)


@pytest.mark.parametrize("los_phase", ["random", "common"])
def test_draw_into_a_store_gives_the_same_bytes(geom, los_phase):
    # A block drawn into a store, and a shorter one into its prefix, equal
    # fresh draws, stored element-major in the store's memory; a block that
    # does not fit is refused.
    fading = FadingConfig(los_phase=los_phase)
    store = ChannelStore(5 * 4, 3, 6)
    for seeds in (range(5), range(7, 10)):
        fresh = draw_trial_block(seeds, 4, 3, geom, fading, 6)
        stored = draw_trial_block(seeds, 4, 3, geom, fading, 6, out=store)
        for name in ("direct", "ris_to_bs", "user_to_ris"):
            assert getattr(stored, name).tobytes() == getattr(fresh, name).tobytes()
            assert np.shares_memory(getattr(stored, name), getattr(store, name))
        assert stored.ris_to_bs.T.flags.c_contiguous
        assert stored.user_to_ris.transpose(1, 2, 0).flags.c_contiguous
    with pytest.raises(ValueError, match="does not fit"):
        draw_trial_block(range(6), 4, 3, geom, fading, 6, out=store)


def test_pickled_realization_stays_element_major(geom, fading):
    ch = draw_trial_block(range(5), 4, 3, geom, fading, 6)
    back = pickle.loads(pickle.dumps(ch))
    assert back.ris_to_bs.T.flags.c_contiguous
    assert back.user_to_ris.transpose(1, 2, 0).flags.c_contiguous
    for name in ("direct", "ris_to_bs", "user_to_ris"):
        assert getattr(back, name).tobytes() == getattr(ch, name).tobytes()
    alpha = PhaseAlphabet.from_bits(3)
    assert np.array_equal(ao_optimize(back, alpha, 3).indices,
                          ao_optimize(ch, alpha, 3).indices)


def test_seeded_streams_equal_default_rng(geom, fading):
    # A numpy release that changes SeedSequence or PCG64 seeding fails here
    # before any golden file does.
    seeds = [trial_seed(s, g, t) for s in (0, 12345) for g in range(3)
             for t in range(1000)] + [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    states = _pcg64_states(seeds)
    assert len(states) == len(seeds)
    rng = np.random.Generator(np.random.PCG64(0))
    for seed, state in zip(seeds, states):
        rng.bit_generator.state = state
        ref = np.random.default_rng(seed)
        assert rng.bit_generator.state == ref.bit_generator.state, seed
        assert np.array_equal(rng.standard_normal(300), ref.standard_normal(300)), seed
        assert np.array_equal(rng.uniform(-math.pi, math.pi, 50),
                              ref.uniform(-math.pi, math.pi, 50)), seed
    for bad in (-1, 2**64, 1.0, "7", True, None):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            draw_trial_block([5, bad], 4, 3, geom, fading, 8)
    with pytest.raises(ValueError, match="at least one seed"):
        draw_trial_block([], 4, 3, geom, fading, 8)
