import numpy as np
import pytest

from ris_scma.channel import FadingConfig, Geometry, draw_link_channels
from ris_scma.opcount import (OpCount, _select, predicted_ao,
                              predicted_exhaustive, predicted_lc_ao)
from ris_scma.optimizer import PhaseAlphabet
from ris_scma.reference import measured_run


def test_predicted_ao_spot_values():
    # RA = R N 2^b (2N(2 d_f + 1) + 2 d_f - 1), RM = R N 2^b (4N(d_f + 1) + 2 d_f)
    assert predicted_ao(4, 16, 3, 3) == OpCount(117_248, 134_144)
    assert predicted_ao(1, 1, 1, 1) == OpCount(14, 20)


def test_predicted_lc_ao_spot_values():
    assert predicted_lc_ao(4, 16, 3, 3) == OpCount(26_112, 41_984)
    assert predicted_lc_ao(1, 1, 1, 1) == OpCount(9, 16)


def test_counts_linear_in_ore_count():
    a = predicted_ao(1, 8, 2, 3)
    b = predicted_ao(2, 8, 2, 3)
    assert b.real_additions == 2 * a.real_additions
    assert b.real_multiplications == 2 * a.real_multiplications
    c = predicted_lc_ao(3, 8, 2, 3)
    assert c.real_additions == 3 * predicted_lc_ao(1, 8, 2, 3).real_additions


def test_lc_ao_cheaper_than_ao_on_grid():
    # additions: strictly cheaper across the whole grid with N >= 2.
    # multiplications: cheaper once b >= 2; with only two candidates (b=1)
    # recomputing the element couplings costs more multiplies than the two
    # norm evaluations they replace.
    for r in (1, 4):
        for n in (2, 8, 16, 64):
            for b in (1, 2, 3):
                for df in (1, 3):
                    ao = predicted_ao(r, n, b, df)
                    lc = predicted_lc_ao(r, n, b, df)
                    assert lc.real_additions < ao.real_additions
                    if b >= 2:
                        assert lc.real_multiplications < ao.real_multiplications


def test_growth_orders():
    # full-norm variant grows ~N^2; doubling N at large N ~quadruples adds
    big, huge = predicted_ao(1, 256, 3, 3), predicted_ao(1, 512, 3, 3)
    assert huge.real_additions / big.real_additions == pytest.approx(4.0, rel=0.02)
    # cached variant: +1 bit adds exactly R*N*2^{b+1} adds (additive, not multiplicative)
    for n in (8, 32):
        lo, hi = predicted_lc_ao(4, n, 3, 3), predicted_lc_ao(4, n, 4, 3)
        assert hi.real_additions - lo.real_additions == 4 * n * 2**4
    # full-norm variant doubles with each extra bit instead
    assert predicted_ao(4, 8, 4, 3).real_additions == \
        2 * predicted_ao(4, 8, 3, 3).real_additions


def test_predicted_validation():
    with pytest.raises(ValueError, match="num_elements"):
        predicted_ao(1, 0, 1, 1)
    with pytest.raises(ValueError, match="iterations"):
        predicted_lc_ao(1, 1, 1, 1, iterations=0)


@pytest.fixture(scope="module")
def instance_factory():
    geom = Geometry(40.0, 1.5, 2.0, 2.4e9)
    fading = FadingConfig()

    def make(r, n, df, seed=0):
        return draw_link_channels(np.random.default_rng(seed), r, df, geom, fading, n)

    return make


@pytest.mark.parametrize("r,n,b,df,t", [
    (1, 1, 1, 1, 1), (1, 2, 2, 1, 1), (4, 8, 2, 3, 1),
    (4, 16, 3, 3, 1), (2, 5, 3, 2, 2),
])
def test_measured_equals_predicted(instance_factory, r, n, b, df, t):
    ch = instance_factory(r, n, df)
    alpha = PhaseAlphabet.from_bits(b)
    assert measured_run("ao", ch, alpha, t)[1] == predicted_ao(r, n, b, df, t)
    assert measured_run("lc_ao", ch, alpha, t)[1] == predicted_lc_ao(r, n, b, df, t)


def test_measured_linear_in_iterations(instance_factory):
    ch = instance_factory(2, 4, 3)
    alpha = PhaseAlphabet.from_bits(2)
    _, one = measured_run("ao", ch, alpha, 1)
    _, three = measured_run("ao", ch, alpha, 3)
    assert three.real_additions == 3 * one.real_additions
    assert three.real_multiplications == 3 * one.real_multiplications


def test_measured_rejects_unknown_kind(instance_factory):
    ch, alpha = instance_factory(1, 1, 1), PhaseAlphabet.from_bits(1)
    with pytest.raises(ValueError, match="kind"):
        measured_run("blind", ch, alpha, 1)
    with pytest.raises(ValueError, match="iterations"):
        measured_run("ao", ch, alpha, 0)


def test_predicted_exhaustive_counts():
    # full norm cost per combination, 2^{bN} combinations per ORE
    got = predicted_exhaustive(2, 3, 2, 3)
    per_eval_adds = 2 * 3 * 7 + 5
    per_eval_mults = 4 * 3 * 4 + 6
    assert got.real_additions == 2 * 4**3 * per_eval_adds
    assert got.real_multiplications == 2 * 4**3 * per_eval_mults


def test_select_keeps_the_first_score_within_the_gap():
    # Columns: an exact tie, a score within the gap of the maximum, one just
    # outside it, and all scores equal.
    scores = np.array([[1.0, 3.0, 3.0, 2.0], [1.0, 3.0 - 1e-9, 3.0, 2.0],
                       [1.0, 3.0 - 2e-9, 3.0, 2.0], [-5.0] * 4]).T
    gaps = np.array([0.0, 1e-9, 1e-9, 1e-9])
    expected = [1, 1, 2, 0]
    for r in range(4):                    # 1-D, as the counted paths call it
        assert _select(scores[:, r].tolist(), gaps[r]) == expected[r]
    assert _select(scores, gaps).tolist() == expected     # (2^b, R), a gap per row
    assert _select(scores, 0.0).tolist() == [1, 2, 2, 0]  # exact first maximum
    assert _select(np.zeros((2, 3)), 0.0).tolist() == [0, 0, 0]
