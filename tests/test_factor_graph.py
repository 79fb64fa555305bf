from itertools import combinations

import numpy as np
import pytest

from ris_scma.factor_graph import ScmaConfig, build_factor_graph

REFERENCE_CFG = ScmaConfig(num_users=6, num_ores=4, codebook_size=2,
                       nonzero_per_user=2, nonzero_per_ore=3)

# Enumeration oracle: all 2-of-4 subsets in lexicographic order, one per column.
EXPECTED_4x6 = np.array([
    [1, 1, 1, 0, 0, 0],
    [1, 0, 0, 1, 1, 0],
    [0, 1, 0, 1, 0, 1],
    [0, 0, 1, 0, 1, 1],
], dtype=np.int8)


def test_reference_factor_graph_matrix():
    graph = build_factor_graph(REFERENCE_CFG)
    assert np.array_equal(graph.incidence, EXPECTED_4x6)
    # independent re-derivation of the expected matrix
    oracle = np.zeros((4, 6), dtype=np.int8)
    for col, rows in enumerate(combinations(range(4), 2)):
        oracle[list(rows), col] = 1
    assert np.array_equal(oracle, EXPECTED_4x6)
    assert (graph.incidence.sum(axis=1) == 3).all()
    assert graph.interference_sets[0] == (0, 1, 2)


def test_degenerate_single_user():
    cfg = ScmaConfig(num_users=1, num_ores=1, codebook_size=2,
                     nonzero_per_user=1, nonzero_per_ore=1)
    graph = build_factor_graph(cfg)
    assert graph.incidence.tolist() == [[1]]


def test_edge_count_violation_rejected():
    with pytest.raises(ValueError, match="edge-count"):
        ScmaConfig(num_users=6, num_ores=4, codebook_size=2,
                   nonzero_per_user=1, nonzero_per_ore=3)


def test_overloading_required():
    with pytest.raises(ValueError, match="num_users > num_ores"):
        ScmaConfig(num_users=4, num_ores=4, codebook_size=2,
                   nonzero_per_user=1, nonzero_per_ore=1)


def test_degree_bounds():
    # consistent edge counts with dv > R force df > U as well
    with pytest.raises(ValueError, match="exceeds"):
        ScmaConfig(num_users=3, num_ores=2, codebook_size=2,
                   nonzero_per_user=4, nonzero_per_ore=6)


def test_non_combinatorial_user_count_rejected():
    # edge counts are consistent but U != C(R, d_v)
    with pytest.raises(ValueError, match="all-combinations"):
        ScmaConfig(num_users=8, num_ores=4, codebook_size=2,
                   nonzero_per_user=2, nonzero_per_ore=4)


@pytest.mark.parametrize("num_ores,dv", [(4, 2), (5, 2), (5, 3), (6, 2)])
def test_regularity_invariants(num_ores, dv):
    from math import comb
    u = comb(num_ores, dv)
    df = comb(num_ores - 1, dv - 1)
    cfg = ScmaConfig(num_users=u, num_ores=num_ores, codebook_size=4,
                     nonzero_per_user=dv, nonzero_per_ore=df)
    graph = build_factor_graph(cfg)
    assert (graph.incidence.sum(axis=1) == df).all()
    assert (graph.incidence.sum(axis=0) == dv).all()
    cols = {tuple(c) for c in graph.incidence.T.tolist()}
    assert len(cols) == u
    for lam in graph.interference_sets:
        assert len(lam) == df
        assert list(lam) == sorted(lam)


def test_build_is_deterministic():
    a = build_factor_graph(REFERENCE_CFG)
    b = build_factor_graph(REFERENCE_CFG)
    assert np.array_equal(a.incidence, b.incidence)
    assert a.interference_sets == b.interference_sets
