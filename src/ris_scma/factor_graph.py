"""Sparse-code factor graphs: which users collide on which resource element."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np


@dataclass(frozen=True, repr=False)
class ScmaConfig:
    """Dimensions of a regular sparse-code multiple-access layout.

    ``num_users`` sparse codebooks share ``num_ores`` orthogonal resource
    elements (OREs).  Each user occupies ``nonzero_per_user`` OREs and each
    ORE carries ``nonzero_per_ore`` interfering users.  ``codebook_size`` is
    a key of the hashed config document that no output reads (ROADMAP
    direction 7 removes it); the received-SNR objective never looks at
    codewords.
    """

    num_users: int
    num_ores: int
    codebook_size: int
    nonzero_per_user: int
    nonzero_per_ore: int

    def __post_init__(self) -> None:
        for name in ("num_users", "num_ores", "codebook_size",
                     "nonzero_per_user", "nonzero_per_ore"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        u, r = self.num_users, self.num_ores
        dv, df = self.nonzero_per_user, self.nonzero_per_ore
        if u * dv != r * df:
            raise ValueError(
                f"edge-count mismatch: num_users*nonzero_per_user = {u * dv} "
                f"!= num_ores*nonzero_per_ore = {r * df}")
        if df > u:
            raise ValueError(f"nonzero_per_ore = {df} exceeds num_users = {u}")
        if dv > r:
            raise ValueError(f"nonzero_per_user = {dv} exceeds num_ores = {r}")
        # Code-domain overloading requires more users than OREs; the single
        # degenerate 1x1 layout is allowed for tests and sanity checks.
        if u <= r and not (u == 1 and r == 1):
            raise ValueError(
                f"overloaded access requires num_users > num_ores, got U={u}, R={r}")


@dataclass(repr=False, eq=False)
class FactorGraph:
    """Binary incidence structure between OREs (rows) and users (columns)."""

    incidence: np.ndarray            # (R, U) of {0, 1}
    interference_sets: tuple         # per ORE: tuple of user indices, ascending

    @property
    def num_ores(self) -> int:
        return self.incidence.shape[0]

    @property
    def users_per_ore(self) -> int:
        return len(self.interference_sets[0])


def build_factor_graph(cfg: ScmaConfig) -> FactorGraph:
    """Build the canonical regular factor graph for ``cfg``.

    Columns are all ``nonzero_per_user``-element subsets of the ORE index set,
    enumerated in lexicographic order, so the construction is deterministic
    and requires ``num_users == C(num_ores, nonzero_per_user)``.
    """
    u, r = cfg.num_users, cfg.num_ores
    dv, df = cfg.nonzero_per_user, cfg.nonzero_per_ore
    if u != comb(r, dv):
        raise ValueError(
            f"no regular graph under the all-combinations construction: "
            f"num_users = {u} but C({r}, {dv}) = {comb(r, dv)}")
    incidence = np.zeros((r, u), dtype=np.int8)
    for col, rows in enumerate(combinations(range(r), dv)):
        incidence[list(rows), col] = 1
    row_weights = incidence.sum(axis=1)
    if not (row_weights == df).all():
        # U = C(R, dv) plus the edge-count invariant force df = C(R-1, dv-1);
        # reaching here means cfg was inconsistent with the construction.
        raise ValueError(
            f"all-combinations columns give ORE weight {int(row_weights[0])}, "
            f"not nonzero_per_ore = {df}")
    sets = tuple(tuple(int(user) for user in np.flatnonzero(row)) for row in incidence)
    return FactorGraph(incidence=incidence, interference_sets=sets)
