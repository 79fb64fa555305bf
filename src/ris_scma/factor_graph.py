"""Sparse-code factor graphs: which users collide on which resource element."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np


@dataclass(frozen=True, repr=False)
class ScmaConfig:
    """Dimensions of a regular sparse-code multiple-access layout.

    ``num_users`` sparse codebooks share ``num_ores`` orthogonal resource
    elements (OREs).  Each user occupies ``nonzero_per_user`` OREs and each
    ORE carries ``nonzero_per_ore`` interfering users.  ``codebook_size`` is
    a key of the hashed config document that no output reads (ROADMAP
    direction 7 removes it); the received-SNR objective never looks at
    codewords.  The users are all ``nonzero_per_user``-subsets of the OREs
    (:func:`build_factor_graph`), so ``num_users`` must be
    C(``num_ores``, ``nonzero_per_user``); with the edge count that makes
    ``nonzero_per_ore`` = C(``num_ores`` - 1, ``nonzero_per_user`` - 1).
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
        u, r, dv, df = (int(self.num_users), int(self.num_ores),
                        int(self.nonzero_per_user), int(self.nonzero_per_ore))
        if u * dv != r * df:
            # Bit lengths, since a product may have more digits than Python
            # writes an integer with.
            raise ValueError(
                f"edge-count mismatch: num_users*nonzero_per_user (a "
                f"{(u * dv).bit_length()}-bit integer) != num_ores*nonzero_per_ore "
                f"(a {(r * df).bit_length()}-bit integer)")
        if df > u:
            raise ValueError(f"nonzero_per_ore = {df} exceeds num_users = {u}")
        if dv > r:
            raise ValueError(f"nonzero_per_user = {dv} exceeds num_ores = {r}")
        # Code-domain overloading requires more users than OREs; the single
        # degenerate 1x1 layout is allowed for tests and sanity checks.
        if u <= r and not (u == 1 and r == 1):
            raise ValueError(
                f"overloaded access requires num_users > num_ores, got U={u}, R={r}")
        # C(R, d_v) = C(R, k), k = min(d_v, R - d_v), as the running product
        # C(R - k + i, i), which at least doubles at each step i <= k: it
        # stops once it passes U, so a huge C(R, d_v) is never built.
        k, users = min(dv, r - dv), 1
        for i in range(1, k + 1):
            users = users * (r - k + i) // i
            if users > u:
                break
        if users != u:
            raise ValueError(
                f"no regular graph under the all-combinations construction: "
                f"num_users = {u} but C({r}, {dv}) "
                + (f"= {users}" if users < u else "> num_users"))


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
    enumerated in lexicographic order, so the construction is deterministic;
    :class:`ScmaConfig` has checked that there are ``num_users`` of them.
    """
    incidence = np.zeros((cfg.num_ores, cfg.num_users), dtype=np.int8)
    for col, rows in enumerate(combinations(range(cfg.num_ores), cfg.nonzero_per_user)):
        incidence[list(rows), col] = 1
    sets = tuple(tuple(int(user) for user in np.flatnonzero(row)) for row in incidence)
    return FactorGraph(incidence=incidence, interference_sets=sets)
