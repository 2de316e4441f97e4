"""Semidominant index triples, the enumeration domain and shifted lattices.

An integer (or real) triple (k, l, m) is *semidominant* when k >= l >= m
or l > k > m.  Exactly one of the three cyclic rotations of any triple is
semidominant, so semidominant triples are canonical representatives of
cyclic label orbits.  The grids sampled here live inside the fundamental
region of the unit cube cut out by x > z and y > z.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Sequence, TextIO

import numpy as np

from .textrows import write_rows


def is_semidominant(t: Sequence) -> bool:
    """True iff the triple satisfies k >= l >= m or l > k > m."""
    k, l, m = t
    return (k >= l >= m) or (l > k > m)


def rotations(t: Sequence) -> list:
    """The three cyclic rotations of a label triple.

    (k, l, m) -> (m, k, l) -> (l, m, k); all three label the same function.
    """
    k, l, m = t
    return [(k, l, m), (m, k, l), (l, m, k)]


def canonicalize(t: Sequence) -> tuple:
    """The unique semidominant cyclic rotation of ``t``."""
    hits = {r for r in rotations(t) if is_semidominant(r)}
    if len(hits) != 1:
        raise AssertionError(f"triple {t!r} has {len(hits)} semidominant rotations")
    return hits.pop()


class DomainTable(NamedTuple):
    """Read-only arrays describing D(n1, n2) in enumeration order.

    ``index`` is the (P, 3) array of semidominant triples, ``weight`` the
    orbit weights G, and ``rot`` the (P, 3) flat positions, in the cube
    of side n2 - n1 + 1 offset by n1, of the three label rotations
    (k, l, m), (m, k, l), (l, m, k) whose plain exponentials sum to E.
    ``rot[:, 0]`` is strictly increasing.  ``pos``, the inverse of ``rot``,
    is that cube of int32: each cell holds the enumeration position of its
    semidominant rotation (every cell is covered: 3P - 2 * side = side^3).
    """

    index: np.ndarray
    weight: np.ndarray
    rot: np.ndarray
    pos: np.ndarray


@functools.lru_cache(maxsize=16)
def domain_table(n1: int, n2: int) -> DomainTable:
    """The cached table of all semidominant triples with entries in {n1, ..., n2}."""
    side = max(n2 - n1 + 1, 0)
    k, l, m = np.indices((side,) * 3).reshape(3, -1)
    keep = ((k >= l) & (l >= m)) | ((l > k) & (k > m))
    k, l, m = k[keep], l[keep], m[keep]

    def flat(i, j, q):
        return (i * side + j) * side + q

    rot = np.stack([flat(k, l, m), flat(m, k, l), flat(l, m, k)], axis=1)
    pos = np.empty((side,) * 3, dtype=np.int32)
    pos.reshape(-1)[rot] = np.arange(len(rot), dtype=np.int32)[:, None]
    table = DomainTable(np.stack([k, l, m], axis=1) + n1,
                        np.where((k == l) & (l == m), 3, 1), rot, pos)
    for arr in table:
        arr.setflags(write=False)
    return table


def enumerate_domain(n1: int, n2: int) -> list:
    """All semidominant triples with entries in {n1, ..., n2}.

    Ordered lexicographically ascending on (k, l, m).  For the range
    (0, N-1) the count is N(N^2 + 2)/3.
    """
    return list(map(tuple, domain_table(n1, n2).index.tolist()))


def domain_positions(n1: int, n2: int, triples) -> np.ndarray:
    """Enumeration positions of ``triples`` in a non-empty D(n1, n2); -1 where absent."""
    table = domain_table(n1, n2)
    side = n2 - n1 + 1
    # entries outside the range match nothing, and clipping keeps them outside
    t = np.clip(np.asarray(triples).reshape(-1, 3) - n1, -1, side).astype(np.int64)
    inside = np.all((t >= 0) & (t < side), axis=1)
    flat = np.where(inside, (t[:, 0] * side + t[:, 1]) * side + t[:, 2], 0)
    pos = table.pos.ravel()[flat]
    return np.where(inside & (table.rot[pos, 0] == flat), pos, -1)


def domain_size(n: int) -> int:
    """|D(0, N-1)| = N(N^2 + 2)/3."""
    return n * (n * n + 2) // 3


def weight_g(t: Sequence) -> int:
    """Orbit-size weight: 3 if k = l = m, else 1."""
    k, l, m = t
    return 3 if k == l == m else 1


@dataclass(frozen=True)
class GridSpec:
    """Shifted lattice parameters (a, b, N, T).

    Points are (a + (r+b)T/N, a + (s+b)T/N, a + (t+b)T/N) for (r, s, t)
    ranging over the semidominant triples with entries in {0, ..., N-1}.
    """

    a: float = 0.0
    b: float = 0.0
    n: int = 1
    period: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"grid density N must be >= 1, got {self.n}")
        if 3 * int(self.n) ** 3 * np.intp(0).itemsize > np.iinfo(np.intp).max:
            # domain_table's (3, N, N, N) index cube has more bytes than numpy can size
            raise ValueError(f"grid density N={self.n} is too large to index")
        if not np.isfinite(self.a):
            raise ValueError(f"lattice shift a must be finite, got {self.a}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"fractional offset b must be in [0, 1], got {self.b}")
        if not 0 < self.period < np.inf:
            raise ValueError(f"period T must be positive and finite, got {self.period}")
        a, t = float(self.a), float(self.period)  # coordinates are bounded by |a| + T
        if not np.isfinite([abs(a) + t, a / t]).all():   # transforms use a / T
            raise ValueError(f"shift a={a} and period T={t} overflow the lattice coordinates")

    @property
    def point_count(self) -> int:
        return domain_size(self.n)

    def points(self) -> np.ndarray:
        """(P, 3) array of the lattice points in enumeration order."""
        idx = domain_table(0, self.n - 1).index
        return self.a + (idx + self.b) * (self.period / self.n)

    def point(self, rst: Sequence) -> tuple:
        r, s, t = rst
        h = self.period / self.n
        return (self.a + (r + self.b) * h,
                self.a + (s + self.b) * h,
                self.a + (t + self.b) * h)


def in_fundamental_domain(p: Sequence) -> bool:
    """Membership in the open region {(x,y,z) in (0,1)^3 : x > z, y > z}."""
    x, y, z = p
    return 0.0 < x < 1.0 and 0.0 < y < 1.0 and 0.0 < z < 1.0 and x > z and y > z


def write_grid_csv(g: GridSpec, fh: TextIO) -> None:
    """Grid export: header ``r,s,t,x,y,z``, coordinates at 17 significant digits."""
    write_rows(fh, "r,s,t,x,y,z\n", "%d,%d,%d,%.17g,%.17g,%.17g\n",
               domain_table(0, g.n - 1).index, g.points())
