"""Semidominant index triples, the enumeration domain and shifted lattices.

An integer (or real) triple (k, l, m) is *semidominant* when k >= l >= m
or l > k > m.  Exactly one of the three cyclic rotations of any triple is
semidominant, so semidominant triples are canonical representatives of
cyclic label orbits.  The grids sampled here live inside the fundamental
region of the unit cube cut out by x > z and y > z.

An index range D(n1, n2) is described once, by its table with its index axis
n1..n2 (``domain_table``: the cached table of its cube side, relabelled on each
call), which the key lookup and the writers' index cells (``index_cells``) take.
A lattice is described once, by its ``GridSpec``: its table of D(0, N-1)
(``table``) and its N physical and unit-period coordinates per axis (``_axis``,
``_unit_axis``), which points, writers and oracles gather by index; its exact
shift a/T + b/N (``_shift``) gives the transforms exact phases.  The lattice
writers gather the text of each index and coordinate from per-axis tables: each
is formatted once.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Sequence, TextIO

import numpy as np

from .textrows import write_rows


def rotations(t: Sequence) -> list:
    """The three cyclic rotations of a label triple.

    (k, l, m) -> (m, k, l) -> (l, m, k); all three label the same function.
    """
    k, l, m = t
    return [(k, l, m), (m, k, l), (l, m, k)]


class DomainTable(NamedTuple):
    """Read-only arrays describing D(n1, n2) in enumeration order.

    ``weight`` holds the orbit weights G of the semidominant triples, and ``flat``,
    the one stored copy of the triples (``index`` derives them), their strictly
    increasing int64 positions (side^3 passes 2^31 from side 1291) in the cube with
    ``axis`` (int64 n1..n2) along each side.  ``pos`` is that cube of int32, the
    one map from triples to cells: each cell holds the enumeration position of its
    semidominant rotation (every cell is covered, 3P - 2 * side = side^3), so the
    rotations (k, l, m), (m, k, l), (l, m, k), whose plain exponentials sum to E,
    share an entry.  The ranges of one side share all but ``axis``.
    """

    weight: np.ndarray
    flat: np.ndarray
    pos: np.ndarray
    axis: np.ndarray

    @property
    def index(self) -> np.ndarray:
        """The (P, 3) array of the triples, derived from ``flat`` on each call."""
        return self.axis[np.stack(np.unravel_index(self.flat, self.pos.shape), axis=1)]


# A command uses two cube sides at most: a cache of 16, not 4, only held memory (it
# doubled the peak RSS of an error-table over eight N near 110, same output).
@functools.lru_cache(maxsize=4)
def _side_table(side: int) -> DomainTable:
    """The table of D(0, side - 1), cached per cube side; ``domain_table`` freezes it."""
    k, l, m = np.ogrid[:side, :side, :side]
    flat = np.flatnonzero(((k >= l) & (l >= m)) | ((l > k) & (k > m)))
    k, l, m = np.unravel_index(flat, (side,) * 3)
    pos = np.empty((side,) * 3, dtype=np.int32)
    for i, j, q in rotations((k, l, m)):
        pos[i, j, q] = np.arange(len(k), dtype=np.int32)
    return DomainTable(np.where((k == l) & (l == m), 3, 1), flat, pos,
                       np.arange(side, dtype=np.int64))


def domain_table(n1: int, n2: int) -> DomainTable:
    """The table of all semidominant triples with entries in {n1, ..., n2}."""
    table = _side_table(max(n2 - n1 + 1, 0))
    if n1:      # a triple stays semidominant when one integer is added to all entries
        table = table._replace(axis=np.arange(n1, n1 + len(table.axis), dtype=np.int64))
    for arr in table:
        arr.setflags(write=False)
    return table


def domain_positions(table: DomainTable, triples) -> np.ndarray:
    """Enumeration positions of ``triples`` in a non-empty ``table``; -1 where absent."""
    side = len(table.axis)
    # entries outside the range match nothing, and clipping keeps them outside
    t = np.clip(np.reshape(triples, (-1, 3)) - int(table.axis[0]), -1, side).astype(np.int64)
    inside = np.all((t >= 0) & (t < side), axis=1)
    cell = np.where(inside, (t[:, 0] * side + t[:, 1]) * side + t[:, 2], 0)
    pos = table.pos.ravel()[cell]
    return np.where(inside & (table.flat[pos] == cell), pos, -1)


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
        if not isinstance(self.n, numbers.Integral) or isinstance(self.n, bool):
            raise ValueError(f"grid density N must be an integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))   # json writes only Python ints
        if self.n < 1:
            raise ValueError(f"grid density N must be >= 1, got {self.n}")
        if self.point_count > np.iinfo(np.int32).max:
            # the table's pos holds the enumeration positions 0..P-1 as int32
            raise ValueError(f"grid density N={self.n} is too large to index")
        for name, what in (("a", "lattice shift a"), ("b", "fractional offset b"),
                           ("period", "period T")):
            v = getattr(self, name)
            if not isinstance(v, numbers.Real):
                raise ValueError(f"{what} must be a real number, got {v!r}")
            try:   # json writes only Python floats as floats (an int as an int)
                object.__setattr__(self, name, float(v))
            except OverflowError:
                raise ValueError(f"{what} must be finite, got an integer past the "
                                 "float range") from None
        if not np.isfinite(self.a):
            raise ValueError(f"lattice shift a must be finite, got {self.a}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"fractional offset b must be in [0, 1], got {self.b}")
        if not 0 < self.period < np.inf:
            raise ValueError(f"period T must be positive and finite, got {self.period}")
        a, t = self.a, self.period  # coordinates are bounded by |a| + T
        if not np.isfinite([abs(a) + t, a / t]).all():   # transforms use a / T
            raise ValueError(f"shift a={a} and period T={t} overflow the lattice coordinates")

    @property
    def point_count(self) -> int:
        """|D(0, N-1)| = N(N^2 + 2)/3, also |D(-M, M)| for N = 2M+1."""
        return self.n * (self.n * self.n + 2) // 3

    @property
    def table(self) -> DomainTable:
        """The cached table of D(0, N-1), the lattice's index triples."""
        return domain_table(0, self.n - 1)

    # points are physical; the transforms use p / T, where orthogonality holds for any T
    def _axis(self) -> np.ndarray:
        """The N coordinates a + (r + b) T/N, r = 0..N-1, shared by all three axes."""
        return self.a + (np.arange(self.n) + self.b) * (self.period / self.n)

    def _shift(self) -> tuple:
        """(p, q), q > 0, with p/q = a/T + b/N exactly: the lattice's unit-period shift."""
        (a, da), (t, dt), (b, db) = (v.as_integer_ratio() for v in (self.a, self.period, self.b))
        return a * dt * db * self.n + b * da * t, da * t * db * self.n

    def _unit_axis(self) -> np.ndarray:
        """The N unit-period coordinates p/q + r/N (``_shift``), r = 0..N-1, reduced
        mod 1 in integers and rounded once: the oracles' E functions have period 1."""
        (p, q), n = self._shift(), self.n
        return np.array([(p * n + r * q) % (q * n) / (q * n) for r in range(n)])

    def points(self) -> np.ndarray:
        """(P, 3) array of the lattice points in enumeration order."""
        return self._axis()[self.table.index]


def index_cells(table: DomainTable, fmts: Sequence[str] = ("%d,",) * 3) -> list:
    """The k, l and m cell columns, formatted by ``fmts``, of the rows of
    ``table`` for ``write_rows``: each index is formatted once per column."""
    return [(table.axis, col, fmt)
            for col, fmt in zip(np.unravel_index(table.flat, table.pos.shape), fmts)]


def write_grid_csv(g: GridSpec, fh: TextIO) -> None:
    """Grid export: header ``r,s,t,x,y,z``, coordinates at 17 significant digits.

    Every cell of row (r, s, t) is gathered: the indices and the coordinates
    of ``GridSpec._axis``, each formatted once per column.
    """
    cells, x = index_cells(g.table), g._axis()
    cells += [(x, rst, fmt) for (_, rst, _), fmt in zip(cells, ("%.17g,", "%.17g,", "%.17g"))]
    write_rows(fh, "r,s,t,x,y,z\n", cells, "\n", np.empty((g.point_count, 0)))
