"""Slow and definitional routes, kept as correctness oracles.

Each function here computes by the defining formula what a fast path in
``transform`` or ``interpolation`` computes by separable contractions or
table lookups: the naive forward sum, the discrete Gram matrix, the remapped
forward-transform output and the standard interpolant on the full N^3 cube.
The lattice points come from the grid: its unit-period axis gathered by its
table's triples.  Only ``verify`` and the tests use them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .domain import GridSpec, rotations
from .functions import eval_E
from .transform import CoefficientSet, SampleSet, _require_odd


def is_semidominant(t: Sequence) -> bool:
    """True iff the triple satisfies k >= l >= m or l > k > m."""
    k, l, m = t
    return (k >= l >= m) or (l > k > m)


def canonicalize(t: Sequence) -> tuple:
    """The unique semidominant cyclic rotation of ``t``."""
    hits = {r for r in rotations(t) if is_semidominant(r)}
    if len(hits) != 1:
        raise AssertionError(f"triple {t!r} has {len(hits)} semidominant rotations")
    return hits.pop()


def adft_forward_naive(s: SampleSet, role: str = "beta") -> CoefficientSet:
    """Direct summation of the defining transform; O(P^2) in point count.

    ``role`` selects the output index range: D(0, N-1) for "beta", and
    D(-M, M), the interpolation coefficients, for "c_alt".
    """
    grid = s.grid
    pts = grid._unit_axis()[s.table.index]
    wf = (1.0 / s.table.weight) * s.values
    out = CoefficientSet(grid, role, np.zeros(grid.point_count, dtype=complex))
    out.values[:] = [np.sum(wf * np.conj(eval_E(t, pts))) for t in out.table.index.tolist()]
    out.values /= out.table.weight * grid.n ** 3
    return out


def discrete_gram(g: GridSpec) -> np.ndarray:
    """Weighted Gram matrix of the E functions on the lattice.

    Entry (i, j) = sum over grid of G_{rst}^{-1} E_i conj(E_j); equals
    diag(G_{klm} N^3) exactly for any lattice shift (a, b).
    """
    pts = g._unit_axis()[g.table.index]
    basis = np.stack([eval_E(t, pts) for t in g.table.index.tolist()])  # key x point
    return (basis * (1.0 / g.table.weight)) @ np.conj(basis.T)


def remap_index(t: Sequence, m: int) -> tuple:
    """Forward-transform index whose coefficient feeds c at triple ``t``.

    Negative entries are lifted by N = 2M+1 and the result rotated to its
    semidominant representative inside D(0, N-1).
    """
    n = 2 * m + 1
    return canonicalize(tuple(c + n if c < 0 else c for c in t))


def remap_beta_to_c(c: CoefficientSet) -> CoefficientSet:
    """Convert forward-transform coefficients to interpolation coefficients:
    ``remap_index`` over all of D(-M, M) at once, through the ``pos`` cube.  Lifting
    an entry by N multiplies E on the lattice by e^{2 pi i N p/q}, p/q = a/T + b/N
    (``GridSpec._shift``), exact at any shift with N p mod q reduced in integers."""
    if c.role != "beta":
        raise ValueError(f"remap needs role 'beta', got {c.role!r}")
    out = CoefficientSet(c.grid, "c_alt", np.empty(c.grid.point_count, dtype=complex))
    (p, q), n, idx = c.grid._shift(), c.grid.n, out.table.index
    lifted = idx < 0
    cycles = (n * p % q / q) * lifted.sum(axis=1)
    src = c.table.pos[tuple((idx + n * lifted).T)]
    out.values[:] = np.exp(2j * np.pi * cycles) * c.values[src]
    return out


def std_coefficient_cube(grid: GridSpec, cube) -> np.ndarray:
    """The standard interpolant's coefficients C[k+M, l+M, m+M] = N^{-3} sum_{rst}
    f_{rst} e^{-2 pi i (k x_r + l x_s + m x_t) / T} of an (N, N, N) sample cube f
    on the full lattice of ``grid``, N = 2M+1, by three plain contractions that
    share no table or helper with the alternating path.  For cyclically
    symmetric f this is the alternating interpolant's dense cube."""
    m = _require_odd(grid.n)
    f = np.asarray(cube, dtype=complex)
    if f.shape != (grid.n,) * 3:
        raise ValueError(f"expected samples of shape {(grid.n,) * 3}, got {f.shape}")
    e = np.exp(-2j * np.pi * np.arange(-m, m + 1)[:, None] * (grid._axis() / grid.period))
    f = np.einsum("kr,rst->kst", e, f)
    f = np.einsum("ls,kst->klt", e, f)
    return np.einsum("mt,klt->klm", e, f) / grid.n ** 3
