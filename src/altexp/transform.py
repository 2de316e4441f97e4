"""Discrete orthogonality on shifted lattices and the alternating DFT.

Forward transform of samples f on the lattice:

    beta_{klm} = 1/(G_{klm} N^3) * sum over grid triples (r,s,t) of
                 G_{rst}^{-1} f(x_r, y_s, z_t) conj(E_{(k,l,m)}(x_r, y_s, z_t))

with G the orbit-size weight (3 on the diagonal, 1 otherwise).  The
inverse is the plain expansion f = sum beta_{klm} E_{(k,l,m)}.

The forward transform factors the exponentials through 1D phase tables
and dense separable contractions.  Every expansion of coefficients into
values (the inverse, the interpolants) gathers them onto a dense cube of
plain exponentials (``_dense_cube``) and contracts it (``_expand_tensor``
on tensor grids, ``_expand_points`` at scattered points).  The direct
sums ``adft_forward_naive`` and ``discrete_gram`` stay as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import DomainTable, GridSpec, domain_table
from .functions import eval_E


@dataclass
class SampleSet:
    """Complex samples on the lattice, in the enumeration order of D(0, N-1)."""

    grid: GridSpec
    values: np.ndarray

    @property
    def table(self) -> DomainTable:
        return domain_table(0, self.grid.n - 1)

    def as_array(self) -> np.ndarray:
        return self.values

    @classmethod
    def from_array(cls, grid: GridSpec, arr) -> "SampleSet":
        arr = np.array(arr, dtype=complex)
        if arr.shape != (grid.point_count,):
            raise ValueError(f"expected {grid.point_count} samples for N={grid.n}, "
                             f"got shape {arr.shape}")
        return cls(grid, arr)

    @classmethod
    def from_function(cls, grid: GridSpec, fn) -> "SampleSet":
        return cls(grid, np.array([complex(fn(tuple(p)))
                                   for p in grid.points().tolist()], dtype=complex))


@dataclass
class CoefficientSet:
    """Transform coefficients in the enumeration order of their index range.

    role "beta": D(0, N-1) (forward-transform output);
    role "c_alt": D(-M, M) with N = 2M+1 (interpolation).
    """

    grid: GridSpec
    role: str
    values: np.ndarray
    m: int | None = None

    @property
    def table(self) -> DomainTable:
        if self.role == "beta":
            return domain_table(0, self.grid.n - 1)
        if self.role == "c_alt":
            return domain_table(-self.m, self.m)
        raise ValueError(f"no canonical key order for role {self.role!r}")


def _unit_coords(grid: GridSpec, idx) -> np.ndarray:
    # Transforms work in unit-period pullback coordinates p / T, where
    # orthogonality on the lattice holds for any T.
    return (grid.a / grid.period) + (idx + grid.b) / grid.n


def adft_forward_naive(s: SampleSet, out: DomainTable | None = None) -> CoefficientSet:
    """Direct summation of the defining transform; O(P^2) in point count.

    ``out`` selects the output index range (default D(0, N-1)).
    """
    grid = s.grid
    pts = _unit_coords(grid, s.table.index)
    wf = (1.0 / s.table.weight) * s.values
    out = s.table if out is None else out
    sums = np.array([np.sum(wf * np.conj(eval_E(t, pts)))
                     for t in out.index.tolist()], dtype=complex)
    return CoefficientSet(grid, "beta", sums / (out.weight * grid.n ** 3))


def _phase_table(freqs, coords, sign: int = -1) -> np.ndarray:
    """Table[k, r] = e^{sign 2 pi i k x_r}."""
    return np.exp(sign * 2j * np.pi * np.outer(freqs, coords))


def _separable(cube: np.ndarray, tx, ty, tz) -> np.ndarray:
    """out[a, b, c] = sum_{ijk} tx[a, i] ty[b, j] tz[c, k] cube[i, j, k], axis by
    axis: O(A I J K) per axis instead of O(ABC IJK) for the direct sum."""
    out = np.tensordot(tx, cube, axes=([1], [0]))             # a, j, k
    out = np.tensordot(ty, out, axes=([1], [1]))              # b, a, k
    out = np.tensordot(tz, out, axes=([1], [2]))              # c, b, a
    return out.transpose(2, 1, 0)


def _separable_spectrum(s: SampleSet, freqs: np.ndarray) -> np.ndarray:
    """F[k,l,m] = sum_{rst} G^{-1} f e^{-2 pi i (k x_r + l y_s + m z_t)}."""
    n = s.grid.n
    cube = np.zeros(n ** 3, dtype=complex)                    # zeros off the domain
    cube[s.table.rot[:, 0]] = (1.0 / s.table.weight) * s.values
    table = _phase_table(freqs, _unit_coords(s.grid, np.arange(n)))
    return _separable(cube.reshape(n, n, n), table, table, table)


def _dense_cube(table: DomainTable, values: np.ndarray) -> np.ndarray:
    """Plain-exponential coefficients on the index cube of ``table``: each cell
    takes G times the value of its semidominant rotation, ``table.pos``."""
    return (table.weight * values)[table.pos]


def _expand_tensor(cube: np.ndarray, freqs, xs, ys, zs) -> np.ndarray:
    """out[a, b, c] = sum cube[k, l, m] e^{2 pi i (f_k xs_a + f_l ys_b + f_m zs_c)}."""
    tx, ty, tz = (_phase_table(freqs, c, sign=1).T for c in (xs, ys, zs))
    # Contract z first, then y, then x: another order changes the last
    # digits of the error-table outputs.
    return _separable(cube.transpose(2, 1, 0), tz, ty, tx).transpose(2, 1, 0)


def _expand_points(cube: np.ndarray, freqs, p):
    """sum_{klm} cube[k, l, m] e^{2 pi i (f_k x + f_l y + f_m z)} at point(s) p.

    ``p`` (a point or an (..., 3) array, unit period) is reduced mod 1, which
    is exact for integer frequencies, as in ``eval_E``.  One k-plane at a
    time keeps memory at O(points * len(freqs)).
    """
    p = np.mod(np.asarray(p, dtype=float), 1.0)
    ex, ey, ez = (_phase_table(freqs, c, sign=1).T for c in p.reshape(-1, 3).T)
    acc = sum(ex[:, k] * np.einsum("qm,qm->q", ey @ plane, ez)
              for k, plane in enumerate(cube)).reshape(p.shape[:-1])
    return complex(acc) if acc.ndim == 0 else acc


def _rotation_sums(spec: np.ndarray, out: DomainTable, n: int) -> np.ndarray:
    """Coefficients over ``out``: the spectrum summed over each triple's
    three label rotations, in rotation order, divided by G N^3."""
    terms = spec.ravel()[out.rot]
    return (terms[:, 0] + terms[:, 1] + terms[:, 2]) / (out.weight * n ** 3)


def adft_forward(s: SampleSet) -> CoefficientSet:
    """Alternating discrete Fourier transform of a complete sample set."""
    n = s.grid.n
    spec = _separable_spectrum(s, np.arange(n))
    return CoefficientSet(s.grid, "beta", _rotation_sums(spec, s.table, n))


def adft_inverse(c: CoefficientSet) -> SampleSet:
    """Expand beta coefficients back into samples on the originating grid."""
    if c.role != "beta":
        raise ValueError(f"inverse transform needs role 'beta', got {c.role!r}")
    n = c.grid.n
    u = _unit_coords(c.grid, np.arange(n))
    vals = _expand_tensor(_dense_cube(c.table, c.values), np.arange(n), u, u, u)
    return SampleSet.from_array(c.grid, vals.ravel()[c.table.rot[:, 0]])


def discrete_gram(g: GridSpec) -> np.ndarray:
    """Weighted Gram matrix of the E functions on the lattice.

    Entry (i, j) = sum over grid of G_{rst}^{-1} E_i conj(E_j); equals
    diag(G_{klm} N^3) exactly for any lattice shift (a, b).
    """
    table = domain_table(0, g.n - 1)
    pts = _unit_coords(g, table.index)
    basis = np.stack([eval_E(t, pts) for t in table.index.tolist()])  # key x point
    return (basis * (1.0 / table.weight)) @ np.conj(basis.T)
