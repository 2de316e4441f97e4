"""Discrete orthogonality on shifted lattices and the alternating DFT.

Forward transform of samples f on the lattice:

    beta_{klm} = 1/(G_{klm} N^3) * sum over grid triples (r,s,t) of
                 G_{rst}^{-1} f(x_r, y_s, z_t) conj(E_{(k,l,m)}(x_r, y_s, z_t))

with G the orbit-size weight (3 on the diagonal, 1 otherwise).  The
inverse is the plain expansion f = sum beta_{klm} E_{(k,l,m)}.

A ``CoefficientSet``'s role alone picks its index range, whose table holds
the frequencies (``axis``).  The forward (either range) and the inverse
mirror each other: each gathers a cube through the table's cell map ``pos``
(samples ``values[pos]``, or the dense cube ``(weight * values)[pos]``),
contracts it with the exact lattice table (``_lattice_table``) by
``_separable``, z then y then x, and reads the range at ``flat`` of the
C-ordered result.  Only lattice points are handled here: the interpolant is
evaluated off the lattice in ``interpolation``, by the same ``_separable``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import DomainTable, GridSpec, domain_table


class ParityError(ValueError):
    """Interpolation requires an odd grid density N = 2M+1."""


def _require_odd(n: int) -> int:
    if n % 2 == 0:
        raise ParityError(f"interpolation requires odd N, got N={n}")
    return (n - 1) // 2


def _check_count(grid: GridSpec, values, what: str) -> None:
    # D(0, N-1) and D(-M, M) both hold N(N^2 + 2)/3 triples
    if np.shape(values) != (grid.point_count,):
        raise ValueError(f"expected {grid.point_count} {what} for N={grid.n}, "
                         f"got shape {np.shape(values)}")


@dataclass
class SampleSet:
    """Complex samples on the lattice, in the enumeration order of D(0, N-1)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        # a complex128 array is kept, not copied: the forward fills its buffer in place
        self.values = np.asarray(self.values, dtype=complex)
        _check_count(self.grid, self.values, "samples")

    @property
    def table(self) -> DomainTable:
        return self.grid.table

    def as_array(self) -> np.ndarray:
        return self.values

    @classmethod
    def from_array(cls, grid: GridSpec, arr) -> "SampleSet":
        return cls(grid, np.array(arr, dtype=complex))

    @classmethod
    def from_function(cls, grid: GridSpec, fn) -> "SampleSet":
        """Sample ``fn`` by calling it once per lattice point, with the
        point as a tuple of floats, in enumeration order.  A ``fn`` that
        takes (..., 3) arrays is faster as ``from_array(grid,
        fn(grid.points()))``."""
        return cls(grid, np.array([complex(fn(p)) for p in zip(*grid.points().T.tolist())],
                                  dtype=complex))


@dataclass
class CoefficientSet:
    """Transform coefficients in the enumeration order of their index range.

    The grid alone carries N, a, b and T; the role fixes the index range:
    role "beta": D(0, N-1) (forward-transform output);
    role "c_alt": D(-M, M) with N = 2M+1 (interpolation).
    """

    grid: GridSpec
    role: str
    values: np.ndarray

    def __post_init__(self):
        if self.role not in ("beta", "c_alt"):
            raise ValueError(f"coefficient role must be 'beta' or 'c_alt', got {self.role!r}")
        if self.role == "c_alt":
            _require_odd(self.grid.n)
        self.values = np.asarray(self.values, dtype=complex)   # as in SampleSet
        _check_count(self.grid, self.values, f"{self.role!r} coefficients")

    @property
    def m(self) -> int | None:
        """M = (N-1)/2 for role "c_alt", None for role "beta"."""
        return (self.grid.n - 1) // 2 if self.role == "c_alt" else None

    @property
    def table(self) -> DomainTable:
        return self.grid.table if self.role == "beta" else domain_table(-self.m, self.m)

    def _dense_cube(self) -> np.ndarray:
        """Plain-exponential coefficients on the index cube: each cell takes
        G times the value of its semidominant rotation, ``table.pos``."""
        return (self.table.weight * self.values)[self.table.pos]


def _lattice_table(freqs, grid: GridSpec, sign: int = -1) -> np.ndarray:
    """Table[k, r] = e^{sign 2 pi i k x_r} at the unit-period lattice coordinates
    x_r = p/q + r/N, p/q = a/T + b/N (``GridSpec._shift``): k p mod q and k r mod N
    are reduced in integers, so each phase is exact to rounding at any shift."""
    (p, q), n = grid._shift(), grid.n
    shift = np.array([int(k) * p % q / q for k in freqs])
    return np.exp(sign * 2j * np.pi * (shift[:, None] + np.outer(freqs, np.arange(n)) % n / n))


def _separable(cube: np.ndarray, tx, ty, tz) -> np.ndarray:
    """out[a, b, c] = sum_{ijk} tx[a, i] ty[b, j] tz[c, k] cube[i, j, k], axis by
    axis: O(A I J K) per axis instead of O(ABC IJK) for the direct sum.  z goes
    first, so one z of a slice keeps the intermediates at (K, K, 1) and (K, n, 1)
    for a dense cube of side K, and x last, so the result is C-ordered and the
    transforms' ``ravel`` is a view.  z and y are two matmuls, and x one more, of
    tx with the (I, B C) view of their C-ordered (I, B, C) result."""
    yz = ty @ (cube @ tz.T)
    return (tx @ yz.reshape(len(yz), -1)).reshape(len(tx), *yz.shape[1:])


def _forward(s: SampleSet, role: str) -> CoefficientSet:
    """The weighted sums over the index range of ``role``: the spectrum of the
    symmetrised cube, whose cell (r, s, t) holds the sample of its semidominant
    rotation (``table.pos``), at the range's triples (``flat``), over G N^3."""
    out = CoefficientSet(s.grid, role, np.empty(s.grid.point_count, dtype=complex))
    w = _lattice_table(out.table.axis, s.grid)
    spectrum = _separable(s.values[s.table.pos], w, w, w).ravel()[out.table.flat]
    out.values[:] = spectrum / (out.table.weight * s.grid.n ** 3)
    return out


def adft_forward(s: SampleSet) -> CoefficientSet:
    """Alternating discrete Fourier transform of a complete sample set."""
    return _forward(s, "beta")


def adft_inverse(c: CoefficientSet) -> SampleSet:
    """Expand beta coefficients back into samples on the originating grid."""
    if c.role != "beta":
        raise ValueError(f"inverse transform needs role 'beta', got {c.role!r}")
    w = _lattice_table(c.table.axis, c.grid, sign=1).T
    return SampleSet(c.grid, _separable(c._dense_cube(), w, w, w).ravel()[c.table.flat])
