"""Trigonometric interpolation: alternating and standard 3D variants.

For odd N = 2M+1, samples on the shifted lattice determine a unique
interpolant

    psi(x, y, z) = sum over semidominant (k, l, m) in D(-M, M) of
                   c_{klm} E_{(k,l,m)}(x, y, z)

whose coefficients are the same weighted sums as the forward transform,
taken over the widened index range.  The coefficients can equivalently
be obtained by remapping forward-transform output (negative index entries
lifted by N, a lookup of the semidominant rotation in the ``pos`` cube,
and a lattice-dependent phase, all array-wide); both paths are kept as
mutual oracles.

The standard (non-alternating) interpolant on the full cubic N^3 grid is
included as a baseline.  Both interpolants evaluate through the dense
exponent cube and the contractions of ``transform``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domain import GridSpec, canonicalize, domain_table
from .transform import (CoefficientSet, SampleSet, _dense_cube, _expand_points,
                        _expand_tensor, _phase_table, _rotation_sums, _separable,
                        _separable_spectrum, adft_forward)


class ParityError(ValueError):
    """Interpolation requires an odd grid density N = 2M+1."""


def _require_odd(n: int) -> int:
    if n % 2 == 0:
        raise ParityError(f"interpolation requires odd N, got N={n}")
    return (n - 1) // 2


def alt_coefficient_count(m: int) -> int:
    """(2M+1)(4M^2 + 4M + 3)/3, equal to the lattice point count."""
    return (2 * m + 1) * (4 * m * m + 4 * m + 3) // 3


@dataclass
class InterpolantAlt:
    """Alternating interpolant: coefficients over D(-M, M) plus origin grid."""

    m: int
    coeffs: CoefficientSet
    period: float = 1.0

    @property
    def grid(self) -> GridSpec:
        return self.coeffs.grid

    def dense_exponents(self) -> np.ndarray:
        """Coefficients of e^{2 pi i (kx+ly+mz)}, indexed k+M, l+M, m+M."""
        return _dense_cube(self.coeffs.table, self.coeffs.values)

    def __call__(self, p):
        return eval_psi_alt(self, p)


def alt_interpolate_direct(s: SampleSet) -> InterpolantAlt:
    """Interpolation coefficients by the defining weighted sums."""
    grid = s.grid
    m = _require_odd(grid.n)
    spec = _separable_spectrum(s, np.arange(-m, m + 1))
    vals = _rotation_sums(spec, domain_table(-m, m), grid.n)
    coeffs = CoefficientSet(grid, "c_alt", vals, m=m)
    return InterpolantAlt(m, coeffs, period=grid.period)


def remap_index(t: Sequence, m: int) -> tuple:
    """Forward-transform index whose coefficient feeds c at triple ``t``.

    Negative entries are lifted by N = 2M+1 and the result rotated to its
    semidominant representative inside D(0, N-1).
    """
    n = 2 * m + 1
    return canonicalize(tuple(c + n if c < 0 else c for c in t))


def remap_beta_to_c(c: CoefficientSet, m: int) -> CoefficientSet:
    """Convert forward-transform coefficients to interpolation coefficients:
    ``remap_index`` over all of D(-M, M) at once, through the ``pos`` cube."""
    if c.role != "beta":
        raise ValueError(f"remap needs role 'beta', got {c.role!r}")
    n = 2 * m + 1
    if c.grid.n != n:
        raise ValueError(f"grid density {c.grid.n} does not match N=2M+1={n}")
    idx = domain_table(-m, m).index
    lifted = idx < 0
    # Lifting an index entry by N multiplies E on the lattice by
    # e^{2 pi i (N a + b)} per lifted slot; exact only when N a + b is an
    # integer (e.g. the unshifted lattice), hence the correction here.
    cycles = (n * c.grid.a / c.grid.period + c.grid.b) * lifted.sum(axis=1)
    src = c.table.pos[tuple((idx + n * lifted).T)]
    return CoefficientSet(c.grid, "c_alt", np.exp(2j * np.pi * cycles) * c.values[src], m=m)


def alt_interpolate_remap(s: SampleSet) -> InterpolantAlt:
    """Interpolant via forward transform plus index remap."""
    m = _require_odd(s.grid.n)
    coeffs = remap_beta_to_c(adft_forward(s), m)
    return InterpolantAlt(m, coeffs, period=s.grid.period)


def eval_psi_alt(i: InterpolantAlt, p) -> complex:
    """Evaluate the alternating interpolant at point(s) p."""
    p = np.asarray(p, dtype=float) / i.period
    return _expand_points(i.dense_exponents(), np.arange(-i.m, i.m + 1), p)


def eval_psi_alt_tensor(i: InterpolantAlt, xs, ys, zs) -> np.ndarray:
    """Evaluate on the tensor grid xs x ys x zs: shape (len(xs), len(ys), len(zs)),
    in O((2M+1) n^3) instead of the O((2M+1)^3 n^3) of pointwise evaluation."""
    xs, ys, zs = (np.asarray(c) / i.period for c in (xs, ys, zs))
    return _expand_tensor(i.dense_exponents(), np.arange(-i.m, i.m + 1), xs, ys, zs)


@dataclass
class InterpolantStd:
    """Standard trigonometric interpolant: dense (2M+1)^3 coefficients."""

    m: int
    coeffs: np.ndarray                      # indexed k+M, l+M, m+M
    grid: GridSpec
    period: float = 1.0

    def __call__(self, p):
        return eval_psi_std(self, p)


def std_grid_points(grid: GridSpec):
    """1D coordinates of the full cubic lattice (shared along all axes)."""
    r = np.arange(grid.n)
    return grid.a + (r + grid.b) * (grid.period / grid.n)


def std_interpolate(grid: GridSpec, samples) -> InterpolantStd:
    """Interpolate samples on the full N^3 cubic lattice.

    ``samples`` is an (N, N, N) array indexed (r, s, t).  Coefficients
    are c_{klm} = N^{-3} sum f e^{-2 pi i (k x_r + l y_s + m z_t)}.
    """
    m = _require_odd(grid.n)
    f = np.asarray(samples, dtype=complex)
    if f.shape != (grid.n,) * 3:
        raise ValueError(f"expected samples of shape {(grid.n,) * 3}, got {f.shape}")
    table = _phase_table(np.arange(-m, m + 1), std_grid_points(grid) / grid.period)
    return InterpolantStd(m, _separable(f, table, table, table) / grid.n ** 3, grid,
                          period=grid.period)


def eval_psi_std(i: InterpolantStd, p) -> complex:
    """Evaluate the standard interpolant at point(s) p."""
    p = np.asarray(p, dtype=float) / i.period
    return _expand_points(i.coeffs, np.arange(-i.m, i.m + 1), p)


def rescale_to_period(i, period: float):
    """The same interpolant viewed on a domain of side ``period``.

    Evaluation at p then equals the original evaluation at p / (period/T_old).
    """
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    if isinstance(i, InterpolantAlt):
        return InterpolantAlt(i.m, i.coeffs, period=period)
    if isinstance(i, InterpolantStd):
        return InterpolantStd(i.m, i.coeffs, i.grid, period=period)
    raise TypeError(f"not an interpolant: {i!r}")
