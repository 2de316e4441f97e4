"""Trigonometric interpolation: alternating and standard 3D variants.

For odd N = 2M+1, samples on the shifted lattice determine a unique
interpolant

    psi(x, y, z) = sum over semidominant (k, l, m) in D(-M, M) of
                   c_{klm} E_{(k,l,m)}(x, y, z)

whose coefficients are the same weighted sums as the forward transform,
taken over the widened index range.

The coefficients form a "c_alt" ``CoefficientSet``, built and evaluated by
the forward and expansion paths of ``transform``.  The standard
(non-alternating) interpolant on the full cubic N^3 grid is a baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import GridSpec
from .transform import (CoefficientSet, SampleSet, _expand_points, _expand_tensor,
                        _forward, _phase_table, _require_odd, _separable)


@dataclass
class InterpolantAlt:
    """Alternating interpolant: its "c_alt" coefficients over D(-M, M).

    M and the period T come from the coefficients' grid, N = 2M+1.
    """

    coeffs: CoefficientSet

    @property
    def grid(self) -> GridSpec:
        return self.coeffs.grid


def alt_interpolate_direct(s: SampleSet) -> InterpolantAlt:
    """Interpolation coefficients by the defining weighted sums."""
    return InterpolantAlt(_forward(s, "c_alt"))


def eval_psi_alt(i: InterpolantAlt, p) -> complex:
    """Evaluate the alternating interpolant at point(s) p."""
    c, p = i.coeffs, np.asarray(p, dtype=float) / i.grid.period
    return _expand_points(c._dense_cube(), c._freqs, p)


def eval_psi_alt_tensor(i: InterpolantAlt, xs, ys, zs) -> np.ndarray:
    """Evaluate on the tensor grid xs x ys x zs: shape (len(xs), len(ys), len(zs)),
    in O((2M+1) n^3) instead of the O((2M+1)^3 n^3) of pointwise evaluation."""
    xs, ys, zs = (np.asarray(c) / i.grid.period for c in (xs, ys, zs))
    return _expand_tensor(i.coeffs, xs, ys, zs)


@dataclass
class InterpolantStd:
    """Standard trigonometric interpolant: dense (2M+1)^3 coefficients,
    with M and the period T taken from the grid, N = 2M+1."""

    coeffs: np.ndarray                      # indexed k+M, l+M, m+M
    grid: GridSpec


def std_grid_points(grid: GridSpec):
    """1D coordinates of the full cubic lattice (shared along all axes)."""
    return grid._axis()


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
    return InterpolantStd(_separable(f, table, table, table) / grid.n ** 3, grid)


def eval_psi_std(i: InterpolantStd, p) -> complex:
    """Evaluate the standard interpolant at point(s) p."""
    m, p = _require_odd(i.grid.n), np.asarray(p, dtype=float) / i.grid.period
    return _expand_points(i.coeffs, np.arange(-m, m + 1), p)
