"""Alternating trigonometric interpolation in three variables.

For odd N = 2M+1, samples on the shifted lattice determine a unique
interpolant

    psi(x, y, z) = sum over semidominant (k, l, m) in D(-M, M) of
                   c_{klm} E_{(k,l,m)}(x, y, z)

whose coefficients are the same weighted sums as the forward transform,
taken over the widened index range.

The coefficients form a "c_alt" ``CoefficientSet``, built by the forward of
``transform`` and evaluated here, and on each slab's region block by the
error functional of ``quadrature``, which contracts the same dense cube and
``_phases`` table through ``_separable``.  On cyclically symmetric data the
standard interpolant on the full N^3 cube is the same function;
``oracles.std_coefficient_cube`` computes its coefficients as a check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import GridSpec
from .transform import CoefficientSet, SampleSet, _forward, _separable


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


def _phases(i: InterpolantAlt, u) -> np.ndarray:
    """[r, k] = e^{2 pi i k x_r}, x_r = u_r / T mod 1: exact for the integer k."""
    x = np.mod(np.asarray(u, dtype=float) / i.grid.period, 1.0)
    return np.exp(2j * np.pi * np.outer(i.coeffs.table.axis, x)).T


def eval_psi_alt(i: InterpolantAlt, p) -> complex:
    """Evaluate the alternating interpolant at point(s) p, one k-plane of the
    dense cube at a time: O(points * (2M+1)) memory."""
    ex, ey, ez = (_phases(i, u) for u in np.reshape(p, (-1, 3)).T)
    acc = sum(ex[:, k] * np.einsum("qm,qm->q", ey @ plane, ez)
              for k, plane in enumerate(i.coeffs._dense_cube())).reshape(np.shape(p)[:-1])
    return complex(acc) if acc.ndim == 0 else acc


def eval_psi_alt_tensor(i: InterpolantAlt, xs, ys, zs) -> np.ndarray:
    """Evaluate on the tensor grid xs x ys x zs: shape (len(xs), len(ys), len(zs)),
    in O((2M+1) n^3) instead of the O((2M+1)^3 n^3) of pointwise evaluation."""
    tx, ty, tz = (_phases(i, u) for u in (xs, ys, zs))
    return _separable(i.coeffs._dense_cube(), tx, ty, tz)
