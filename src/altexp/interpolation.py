"""Alternating trigonometric interpolation in three variables.

For odd N = 2M+1, samples on the shifted lattice determine a unique
interpolant

    psi(x, y, z) = sum over semidominant (k, l, m) in D(-M, M) of
                   c_{klm} E_{(k,l,m)}(x, y, z)

whose coefficients are the same weighted sums as the forward transform,
taken over the widened index range.

The coefficients form a "c_alt" ``CoefficientSet``, built and evaluated by
the forward and expansion paths of ``transform``.  On cyclically symmetric
data the standard interpolant on the full N^3 cube is the same function;
``oracles.std_coefficient_cube`` computes its coefficients as a check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import GridSpec
from .transform import CoefficientSet, SampleSet, _expand_points, _expand_tensor, _forward


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
    return _expand_points(i.coeffs, np.asarray(p, dtype=float) / i.grid.period)


def eval_psi_alt_tensor(i: InterpolantAlt, xs, ys, zs) -> np.ndarray:
    """Evaluate on the tensor grid xs x ys x zs: shape (len(xs), len(ys), len(zs)),
    in O((2M+1) n^3) instead of the O((2M+1)^3 n^3) of pointwise evaluation."""
    xs, ys, zs = (np.asarray(c) / i.grid.period for c in (xs, ys, zs))
    return _expand_tensor(i.coeffs, xs, ys, zs)

