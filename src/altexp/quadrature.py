"""Midpoint quadrature over the fundamental region and error estimates.

The region is the part of the unit cube with x > z and y > z (volume
1/3).  A cell counts when its center is in the region.
``interpolation_error`` walks the rule one slab's region block at a time
and sums every slab in one (n, n) buffer per call;
``continuous_gram_entry`` reorders it into suffix sums, one per distinct
frequency difference.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .domain import rotations
from .interpolation import InterpolantAlt, _phases
from .transform import _separable


@dataclass(frozen=True)
class BumpParams:
    """Smooth characteristic function of a ball: radii and center.

    The radii and the three center coordinates are stored as Python
    floats, so a point and an array give the same bits: under NumPy 2's
    promotion rules, a Python float minus a float32 is a float32."""

    alpha: float
    beta: float
    center: tuple

    def __post_init__(self):
        if not (isinstance(self.alpha, numbers.Real) and isinstance(self.beta, numbers.Real)
                and 0 < self.alpha < self.beta < math.inf):
            raise ValueError(f"radii must satisfy 0 < alpha < beta < inf, got {self}")
        try:
            center = tuple(self.center)
        except TypeError:
            center = ()
        if len(center) != 3 or not all(isinstance(c, numbers.Real) and math.isfinite(c)
                                       for c in center):
            raise ValueError(f"center must be three finite numbers x, y, z, got {self}")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "center", tuple(float(c) for c in center))


def bump(params: BumpParams, p) -> float | np.ndarray:
    """1 inside radius alpha, 0 outside beta, smooth rolloff between.

    The transition value at relative radius q = (r - alpha)/(beta - alpha)
    is e * exp(1/(q^2 - 1)), which is 1 at q=0 and decays to 0 at q=1.
    ``p`` may be a point, for which a float is returned, or an (..., 3)
    array, for which an array of its leading shape is returned.

    Sample files and error tables carry these bits, and a point must give
    the bits of its row in an array, so both paths take the same steps,
    written once; only the shell tail differs:
    the squared distance summed left to right, dx*dx + dy*dy + dz*dz (the
    order ``np.sum`` takes over a length-3 axis; dx*dx, not dx**2, which
    on a float64 scalar goes through libm ``pow``), a correctly rounded
    square root, the same q, and ``np.exp`` on the shell 0 <= q < 1.  A
    point is evaluated with Python floats, ``math.sqrt`` and ``np.exp``
    (not ``math.exp``, whose bits may differ from numpy's); numpy's fixed
    cost per call would be most of the work on three numbers.
    """
    p = np.asarray(p, dtype=float)
    point = p.shape == (3,)
    # an array's coordinates are views p[..., j]; unpacking refuses a last axis not 3
    coords = p.tolist() if point else (p[..., j] for j in range(p.shape[-1]))
    (x, y, z), (cx, cy, cz) = coords, params.center
    dx, dy, dz = x - cx, y - cy, z - cz
    r = (math.sqrt if point else np.sqrt)(dx * dx + dy * dy + dz * dz)
    q = (r - params.alpha) / (params.beta - params.alpha)
    if point:
        if 0.0 <= q < 1.0:
            return float(math.e * np.exp(1.0 / (q * q - 1.0)))
        return float(r < params.alpha)
    out = np.asarray(r < params.alpha, dtype=float)
    shell = (q >= 0.0) & (q < 1.0)    # alpha <= r <= beta, less q rounded to 1
    if shell.any():
        qs = q[shell]
        out[shell] = math.e * np.exp(1.0 / (qs * qs - 1.0))
    return out


def _midpoints(n: int) -> np.ndarray:
    """The n cell midpoints of [0, 1]; the one check of a count n: an int >= 1, not a bool."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"subdivision count must be an integer >= 1, got {n!r}")
    return (np.arange(n) + 0.5) / n


def interpolation_error(f: Callable, interp: InterpolantAlt, n: int) -> float:
    """Integral of |f - psi|^2 over T times the fundamental region, over T^3.

    The n cell midpoints u, times the period T, strictly increase, so the
    cells of the slab at u[k] in the region are exactly its block
    [k+1:, k+1:], and the last slab has none.  ``f`` gets the (m, m, 3) cell
    centers of that block alone, and psi is contracted on it by
    ``_separable`` from one phase table.  Each slab is summed whole, zero
    off the block, by numpy's pairwise summation: deterministic at any
    threading.  One float64 (n, n) buffer holds every slab: slab k - 1 held
    block [k:, k:], so slab k clears row k and column k and writes its own
    block over the rest.
    """
    u = _midpoints(n) * interp.grid.period
    cube, t = interp.coeffs._dense_cube(), _phases(interp, u)
    pts = np.empty((n, n, 3))
    pts[..., 0] = u[:, None]
    pts[..., 1] = u[None, :]
    slab, slab_sums = np.zeros((n, n)), []
    for k in range(n - 1):
        pts[k + 1:, k + 1:, 2] = u[k]
        psi = _separable(cube, t[k + 1:], t[k + 1:], t[k:k + 1])[..., 0]
        slab[k] = slab[:, k] = 0
        slab[k + 1:, k + 1:] = np.abs(np.asarray(f(pts[k + 1:, k + 1:])) - psi) ** 2
        slab_sums.append(np.sum(slab))
    slab_sums.append(0.0)    # the last slab, empty
    return float(np.sum(np.asarray(slab_sums)) / n ** 3)


def _above(e: np.ndarray) -> np.ndarray:
    """S[k] = sum of e[j] over j > k: for e = e^{2 pi i freq u} at the
    midpoints u, the rows, and the columns, of slab k's region block."""
    return np.concatenate([np.cumsum(e[::-1])[::-1][1:], [0.0]])


def continuous_gram_entry(t: Sequence, tp: Sequence, n: int) -> complex:
    """Quadrature estimate of the overlap of E_t and E_t' on the region.

    Converges to the orbit weight G of t (3 if k = l = m, else 1) when
    t = t' and to 0 otherwise.  The value is the midpoint sum over the region
    of E_t conj(E_t'), reordered: each of its nine plain exponentials
    e^{2 pi i (ax+by+cz)} sums over the region's cells as
    sum_k e^{2 pi i c z_k} S_a(k) S_b(k), with ``_above`` suffix sums S,
    so the cost is O(n), not O(n^3).  The a, b and c differences of the
    nine terms are the same nine pairs of labels, so one exponential and
    one suffix sum are computed per distinct difference, and the terms are
    summed in pair order.
    """
    u = _midpoints(n)
    e = functools.cache(lambda d: np.exp(2j * np.pi * d * u))
    above = functools.cache(lambda d: _above(e(d)))
    total = 0j
    for a1, b1, c1 in rotations(t):
        for a2, b2, c2 in rotations(tp):
            total += np.sum(e(c1 - c2) * above(a1 - a2) * above(b1 - b2))
    return complex(total / n ** 3)
