"""Midpoint quadrature over the fundamental region and error estimates.

The region is the part of the unit cube with x > z and y > z (volume
1/3).  ``_region_sum`` holds the rule: a cell counts when its center is
in the region.  ``integrate_over_F``, ``interpolation_error`` and
``fundamental_volume`` sum through it; ``continuous_gram_entry`` is the
same sum reordered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .domain import rotations
from .interpolation import InterpolantAlt, eval_psi_alt_tensor


@dataclass(frozen=True)
class BumpParams:
    """Smooth characteristic function of a ball: radii and center."""

    alpha: float
    beta: float
    center: tuple

    def __post_init__(self):
        if not 0 < self.alpha < self.beta < math.inf:
            raise ValueError(f"radii must satisfy 0 < alpha < beta < inf, got {self}")


def bump(params: BumpParams, p) -> float | np.ndarray:
    """1 inside radius alpha, 0 outside beta, smooth rolloff between.

    The transition value at relative radius q = (r - alpha)/(beta - alpha)
    is e * exp(1/(q^2 - 1)), which is 1 at q=0 and decays to 0 at q=1.
    ``p`` may be a point, for which a float is returned, or an (..., 3)
    array, for which an array of its leading shape is returned.

    The squared distance is summed left to right, dx*dx + dy*dy + dz*dz,
    the order ``np.sum`` takes over a length-3 axis.  The order is fixed
    because sample files and error tables carry these bits, and a point
    must give the bits of its row in an array; products are dx*dx, not
    dx**2, which on a float64 scalar goes through libm ``pow``.
    """
    p = np.asarray(p, dtype=float)
    d = p - np.asarray(params.center, dtype=float)
    dx, dy, dz = d[..., 0], d[..., 1], d[..., 2]
    r = np.sqrt(dx * dx + dy * dy + dz * dz)
    q = (r - params.alpha) / (params.beta - params.alpha)
    out = np.asarray(r < params.alpha, dtype=float)
    shell = (q >= 0.0) & (q < 1.0)    # alpha <= r <= beta, less q rounded to 1
    if shell.any():
        qs = q[shell]
        out[shell] = math.e * np.exp(1.0 / (qs * qs - 1.0))
    if out.ndim == 0:
        return float(out)
    return out


def _midpoints(n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) / n


def _region_sum(n: int, block_values: Callable):
    """Midpoint-rule sum over {x > z, y > z}, divided by the n^3 cells.

    The midpoints strictly increase, so the cells of the slab at the k-th
    midpoint that lie in the region are exactly its block [k+1:, k+1:],
    and the last slab has none.  ``block_values(k, pts)`` gets the (m, m,
    3) cell centers of that block and returns their values.  Each slab is
    summed whole, zero off the block, by numpy's pairwise summation, so
    results are deterministic and independent of any threading.
    """
    if n < 1:
        raise ValueError(f"subdivision count must be >= 1, got {n}")
    u = _midpoints(n)
    pts = np.empty((n, n, 3))
    pts[..., 0] = u[:, None]
    pts[..., 1] = u[None, :]
    slab_sums = []
    for k in range(n - 1):
        pts[k + 1:, k + 1:, 2] = u[k]
        block = np.asarray(block_values(k, pts[k + 1:, k + 1:]))
        slab = np.zeros((n, n), dtype=block.dtype)
        slab[k + 1:, k + 1:] = block
        slab_sums.append(np.sum(slab))
    slab_sums.append(0.0)    # the last slab, empty
    return np.sum(np.asarray(slab_sums)) / n ** 3


def integrate_over_F(fn: Callable, n: int):
    """Midpoint-rule integral of ``fn`` over {x > z, y > z} in the cube.

    ``fn`` gets (..., 3) arrays of the region's cells and returns values of
    their leading shape."""
    return _region_sum(n, lambda k, pts: fn(pts))


def interpolation_error(f: Callable, interp: InterpolantAlt, n: int) -> float:
    """Integral of |f - psi|^2 over the fundamental region.

    The interpolant is evaluated on chunks of z-slabs through its
    separable tensor-grid path, so the cost is linear in the cell count.
    ``f`` is called only on the cells of the region, one block at a time.
    """
    u = _midpoints(n)
    chunk = max(1, (1 << 22) // max(n * n, 1))    # _region_sum refuses n < 1
    psi = None

    def squared_error(k, pts):
        nonlocal psi
        if k % chunk == 0:
            psi = eval_psi_alt_tensor(interp, u, u, u[k:k + chunk])
        return np.abs(np.asarray(f(pts)) - psi[k + 1:, k + 1:, k % chunk]) ** 2

    return float(_region_sum(n, squared_error))


def _above(freq, u: np.ndarray) -> np.ndarray:
    """S[k] = sum of e^{2 pi i freq u_j} over the midpoints u_j > u_k: the
    rows, and the columns, of the block ``_region_sum`` takes of slab k."""
    e = np.exp(2j * np.pi * freq * u)
    return np.concatenate([np.cumsum(e[::-1])[::-1][1:], [0.0]])


def continuous_gram_entry(t: Sequence, tp: Sequence, n: int) -> complex:
    """Quadrature estimate of the overlap of E_t and E_t' on the region.

    Converges to weight_g(t) when t = t' and to 0 otherwise.  The value
    is the ``_region_sum`` of E_t conj(E_t'), reordered: each of its nine
    plain exponentials e^{2 pi i (ax+by+cz)} sums over the region's cells
    as sum_k e^{2 pi i c z_k} S_a(k) S_b(k), with ``_above`` suffix sums
    S, so the cost is O(n), not O(n^3).
    """
    if n < 1:
        raise ValueError(f"subdivision count must be >= 1, got {n}")
    u = _midpoints(n)
    total = 0j
    for a1, b1, c1 in rotations(t):
        for a2, b2, c2 in rotations(tp):
            ez = np.exp(2j * np.pi * (c1 - c2) * u)
            total += np.sum(ez * _above(a1 - a2, u) * _above(b1 - b2, u))
    return complex(total / n ** 3)


def fundamental_volume(n: int) -> float:
    """Quadrature estimate of the region volume (exactly 1/3 in the limit)."""
    return float(integrate_over_F(lambda pts: np.ones(pts.shape[:-1]), n))
