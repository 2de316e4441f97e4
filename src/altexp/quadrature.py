"""Midpoint quadrature over the fundamental region and error estimates.

The region is the part of the unit cube with x > z and y > z (volume
1/3).  Integration uses an axis-aligned midpoint rule that counts a cell
when its center is in the region.  ``integrate_over_F`` multiplies each
z-slab by that membership indicator.  The midpoints strictly increase,
so the indicator of the slab at the k-th midpoint is 1 exactly on the
block [k+1:, k+1:] of the (x, y) grid; ``interpolation_error`` evaluates
only that block and writes it into a zeroed slab.  Cell sums rely on
numpy's pairwise summation over each whole (n, n) slab, so results are
deterministic and independent of any threading.
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


def integrate_over_F(fn: Callable, n: int):
    """Midpoint-rule integral of ``fn`` over {x > z, y > z} in the cube.

    ``fn`` must accept an (..., 3) array of points and return values of
    matching leading shape.  Cell centers failing the membership test
    contribute nothing; each counted cell carries weight 1/n^3.
    """
    if n < 1:
        raise ValueError(f"subdivision count must be >= 1, got {n}")
    u = _midpoints(n)
    x = u[:, None]
    y = u[None, :]
    slab_sums = []
    pts = np.empty((n, n, 3))
    for t, z in enumerate(u):
        pts[..., 0] = x
        pts[..., 1] = y
        pts[..., 2] = z
        vals = np.asarray(fn(pts))
        mask = (x > z) & (y > z)
        slab_sums.append(np.sum(vals * mask))
    return np.sum(np.asarray(slab_sums)) / n ** 3


def interpolation_error(f: Callable, interp: InterpolantAlt, n: int) -> float:
    """Integral of |f - psi|^2 over the fundamental region.

    The interpolant is evaluated slab-by-slab through its separable
    tensor-grid path, so the cost is linear in the cell count.  ``f`` is
    called only on the cells of the region, one block of a slab at a time.
    """
    if n < 1:
        raise ValueError(f"subdivision count must be >= 1, got {n}")
    u = _midpoints(n)
    slab_sums = []
    pts = np.empty((n, n, 3))
    pts[..., 0] = u[:, None]
    pts[..., 1] = u[None, :]
    chunk = max(1, (1 << 22) // (n * n))
    for lo in range(0, n, chunk):
        zs = u[lo:lo + chunk]
        psi = eval_psi_alt_tensor(interp, u, u, zs)
        for j, z in enumerate(zs):
            k = lo + j + 1    # the cells with x > z and y > z are [k:, k:]
            slab = np.zeros((n, n))
            if k < n:
                pts[k:, k:, 2] = z
                block = np.asarray(f(pts[k:, k:])) - psi[k:, k:, j]
                slab[k:, k:] = np.abs(block) ** 2
            slab_sums.append(np.sum(slab))
    return float(np.sum(np.asarray(slab_sums)) / n ** 3)


def _above(freq, u: np.ndarray) -> np.ndarray:
    """S[k] = sum of e^{2 pi i freq u_j} over the midpoints u_j > u_k."""
    e = np.exp(2j * np.pi * freq * u)
    return np.concatenate([np.cumsum(e[::-1])[::-1][1:], [0.0]])


def continuous_gram_entry(t: Sequence, tp: Sequence, n: int) -> complex:
    """Quadrature estimate of the overlap of E_t and E_t' on the region.

    Converges to weight_g(t) when t = t' and to 0 otherwise.  The value
    is the midpoint sum ``integrate_over_F`` takes of E_t conj(E_t'),
    reordered: each of its nine plain exponentials e^{2 pi i (ax+by+cz)}
    sums over the cells {x > z, y > z} as sum_k e^{2 pi i c z_k} S_a(k)
    S_b(k), with ``_above`` suffix sums S, so the cost is O(n), not O(n^3).
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
