"""The three-term alternating exponential function and its identities.

E_{(lam, mu, nu)}(x, y, z) =
    e^{2 pi i (lam x + mu y + nu z)}
  + e^{2 pi i (lam z + mu x + nu y)}
  + e^{2 pi i (lam y + mu z + nu x)}

It is invariant under simultaneous cyclic rotation of either the label
or the coordinates, periodic for integer labels, and an eigenfunction of
the symmetric combinations of second derivatives.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

_TWO_PI = 2.0 * math.pi


def _is_integer_triple(t: Sequence) -> bool:
    return all(float(c).is_integer() for c in t)


def _phase(theta):
    # e^{2 pi i theta} has period 1 in theta, so the cycle count is reduced
    # mod 1 for any label: the argument stays small however far p drifts.
    return np.exp(_TWO_PI * 1j * np.mod(theta, 1.0))


def eval_E(t: Sequence, p) -> complex:
    """Evaluate E_t at point(s) p.

    ``p`` is a length-3 sequence or an (..., 3) array; the result follows
    the leading shape of ``p``.  Labels may be real; integer labels get
    exact argument reduction.
    """
    lam, mu, nu = t
    p = np.asarray(p, dtype=float)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    if _is_integer_triple(t):
        # integer cycles drop out, so the coordinates reduce mod 1 as well
        x, y, z = np.mod(x, 1.0), np.mod(y, 1.0), np.mod(z, 1.0)
    val = (_phase(lam * x + mu * y + nu * z)
           + _phase(lam * z + mu * x + nu * y)
           + _phase(lam * y + mu * z + nu * x))
    if val.ndim == 0:
        return complex(val)
    return val


def shift_phase(t: Sequence, a: float) -> complex:
    """Phase picked up under the diagonal shift (x,y,z) -> (x+a, y+a, z+a).

    Valid for integer labels only: E_t(p + (a,a,a)) = e^{2 pi i (k+l+m) a} E_t(p).
    """
    if not _is_integer_triple(t):
        raise ValueError(f"diagonal-shift phase requires an integer triple, got {t!r}")
    k, l, m = (int(c) for c in t)
    return complex(np.exp(_TWO_PI * 1j * np.mod((k + l + m) * a, 1.0)))


def product_indices(t: Sequence, tp: Sequence) -> list:
    """Index triples of the product-to-sum decomposition E_t * E_t'.

    E_t(p) E_t'(p) = sum of E over the three returned triples (not
    necessarily canonical), in fixed order.
    """
    lam, mu, nu = t
    lp, mp, np_ = tp
    return [
        (lam + lp, mu + mp, nu + np_),
        (lam + mp, mu + np_, nu + lp),
        (lam + np_, mu + lp, nu + mp),
    ]


def point_product_identity(t: Sequence, p: Sequence, pp: Sequence) -> float:
    """Residual |LHS - RHS| of the two-point product decomposition.

    E_t(p) E_t(p') = E_t(x+x', y+y', z+z') + E_t(x+y', y+z', z+x')
                   + E_t(x+z', y+x', z+y').
    """
    x, y, z = p
    xp, yp, zp = pp
    lhs = eval_E(t, p) * eval_E(t, pp)
    rhs = (eval_E(t, (x + xp, y + yp, z + zp))
           + eval_E(t, (x + yp, y + zp, z + xp))
           + eval_E(t, (x + zp, y + xp, z + yp)))
    return abs(lhs - rhs)


def sigma_k(k: int, y1: float, y2: float, y3: float) -> float:
    """Elementary symmetric polynomial of degree k in three variables."""
    if k == 1:
        return y1 + y2 + y3
    if k == 2:
        return y1 * y2 + y1 * y3 + y2 * y3
    if k == 3:
        return y1 * y2 * y3
    raise ValueError(f"degree must be 1, 2 or 3, got {k}")


def operator_eigenvalue(k: int, t: Sequence) -> float:
    """Eigenvalue of sigma_k(d_x^2, d_y^2, d_z^2) on E_t.

    Equals (-4 pi^2)^k sigma_k(lam^2, mu^2, nu^2); k = 1 is the Laplacian.
    """
    lam, mu, nu = t
    return (-4.0 * math.pi ** 2) ** k * sigma_k(k, lam ** 2, mu ** 2, nu ** 2)

