"""Cross-check against the E-orbit functions of the rank-3 group C_3.

The generic orbit of the even Weyl subgroup W^e(C_3) has 24 weights,
kept here both as a hard-coded table of linear forms in the omega-basis
coordinates (v1, v2, v3) and as the reflection-generated orbit.  Nothing
here asserts that the two agree or that a generated group has its stated
order: ``verify`` checks that the table and the generated orbit agree,
both ways, and measures the order of the subgroup below.  That order-8
subgroup, generated by r1*r3 and (r2*r3)^2, acts on Cartesian points by
signed permutations and ties the C_3 orbit function to a sum of
alternating exponential functions:

    EW_{(lam-mu, mu-nu, nu)}(x-y, y-z, 2z)
        = sum over the 8 maps w of E_{(lam,mu,nu)}(w(x, y, z)).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .functions import eval_E

# Generic orbit weights as coefficient rows on (v1, v2, v3), grouped by
# the minimal reflection count l = 0, 2, 4, 6, 8.
ORBIT_TABLE = np.array([
    # l = 0
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    # l = 2
    [[-1, -1, 0], [1, 0, 0], [0, 1, 1]],
    [[0, 1, 0], [-1, -1, 0], [1, 1, 1]],
    [[-1, 0, 0], [1, 1, 2], [0, 0, -1]],
    [[1, 1, 2], [0, -1, -2], [0, 1, 1]],
    [[1, 1, 0], [0, 1, 2], [0, -1, -1]],
    # l = 4
    [[-1, -2, -2], [1, 1, 0], [0, 0, 1]],
    [[0, -1, -2], [-1, 0, 0], [1, 1, 1]],
    [[-1, -1, -2], [1, 2, 2], [0, -1, -1]],
    [[0, 1, 2], [-1, -2, -2], [1, 1, 1]],
    [[0, -1, 0], [1, 2, 2], [-1, -1, -1]],
    [[1, 2, 2], [-1, -1, -2], [0, 0, 1]],
    [[0, 1, 2], [1, 1, 0], [-1, -1, -1]],
    [[1, 2, 2], [0, -1, 0], [0, 0, -1]],
    # l = 6
    [[0, -1, 0], [-1, -1, -2], [1, 1, 1]],
    [[0, -1, -2], [1, 1, 2], [-1, -1, -1]],
    [[-1, -1, -2], [0, -1, 0], [0, 1, 1]],
    [[-1, -2, -2], [0, 1, 2], [0, 0, -1]],
    [[0, 1, 0], [1, 0, 0], [-1, -1, -1]],
    [[1, 1, 0], [-1, -2, -2], [0, 1, 1]],
    [[1, 1, 2], [-1, 0, 0], [0, -1, -1]],
    # l = 8
    [[1, 0, 0], [-1, -1, 0], [0, 0, -1]],
    [[-1, 0, 0], [0, -1, -2], [0, 0, 1]],
    [[-1, -1, 0], [0, 1, 0], [0, -1, -1]],
], dtype=int)

# Change of basis omega -> Cartesian e-coordinates (omega_1 = e1,
# omega_2 = e1 + e2, omega_3 = e1 + e2 + e3).
_OMEGA_TO_CART = np.array([[1, 1, 1],
                           [0, 1, 1],
                           [0, 0, 1]], dtype=float)

# Reflections through the simple roots e1-e2, e2-e3, 2*e3 act on
# Cartesian coordinates as a swap, a swap, and a sign flip.
REFL_1 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=int)
REFL_2 = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=int)
REFL_3 = np.array([[1, 0, 0], [0, 1, 0], [0, 0, -1]], dtype=int)

# The 24-term expanded orbit sum: each row is the exponent coefficient
# pattern (sign, label slot) for the x, y, z slots, label slots
# 0 = lam, 1 = mu, 2 = nu.
_EXPANDED_TERMS = [
    ((-1, 2), (-1, 1), (-1, 0)), ((-1, 2), (+1, 1), (+1, 0)),
    ((-1, 2), (+1, 0), (-1, 1)), ((-1, 2), (-1, 0), (+1, 1)),
    ((+1, 2), (-1, 1), (+1, 0)), ((+1, 2), (+1, 1), (-1, 0)),
    ((+1, 2), (-1, 0), (-1, 1)), ((+1, 2), (+1, 0), (+1, 1)),
    ((-1, 1), (-1, 2), (+1, 0)), ((+1, 1), (-1, 2), (-1, 0)),
    ((-1, 0), (-1, 2), (-1, 1)), ((+1, 0), (-1, 2), (+1, 1)),
    ((-1, 1), (+1, 2), (-1, 0)), ((+1, 1), (+1, 2), (+1, 0)),
    ((+1, 0), (+1, 2), (-1, 1)), ((-1, 0), (+1, 2), (+1, 1)),
    ((-1, 1), (-1, 0), (-1, 2)), ((+1, 1), (+1, 0), (-1, 2)),
    ((+1, 0), (-1, 1), (-1, 2)), ((-1, 0), (+1, 1), (-1, 2)),
    ((-1, 1), (+1, 0), (+1, 2)), ((+1, 1), (-1, 0), (+1, 2)),
    ((-1, 0), (-1, 1), (+1, 2)), ((+1, 0), (+1, 1), (+1, 2)),
]


def we_orbit(v: Sequence) -> list:
    """The 24 orbit weights at (v1, v2, v3), in table order."""
    v = np.asarray(v, dtype=float)
    return [tuple(row @ v) for row in ORBIT_TABLE]


def scalar_product(v: Sequence, theta: Sequence) -> float:
    """Pairing of an omega-basis vector with a dual-basis vector."""
    v1, v2, v3 = v
    t1, t2, t3 = theta
    return ((v1 + v2 + v3) * t1
            + (v1 + 2 * v2 + 2 * v3) * t2
            + (0.5 * v1 + v2 + 1.5 * v3) * t3)


def eval_EW(v: Sequence, theta: Sequence) -> complex:
    """Orbit function: sum of e^{2 pi i <w v, theta>} over the 24 weights."""
    acc = 0j
    for w in we_orbit(v):
        acc += np.exp(2j * np.pi * scalar_product(w, theta))
    return complex(acc)


def eval_EW_expanded(t: Sequence, p: Sequence) -> complex:
    """The orbit function as its explicit 24-term signed-permutation sum.

    Arguments are the alternating-function label (lam, mu, nu) and point
    (x, y, z); equals eval_EW after the change of variables
    v = (lam-mu, mu-nu, nu), theta = (x-y, y-z, 2z).
    """
    labels = np.asarray(t, dtype=float)
    x, y, z = p
    acc = 0j
    for (sx, ix), (sy, iy), (sz, iz) in _EXPANDED_TERMS:
        expo = sx * labels[ix] * x + sy * labels[iy] * y + sz * labels[iz] * z
        acc += np.exp(2j * np.pi * expo)
    return complex(acc)


def _closure(generators: list) -> list:
    """The group of integer matrices walked breadth first from the identity by
    right products with the generators (a finite group's inverses are powers),
    cut off at the 49th element, one more than the signed permutations hold:
    generators that are not signed permutations give a group of the wrong order."""
    gens = [np.asarray(g) for g in generators]
    elems, queue = {}, [np.eye(3, dtype=int)]
    for g in queue:     # the queue grows as it is walked
        if len(elems) > 48:
            break
        if g.tobytes() not in elems:
            elems[g.tobytes()] = g
            queue += [g @ h for h in gens]
    return list(elems.values())


def generate_tilde_we() -> list:
    """The order-8 point-symmetry subgroup, generated from its two elements."""
    g1 = REFL_1 @ REFL_3
    g2 = np.linalg.matrix_power(REFL_2 @ REFL_3, 2)
    return _closure([g1, g2])


def even_weyl_group() -> list:
    """All 24 rotations (determinant +1 signed permutations) of W(C_3)."""
    return _closure([REFL_1 @ REFL_2, REFL_1 @ REFL_3, REFL_2 @ REFL_3])


def reflection_orbit(v: Sequence) -> list:
    """Orbit of (v1, v2, v3) under the generated even subgroup, one point per
    element: computed in Cartesian coordinates, mapped back to the omega-basis."""
    cart = _OMEGA_TO_CART @ np.asarray(v, dtype=float)
    inv = np.linalg.inv(_OMEGA_TO_CART)
    return [tuple(inv @ (g @ cart)) for g in even_weyl_group()]


def symmetrization_residual(t: Sequence, p: Sequence) -> float:
    """|LHS - RHS| of the identity tying the orbit function to E sums."""
    lam, mu, nu = t
    x, y, z = p
    lhs = eval_EW((lam - mu, mu - nu, nu), (x - y, y - z, 2 * z))
    rhs = 0j
    for w in generate_tilde_we():
        rhs += eval_E(t, w @ np.asarray(p, dtype=float))
    return abs(lhs - rhs)
