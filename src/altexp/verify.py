"""Numerical verification of every algebraic identity the library relies on.

Every check is ``check(rng) -> CheckResult``: it draws seeded random
instances, evaluates both sides of an identity and reports the worst
residual against a fixed tolerance.  A false identity, the C_3 subgroup
order and orbit table included, fails its check; nothing asserts it.  The
CLI ``verify`` command and the acceptance tests both run through here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from mpmath import mp

from . import c3
from .domain import GridSpec, rotations
from .functions import (eval_E, operator_eigenvalue, point_product_identity,
                        product_indices, shift_phase)
from .interpolation import alt_interpolate_direct
from .oracles import adft_forward_naive, discrete_gram, remap_beta_to_c, std_coefficient_cube
from .transform import SampleSet, adft_forward

FD_STEP = 1e-3  # central-difference step for the operator checks


@dataclass
class CheckResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual < self.tolerance

    def as_dict(self) -> dict:
        return {"name": self.name, "residual": float(self.residual),
                "tolerance": self.tolerance, "pass": bool(self.passed)}


def _random_labels(rng, count, integer=False):
    if integer:
        return rng.integers(-4, 5, size=(count, 3))
    return rng.uniform(-4, 4, size=(count, 3))


def check_cyclic_symmetry(rng) -> CheckResult:
    worst = 0.0
    for t in _random_labels(rng, 100):
        p = rng.uniform(-1, 1, 3)
        x, y, z = p
        base = eval_E(t, p)
        for q in ((z, x, y), (y, z, x)):
            worst = max(worst, abs(eval_E(t, q) - base))
        for tr in rotations(t):
            worst = max(worst, abs(eval_E(tr, p) - base))
    return CheckResult("cyclic_symmetry", worst, 1e-13)


def check_periodicity(rng) -> CheckResult:
    worst = 0.0
    for t in _random_labels(rng, 100, integer=True):
        p = rng.uniform(-1, 1, 3)
        shift = rng.integers(-50, 50, 3)
        worst = max(worst, abs(eval_E(t, p + shift) - eval_E(t, p)))
    return CheckResult("periodicity", worst, 1e-12)


def check_diagonal_shift(rng) -> CheckResult:
    worst = 0.0
    for t in _random_labels(rng, 100, integer=True):
        p = rng.uniform(-1, 1, 3)
        a = rng.uniform(-2, 2)
        lhs = eval_E(t, p + a)
        rhs = shift_phase(t, a) * eval_E(t, p)
        worst = max(worst, abs(lhs - rhs))
    return CheckResult("diagonal_shift", worst, 1e-12)


def check_product_labels(rng) -> CheckResult:
    worst = 0.0
    for _ in range(100):
        t, tp = _random_labels(rng, 2)
        p = rng.uniform(-1, 1, 3)
        lhs = eval_E(t, p) * eval_E(tp, p)
        rhs = sum(eval_E(term, p) for term in product_indices(t, tp))
        worst = max(worst, abs(lhs - rhs))
    return CheckResult("product_to_sum_labels", worst, 1e-12)


def check_product_points(rng) -> CheckResult:
    worst = 0.0
    for t in _random_labels(rng, 100):
        p = rng.uniform(-1, 1, 3)
        pp = rng.uniform(-1, 1, 3)
        worst = max(worst, point_product_identity(t, p, pp))
    return CheckResult("product_to_sum_points", worst, 1e-12)


def _eval_E_mp(t, p):
    two_pi_i = 2 * mp.pi * mp.mpc(0, 1)
    lam, mu, nu = (mp.mpf(float(c)) for c in t)
    x, y, z = p
    return (mp.exp(two_pi_i * (lam * x + mu * y + nu * z))
            + mp.exp(two_pi_i * (lam * z + mu * x + nu * y))
            + mp.exp(two_pi_i * (lam * y + mu * z + nu * x)))


def _fd_sigma_apply(k: int, t, p, h: float) -> complex:
    """sigma_k of the three 1D second-difference operators applied to E_t.

    Composed stencils cancel down to O(h^{2k}) of the input magnitude, so
    the sum is carried out in extended precision; the returned value still
    has the full O(h^2) truncation error of the central stencil.
    """
    stencil = [(-1, 1), (0, -2), (1, 1)]
    axes_sets = list(itertools.combinations(range(3), k))
    with mp.workdps(40):
        hh = mp.mpf(h)
        base = [mp.mpf(float(c)) for c in p]
        total = mp.mpc(0)
        for axes in axes_sets:
            for combo in itertools.product(stencil, repeat=len(axes)):
                q = list(base)
                w = 1
                for (off, wt), ax in zip(combo, axes):
                    q[ax] += off * hh
                    w *= wt
                total += w * _eval_E_mp(t, q)
        total /= hh ** (2 * k)
        return complex(total)


def check_operator_eigenvalues(rng) -> CheckResult:
    worst = 0.0
    for _ in range(20):
        # Nonzero integer labels keep every sigma_k eigenvalue away from 0.
        t = rng.integers(1, 4, 3) * rng.choice([-1, 1], 3)
        p = rng.uniform(-1, 1, 3)
        with mp.workdps(40):
            exact = complex(_eval_E_mp(t, p))
        if abs(exact) < 0.5:
            continue
        e = eval_E(t, p)
        for k in (1, 2, 3):
            lam = operator_eigenvalue(k, t)
            fd = _fd_sigma_apply(k, t, p, FD_STEP)
            worst = max(worst, abs(fd - lam * e) / abs(lam * exact))
    return CheckResult("operator_eigenvalues", worst, 1e-4)


def check_discrete_orthogonality(rng) -> CheckResult:
    worst = 0.0
    for n in range(1, 9):
        pairs = [(0.0, 0.0)] + [(rng.uniform(-1, 1), rng.uniform(0, 1))
                                for _ in range(4)]
        for a, b in pairs:
            g = GridSpec(a, b, n)
            defect = discrete_gram(g) / n ** 3 - np.diag(g.table.weight)
            worst = max(worst, float(np.abs(defect).max()))
    return CheckResult("discrete_orthogonality", worst, 1e-9)


def check_symmetrization(rng) -> CheckResult:
    worst = 0.0
    for _ in range(100):
        t = rng.uniform(-4, 4, 3)
        p = rng.uniform(-1, 1, 3)
        worst = max(worst, c3.symmetrization_residual(t, p))
    return CheckResult("c3_symmetrization", worst, 1e-10)


def check_tilde_we_order(rng) -> CheckResult:
    order = len(c3.generate_tilde_we())
    return CheckResult("c3_tilde_we_order", float(abs(order - 8)), 0.5)


def orbit_mismatch(orbit, other) -> float:
    """How far any point of either orbit lies from its nearest point in the
    other (max-norm); below tol, the orbits match point by point within tol."""
    a, b = np.array(list(orbit), dtype=float), np.array(list(other), dtype=float)
    dist = np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)
    return float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))


def check_orbit_table(rng) -> CheckResult:
    v = rng.normal(size=3)
    residual = orbit_mismatch(c3.we_orbit(v), c3.reflection_orbit(v))
    return CheckResult("c3_orbit_table_vs_reflections", residual, 1e-10)


def check_ew_expanded(rng) -> CheckResult:
    worst = 0.0
    for _ in range(20):
        lam, mu, nu = rng.uniform(-3, 3, 3)
        x, y, z = rng.uniform(-1, 1, 3)
        lhs = c3.eval_EW((lam - mu, mu - nu, nu), (x - y, y - z, 2 * z))
        rhs = c3.eval_EW_expanded((lam, mu, nu), (x, y, z))
        worst = max(worst, abs(lhs - rhs))
    return CheckResult("c3_ew_expanded_form", worst, 1e-11)


def _random_samples(rng, n: int, shift=None) -> SampleSet:
    """Gaussian complex samples on a lattice of density n, shifted by (a, b) or at random."""
    g = GridSpec(*(shift or (rng.uniform(-1, 1), rng.uniform(0, 1))), n)
    return SampleSet(g, rng.normal(size=g.point_count) + 1j * rng.normal(size=g.point_count))


def _forward_gap(sets) -> float:
    """The worst gap between the forward and the naive sum over the sample sets."""
    return max(float(np.abs(adft_forward(s).values - adft_forward_naive(s).values).max())
               for s in sets)


def check_forward_vs_naive(rng) -> CheckResult:
    sets = (_random_samples(rng, n) for n in (1, 2, 5, 6))
    return CheckResult("forward_vs_naive", _forward_gap(sets), 1e-12)


def check_large_shift(rng) -> CheckResult:
    # The naive sum reduces the coordinates mod 1 exactly: 4.7e-16 to 1.3e-15 at a
    # shift of 1e4 (seeds 0-49), where phases of rounded coordinates give 5e-12.
    sets = (_random_samples(rng, n, (10000.31, 0.37)) for n in (4, 5))
    return CheckResult("large_shift_forward", _forward_gap(sets), 1e-14)


def check_remap_vs_direct(rng) -> CheckResult:
    # exact lattice phases: 2.5e-16 to 7.8e-16 (seeds 0-49); phases of doubles: 1e-11 at 1e4
    worst = 0.0
    for shift, n in itertools.product((None, (10000.31, 0.37)), (3, 5, 7)):
        s = _random_samples(rng, n, shift)
        direct = alt_interpolate_direct(s).coeffs
        remapped = remap_beta_to_c(adft_forward(s))
        worst = max(worst, float(np.abs(direct.values - remapped.values).max()))
    return CheckResult("remap_vs_direct", worst, 1e-12)


def check_std_extension(rng) -> CheckResult:
    # On cyclically symmetric samples the alternating interpolant is the standard
    # N^3 one: the cubes differ by 1.2e-14 to 9.2e-14 (seeds 0-49), 3e-2 for a wrong G.
    n = 61
    g = GridSpec(rng.uniform(-1, 1), rng.uniform(0, 1), n, rng.uniform(0.3, 3))
    r = rng.normal(size=(n,) * 3) + 1j * rng.normal(size=(n,) * 3)
    f = r + r.transpose(2, 0, 1) + r.transpose(1, 2, 0)
    s = SampleSet(g, f[tuple(g.table.index.T)])
    std = std_coefficient_cube(g, f)
    gap = np.abs(alt_interpolate_direct(s).coeffs._dense_cube() - std).max()
    return CheckResult("std_extension", float(gap / np.abs(std).max()), 1e-12)


ALL_CHECKS = {
    "identities": [check_cyclic_symmetry, check_periodicity, check_diagonal_shift,
                   check_product_labels, check_product_points,
                   check_operator_eigenvalues],
    "transform": [check_discrete_orthogonality, check_forward_vs_naive, check_large_shift],
    "interpolation": [check_remap_vs_direct, check_std_extension],
    "c3": [check_symmetrization, check_tilde_we_order, check_orbit_table,
           check_ew_expanded],
}


def run_suite(suite: str = "all", seed: int = 0) -> list:
    """Run one named suite (or all of them); returns CheckResult list."""
    if suite != "all" and suite not in ALL_CHECKS:
        raise ValueError(f"unknown verification suite {suite!r}")
    results = []
    for name in ALL_CHECKS if suite == "all" else [suite]:
        for check in ALL_CHECKS[name]:
            results.append(check(np.random.default_rng(seed)))
    return results
