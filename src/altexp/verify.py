"""Numerical verification of every algebraic identity the library relies on.

Each check draws seeded random instances, evaluates both sides of an
identity and reports the worst residual against a fixed tolerance.  The
CLI ``verify`` command and the acceptance tests both run through here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from mpmath import mp

from . import c3
from .domain import GridSpec, domain_size, domain_table, rotations
from .functions import (eval_E, operator_eigenvalue, point_product_identity,
                        product_indices, shift_phase)
from .interpolation import alt_interpolate_direct, remap_beta_to_c
from .transform import SampleSet, adft_forward, adft_forward_naive, discrete_gram

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


def _random_labels(rng, count, bound=4, integer=False):
    if integer:
        return rng.integers(-bound, bound + 1, size=(count, 3))
    return rng.uniform(-bound, bound, size=(count, 3))


def check_cyclic_symmetry(rng, trials=100) -> CheckResult:
    worst = 0.0
    for t in _random_labels(rng, trials):
        p = rng.uniform(-1, 1, 3)
        x, y, z = p
        base = eval_E(t, p)
        for q in ((z, x, y), (y, z, x)):
            worst = max(worst, abs(eval_E(t, q) - base))
        for tr in rotations(t):
            worst = max(worst, abs(eval_E(tr, p) - base))
    return CheckResult("cyclic_symmetry", worst, 1e-13)


def check_periodicity(rng, trials=100) -> CheckResult:
    worst = 0.0
    for t in _random_labels(rng, trials, integer=True):
        p = rng.uniform(-1, 1, 3)
        shift = rng.integers(-50, 50, 3)
        worst = max(worst, abs(eval_E(t, p + shift) - eval_E(t, p)))
    return CheckResult("periodicity", worst, 1e-12)


def check_diagonal_shift(rng, trials=100) -> CheckResult:
    worst = 0.0
    for t in _random_labels(rng, trials, integer=True):
        p = rng.uniform(-1, 1, 3)
        a = rng.uniform(-2, 2)
        lhs = eval_E(t, p + a)
        rhs = shift_phase(t, a) * eval_E(t, p)
        worst = max(worst, abs(lhs - rhs))
    return CheckResult("diagonal_shift", worst, 1e-12)


def check_product_labels(rng, trials=100) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        t, tp = _random_labels(rng, 2)
        p = rng.uniform(-1, 1, 3)
        lhs = eval_E(t, p) * eval_E(tp, p)
        rhs = sum(eval_E(term, p) for term in product_indices(t, tp))
        worst = max(worst, abs(lhs - rhs))
    return CheckResult("product_to_sum_labels", worst, 1e-12)


def check_product_points(rng, trials=100) -> CheckResult:
    worst = 0.0
    for t in _random_labels(rng, trials):
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


def check_operator_eigenvalues(rng, trials=20) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        # Nonzero integer labels keep every sigma_k eigenvalue away from 0.
        t = rng.integers(1, 4, 3) * rng.choice([-1, 1], 3)
        p = rng.uniform(-1, 1, 3)
        e = eval_E(t, p)
        if abs(e) < 0.5:
            continue
        for k in (1, 2, 3):
            fd = _fd_sigma_apply(k, t, p, FD_STEP)
            expected = operator_eigenvalue(k, t) * e
            worst = max(worst, abs(fd - expected) / abs(expected))
    return CheckResult("operator_eigenvalues", worst, 1e-4)


def check_discrete_orthogonality(rng, n_max=8, shifts=5) -> CheckResult:
    worst = 0.0
    for n in range(1, n_max + 1):
        pairs = [(0.0, 0.0)] + [(rng.uniform(-1, 1), rng.uniform(0, 1))
                                for _ in range(shifts - 1)]
        target = np.diag(domain_table(0, n - 1).weight.astype(float))
        for a, b in pairs:
            gram = discrete_gram(GridSpec(a, b, n)) / n ** 3
            worst = max(worst, float(np.abs(gram - target).max()))
    return CheckResult("discrete_orthogonality", worst, 1e-9)


def check_symmetrization(rng, trials=100) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        t = rng.uniform(-4, 4, 3)
        p = rng.uniform(-1, 1, 3)
        worst = max(worst, c3.symmetrization_residual(t, p))
    return CheckResult("c3_symmetrization", worst, 1e-10)


def check_tilde_we_order(rng=None) -> CheckResult:
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


def check_ew_expanded(rng, trials=20) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        lam, mu, nu = rng.uniform(-3, 3, 3)
        x, y, z = rng.uniform(-1, 1, 3)
        lhs = c3.eval_EW((lam - mu, mu - nu, nu), (x - y, y - z, 2 * z))
        rhs = c3.eval_EW_expanded((lam, mu, nu), (x, y, z))
        worst = max(worst, abs(lhs - rhs))
    return CheckResult("c3_ew_expanded_form", worst, 1e-11)


def _random_samples(rng, n: int) -> SampleSet:
    """Gaussian complex samples on a randomly shifted lattice of density n."""
    g = GridSpec(rng.uniform(-1, 1), rng.uniform(0, 1), n)
    return SampleSet.from_array(g, rng.normal(size=domain_size(n))
                                + 1j * rng.normal(size=domain_size(n)))


def check_forward_vs_naive(rng) -> CheckResult:
    worst = 0.0
    for n in (1, 2, 5, 6):
        s = _random_samples(rng, n)
        gap = np.abs(adft_forward(s).values - adft_forward_naive(s).values)
        worst = max(worst, float(gap.max()))
    return CheckResult("forward_vs_naive", worst, 1e-12)


def check_remap_vs_direct(rng, inject_fault=False) -> CheckResult:
    worst = 0.0
    for n in (3, 5, 7):
        m = (n - 1) // 2
        s = _random_samples(rng, n)
        direct = alt_interpolate_direct(s).coeffs
        beta = adft_forward(s)
        if inject_fault:
            beta.values[1] += 0.01
        remapped = remap_beta_to_c(beta, m)
        worst = max(worst, float(np.abs(direct.values - remapped.values).max()))
    return CheckResult("remap_vs_direct", worst, 1e-12)


ALL_CHECKS = {
    "identities": [check_cyclic_symmetry, check_periodicity, check_diagonal_shift,
                   check_product_labels, check_product_points,
                   check_operator_eigenvalues],
    "transform": [check_discrete_orthogonality, check_forward_vs_naive],
    "interpolation": [check_remap_vs_direct],
    "c3": [check_symmetrization, check_tilde_we_order, check_orbit_table,
           check_ew_expanded],
}


def run_suite(suite: str = "all", seed: int = 0, inject_fault: bool = False) -> list:
    """Run one named suite (or all of them); returns CheckResult list."""
    if suite != "all" and suite not in ALL_CHECKS:
        raise ValueError(f"unknown verification suite {suite!r}")
    results = []
    for name in ALL_CHECKS if suite == "all" else [suite]:
        for check in ALL_CHECKS[name]:
            fault = {"inject_fault": inject_fault} if check is check_remap_vs_direct else {}
            results.append(check(np.random.default_rng(seed), **fault))
    return results
