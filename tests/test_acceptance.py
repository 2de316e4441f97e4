"""Acceptance gate: one test per release criterion, one printed line each."""

import time

import numpy as np
import pytest

from altexp.domain import (GridSpec, domain_size, enumerate_domain,
                           grid_points, weight_g)
from altexp.functions import eval_E
from altexp.interpolation import (alt_coefficient_count,
                                  alt_interpolate_direct,
                                  alt_interpolate_remap, eval_psi_alt)
from altexp.quadrature import (BumpParams, bump, continuous_gram_entry,
                               interpolation_error)
from altexp.transform import SampleSet, adft_forward, adft_inverse, discrete_gram
from altexp.verify import (check_cyclic_symmetry, check_diagonal_shift,
                           check_operator_eigenvalues, check_periodicity,
                           check_product_labels, check_product_points,
                           check_symmetrization)
from altexp import c3

N3_POINTS = [
    (0, 0, 0), (1 / 3, 0, 0), (1 / 3, 1 / 3, 0), (1 / 3, 1 / 3, 1 / 3),
    (1 / 3, 2 / 3, 0), (2 / 3, 0, 0), (2 / 3, 1 / 3, 0),
    (2 / 3, 1 / 3, 1 / 3), (2 / 3, 2 / 3, 0), (2 / 3, 2 / 3, 1 / 3),
    (2 / 3, 2 / 3, 2 / 3),
]

FA = BumpParams(0.1, 0.2, (0.75, 0.75, 0.25))
TABLE_TARGETS = {7: 266649e-8, 15: 39178e-8, 31: 2388e-8}


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} [{name}] {status} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_discrete_orthogonality():
    t0 = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0
    for n in range(1, 9):
        keys = enumerate_domain(0, n - 1)
        target = np.diag([float(weight_g(t)) for t in keys])
        for a, b in [(0.0, 0.0)] + [(rng.uniform(-1, 1), rng.uniform(0, 1))
                                    for _ in range(4)]:
            gram = discrete_gram(GridSpec(a, b, n)) / n ** 3
            worst = max(worst, float(np.abs(gram - target).max()))
    elapsed = time.time() - t0
    report(1, "discrete orthogonality",
           worst < 1e-9 and elapsed < 10,
           f"max |gram/N^3 - diag(G)| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_grid_combinatorics():
    t0 = time.time()
    counts_ok = all(len(enumerate_domain(0, n - 1)) == n * (n * n + 2) // 3
                    for n in range(1, 21))
    pts = [p for _, p in grid_points(GridSpec(0, 0, 3))]
    pts_ok = len(pts) == 11 and all(
        max(abs(a - b) for a, b in zip(p, q)) < 1e-15
        for p, q in zip(pts, N3_POINTS))
    elapsed = time.time() - t0
    report(2, "grid combinatorics", counts_ok and pts_ok and elapsed < 1,
           f"counts N=1..20 and the 11 reference points, {elapsed:.2f}s")


def test_criterion_3_round_trip():
    t0 = time.time()
    rng = np.random.default_rng(3)
    worst = 0.0
    for n in (2, 3, 5, 7, 9):
        g = GridSpec(rng.uniform(-1, 1), rng.uniform(0, 1), n)
        f = rng.normal(size=domain_size(n)) + 1j * rng.normal(size=domain_size(n))
        back = adft_inverse(adft_forward(SampleSet.from_array(g, f)))
        worst = max(worst, float(np.abs(back.as_array() - f).max()))
    elapsed = time.time() - t0
    report(3, "transform round trip", worst < 1e-10 and elapsed < 5,
           f"max residual = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_interpolation():
    t0 = time.time()
    rng = np.random.default_rng(4)
    worst_grid, worst_remap = 0.0, 0.0
    for n in (3, 5, 7):
        g = GridSpec(rng.uniform(-1, 1), rng.uniform(0, 1), n)
        f = rng.normal(size=domain_size(n)) + 1j * rng.normal(size=domain_size(n))
        s = SampleSet.from_array(g, f)
        direct = alt_interpolate_direct(s)
        remapped = alt_interpolate_remap(s)
        pts = np.array([g.point(rst) for rst in enumerate_domain(0, n - 1)])
        worst_grid = max(worst_grid,
                         float(np.abs(eval_psi_alt(direct, pts) - f).max()))
        worst_remap = max(worst_remap,
                          max(abs(d - r) for d, r in zip(direct.coeffs.values,
                                                         remapped.coeffs.values,
                                                         strict=True)))
    counts_ok = all(
        alt_coefficient_count(m) == (2 * m + 1) * (4 * m * m + 4 * m + 3) // 3
        and alt_coefficient_count(m) == len(enumerate_domain(-m, m))
        for m in (1, 2, 3))
    elapsed = time.time() - t0
    report(4, "interpolation proposition",
           worst_grid < 1e-11 and worst_remap < 1e-12 and counts_ok
           and elapsed < 10,
           f"grid residual {worst_grid:.2e}, remap gap {worst_remap:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_5_identity_suite():
    t0 = time.time()
    rng = np.random.default_rng(5)
    residuals = {
        "cyclic": check_cyclic_symmetry(rng, trials=100).residual,
        "periodicity": check_periodicity(rng, trials=100).residual,
        "shift": check_diagonal_shift(rng, trials=100).residual,
        "product_labels": check_product_labels(rng, trials=100).residual,
        "product_points": check_product_points(rng, trials=100).residual,
        "symmetrization": check_symmetrization(rng, trials=100).residual,
    }
    worst = max(residuals.values())
    order_ok = len(c3.generate_tilde_we()) == 8
    v = rng.normal(size=3)
    orbit_ok = ({tuple(np.round(w, 10)) for w in c3.we_orbit(v)}
                == {tuple(np.round(w, 10)) for w in c3.reflection_orbit(v)})
    elapsed = time.time() - t0
    report(5, "identity suite",
           worst < 1e-10 and order_ok and orbit_ok and elapsed < 5,
           f"worst residual {worst:.2e}, subgroup order 8: {order_ok}, "
           f"orbit match: {orbit_ok}, {elapsed:.1f}s")


def test_criterion_6_differential_operators():
    t0 = time.time()
    rng = np.random.default_rng(6)
    worst = check_operator_eigenvalues(rng, trials=20).residual
    elapsed = time.time() - t0
    report(6, "differential operators", worst < 1e-4 and elapsed < 5,
           f"worst relative error {worst:.2e}, {elapsed:.1f}s")


@pytest.mark.parametrize("n", [7, 15, 31])
def test_criterion_7_error_table(n):
    t0 = time.time()
    f = lambda pts: bump(FA, pts)
    g = GridSpec(0, 0.5, n)
    s = SampleSet.from_function(g, lambda p: complex(f(np.asarray(p))))
    quad_n = 256 if n == 31 else 128
    err = interpolation_error(f, alt_interpolate_direct(s), quad_n)
    target = TABLE_TARGETS[n]
    rel = abs(err - target) / target
    elapsed = time.time() - t0
    report(7, f"error table N={n}", rel < 0.10,
           f"error {err:.4e} vs {target:.4e} (rel {rel:.3f}), {elapsed:.1f}s")


def test_criterion_8_continuous_orthogonality():
    t0 = time.time()
    keys = enumerate_domain(0, 2)
    worst_off, worst_diag = 0.0, 0.0
    for i, t in enumerate(keys):
        for tp in keys[i:]:
            v = continuous_gram_entry(t, tp, 128)
            if t == tp:
                worst_diag = max(worst_diag, abs(v - weight_g(t)))
            else:
                worst_off = max(worst_off, abs(v))
    elapsed = time.time() - t0
    report(8, "continuous orthogonality",
           worst_off < 0.02 and elapsed < 60,
           f"max off-diagonal {worst_off:.3f}, max diagonal deviation "
           f"{worst_diag:.3f}, {elapsed:.1f}s")
