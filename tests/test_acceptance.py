"""Acceptance gate: one test per release criterion, one printed line each."""

import time

import numpy as np
import pytest

from altexp.domain import GridSpec, domain_table
from altexp.interpolation import alt_interpolate_direct, eval_psi_alt
from altexp.oracles import remap_beta_to_c
from altexp.quadrature import (BumpParams, bump, continuous_gram_entry,
                               interpolation_error)
from altexp.transform import SampleSet, adft_forward, adft_inverse
from altexp.verify import (check_cyclic_symmetry, check_diagonal_shift,
                           check_discrete_orthogonality,
                           check_operator_eigenvalues, check_orbit_table,
                           check_periodicity, check_product_labels,
                           check_product_points, check_symmetrization,
                           check_tilde_we_order)

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
    worst = check_discrete_orthogonality(np.random.default_rng(1)).residual
    elapsed = time.time() - t0
    report(1, "discrete orthogonality",
           worst < 1e-9 and elapsed < 10,
           f"max |gram/N^3 - diag(G)| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_grid_combinatorics():
    t0 = time.time()
    counts_ok = all(len(domain_table(0, n - 1).index) == n * (n * n + 2) // 3
                    for n in range(1, 21))
    pts = GridSpec(0, 0, 3).points().tolist()
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
        f = rng.normal(size=g.point_count) + 1j * rng.normal(size=g.point_count)
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
        f = rng.normal(size=g.point_count) + 1j * rng.normal(size=g.point_count)
        s = SampleSet.from_array(g, f)
        direct = alt_interpolate_direct(s)
        remapped = remap_beta_to_c(adft_forward(s))
        worst_grid = max(worst_grid,
                         float(np.abs(eval_psi_alt(direct, g.points()) - f).max()))
        worst_remap = max(worst_remap,
                          max(abs(d - r) for d, r in zip(direct.coeffs.values,
                                                         remapped.values,
                                                         strict=True)))
    counts_ok = all(
        GridSpec(0, 0, 2 * m + 1).point_count == (2 * m + 1) * (4 * m * m + 4 * m + 3) // 3
        and GridSpec(0, 0, 2 * m + 1).point_count == len(domain_table(-m, m).index)
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
        "cyclic": check_cyclic_symmetry(rng).residual,
        "periodicity": check_periodicity(rng).residual,
        "shift": check_diagonal_shift(rng).residual,
        "product_labels": check_product_labels(rng).residual,
        "product_points": check_product_points(rng).residual,
        "symmetrization": check_symmetrization(rng).residual,
    }
    worst = max(residuals.values())
    order_ok = check_tilde_we_order(rng).passed
    orbit_ok = check_orbit_table(rng).passed   # takes the rng.normal(size=3) draw
    elapsed = time.time() - t0
    report(5, "identity suite",
           worst < 1e-10 and order_ok and orbit_ok and elapsed < 5,
           f"worst residual {worst:.2e}, subgroup order 8: {order_ok}, "
           f"orbit match: {orbit_ok}, {elapsed:.1f}s")


def test_criterion_6_differential_operators():
    t0 = time.time()
    rng = np.random.default_rng(6)
    worst = check_operator_eigenvalues(rng).residual
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
    table = domain_table(0, 2)
    keys = list(map(tuple, table.index.tolist()))
    worst_off, worst_diag = 0.0, 0.0
    for i, t in enumerate(keys):
        for tp in keys[i:]:
            v = continuous_gram_entry(t, tp, 128)
            if t == tp:
                worst_diag = max(worst_diag, abs(v - table.weight[i]))
            else:
                worst_off = max(worst_off, abs(v))
    elapsed = time.time() - t0
    report(8, "continuous orthogonality",
           worst_off < 0.02 and elapsed < 60,
           f"max off-diagonal {worst_off:.3f}, max diagonal deviation "
           f"{worst_diag:.3f}, {elapsed:.1f}s")
