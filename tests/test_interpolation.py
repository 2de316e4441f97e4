import cmath
import tracemalloc

import numpy as np
import pytest

from altexp.domain import (GridSpec, domain_size, domain_table, enumerate_domain,
                           rotations)
from altexp.functions import eval_E
from altexp.interpolation import (InterpolantAlt, ParityError,
                                  alt_coefficient_count,
                                  alt_interpolate_direct,
                                  alt_interpolate_remap, eval_psi_alt,
                                  eval_psi_alt_tensor, eval_psi_std,
                                  remap_beta_to_c, remap_index,
                                  rescale_to_period, std_grid_points,
                                  std_interpolate)
from altexp.transform import SampleSet, adft_forward, adft_forward_naive


def paper_remap_table(k, l, m, big_m):
    """The six-case index table, transcribed literally for cross-checking."""
    n = 2 * big_m + 1
    if 0 <= k <= big_m and 0 <= l <= big_m and 0 <= m <= big_m:
        return (k, l, m)
    if 0 <= k <= big_m and 0 <= l <= big_m and k < l and -big_m <= m <= -1:
        return (l, m + n, k)
    if 0 <= k <= big_m and 0 <= l <= big_m and k >= l and -big_m <= m <= -1:
        return (m + n, k, l)
    if 0 <= k <= big_m and -big_m <= l <= -1:
        return (l + n, m + n, k)
    if -big_m <= k <= -1 and -big_m <= l <= -1:
        return (k + n, l + n, m + n)
    if -big_m <= k <= -1 and 0 <= l <= big_m:
        return (m + n, k + n, l)
    raise AssertionError((k, l, m))


def random_samples(grid, seed=0):
    rng = np.random.default_rng(seed)
    f = rng.normal(size=grid.point_count) + 1j * rng.normal(size=grid.point_count)
    return SampleSet.from_array(grid, f)


def dense_exponents_loop(interp):
    """Per-key oracle: each coefficient added onto its three label rotations."""
    m = interp.m
    cube = np.zeros((2 * m + 1,) * 3, dtype=complex)
    for t, c in zip(enumerate_domain(-m, m), interp.coeffs.values):
        for k, l, mm in rotations(t):
            cube[k + m, l + m, mm + m] += c
    return cube


def psi_direct(terms, p, period):
    """Oracle: sum of c e^{2 pi i (k x + l y + m z) / T} over (c, (k, l, m)) terms."""
    x, y, z = (float(c) / period for c in p)
    return sum(c * cmath.exp(2j * cmath.pi * (k * x + l * y + m * z))
               for c, (k, l, m) in terms)


def grid_point_array(grid):
    return np.array([grid.point(rst) for rst in enumerate_domain(0, grid.n - 1)])


def test_constant_interpolates_to_third():
    g = GridSpec(0, 0.5, 3)
    interp = alt_interpolate_direct(SampleSet.from_function(g, lambda p: 1.0))
    i = enumerate_domain(-1, 1).index((0, 0, 0))
    assert interp.coeffs.values[i] == pytest.approx(1 / 3, abs=1e-13)
    others = np.delete(interp.coeffs.values, i)
    assert max(abs(v) for v in others) < 1e-13
    assert eval_psi_alt(interp, (0.123, 0.456, 0.789)) == pytest.approx(1.0, abs=1e-12)


def test_basis_function_gives_delta_coefficients():
    g = GridSpec(0, 0.5, 5)
    t0 = (1, 2, -1)
    assert t0 in enumerate_domain(-2, 2)
    interp = alt_interpolate_direct(SampleSet.from_function(g, lambda p: eval_E(t0, p)))
    for k, v in zip(enumerate_domain(-2, 2), interp.coeffs.values):
        assert v == pytest.approx(1.0 if k == t0 else 0.0, abs=1e-11)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_coefficient_count_formula(m):
    n = 2 * m + 1
    count = alt_coefficient_count(m)
    assert count == n * (4 * m * m + 4 * m + 3) // 3
    assert count == len(enumerate_domain(-m, m))
    assert count == domain_size(n)  # degrees of freedom match constraints


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_grid_residual(n):
    g = GridSpec(0, 0.5, n)
    s = random_samples(g, seed=n)
    interp = alt_interpolate_direct(s)
    resid = np.abs(eval_psi_alt(interp, grid_point_array(g)) - s.as_array())
    assert resid.max() < 1e-11


def test_even_n_rejected():
    g = GridSpec(0, 0, 4)
    with pytest.raises(ParityError):
        alt_interpolate_direct(random_samples(g))


@pytest.mark.parametrize("n", [3, 5, 7])
def test_remap_equals_direct(n):
    g = GridSpec(0.13, 0.81, n)
    s = random_samples(g, seed=40 + n)
    direct = alt_interpolate_direct(s).coeffs
    remapped = alt_interpolate_remap(s).coeffs
    for d, r in zip(direct.values, remapped.values, strict=True):
        assert abs(d - r) < 1e-12
    naive = adft_forward_naive(s, domain_table(-(n // 2), n // 2))
    assert np.abs(direct.values - naive.values).max() < 1e-12


def test_remap_index_matches_literal_table():
    for big_m in (1, 2, 3):
        for t in enumerate_domain(-big_m, big_m):
            assert remap_index(t, big_m) == paper_remap_table(*t, big_m)


@pytest.mark.parametrize("big_m", [1, 2, 3])
def test_remap_regions_partition_domain(big_m):
    # the remap must hit every forward-transform index exactly once
    n = 2 * big_m + 1
    images = [remap_index(t, big_m) for t in enumerate_domain(-big_m, big_m)]
    assert sorted(images) == enumerate_domain(0, n - 1)


def test_remap_is_identity_on_nonnegative_region():
    big_m = 2
    for t in enumerate_domain(0, big_m):
        assert remap_index(t, big_m) == t


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
def test_remap_matches_per_key_formula(n):
    # the per-key remap: remap_index plus the scalar lattice phase
    big_m = n // 2
    g = GridSpec(0.31, 0.37, n, 1.7)
    beta = adft_forward(random_samples(g, seed=60 + n))
    src = {t: i for i, t in enumerate(enumerate_domain(0, n - 1))}
    want = [cmath.exp(2j * cmath.pi * ((n * g.a / g.period + g.b) * sum(c < 0 for c in t)))
            * beta.values[src[remap_index(t, big_m)]]
            for t in enumerate_domain(-big_m, big_m)]
    got = remap_beta_to_c(beta, big_m).values
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


def test_remap_dimension_mismatch():
    g = GridSpec(0, 0, 5)
    beta = adft_forward(random_samples(g))
    with pytest.raises(ValueError):
        remap_beta_to_c(beta, 1)


def test_eval_psi_zero_and_delta():
    g = GridSpec(0, 0, 3)
    interp = alt_interpolate_direct(SampleSet.from_function(g, lambda p: 0.0))
    assert eval_psi_alt(interp, (0.3, 0.7, 0.1)) == 0
    interp.coeffs.values[enumerate_domain(-1, 1).index((0, 0, 0))] = 0.5
    assert eval_psi_alt(interp, (0.9, -0.2, 0.4)) == pytest.approx(1.5, abs=1e-13)


def test_psi_inherits_cyclic_symmetry():
    g = GridSpec(0, 0.5, 5)
    interp = alt_interpolate_direct(random_samples(g, seed=50))
    rng = np.random.default_rng(51)
    for _ in range(20):
        x, y, z = rng.uniform(-1, 1, 3)
        a = eval_psi_alt(interp, (x, y, z))
        assert eval_psi_alt(interp, (z, x, y)) == pytest.approx(a, abs=1e-12)


def test_tensor_eval_matches_pointwise():
    xs, ys, zs = np.linspace(0, 1, 4), np.linspace(0, 1, 3), np.linspace(0, 1, 5)
    grid = np.stack(np.meshgrid(xs, ys, zs, indexing="ij"), axis=-1)
    for g in (GridSpec(0, 0.5, 5), GridSpec(0.31, 0.37, 3), GridSpec(-0.6, 0.83, 7)):
        interp = alt_interpolate_direct(random_samples(g, seed=52))
        assert np.array_equal(interp.dense_exponents(), dense_exponents_loop(interp))
        tensor = eval_psi_alt_tensor(interp, xs, ys, zs)
        assert np.abs(tensor - eval_psi_alt(interp, grid)).max() < 1e-12


@pytest.mark.parametrize("g", [GridSpec(0.31, 0.37, 5), GridSpec(-0.6, 0.83, 3, period=2.5)],
                         ids=["shifted", "period-2.5"])
def test_eval_psi_matches_direct_sum(g):
    rng = np.random.default_rng(56)
    pts = rng.uniform(-3.0, 4.0, (12, 3)) * g.period
    pts[:4] = rng.uniform(0.0, 1.0, (4, 3)) * g.period
    alt = alt_interpolate_direct(random_samples(g, seed=57))
    alt_terms = [(c, r) for t, c in zip(enumerate_domain(-alt.m, alt.m), alt.coeffs.values)
                 for r in rotations(t)]
    f = rng.normal(size=(g.n,) * 3) + 1j * rng.normal(size=(g.n,) * 3)
    std = std_interpolate(g, f)
    freqs = range(-std.m, std.m + 1)
    std_terms = [(std.coeffs[k + std.m, l + std.m, m + std.m], (k, l, m))
                 for k in freqs for l in freqs for m in freqs]
    for interp, evaluate, terms in ((alt, eval_psi_alt, alt_terms),
                                    (std, eval_psi_std, std_terms)):
        oracle = np.array([psi_direct(terms, p, g.period) for p in pts])
        assert np.abs(evaluate(interp, pts) - oracle).max() < 1e-12
        assert evaluate(interp, tuple(pts[5])) == pytest.approx(oracle[5], abs=1e-12)


def test_eval_psi_alt_memory_linear_in_points():
    # one k-plane at a time: O(points * (2M+1)), not O(points * (2M+1)^2)
    interp = alt_interpolate_direct(random_samples(GridSpec(0, 0.5, 31), seed=58))
    pts = np.random.default_rng(59).uniform(0.0, 1.0, (128 * 128, 3))
    tracemalloc.start()
    try:
        eval_psi_alt(interp, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_std_interpolation_constant_and_basis():
    g = GridSpec(0, 0.5, 3)
    interp = std_interpolate(g, np.ones((3, 3, 3)))
    assert interp.coeffs[1, 1, 1] == pytest.approx(1.0, abs=1e-13)
    assert np.abs(interp.coeffs).sum() == pytest.approx(1.0, abs=1e-12)

    coords = std_grid_points(g)
    xx, yy, zz = np.meshgrid(coords, coords, coords, indexing="ij")
    k0 = (1, -1, 0)
    f = np.exp(2j * np.pi * (k0[0] * xx + k0[1] * yy + k0[2] * zz))
    interp = std_interpolate(g, f)
    expected = np.zeros((3, 3, 3))
    expected[k0[0] + 1, k0[1] + 1, k0[2] + 1] = 1.0
    assert np.abs(interp.coeffs - expected).max() < 1e-12


def test_std_interpolation_grid_residual():
    rng = np.random.default_rng(53)
    g = GridSpec(0.2, 0.3, 3)
    f = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
    interp = std_interpolate(g, f)
    coords = std_grid_points(g)
    for r in range(3):
        for s in range(3):
            for t in range(3):
                v = eval_psi_std(interp, (coords[r], coords[s], coords[t]))
                assert v == pytest.approx(f[r, s, t], abs=1e-11)


def test_std_even_n_rejected():
    with pytest.raises(ParityError):
        std_interpolate(GridSpec(0, 0, 2), np.ones((2, 2, 2)))


def test_rescale_to_period():
    g = GridSpec(0, 0.5, 3)
    interp = alt_interpolate_direct(random_samples(g, seed=54))
    same = rescale_to_period(interp, 1.0)
    assert eval_psi_alt(same, (0.3, 0.1, 0.9)) == eval_psi_alt(interp, (0.3, 0.1, 0.9))
    doubled = rescale_to_period(interp, 2.0)
    assert eval_psi_alt(doubled, (1, 1, 1)) == pytest.approx(
        eval_psi_alt(interp, (0.5, 0.5, 0.5)), abs=1e-13)
    with pytest.raises(ValueError):
        rescale_to_period(interp, 0.0)


def test_period_grid_consistency():
    # interpolating period-2 samples matches interpolating the unit pullback
    rng = np.random.default_rng(55)
    f = rng.normal(size=domain_size(3))
    g2 = GridSpec(0, 0.5, 3, period=2.0)
    g1 = GridSpec(0, 0.5, 3, period=1.0)
    i2 = alt_interpolate_direct(SampleSet.from_array(g2, f))
    i1 = rescale_to_period(alt_interpolate_direct(SampleSet.from_array(g1, f)), 2.0)
    p = (0.62, 1.38, 0.25)
    assert eval_psi_alt(i2, p) == pytest.approx(eval_psi_alt(i1, p), abs=1e-12)
    resid = [abs(eval_psi_alt(i2, g2.point(rst)) - v)
             for rst, v in zip(enumerate_domain(0, 2), f)]
    assert max(resid) < 1e-11
