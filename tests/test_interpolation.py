import cmath
import dataclasses
import inspect
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from altexp import interpolation, verify
from altexp.domain import GridSpec, domain_table, rotations
from altexp.functions import eval_E
from altexp.interpolation import (InterpolantAlt, alt_interpolate_direct, eval_psi_alt,
                                  eval_psi_alt_tensor)
from altexp.oracles import (adft_forward_naive, remap_beta_to_c, remap_index,
                            std_coefficient_cube)
from altexp.transform import CoefficientSet, ParityError, SampleSet, _forward, adft_forward
from altexp.verify import check_remap_vs_direct, check_std_extension


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
    m = interp.coeffs.m
    cube = np.zeros((2 * m + 1,) * 3, dtype=complex)
    for t, c in zip(domain_table(-m, m).index.tolist(), interp.coeffs.values):
        for k, l, mm in rotations(t):
            cube[k + m, l + m, mm + m] += c
    return cube


def psi_direct(terms, p, period):
    """Oracle: sum of c e^{2 pi i (k x + l y + m z) / T} over (c, (k, l, m)) terms."""
    x, y, z = (float(c) / period for c in p)
    return sum(c * cmath.exp(2j * cmath.pi * (k * x + l * y + m * z))
               for c, (k, l, m) in terms)


def test_constant_interpolates_to_third():
    g = GridSpec(0, 0.5, 3)
    interp = alt_interpolate_direct(SampleSet.from_function(g, lambda p: 1.0))
    i = domain_table(-1, 1).index.tolist().index([0, 0, 0])
    assert interp.coeffs.values[i] == pytest.approx(1 / 3, abs=1e-13)
    others = np.delete(interp.coeffs.values, i)
    assert max(abs(v) for v in others) < 1e-13
    assert eval_psi_alt(interp, (0.123, 0.456, 0.789)) == pytest.approx(1.0, abs=1e-12)


def test_basis_function_gives_delta_coefficients():
    g = GridSpec(0, 0.5, 5)
    t0 = (1, 2, -1)
    keys = list(map(tuple, domain_table(-2, 2).index.tolist()))
    assert t0 in keys
    interp = alt_interpolate_direct(SampleSet.from_function(g, lambda p: eval_E(t0, p)))
    for k, v in zip(keys, interp.coeffs.values):
        assert v == pytest.approx(1.0 if k == t0 else 0.0, abs=1e-11)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_coefficient_count_formula(m):
    n = 2 * m + 1
    count = GridSpec(0, 0, n).point_count
    assert count == n * (4 * m * m + 4 * m + 3) // 3
    assert count == len(domain_table(-m, m).index)
    assert count == len(domain_table(0, n - 1).index)  # degrees of freedom match constraints


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_grid_residual(n):
    g = GridSpec(0, 0.5, n)
    s = random_samples(g, seed=n)
    interp = alt_interpolate_direct(s)
    resid = np.abs(eval_psi_alt(interp, g.points()) - s.as_array())
    assert resid.max() < 1e-11


@pytest.mark.parametrize("build", [
    lambda s: CoefficientSet(s.grid, "c_alt", s.values),
    alt_interpolate_direct,
    lambda s: adft_forward_naive(s, role="c_alt"),
    lambda s: remap_beta_to_c(adft_forward(s)),
], ids=["CoefficientSet", "alt_interpolate_direct", "adft_forward_naive", "remap_beta_to_c"])
def test_even_n_rejected(build):
    # every route onto D(-M, M) meets the odd-N rule as the one ParityError
    with pytest.raises(ParityError, match="N=4"):
        build(random_samples(GridSpec(0, 0.5, 4)))


@pytest.mark.parametrize("n", [3, 5, 7])
def test_remap_equals_direct(n):
    g = GridSpec(0.13, 0.81, n)
    s = random_samples(g, seed=40 + n)
    direct = alt_interpolate_direct(s).coeffs
    remapped = remap_beta_to_c(adft_forward(s))
    for d, r in zip(direct.values, remapped.values, strict=True):
        assert abs(d - r) < 1e-12
    naive = adft_forward_naive(s, role="c_alt")
    assert np.abs(direct.values - naive.values).max() < 1e-12


def test_remap_index_matches_literal_table():
    for big_m in (1, 2, 3):
        for t in domain_table(-big_m, big_m).index.tolist():
            assert remap_index(t, big_m) == paper_remap_table(*t, big_m)


@pytest.mark.parametrize("big_m", [1, 2, 3])
def test_remap_regions_partition_domain(big_m):
    # the remap must hit every forward-transform index exactly once
    n = 2 * big_m + 1
    images = [remap_index(t, big_m) for t in domain_table(-big_m, big_m).index.tolist()]
    assert sorted(images) == list(map(tuple, domain_table(0, n - 1).index.tolist()))


def test_remap_is_identity_on_nonnegative_region():
    big_m = 2
    for t in map(tuple, domain_table(0, big_m).index.tolist()):
        assert remap_index(t, big_m) == t


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
def test_remap_matches_per_key_formula(n):
    # the per-key remap: remap_index plus the lattice phase e^{2 pi i N (a/T + b/N)}
    # per lifted entry, reduced mod 1 in rational arithmetic
    big_m = n // 2
    src = {t: i for i, t in enumerate(map(tuple, domain_table(0, n - 1).index.tolist()))}
    for a in (0.31, 10000.31):
        g = GridSpec(a, 0.37, n, 1.7)
        beta = adft_forward(random_samples(g, seed=60 + n))
        phase = float(n * (Fraction(g.a) / Fraction(g.period) + Fraction(g.b) / n) % 1)
        want = [cmath.exp(2j * cmath.pi * (phase * sum(c < 0 for c in t)))
                * beta.values[src[remap_index(t, big_m)]]
                for t in domain_table(-big_m, big_m).index.tolist()]
        got = remap_beta_to_c(beta).values
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


def float_phase_remap(c):
    """The remap with its phase per lifted entry, N a/T + b, taken in doubles."""
    out = CoefficientSet(c.grid, "c_alt", np.empty(c.grid.point_count, dtype=complex))
    n, idx = c.grid.n, out.table.index
    lifted = idx < 0
    cycles = (n * c.grid.a / c.grid.period + c.grid.b) * lifted.sum(axis=1)
    src = c.table.pos[tuple((idx + n * lifted).T)]
    out.values[:] = np.exp(2j * np.pi * cycles) * c.values[src]
    return out


@pytest.mark.parametrize("a", [10000.31, 1e6 + 0.31])
@pytest.mark.parametrize("n", [3, 5, 7])
def test_remap_is_exact_at_large_shifts(n, a):
    # 1.1e-16 to 5.8e-16 here; float_phase_remap reads 3.8e-12 to 1.2e-9
    s = random_samples(GridSpec(a, 0.37, n), seed=n)
    gap = alt_interpolate_direct(s).coeffs.values - remap_beta_to_c(adft_forward(s)).values
    assert np.abs(gap).max() <= 1e-14


def test_remap_check_fails_float_phases(monkeypatch):
    # 1e-11 to 2.8e-11 at the check's shift of 1e4 (seeds 0-49), against its 1e-12
    monkeypatch.setattr(verify, "remap_beta_to_c", float_phase_remap)
    assert not check_remap_vs_direct(np.random.default_rng(0)).passed


def test_lattice_parameters_live_on_the_grid():
    # N, a, b and T are stored once, on the grid; M and the period are derived
    names = {cls: tuple(f.name for f in dataclasses.fields(cls))
             for cls in (CoefficientSet, InterpolantAlt)}
    assert names == {CoefficientSet: ("grid", "role", "values"), InterpolantAlt: ("coeffs",)}
    assert list(inspect.signature(remap_beta_to_c).parameters) == ["c"]
    g = GridSpec(0.31, 0.37, 7, 1.7)
    interp = alt_interpolate_direct(random_samples(g, seed=61))
    assert (interp.grid, interp.coeffs.m) == (g, 3)
    assert adft_forward(random_samples(g, seed=62)).m is None
    with pytest.raises(ValueError, match="odd N"):     # no M for an even N
        CoefficientSet(GridSpec(0, 0.5, 4), "c_alt", np.ones(11, dtype=complex))


def test_remap_even_n_rejected():
    # M comes from the grid, so an even N has no D(-M, M) to remap onto
    for n in (2, 6):
        beta = adft_forward(random_samples(GridSpec(0, 0, n)))
        with pytest.raises(ParityError, match=f"N={n}"):
            remap_beta_to_c(beta)


def test_remap_refuses_c_alt():
    # the remap reads forward-transform output; a c_alt set is already remapped
    c_alt = alt_interpolate_direct(random_samples(GridSpec(0.31, 0.37, 5)))
    with pytest.raises(ValueError, match="remap needs role 'beta', got 'c_alt'"):
        remap_beta_to_c(c_alt.coeffs)


def test_eval_psi_zero_and_delta():
    g = GridSpec(0, 0, 3)
    interp = alt_interpolate_direct(SampleSet.from_function(g, lambda p: 0.0))
    assert eval_psi_alt(interp, (0.3, 0.7, 0.1)) == 0
    interp.coeffs.values[domain_table(-1, 1).index.tolist().index([0, 0, 0])] = 0.5
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
    # both reduce their coordinates mod 1 alike, and agree to 1e-15 here; with
    # unreduced tensor coordinates they were 4.3e-13 apart at shift 100.31 and
    # 3.5e-11 at 10000.31
    for shift in (0.0, 100.31, 10000.31):
        xs, ys, zs = (shift + np.linspace(0, 1, n) for n in (4, 3, 5))
        grid = np.stack(np.meshgrid(xs, ys, zs, indexing="ij"), axis=-1)
        for a, b, n in ((0, 0.5, 5), (0.31, 0.37, 3), (-0.6, 0.83, 7)):
            interp = alt_interpolate_direct(random_samples(GridSpec(a + shift, b, n), seed=52))
            assert np.array_equal(interp.coeffs._dense_cube(), dense_exponents_loop(interp))
            tensor = eval_psi_alt_tensor(interp, xs, ys, zs)
            assert np.abs(tensor - eval_psi_alt(interp, grid)).max() < 1e-12


@pytest.mark.parametrize("g", [GridSpec(0.31, 0.37, 5), GridSpec(-0.6, 0.83, 3, period=2.5)],
                         ids=["shifted", "period-2.5"])
def test_eval_psi_matches_direct_sum(g):
    rng = np.random.default_rng(56)
    pts = rng.uniform(-3.0, 4.0, (12, 3)) * g.period
    pts[:4] = rng.uniform(0.0, 1.0, (4, 3)) * g.period
    alt = alt_interpolate_direct(random_samples(g, seed=57))
    terms = [(c, r) for t, c in zip(alt.coeffs.table.index.tolist(), alt.coeffs.values)
             for r in rotations(t)]
    oracle = np.array([psi_direct(terms, p, g.period) for p in pts])
    assert np.abs(eval_psi_alt(alt, pts) - oracle).max() < 1e-12
    assert eval_psi_alt(alt, tuple(pts[5])) == pytest.approx(oracle[5], abs=1e-12)


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
    cube = std_coefficient_cube(g, np.ones((3, 3, 3)))
    assert cube[1, 1, 1] == pytest.approx(1.0, abs=1e-13)
    assert np.abs(cube).sum() == pytest.approx(1.0, abs=1e-12)

    coords = g._axis()
    xx, yy, zz = np.meshgrid(coords, coords, coords, indexing="ij")
    k0 = (1, -1, 0)
    f = np.exp(2j * np.pi * (k0[0] * xx + k0[1] * yy + k0[2] * zz))
    expected = np.zeros((3, 3, 3))
    expected[k0[0] + 1, k0[1] + 1, k0[2] + 1] = 1.0
    assert np.abs(std_coefficient_cube(g, f) - expected).max() < 1e-12


def test_std_interpolation_grid_residual():
    rng = np.random.default_rng(53)
    g = GridSpec(0.2, 0.3, 3)
    f = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
    cube = std_coefficient_cube(g, f)
    terms = [(cube[k + 1, l + 1, m + 1], (k, l, m))
             for k in range(-1, 2) for l in range(-1, 2) for m in range(-1, 2)]
    coords = g._axis()
    for r in range(3):
        for s in range(3):
            for t in range(3):
                v = psi_direct(terms, (coords[r], coords[s], coords[t]), g.period)
                assert v == pytest.approx(f[r, s, t], abs=1e-11)


def test_std_even_n_rejected():
    with pytest.raises(ParityError):
        std_coefficient_cube(GridSpec(0, 0, 2), np.ones((2, 2, 2)))


def test_std_wrong_sample_shape_rejected():
    with pytest.raises(ValueError, match=r"expected samples of shape \(3, 3, 3\), got \(3, 3\)"):
        std_coefficient_cube(GridSpec(0, 0, 3), np.ones((3, 3)))


def sample_weight_one(s, role):
    return _forward(SampleSet(s.grid, s.values * s.table.weight), role)


def output_weight_one(s, role):
    out = _forward(s, role)
    out.values *= out.table.weight
    return out


@pytest.mark.parametrize("target, name, fault", [
    (interpolation, "_forward", sample_weight_one),
    (interpolation, "_forward", output_weight_one),
    (CoefficientSet, "_dense_cube", lambda c: c.values[c.table.pos]),
], ids=["forward-sample-weight-1", "forward-output-weight-1", "dense-cube-without-weight"])
def test_std_extension_catches_a_wrong_weight(monkeypatch, target, name, fault):
    # each fault reads 3e-2 or more at N = 61, against 1e-13 when clean
    monkeypatch.setattr(target, name, fault)
    assert not check_std_extension(np.random.default_rng(0)).passed


def test_std_extension_catches_a_wrong_shift(monkeypatch):
    # the standard cube takes the float axis, not GridSpec._shift: a shift without
    # b/N reads 1.2 to 1.9 (seeds 0-9), against 1e-13 when clean
    def shift_without_offset(g):    # a/T alone
        s = Fraction(g.a) / Fraction(g.period)
        return s.numerator, s.denominator

    monkeypatch.setattr(GridSpec, "_shift", shift_without_offset)
    assert not check_std_extension(np.random.default_rng(0)).passed


def test_period_grid_consistency():
    # interpolating period-2 samples matches interpolating the unit pullback
    rng = np.random.default_rng(55)
    g2 = GridSpec(0, 0.5, 3, period=2.0)
    f = rng.normal(size=g2.point_count)
    g1 = GridSpec(0, 0.5, 3, period=1.0)
    i2 = alt_interpolate_direct(SampleSet.from_array(g2, f))
    i1 = alt_interpolate_direct(SampleSet.from_array(g1, f))
    p = (0.62, 1.38, 0.25)
    assert eval_psi_alt(i2, p) == pytest.approx(eval_psi_alt(i1, np.divide(p, 2.0)), abs=1e-12)
    resid = [abs(eval_psi_alt(i2, p) - v) for p, v in zip(g2.points(), f)]
    assert max(resid) < 1e-11
