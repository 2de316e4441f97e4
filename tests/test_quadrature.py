import math
import tracemalloc
import warnings

import numpy as np
import pytest

from altexp.domain import GridSpec, domain_table, rotations
from altexp.functions import eval_E
from altexp.interpolation import (alt_interpolate_direct, eval_psi_alt,
                                  eval_psi_alt_tensor)
from altexp.quadrature import (BumpParams, _above, _midpoints, bump, continuous_gram_entry,
                               integrate_over_F, interpolation_error)
from altexp.transform import SampleSet

FA = BumpParams(0.1, 0.2, (0.75, 0.75, 0.25))


def bump_reference(params: BumpParams, p) -> float:
    """Oracle for ``bump``: r from ``np.sum`` over the last axis, and the
    rolloff assigned through masks on the whole array."""
    p = np.asarray(p, dtype=float)
    d = p - np.asarray(params.center, dtype=float)
    r = np.sqrt(np.sum(d * d, axis=-1))
    q = (r - params.alpha) / (params.beta - params.alpha)
    out = np.zeros_like(r)
    out[r < params.alpha] = 1.0
    mid = (r >= params.alpha) & (r <= params.beta) & (q < 1.0)
    out[mid] = math.e * np.exp(1.0 / (q[mid] ** 2 - 1.0))
    if out.ndim == 0:
        return float(out)
    return out


def integrate_over_F_reference(fn, n: int):
    """Oracle for ``integrate_over_F``: ``fn`` on every cell of each slab,
    and the slab multiplied by the membership indicator."""
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


def continuous_gram_entry_reference(t, tp, n: int) -> complex:
    """The nine-term loop ``continuous_gram_entry`` reorders, with both
    suffix sums of every term computed afresh."""
    u = _midpoints(n)
    total = 0j
    for a1, b1, c1 in rotations(t):
        for a2, b2, c2 in rotations(tp):
            ez = np.exp(2j * np.pi * (c1 - c2) * u)
            total += np.sum(ez * _above(a1 - a2, u) * _above(b1 - b2, u))
    return complex(total / n ** 3)


def interpolation_error_reference(f, interp, n: int) -> float:
    """Oracle for ``interpolation_error``: ``f`` on every cell of each slab,
    at the midpoints times the period T, psi from the public tensor
    evaluator on the slab's region block and zero elsewhere, and the slab
    multiplied by the membership indicator."""
    u = _midpoints(n) * interp.grid.period
    x = u[:, None]
    y = u[None, :]
    slab_sums = []
    pts = np.empty((n, n, 3))
    for k, z in enumerate(u):
        pts[..., 0] = x
        pts[..., 1] = y
        pts[..., 2] = z
        psi = np.zeros((n, n), dtype=complex)
        psi[k + 1:, k + 1:] = eval_psi_alt_tensor(interp, u[k + 1:], u[k + 1:], [z])[..., 0]
        diff = np.abs(np.asarray(f(pts)) - psi) ** 2
        mask = (x > z) & (y > z)
        slab_sums.append(np.sum(diff * mask))
    return float(np.sum(np.asarray(slab_sums)) / n ** 3)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_bump_plateau_and_tail():
    assert bump(FA, FA.center) == 1.0
    assert bump(FA, (0.75, 0.75, 0.25 + 0.21)) == 0.0
    assert bump(FA, (0.0, 0.0, 0.9)) == 0.0


def test_bump_midpoint_value():
    # halfway through the rolloff: e * e^{1/(1/4 - 1)} = e^{-1/3}
    p = (0.75, 0.75, 0.25 + 0.15)
    assert bump(FA, p) == pytest.approx(math.exp(-1 / 3), abs=1e-12)


def test_bump_continuity_at_radii():
    eps = 1e-8
    inner = bump(FA, (0.75, 0.75, 0.25 + FA.alpha - eps))
    outer = bump(FA, (0.75, 0.75, 0.25 + FA.alpha + eps))
    assert inner == 1.0
    assert outer == pytest.approx(1.0, abs=1e-6)
    near_beta = bump(FA, (0.75, 0.75, 0.25 + FA.beta - eps))
    assert near_beta == pytest.approx(0.0, abs=1e-6)


def test_bump_range_and_vectorization():
    rng = np.random.default_rng(70)
    pts = rng.uniform(0, 1, (200, 3))
    vals = bump(FA, pts)
    assert vals.shape == (200,)
    assert ((vals >= 0) & (vals <= 1)).all()
    assert vals[5] == bump(FA, tuple(pts[5]))


def test_bump_matches_reference_bitwise():
    u = _midpoints(64)
    cube = np.stack(np.meshgrid(u, u, u, indexing="ij"), axis=-1)
    assert same_bits(bump(FA, cube), bump_reference(FA, cube))
    rng = np.random.default_rng(72)
    for m in (1, 7, 1000, 4096):
        pts = FA.center + rng.uniform(-0.25, 0.25, (m, 3))
        assert same_bits(bump(FA, pts), bump_reference(FA, pts))
    # the array path reads its coordinates as views of p: other layouts and dtypes
    wide = np.repeat(FA.center, 2) + rng.uniform(-0.25, 0.25, (40, 30, 6))
    for pts in (wide[::3, 1::2, ::2], np.asfortranarray(wide[..., 1::2]),
                wide[..., ::2].astype(np.float32)):
        assert same_bits(bump(FA, pts), bump_reference(FA, pts))
    for p in rng.uniform(0.45, 1.05, (3000, 3)):
        value = bump(FA, p)
        assert type(value) is float
        assert same_bits(value, bump_reference(FA, p))
        assert same_bits(value, bump(FA, p[None])[0])


def test_bump_at_center_and_radii():
    # dyadic radii and an integer center put r exactly on alpha and beta
    ball = BumpParams(0.125, 0.25, (0, 0, 0))
    pts = [(0, 0, 0), (0.125, 0, 0), (0, 0.25, 0), (0, 0, -0.25), (0.5, 0, 0)]
    for p in pts:
        assert same_bits(bump(ball, p), bump_reference(ball, p))
    assert same_bits(bump(ball, pts), bump_reference(ball, pts))
    assert bump(ball, (0, 0, 0)) == 1.0 and bump(ball, (0, 0.25, 0)) == 0.0
    assert same_bits(bump(FA, FA.center), bump_reference(FA, FA.center))


def test_bump_validation():
    with pytest.raises(ValueError):
        BumpParams(0.2, 0.1, (0, 0, 0))
    for shape in ((5, 2), (5, 4), (2, 3, 4)):    # a last axis that is not x, y, z
        with pytest.raises(ValueError):
            bump(FA, np.full(shape, 0.5))


@pytest.mark.parametrize("alpha, beta", [(0.1, math.inf), (math.inf, math.inf),
                                         (0.1, math.nan), ("0.1", 0.2), (0.1, 0.2j)])
def test_bump_requires_finite_radii(alpha, beta):
    with pytest.raises(ValueError, match="< inf"):
        BumpParams(alpha, beta, (0, 0, 0))


@pytest.mark.parametrize("center", [0.5, (0.5,), (0.1, 0.2, 0.5, 0.5), (math.nan, 0.5, 0.5),
                                    (0.5, math.inf, 0.5), ("0.75", "0.75", "0.25"),
                                    "0.5,0.5,0.5", None])
def test_bump_rejects_a_bad_center(center):
    with pytest.raises(ValueError, match="center"):
        BumpParams(0.1, 0.2, center)


@pytest.mark.parametrize("params", [
    BumpParams(0.125, 0.25, (0, 0, 0)),
    BumpParams(0.1, 0.2, np.array([0.75, 0.75, 0.25], dtype=np.float32)),
    BumpParams(np.float32(0.1), np.float32(0.2), (0.75, 0.75, 0.25)),
])
def test_bump_stores_python_floats_and_points_match_array_rows(params):
    assert all(type(v) is float for v in (params.alpha, params.beta, *params.center))
    rng = np.random.default_rng(73)
    pts = np.asarray(params.center) + rng.uniform(-0.25, 0.25, (2000, 3))
    rows = bump(params, pts)
    assert 0 < np.count_nonzero((rows > 0) & (rows < 1)) < len(rows)
    for p, row in zip(pts, rows):
        assert same_bits(bump(params, p), row)


def test_bump_non_finite_points_match_array_rows_without_warnings():
    big = 1e300
    pts = np.array([(math.nan, 0.75, 0.25), (math.inf, 0.75, 0.25), (0.75, -math.inf, 0.25),
                    (0.75, 0.75, big), (-big, big, -big), (math.inf, -math.inf, math.nan),
                    (big, 0.75, math.nan)])
    with np.errstate(all="ignore"):
        rows = bump(FA, pts)
    assert (rows == 0.0).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p, row in zip(pts, rows):
            assert same_bits(bump(FA, p), row)


@pytest.mark.parametrize("n, a, b", [(15, 0.0, 0.5), (16, 0.31, 0.37)])
def test_scalar_and_vectorised_samplers_agree_bitwise(n, a, b):
    g = GridSpec(a, b, n)
    scalar = SampleSet.from_function(g, lambda p: complex(bump(FA, np.asarray(p))))
    vectorised = SampleSet.from_array(g, bump(FA, g.points()))
    values = vectorised.values.real
    assert np.count_nonzero((values > 0) & (values < 1)) > 10    # the shell is sampled
    assert scalar.values.tobytes() == vectorised.values.tobytes()


def test_volume_of_region():
    # exact volume of {x > z, y > z} in the cube is 1/3
    for n in (32, 64, 128):
        volume = integrate_over_F(lambda pts: np.ones(pts.shape[:-1]), n)
        assert abs(volume - 1 / 3) < 3 / n


def test_integrate_zero():
    assert integrate_over_F(lambda pts: np.zeros(pts.shape[:-1]), 16) == 0.0


@pytest.mark.parametrize("n", [1, 2, 15, 16, 33, 64])
@pytest.mark.parametrize("fn", [
    lambda pts: bump(FA, pts),
    lambda pts: bump(FA, pts) + 0.5j * eval_E((1, 0, 0), pts),
    lambda pts: eval_E((2, 1, 0), pts) * np.conj(eval_E((1, 1, 0), pts)),
    lambda pts: np.ones(pts.shape[:-1])], ids=["bump", "bump+wave", "gram", "one"])
def test_integrate_over_F_matches_reference_bitwise(fn, n):
    calls = []

    def in_region(pts):
        x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
        if not ((x > z) & (y > z)).all():
            raise AssertionError("fn called outside {x > z, y > z}")
        calls.append(pts.shape[:-1])
        return fn(pts)

    got, ref = integrate_over_F(in_region, n), integrate_over_F_reference(fn, n)
    assert calls == [(m, m) for m in range(n - 1, 0, -1)]     # one block per slab
    if n == 1:    # no cell center is in the region, and fn gives no dtype
        assert got == ref == 0 and same_bits(got, np.float64(0.0))
    else:
        assert same_bits(got, ref)


@pytest.mark.parametrize("n", [2, 15, 16])
def test_integrate_over_F_buffer_follows_the_block_dtype(n):
    # slab k's values are complex when k % 3 == 1 and float otherwise, and
    # nonzero across the block, so a stale row or column of the slab before
    # would show in the sum; the last slab, empty, which only the reference
    # evaluates, stays float, so that it does not decide the result's dtype
    def fn(pts):
        e, k = eval_E((2, 1, 0), pts), int(pts[0, 0, 2] * n)
        return e if k % 3 == 1 and k < n - 1 else e.real

    assert same_bits(integrate_over_F(fn, n), integrate_over_F_reference(fn, n))


@pytest.mark.parametrize("n", [1, 2, 15, 16, 64])
def test_continuous_gram_matches_the_nine_term_loop_bitwise(n):
    keys = list(map(tuple, domain_table(0, 2).index.tolist()))
    pairs = [(t, tp) for t in keys for tp in keys]
    pairs += [((0, 1, 2), (2, 0, 1)), ((-1, 3, -2), (2, -2, 0))]   # not semidominant
    for t, tp in pairs:
        got, ref = continuous_gram_entry(t, tp, n), continuous_gram_entry_reference(t, tp, n)
        assert type(got) is complex and same_bits(got, ref), (t, tp)


def test_continuous_gram_diagonal_constant():
    # |E_000|^2 = 9 times the region volume
    v = continuous_gram_entry((0, 0, 0), (0, 0, 0), 128)
    assert v.real == pytest.approx(3.0, abs=0.05)
    assert abs(v.imag) < 1e-12


def test_continuous_gram_entries():
    assert abs(continuous_gram_entry((1, 0, 0), (2, 0, 0), 128)) < 0.02
    diag = continuous_gram_entry((2, 1, 0), (2, 1, 0), 128)
    assert diag.real == pytest.approx(1.0, abs=0.03)
    diag_e110 = continuous_gram_entry((1, 1, 0), (1, 1, 0), 96)
    assert diag_e110.real == pytest.approx(1.0, abs=0.04)


@pytest.mark.parametrize("n", [15, 16])
def test_continuous_gram_is_the_midpoint_sum(n):
    # the reordered sum visits the cells integrate_over_F visits
    keys = list(map(tuple, domain_table(0, 2).index.tolist()))
    pairs = [(t, tp) for i, t in enumerate(keys) for tp in keys[i:]]
    pairs.append(((0, 1, 2), (2, 0, 1)))              # not semidominant
    for t, tp in pairs:
        ref = integrate_over_F(lambda pts: eval_E(t, pts) * np.conj(eval_E(tp, pts)), n)
        assert abs(continuous_gram_entry(t, tp, n) - ref) < 1e-14


def test_continuous_gram_convergence():
    errs = []
    for n in (32, 64, 128):
        v = continuous_gram_entry((1, 0, 0), (1, 0, 0), n)
        errs.append(abs(v - 1.0))
    assert errs[2] < errs[0]  # boundary-limited first-order trend


def test_interpolation_error_of_own_interpolant():
    g = GridSpec(0, 0.5, 5)
    rng = np.random.default_rng(71)
    base = alt_interpolate_direct(SampleSet.from_array(
        g, rng.normal(size=g.point_count)))

    err = interpolation_error(lambda pts: eval_psi_alt(base, pts), base, 48)
    assert err < 1e-24


def test_error_decreases_with_density():
    f = lambda pts: bump(FA, pts)
    errs = []
    for n in (7, 15):
        g = GridSpec(0, 0.5, n)
        s = SampleSet.from_function(g, lambda p: complex(f(np.asarray(p))))
        errs.append(interpolation_error(f, alt_interpolate_direct(s), 64))
    assert errs[1] < errs[0]


def _stretched_bump_error(period):
    f = lambda pts: bump(FA, np.asarray(pts) / period)
    g = GridSpec(0, 0.37, 7, period=period)
    s = SampleSet.from_array(g, f(g.points()).astype(complex))
    return interpolation_error(f, alt_interpolate_direct(s), 64)


@pytest.mark.parametrize("period", [2.0, 1.7])
def test_interpolation_error_scales_with_the_period(period):
    # the bump stretched to period T, sampled on the stretched lattice, has
    # the error of the unit case: the region stretches with them
    assert abs(_stretched_bump_error(period) - _stretched_bump_error(1.0)) < 1e-12


def _bump_lattice_interpolant(n, a=0.0, b=0.5, period=1.0):
    g = GridSpec(a, b, n, period=period)
    return alt_interpolate_direct(
        SampleSet.from_array(g, bump(FA, g.points()).astype(complex)))


def _bump_plus_wave(pts):
    return bump(FA, pts) + 0.5j * eval_E((1, 0, 0), pts)


@pytest.mark.parametrize("N, a, b, n, f", [
    (7, 0.0, 0.5, 1, None), (7, 0.0, 0.5, 2, None), (7, 0.0, 0.5, 17, None),
    (7, 0.0, 0.5, 32, None), (15, 0.0, 0.5, 64, None),
    (5, 0.31, 0.37, 32, None), (9, -0.4, 0.2, 17, _bump_plus_wave),
    (7, 0.31, 0.37, 64, _bump_plus_wave),
    (7, 0.0, 0.5, 168, None),     # the largest n here: region blocks up to 167 x 167
])
def test_interpolation_error_matches_reference_bitwise(N, a, b, n, f):
    f = f or (lambda pts: bump(FA, pts))
    interp = _bump_lattice_interpolant(N, a, b)
    got = interpolation_error(f, interp, n)
    assert type(got) is float
    assert same_bits(got, interpolation_error_reference(f, interp, n))


def test_interpolation_error_matches_reference_bitwise_at_a_period():
    # the midpoint axis times T = 1.7 reaches f, psi's phases and the region rule
    interp = _bump_lattice_interpolant(7, 0.31, 0.37, period=1.7)
    f = lambda pts: bump(FA, np.asarray(pts) / 1.7)
    got = interpolation_error(f, interp, 32)
    assert type(got) is float
    assert same_bits(got, interpolation_error_reference(f, interp, 32))


@pytest.mark.parametrize("N, n, f", [(3, 200, lambda pts: np.zeros(pts.shape[:-1])),
                                     (21, 128, lambda pts: bump(FA, pts))],
                         ids=["zero", "bump"])
def test_interpolation_error_holds_one_block_of_the_interpolant(N, n, f):
    # the dense cube and about ten (n, n) arrays: the cell centers, a slab,
    # psi on one block and f's own work
    interp = _bump_lattice_interpolant(N)
    interpolation_error(f, interp, n)     # warm: the table and numpy's first calls
    tracemalloc.start()
    try:
        interpolation_error(f, interp, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (N ** 3 + 10 * n * n) * np.dtype(complex).itemsize


@pytest.mark.parametrize("n", [1, 2, 17, 64])
def test_interpolation_error_calls_f_only_in_region(n):
    interp = _bump_lattice_interpolant(7)
    calls = []

    def f(pts):
        x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
        if not ((x > z) & (y > z)).all():
            raise AssertionError("f called outside {x > z, y > z}")
        calls.append(pts.shape[:-1])
        return bump(FA, pts)

    got = interpolation_error(f, interp, n)
    assert len(calls) == max(n - 1, 0)
    assert same_bits(got, interpolation_error_reference(
        lambda pts: bump(FA, pts), interp, n))


@pytest.mark.parametrize("n", [0, -1, 2.5, True, np.float64(4.0)])
def test_quadrature_rejects_nonpositive_subdivisions(n):
    interp = _bump_lattice_interpolant(3)
    f = lambda pts: bump(FA, pts)
    for call in (lambda: integrate_over_F(f, n), lambda: interpolation_error(f, interp, n),
                 lambda: continuous_gram_entry((0, 0, 0), (0, 0, 0), n)):
        with pytest.raises(ValueError, match="subdivision count"):
            call()


def test_quadrature_numpy_integer_count_gives_the_bits_of_an_int():
    interp = _bump_lattice_interpolant(3)
    f = lambda pts: bump(FA, pts)
    for call in (lambda n: integrate_over_F(f, n), lambda n: interpolation_error(f, interp, n),
                 lambda n: continuous_gram_entry((2, 1, 0), (2, 1, 0), n)):
        assert same_bits(call(np.int64(3)), call(3))
