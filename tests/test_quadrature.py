import math

import numpy as np
import pytest

from altexp.domain import GridSpec, enumerate_domain, weight_g
from altexp.functions import eval_E
from altexp.interpolation import (alt_interpolate_direct, eval_psi_alt,
                                  eval_psi_alt_tensor)
from altexp.quadrature import (BumpParams, _midpoints, bump, continuous_gram_entry,
                               fundamental_volume, integrate_over_F,
                               interpolation_error)
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


def interpolation_error_reference(f, interp, n: int) -> float:
    """Oracle for ``interpolation_error``: ``f`` on every cell of each slab,
    and the slab multiplied by the membership indicator."""
    u = _midpoints(n)
    x = u[:, None]
    y = u[None, :]
    slab_sums = []
    pts = np.empty((n, n, 3))
    chunk = max(1, (1 << 22) // (n * n))
    for lo in range(0, n, chunk):
        zs = u[lo:lo + chunk]
        psi = eval_psi_alt_tensor(interp, u, u, zs)
        for j, z in enumerate(zs):
            pts[..., 0] = x
            pts[..., 1] = y
            pts[..., 2] = z
            diff = np.abs(np.asarray(f(pts)) - psi[..., j]) ** 2
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


@pytest.mark.parametrize("alpha, beta", [(0.1, math.inf), (math.inf, math.inf),
                                         (0.1, math.nan)])
def test_bump_requires_finite_radii(alpha, beta):
    with pytest.raises(ValueError, match="< inf"):
        BumpParams(alpha, beta, (0, 0, 0))


def test_volume_of_region():
    # exact volume of {x > z, y > z} in the cube is 1/3
    for n in (32, 64, 128):
        assert abs(fundamental_volume(n) - 1 / 3) < 3 / n


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
    keys = enumerate_domain(0, 2)
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


def _bump_lattice_interpolant(n, a=0.0, b=0.5):
    g = GridSpec(a, b, n)
    return alt_interpolate_direct(
        SampleSet.from_array(g, bump(FA, g.points()).astype(complex)))


def _bump_plus_wave(pts):
    return bump(FA, pts) + 0.5j * eval_E((1, 0, 0), pts)


@pytest.mark.parametrize("N, a, b, n, f", [
    (7, 0.0, 0.5, 1, None), (7, 0.0, 0.5, 2, None), (7, 0.0, 0.5, 17, None),
    (7, 0.0, 0.5, 32, None), (15, 0.0, 0.5, 64, None),
    (5, 0.31, 0.37, 32, None), (9, -0.4, 0.2, 17, _bump_plus_wave),
    (7, 0.31, 0.37, 64, _bump_plus_wave),
    (7, 0.0, 0.5, 168, None),     # 168^3 > 2^22 cells: z-slabs in chunks of 148
])
def test_interpolation_error_matches_reference_bitwise(N, a, b, n, f):
    f = f or (lambda pts: bump(FA, pts))
    interp = _bump_lattice_interpolant(N, a, b)
    got = interpolation_error(f, interp, n)
    assert type(got) is float
    assert same_bits(got, interpolation_error_reference(f, interp, n))


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


@pytest.mark.parametrize("n", [0, -1])
def test_quadrature_rejects_nonpositive_subdivisions(n):
    interp = _bump_lattice_interpolant(3)
    f = lambda pts: bump(FA, pts)
    for call in (lambda: integrate_over_F(f, n), lambda: interpolation_error(f, interp, n),
                 lambda: continuous_gram_entry((0, 0, 0), (0, 0, 0), n)):
        with pytest.raises(ValueError, match="subdivision count"):
            call()
