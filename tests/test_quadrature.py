import math

import numpy as np
import pytest

from altexp.domain import GridSpec, enumerate_domain, weight_g
from altexp.functions import eval_E
from altexp.interpolation import alt_interpolate_direct, eval_psi_alt
from altexp.quadrature import (BumpParams, bump, continuous_gram_entry,
                               fundamental_volume, integrate_over_F,
                               interpolation_error)
from altexp.transform import SampleSet

FA = BumpParams(0.1, 0.2, (0.75, 0.75, 0.25))


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


def test_bump_validation():
    with pytest.raises(ValueError):
        BumpParams(0.2, 0.1, (0, 0, 0))


def test_volume_of_region():
    # exact volume of {x > z, y > z} in the cube is 1/3
    for n in (32, 64, 128):
        assert abs(fundamental_volume(n) - 1 / 3) < 3 / n


def test_integrate_zero():
    assert integrate_over_F(lambda pts: np.zeros(pts.shape[:-1]), 16) == 0.0


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
