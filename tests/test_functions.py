import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from altexp.functions import (eval_E, operator_eigenvalue,
                              point_product_identity, product_indices,
                              shift_phase, sigma_k)
from altexp import verify
from altexp.oracles import canonicalize

real3 = st.tuples(*[st.floats(-4, 4, allow_nan=False)] * 3)


def test_eval_constants():
    assert eval_E((0, 0, 0), (0.3, -1.7, 2.2)) == pytest.approx(3.0)
    assert eval_E((2.5, -1.3, 0.7), (0, 0, 0)) == pytest.approx(3.0)


def test_eval_hand_expanded():
    # one quarter-turn exponential plus two units
    assert eval_E((1, 0, 0), (0.25, 0, 0)) == pytest.approx(2 + 1j)


def test_eval_magnitude_bound():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = eval_E(tuple(rng.uniform(-5, 5, 3)), rng.uniform(-2, 2, 3))
        assert abs(v) <= 3 + 1e-12


def test_eval_vectorized_matches_scalar():
    rng = np.random.default_rng(4)
    t = (2, -1, 3)
    pts = rng.uniform(-1, 1, (6, 3))
    vec = eval_E(t, pts)
    for i, p in enumerate(pts):
        assert vec[i] == pytest.approx(eval_E(t, tuple(p)), abs=1e-14)


@given(real3, real3)
@example((3.0, 3.75, 3.7109955707309386), (3.625, 3.546258315045545, 3.7109955707309386))
@example((-1.0, -3.5, -3.6875), (3.962463218319833,) * 3)
@settings(max_examples=40)
def test_cyclic_symmetry(t, p):
    x, y, z = p
    base = eval_E(t, p)
    assert eval_E(t, (z, x, y)) == pytest.approx(base, abs=1e-13)
    assert eval_E(t, (y, z, x)) == pytest.approx(base, abs=1e-13)
    k, l, m = t
    assert eval_E((m, k, l), p) == pytest.approx(base, abs=1e-13)


def test_periodicity_integer_labels():
    rng = np.random.default_rng(5)
    for _ in range(60):
        t = tuple(rng.integers(-5, 6, 3))
        p = rng.uniform(-1, 1, 3)
        shift = rng.integers(-50, 51, 3)
        assert abs(eval_E(t, p + shift) - eval_E(t, p)) < 1e-12


def test_shift_phase_examples():
    assert shift_phase((1, 1, 1), 1 / 3) == pytest.approx(1.0)
    assert shift_phase((0, 0, 0), 0.7321) == pytest.approx(1.0)
    assert shift_phase((2, 1, 0), 0.5) == pytest.approx(-1.0)


def test_shift_phase_identity_numeric():
    rng = np.random.default_rng(6)
    for _ in range(60):
        t = tuple(rng.integers(-4, 5, 3))
        p = rng.uniform(-1, 1, 3)
        a = rng.uniform(-2, 2)
        assert abs(eval_E(t, p + a) - shift_phase(t, a) * eval_E(t, p)) < 1e-12


def test_shift_phase_rejects_real_labels():
    with pytest.raises(ValueError):
        shift_phase((0.5, 0, 0), 0.1)


def test_product_indices_square():
    terms = product_indices((1, 0, 0), (1, 0, 0))
    assert terms == [(2, 0, 0), (1, 0, 1), (1, 1, 0)]
    # both cross terms canonicalize to the same triple: E^2 = E_200 + 2 E_110
    assert [canonicalize(t) for t in terms] == [(2, 0, 0), (1, 1, 0), (1, 1, 0)]


def test_product_identity_with_constant():
    rng = np.random.default_rng(8)
    tp = tuple(rng.uniform(-3, 3, 3))
    p = rng.uniform(-1, 1, 3)
    lhs = eval_E((0, 0, 0), p) * eval_E(tp, p)
    rhs = sum(eval_E(term, p) for term in product_indices((0, 0, 0), tp))
    assert lhs == pytest.approx(3 * eval_E(tp, p), abs=1e-12)
    assert rhs == pytest.approx(lhs, abs=1e-12)


def test_product_identity_random():
    rng = np.random.default_rng(9)
    for _ in range(100):
        t = tuple(rng.uniform(-4, 4, 3))
        tp = tuple(rng.uniform(-4, 4, 3))
        p = rng.uniform(-1, 1, 3)
        lhs = eval_E(t, p) * eval_E(tp, p)
        rhs = sum(eval_E(term, p) for term in product_indices(t, tp))
        assert abs(lhs - rhs) < 1e-12


def test_point_product_identity():
    rng = np.random.default_rng(10)
    assert point_product_identity((1.3, -0.2, 2.1), (0.4, 0.1, -0.3),
                                  (0, 0, 0)) < 1e-12
    assert point_product_identity((0, 0, 0), (0.4, 0.1, -0.3),
                                  (0.2, -0.9, 0.5)) < 1e-12
    for _ in range(100):
        t = tuple(rng.uniform(-4, 4, 3))
        assert point_product_identity(t, rng.uniform(-1, 1, 3),
                                      rng.uniform(-1, 1, 3)) < 1e-12


def test_sigma_examples():
    assert sigma_k(2, 1, 2, 3) == 11
    assert sigma_k(1, 0, 0, 0) == 0
    assert sigma_k(3, 2, 3, 4) == 24
    with pytest.raises(ValueError):
        sigma_k(4, 1, 1, 1)


def test_operator_eigenvalue_examples():
    assert operator_eigenvalue(1, (1, 0, 0)) == pytest.approx(-4 * math.pi ** 2)
    assert operator_eigenvalue(1, (0, 0, 0)) == 0
    assert operator_eigenvalue(2, (1, 1, 1)) == pytest.approx(48 * math.pi ** 4)


def test_a_vanishing_E_fails_the_operator_check(monkeypatch):
    # E = 0 satisfies the other identities; the operator check is scaled by
    # the mpmath value, so the code under test cannot skip its draws
    monkeypatch.setattr(verify, "eval_E", lambda t, p: 0j)
    failed = {r.name for r in verify.run_suite("identities") if not r.passed}
    assert "operator_eigenvalues" in failed
