import cmath
import io

import numpy as np
import pytest

from altexp.domain import GridSpec, domain_size, enumerate_domain, weight_g
from altexp.functions import eval_E
from altexp.io import MissingKeyError, read_samples_csv, write_samples_csv
from altexp.transform import (SampleSet, adft_forward, adft_forward_naive,
                              adft_inverse, discrete_gram)


def e_fn(t, p):
    """E_t(p) with its own exponential arithmetic, not the library's eval_E."""
    lam, mu, nu = t
    x, y, z = p
    tau = 2j * cmath.pi
    return (cmath.exp(tau * (lam * x + mu * y + nu * z))
            + cmath.exp(tau * (lam * z + mu * x + nu * y))
            + cmath.exp(tau * (lam * y + mu * z + nu * x)))


def brute_force_beta(grid, values):
    """Independent oracle: literal evaluation of the defining sum.

    ``values`` are the samples in enumeration order.
    """
    n = grid.n
    keys = enumerate_domain(0, n - 1)
    out = {}
    for klm in keys:
        acc = 0j
        for rst, v in zip(keys, values):
            p = grid.point(rst)
            g_rst = 3 if rst[0] == rst[1] == rst[2] else 1
            acc += v * e_fn(klm, p).conjugate() / g_rst
        g_klm = 3 if klm[0] == klm[1] == klm[2] else 1
        out[klm] = acc / (g_klm * n ** 3)
    return out


def random_samples(grid, seed=0):
    rng = np.random.default_rng(seed)
    f = rng.normal(size=grid.point_count) + 1j * rng.normal(size=grid.point_count)
    return SampleSet.from_array(grid, f)


def test_constant_transforms_to_third():
    g = GridSpec(0.2, 0.4, 4)
    s = SampleSet.from_function(g, lambda p: 1.0)
    beta = adft_forward(s)
    i = enumerate_domain(0, 3).index((0, 0, 0))
    assert beta.values[i] == pytest.approx(1 / 3, abs=1e-13)
    others = np.delete(beta.values, i)
    assert max(abs(v) for v in others) < 1e-13


def test_basis_function_transforms_to_delta():
    g = GridSpec(0.1, 0.7, 5)
    t0 = (3, 1, 0)
    s = SampleSet.from_function(g, lambda p: eval_E(t0, p))
    beta = adft_forward(s)
    for k, v in zip(enumerate_domain(0, 4), beta.values):
        expected = 1.0 if k == t0 else 0.0
        assert v == pytest.approx(expected, abs=1e-11)


def test_forward_matches_brute_force_oracle():
    g = GridSpec(0, 0, 3)
    s = random_samples(g, seed=11)
    oracle = brute_force_beta(g, s.values)
    for path in (adft_forward(s), adft_forward_naive(s)):
        for k, v in zip(enumerate_domain(0, 2), path.values):
            assert v == pytest.approx(oracle[k], abs=1e-12)


def test_forward_matches_brute_force_oracle_shifted():
    g = GridSpec(0.31, 0.77, 4)
    s = random_samples(g, seed=12)
    oracle = brute_force_beta(g, s.values)
    beta = adft_forward(s)
    for k, v in zip(enumerate_domain(0, 3), beta.values):
        assert v == pytest.approx(oracle[k], abs=1e-12)


def test_optimized_matches_naive():
    for n in (2, 3, 4, 5, 6, 7, 9):
        g = GridSpec(-0.4, 0.9, n)
        s = random_samples(g, seed=n)
        fast = adft_forward(s).values
        slow = adft_forward_naive(s).values
        assert np.abs(fast - slow).max() < 1e-11


@pytest.mark.parametrize("n", [2, 3, 5, 7, 9])
def test_round_trip(n):
    g = GridSpec(0.05, 0.3, n)
    s = random_samples(g, seed=100 + n)
    back = adft_inverse(adft_forward(s))
    assert np.abs(back.as_array() - s.as_array()).max() < 1e-10


def brute_force_inverse(grid, values):
    """Independent oracle: f(rst) = sum of beta_klm E_klm at each lattice point."""
    keys = enumerate_domain(0, grid.n - 1)
    return np.array([sum(b * e_fn(klm, grid.point(rst)) for klm, b in zip(keys, values))
                     for rst in keys])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_inverse_matches_brute_force_oracle(n):
    g = GridSpec(0.31, 0.37, n)
    beta = adft_forward(random_samples(g, seed=60 + n))
    beta.values[:] = random_samples(g, seed=70 + n).values
    oracle = brute_force_inverse(g, beta.values)
    assert np.abs(adft_inverse(beta).values - oracle).max() < 1e-12


def test_inverse_of_delta():
    g = GridSpec(0, 0, 3)
    keys = enumerate_domain(0, 2)
    beta = adft_forward(SampleSet.from_function(g, lambda p: 0.0))
    beta.values[keys.index((0, 0, 0))] = 1.0
    s = adft_inverse(beta)
    assert np.abs(s.as_array() - 3.0).max() < 1e-12

    beta.values[keys.index((0, 0, 0))] = 0.0
    beta.values[keys.index((2, 1, 0))] = 1.0
    s = adft_inverse(beta)
    for rst, v in zip(keys, s.values):
        assert v == pytest.approx(eval_E((2, 1, 0), g.point(rst)), abs=1e-12)


def test_linearity():
    g = GridSpec(0.2, 0.1, 5)
    s1 = random_samples(g, seed=21)
    s2 = random_samples(g, seed=22)
    alpha, gamma = 1.7 - 0.3j, -0.8 + 2.1j
    mixed = SampleSet.from_array(
        g, alpha * s1.as_array() + gamma * s2.as_array())
    lhs = adft_forward(mixed).values
    rhs = alpha * adft_forward(s1).values + gamma * adft_forward(s2).values
    assert np.abs(lhs - rhs).max() < 1e-12


def test_gram_n3_diagonal():
    gram = discrete_gram(GridSpec(0, 0, 3))
    keys = enumerate_domain(0, 2)
    diag = np.array([weight_g(t) * 27 for t in keys], dtype=float)
    assert np.abs(np.diagonal(gram) - diag).max() < 1e-9
    off = gram - np.diag(np.diagonal(gram))
    assert np.abs(off).max() < 1e-9
    assert sorted(set(np.round(np.diagonal(gram).real))) == [27, 81]


def test_gram_n1():
    gram = discrete_gram(GridSpec(0, 0, 1))
    assert gram.shape == (1, 1)
    assert gram[0, 0] == pytest.approx(3.0)


def test_gram_shift_independent():
    keys = enumerate_domain(0, 4)
    target = np.diag([weight_g(t) * 125.0 for t in keys])
    gram = discrete_gram(GridSpec(0.37, 0.42, 5))
    assert np.abs(gram - target).max() < 1e-9


def test_missing_sample_error_names_key():
    g = GridSpec(0, 0, 3)
    buf = io.StringIO()
    write_samples_csv(random_samples(g, seed=30), buf)
    text = "".join(line for line in buf.getvalue().splitlines(keepends=True)
                   if not line.startswith("2,1,0,"))
    with pytest.raises(MissingKeyError, match=r"\(2, 1, 0\)"):
        read_samples_csv(g, io.StringIO(text))


def test_wrong_role_rejected():
    g = GridSpec(0, 0, 3)
    c = adft_forward(random_samples(g))
    c.role = "c_alt"
    with pytest.raises(ValueError):
        adft_inverse(c)
