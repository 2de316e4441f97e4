import cmath
import io
import tracemalloc

import numpy as np
import pytest

from altexp import transform
from altexp.domain import GridSpec, domain_table
from altexp.functions import eval_E
from altexp.interpolation import _phases, alt_interpolate_direct, eval_psi_alt_tensor
from altexp.io import MissingKeyError, read_samples_csv, write_samples_csv
from altexp.oracles import adft_forward_naive, discrete_gram
from altexp.transform import CoefficientSet, SampleSet, adft_forward, adft_inverse
from altexp.verify import check_large_shift


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
    keys = list(map(tuple, domain_table(0, n - 1).index.tolist()))
    out = {}
    for klm in keys:
        acc = 0j
        for rst, p, v in zip(keys, grid.points().tolist(), values):
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
    i = domain_table(0, 3).index.tolist().index([0, 0, 0])
    assert beta.values[i] == pytest.approx(1 / 3, abs=1e-13)
    others = np.delete(beta.values, i)
    assert max(abs(v) for v in others) < 1e-13


def test_basis_function_transforms_to_delta():
    g = GridSpec(0.1, 0.7, 5)
    t0 = (3, 1, 0)
    s = SampleSet.from_function(g, lambda p: eval_E(t0, p))
    beta = adft_forward(s)
    for k, v in zip(map(tuple, domain_table(0, 4).index.tolist()), beta.values):
        expected = 1.0 if k == t0 else 0.0
        assert v == pytest.approx(expected, abs=1e-11)


def test_forward_matches_brute_force_oracle():
    g = GridSpec(0, 0, 3)
    s = random_samples(g, seed=11)
    oracle = brute_force_beta(g, s.values)
    for path in (adft_forward(s), adft_forward_naive(s)):
        for k, v in zip(map(tuple, domain_table(0, 2).index.tolist()), path.values):
            assert v == pytest.approx(oracle[k], abs=1e-12)


def test_forward_matches_brute_force_oracle_shifted():
    g = GridSpec(0.31, 0.77, 4)
    s = random_samples(g, seed=12)
    oracle = brute_force_beta(g, s.values)
    beta = adft_forward(s)
    for k, v in zip(map(tuple, domain_table(0, 3).index.tolist()), beta.values):
        assert v == pytest.approx(oracle[k], abs=1e-12)


def test_optimized_matches_naive():
    for n in (2, 3, 4, 5, 6, 7, 9):
        g = GridSpec(-0.4, 0.9, n)
        s = random_samples(g, seed=n)
        fast = adft_forward(s).values
        slow = adft_forward_naive(s).values
        assert np.abs(fast - slow).max() < 1e-11


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_transforms_hold_three_cubes():
    # the gathered cube and two contraction steps: 3.06-3.40 cubes of N^3 complex
    # values at N = 21; a result that must be copied to ravel holds one cube more
    g = GridSpec(0.31, 0.37, 21)
    s = random_samples(g, seed=21)
    beta, interp = adft_forward(s), alt_interpolate_direct(s)   # and the tables are cached
    cube = g.n ** 3 * 16
    for fn, arg in ((adft_forward, s), (adft_inverse, beta), (alt_interpolate_direct, s)):
        assert traced_peak(fn, arg) <= 3.75 * cube, fn.__name__
    # one z of a slice: z is contracted first, so the intermediates are (K, K, 1) and
    # (K, n, 1), K = 2M+1, 0.52 MiB in all; x first would hold (n, n, K), 5.5 MB
    xs = np.arange(128) / 128
    assert traced_peak(eval_psi_alt_tensor, interp, xs, xs, [0.25]) <= 2 ** 20


def tensordot_separable(cube, tx, ty, tz):
    """Reference for ``transform._separable``: its z and y matmuls, then x by
    ``np.tensordot``, which reshapes and calls the zgemm ``_separable`` calls."""
    return np.tensordot(tx, ty @ (cube @ tz.T), axes=1)


def _separable_cases():
    cases = []
    for n in (6, 7):
        g = GridSpec(0.31, 0.37, n)
        s = random_samples(g, seed=n)
        w = transform._lattice_table(s.table.axis, g)
        cases.append((f"forward N={n}", (s.values[s.table.pos], w, w, w)))
        beta = adft_forward(s)
        w = transform._lattice_table(beta.table.axis, g, sign=1).T    # F-ordered
        cases.append((f"inverse N={n}", (beta._dense_cube(), w, w, w)))
    interp = alt_interpolate_direct(random_samples(GridSpec(0.31, 0.37, 7), seed=8))
    cube, u = interp.coeffs._dense_cube(), (np.arange(64) + 0.5) / 64
    t = _phases(interp, u)
    cases.append(("slice (K, K, 1)", (cube, t[:7], t[7:14], t[20:21])))
    for m in (1, 2, 40):    # slab k's region block: m = 1 ends in (1, K) @ (K, 1)
        k = 63 - m
        cases.append((f"slab block m={m}", (cube, t[k + 1:], t[k + 1:], t[k:k + 1])))
    rng = np.random.default_rng(9)
    c = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)
    cases.append(("non-square", (c(3, 4, 5), c(2, 3), c(6, 4), c(7, 5))))
    return cases


@pytest.mark.parametrize("args", [pytest.param(a, id=name) for name, a in _separable_cases()])
def test_separable_matches_tensordot_bitwise_and_einsum(args):
    got, ref = transform._separable(*args), tensordot_separable(*args)
    assert got.shape == ref.shape and got.dtype == ref.dtype and got.flags.c_contiguous
    assert got.tobytes() == ref.tobytes()
    direct = np.einsum("ai,bj,ck,ijk->abc", args[1], args[2], args[3], args[0])
    assert np.abs(got - direct).max() <= 1e-13 * np.abs(direct).max()


@pytest.mark.parametrize("n", [2, 3, 5, 7, 9])
def test_round_trip(n):
    g = GridSpec(0.05, 0.3, n)
    s = random_samples(g, seed=100 + n)
    back = adft_inverse(adft_forward(s))
    assert np.abs(back.as_array() - s.as_array()).max() < 1e-10


@pytest.mark.parametrize("n", [7, 8, 61])
@pytest.mark.parametrize("a", [0.31, 100.31, 10000.31])
def test_round_trip_at_large_shifts(a, n):
    # the lattice phases are reduced in integers, so the error does not grow
    # with N |a|: 7.6e-16 to 1.8e-15 here, and 4.2e-15 to 4.7e-10 with float phases
    s = random_samples(GridSpec(a, 0.37, n), seed=n)
    back = adft_inverse(adft_forward(s)).values
    assert np.abs(back - s.values).max() < 5e-15 * np.abs(s.values).max()


def test_large_shift_check_fails_float_phases(monkeypatch):
    def float_phases(freqs, grid, sign=-1):   # the phases of coordinates rounded to doubles
        x = grid.a / grid.period + (np.arange(grid.n) + grid.b) / grid.n
        return np.exp(sign * 2j * np.pi * np.outer(freqs, x))

    monkeypatch.setattr(transform, "_lattice_table", float_phases)
    assert not check_large_shift(np.random.default_rng(0)).passed


def brute_force_inverse(grid, values):
    """Independent oracle: f(rst) = sum of beta_klm E_klm at each lattice point."""
    keys = domain_table(0, grid.n - 1).index.tolist()
    return np.array([sum(b * e_fn(klm, p) for klm, b in zip(keys, values))
                     for p in grid.points().tolist()])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_inverse_matches_brute_force_oracle(n):
    g = GridSpec(0.31, 0.37, n)
    beta = adft_forward(random_samples(g, seed=60 + n))
    beta.values[:] = random_samples(g, seed=70 + n).values
    oracle = brute_force_inverse(g, beta.values)
    assert np.abs(adft_inverse(beta).values - oracle).max() < 1e-12


def test_inverse_of_delta():
    g = GridSpec(0, 0, 3)
    keys = list(map(tuple, domain_table(0, 2).index.tolist()))
    beta = adft_forward(SampleSet.from_function(g, lambda p: 0.0))
    beta.values[keys.index((0, 0, 0))] = 1.0
    s = adft_inverse(beta)
    assert np.abs(s.as_array() - 3.0).max() < 1e-12

    beta.values[keys.index((0, 0, 0))] = 0.0
    beta.values[keys.index((2, 1, 0))] = 1.0
    s = adft_inverse(beta)
    for p, v in zip(g.points(), s.values):
        assert v == pytest.approx(eval_E((2, 1, 0), p), abs=1e-12)


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
    diag = domain_table(0, 2).weight * 27.0
    assert np.abs(np.diagonal(gram) - diag).max() < 1e-9
    off = gram - np.diag(np.diagonal(gram))
    assert np.abs(off).max() < 1e-9
    assert sorted(set(np.round(np.diagonal(gram).real))) == [27, 81]


def test_gram_n1():
    gram = discrete_gram(GridSpec(0, 0, 1))
    assert gram.shape == (1, 1)
    assert gram[0, 0] == pytest.approx(3.0)


def test_gram_shift_independent():
    target = np.diag(domain_table(0, 4).weight * 125.0)
    gram = discrete_gram(GridSpec(0.37, 0.42, 5))
    assert np.abs(gram - target).max() < 1e-9


def test_sets_refuse_a_wrong_shape_or_role():
    g = GridSpec(0, 0, 3)
    with pytest.raises(ValueError, match=r"expected 11 samples for N=3, got shape \(5,\)"):
        SampleSet(g, np.zeros(5))
    with pytest.raises(ValueError, match=r"expected 11 samples for N=3, got shape \(11, 1\)"):
        SampleSet.from_array(g, np.zeros((11, 1)))
    with pytest.raises(ValueError, match="role must be 'beta' or 'c_alt', got 'foo'"):
        CoefficientSet(g, "foo", np.zeros(11, dtype=complex))
    for role in ("beta", "c_alt"):      # both index ranges hold 11 triples at N=3
        with pytest.raises(ValueError, match=f"expected 11 '{role}' coefficients for N=3"):
            CoefficientSet(g, role, np.zeros(12, dtype=complex))


def test_naive_forward_labels_its_index_range():
    s = random_samples(GridSpec(0.31, 0.77, 5), seed=13)
    for role, table in (("beta", domain_table(0, 4)), ("c_alt", domain_table(-2, 2))):
        c = adft_forward_naive(s, role=role)
        assert c.role == role and np.array_equal(c.table.axis, table.axis)
        assert all(getattr(c.table, f) is getattr(table, f) for f in ("weight", "flat", "pos"))
    with pytest.raises(ValueError, match="odd N"):
        adft_forward_naive(random_samples(GridSpec(0, 0, 4)), role="c_alt")


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
