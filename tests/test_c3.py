import numpy as np
import pytest

from altexp.c3 import (ORBIT_TABLE, eval_EW, eval_EW_expanded,
                       even_weyl_group, generate_tilde_we, reflection_orbit,
                       scalar_product, symmetrization_residual, we_orbit)
from altexp.functions import eval_E
from altexp.verify import orbit_mismatch, run_suite


def test_orbit_table_shape_and_first_rows():
    assert ORBIT_TABLE.shape == (24, 3, 3)
    assert we_orbit((1, 0, 0))[0] == (1.0, 0.0, 0.0)
    assert we_orbit((1, 0, 0))[1] == (-1.0, 1.0, 0.0)
    assert we_orbit((1, 1, 1))[-1] == (-2.0, 1.0, -2.0)


def test_orbit_generic_distinctness():
    rng = np.random.default_rng(60)
    v = rng.normal(size=3)
    orbit = {tuple(np.round(w, 10)) for w in we_orbit(v)}
    assert len(orbit) == 24


def test_orbit_table_matches_reflection_generation():
    rng = np.random.default_rng(61)
    for _ in range(3):
        v = rng.normal(size=3)
        table = {tuple(np.round(w, 10)) for w in we_orbit(v)}
        assert table == {tuple(np.round(w, 10)) for w in reflection_orbit(v)}


def test_scalar_product_values():
    assert scalar_product((1, 0, 0), (1, 0, 0)) == pytest.approx(1.0)
    assert scalar_product((0, 0, 0), (0.3, -1.2, 0.7)) == 0.0
    assert scalar_product((0.3, -1.2, 0.7), (0, 0, 0)) == 0.0
    assert scalar_product((0, 0, 1), (0, 0, 1)) == pytest.approx(1.5)


def test_eval_EW_at_origin():
    assert eval_EW((0, 0, 0), (0.4, -0.2, 0.9)) == pytest.approx(24.0)
    assert eval_EW((1.7, 0.3, -0.8), (0, 0, 0)) == pytest.approx(24.0)


def test_eval_EW_matches_expanded_display():
    rng = np.random.default_rng(62)
    for _ in range(20):
        lam, mu, nu = rng.uniform(-3, 3, 3)
        x, y, z = rng.uniform(-1, 1, 3)
        lhs = eval_EW((lam - mu, mu - nu, nu), (x - y, y - z, 2 * z))
        rhs = eval_EW_expanded((lam, mu, nu), (x, y, z))
        assert abs(lhs - rhs) < 1e-11


def test_tilde_we_closure():
    elems = generate_tilde_we()
    assert len(elems) == 8
    reprs = {tuple(map(tuple, g)) for g in elems}
    assert tuple(map(tuple, np.eye(3, dtype=int))) in reprs
    for g in elems:
        assert round(float(np.linalg.det(g))) == 1
        # signed permutation structure: one nonzero of modulus 1 per row/col
        assert (np.abs(g).sum(axis=0) == 1).all()
        assert (np.abs(g).sum(axis=1) == 1).all()


def test_tilde_we_contains_stated_generator_action():
    reprs = {tuple(map(tuple, g)) for g in generate_tilde_we()}
    swap_negate = ((0, 1, 0), (1, 0, 0), (0, 0, -1))  # (x,y,z) -> (y,x,-z)
    assert swap_negate in reprs


def test_even_weyl_group_order():
    assert len(even_weyl_group()) == 24


def test_symmetrization_trivial_cases():
    assert symmetrization_residual((0, 0, 0), (0.3, 0.8, -0.4)) < 1e-12
    assert symmetrization_residual((1.2, -0.7, 0.4), (0, 0, 0)) < 1e-12


def test_symmetrization_random():
    rng = np.random.default_rng(63)
    for _ in range(100):
        t = rng.uniform(-4, 4, 3)
        p = rng.uniform(-1, 1, 3)
        assert symmetrization_residual(t, p) < 1e-10


def test_symmetrization_term_count_consistency():
    # at the origin both sides degenerate to the term counts 24 = 8 * 3
    t = (0.9, 0.1, -0.5)
    total = sum(eval_E(t, g @ np.zeros(3)) for g in generate_tilde_we())
    assert total == pytest.approx(24.0)


@pytest.mark.parametrize("seed", [36, 93, 108, 136])
def test_c3_suite_passes_where_orbit_weights_round_differently(seed):
    # these seeds put an orbit weight on a 10-digit rounding boundary
    assert all(r.passed for r in run_suite("c3", seed=seed))


def test_orbit_mismatch_rejects_a_moved_point():
    v = np.random.default_rng(62).normal(size=3)
    generated = reflection_orbit(v)
    orbit = we_orbit(v)
    assert orbit_mismatch(orbit, generated) < 1e-10
    x, y, z = orbit[5]
    moved = orbit[:5] + [(x, y + 1e-6, z)] + orbit[6:]
    assert orbit_mismatch(moved, generated) >= 1e-10
    assert orbit_mismatch(orbit[1:], generated) >= 1e-10
