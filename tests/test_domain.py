import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from altexp.domain import (GridSpec, canonicalize, domain_positions,
                           domain_size, domain_table, enumerate_domain,
                           in_fundamental_domain, is_semidominant, rotations,
                           weight_g, write_grid_csv)
from altexp.functions import eval_E

N3_DOMAIN = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 2, 0),
             (2, 0, 0), (2, 1, 0), (2, 1, 1), (2, 2, 0), (2, 2, 1), (2, 2, 2)]


def test_semidominant_examples():
    assert is_semidominant((2, 3, 1))       # middle-dominant clause
    assert is_semidominant((0, 0, 0))
    assert not is_semidominant((3, 1, 2))


def test_canonicalize_examples():
    assert canonicalize((1, 2, 3)) == (2, 3, 1)
    assert canonicalize((2, 1, 1)) == (2, 1, 1)
    assert canonicalize((1, 0, 1)) == (1, 1, 0)


@given(st.tuples(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20)))
def test_canonicalize_idempotent_and_semidominant(t):
    c = canonicalize(t)
    assert is_semidominant(c)
    assert canonicalize(c) == c


def test_exactly_one_rotation_semidominant_exhaustive():
    rng = range(-5, 6)
    for k in rng:
        for l in rng:
            for m in rng:
                hits = {r for r in rotations((k, l, m)) if is_semidominant(r)}
                assert len(hits) == 1


def test_canonicalize_preserves_function():
    rng = np.random.default_rng(7)
    for _ in range(25):
        t = tuple(rng.uniform(-4, 4, 3))
        p = rng.uniform(-1, 1, 3)
        assert eval_E(t, p) == pytest.approx(eval_E(canonicalize(t), p), abs=1e-13)


def test_enumerate_n3_matches_reference_list():
    assert enumerate_domain(0, 2) == N3_DOMAIN


def test_enumerate_edge_cases():
    assert enumerate_domain(0, 0) == [(0, 0, 0)]
    assert enumerate_domain(0, -1) == []
    assert len(enumerate_domain(0, 4)) == 45


@pytest.mark.parametrize("n", range(1, 21))
def test_enumerate_count_formula(n):
    assert len(enumerate_domain(0, n - 1)) == domain_size(n) == n * (n * n + 2) // 3


def test_weight_g():
    assert weight_g((1, 1, 1)) == 3
    assert weight_g((2, 1, 0)) == 1
    assert weight_g((0, 0, 0)) == 3


def test_grid_points_n3_reference():
    assert enumerate_domain(0, 2) == N3_DOMAIN
    coords = list(map(tuple, GridSpec(0, 0, 3).points().tolist()))
    third = 1.0 / 3.0
    assert coords[0] == (0.0, 0.0, 0.0)
    assert coords[1] == (third, 0.0, 0.0)
    assert coords[-1] == (2 * third, 2 * third, 2 * third)


def test_grid_point_counts():
    assert len(GridSpec(0, 0, 1).points()) == 1
    assert tuple(GridSpec(0, 0, 1).points()[0].tolist()) == (0.0, 0.0, 0.0)
    assert len(GridSpec(0, 0.5, 7).points()) == 119


def test_grid_shift_and_period():
    g = GridSpec(0.25, 0.5, 2, period=2.0)
    p0 = tuple(g.points()[0].tolist())
    assert p0 == (0.25 + 0.5, 0.25 + 0.5, 0.25 + 0.5)


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(0, 0, 0)
    with pytest.raises(ValueError):
        GridSpec(0, 1.5, 3)
    with pytest.raises(ValueError):
        GridSpec(0, 0, 3, period=-1)
    GridSpec(0, 1.0, 3)  # b = 1 is allowed; no deduplication against b = 0


def test_gridspec_refuses_density_too_large_to_index():
    # 3 N^3 intp entries fit numpy's size limit up to N = 727041
    assert GridSpec(0, 0, 727041).n == 727041
    for n in (727042, 10 ** 6, 2 ** 63 - 1):
        with pytest.raises(ValueError, match=f"N={n} is too large to index"):
            GridSpec(0, 0, n)


def test_fundamental_domain_predicate():
    assert in_fundamental_domain((0.5, 0.5, 0.1))
    assert not in_fundamental_domain((0.1, 0.5, 0.5))
    assert not in_fundamental_domain((1.0, 0.5, 0.1))
    assert not in_fundamental_domain((0.5, 0.5, 0.5))  # boundary x > z fails


def test_grid_csv_format():
    buf = io.StringIO()
    write_grid_csv(GridSpec(0, 0, 3), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "r,s,t,x,y,z"
    assert len(lines) == 12
    assert lines[1] == "0,0,0,0,0,0"
    assert lines[2].startswith("1,0,0,0.33333333333333331,")


def test_domain_table_matches_enumeration_and_is_read_only():
    table = domain_table(-2, 2)
    keys = enumerate_domain(-2, 2)
    assert [tuple(t) for t in table.index.tolist()] == keys
    assert table.weight.tolist() == [weight_g(t) for t in keys]
    side = 5
    for t, row in zip(keys, table.rot.tolist()):
        flat = [((k + 2) * side + (l + 2)) * side + (m + 2)
                for k, l, m in rotations(t)]
        assert row == flat
    assert domain_table(-2, 2) is table
    for arr in table:
        with pytest.raises(ValueError):
            arr[0] = 0


def test_domain_positions():
    keys = enumerate_domain(0, 3)
    assert domain_positions(0, 3, keys).tolist() == list(range(len(keys)))
    assert domain_positions(0, 3, [(0, 1, 0), (4, 0, 0), (-1, 0, 0),
                                   (3, 2, 1)]).tolist() == [-1, -1, -1,
                                                             keys.index((3, 2, 1))]
    keys = enumerate_domain(-2, 2)
    assert domain_positions(-2, 2, keys).tolist() == list(range(len(keys)))
    # negative entries, out of range on either side, a non-semidominant
    # rotation of a member, and an entry beyond int64
    assert domain_positions(-2, 2, [(-2, -1, -2), (3, 0, 0), (0, 0, -3),
                                    (-1, 0, 1), (0, 1, -1), (-1, -2, -2)]).tolist() == [
        -1, -1, -1, -1, keys.index((0, 1, -1)), keys.index((-1, -2, -2))]
    assert domain_positions(0, 3, [(2 ** 63, 0, 0), (3, 2, 1)]).tolist() == [
        -1, enumerate_domain(0, 3).index((3, 2, 1))]


@pytest.mark.parametrize("n1, n2", [(0, 0), (0, 1), (0, 4), (0, 7), (-1, 1), (-3, 3)])
def test_domain_table_pos_inverts_rot(n1, n2):
    table = domain_table(n1, n2)
    side = n2 - n1 + 1
    assert table.pos.shape == (side,) * 3 and table.pos.dtype == np.int32
    cells = np.arange(side ** 3)
    assert (table.rot[table.pos.ravel()] == cells[:, None]).any(axis=1).all()
    for cell in np.ndindex(table.pos.shape):
        t = tuple(c + n1 for c in cell)
        assert tuple(table.index[table.pos[cell]].tolist()) == canonicalize(t)
    with pytest.raises(ValueError):
        table.pos[0, 0, 0] = 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a, period", [(1.7e308, 1e308), (-1e308, 1e308), (1e10, 1e-300)])
def test_gridspec_refuses_overflowing_coordinates(a, period):
    with pytest.raises(ValueError, match="a=.* T=.* overflow"):
        GridSpec(a, 0.5, 2, period)
    assert GridSpec(np.finfo(float).max, 0.5, 2).a == np.finfo(float).max
