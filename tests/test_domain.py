import io
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from altexp.domain import (GridSpec, _side_table, domain_positions, domain_table, rotations,
                           write_grid_csv)
from altexp.functions import eval_E
from altexp.oracles import canonicalize, is_semidominant

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
    assert list(map(tuple, domain_table(0, 2).index.tolist())) == N3_DOMAIN


def test_enumerate_edge_cases():
    assert domain_table(0, 0).index.tolist() == [[0, 0, 0]]
    assert domain_table(0, -1).index.tolist() == []
    assert len(domain_table(0, 4).index) == 45


@pytest.mark.parametrize("n", range(1, 21))
def test_enumerate_count_formula(n):
    assert len(domain_table(0, n - 1).index) == GridSpec(0, 0, n).point_count \
        == n * (n * n + 2) // 3


def test_weight_g():
    weight = domain_table(0, 2).weight[domain_positions(domain_table(0, 2), [
        (1, 1, 1), (2, 1, 0), (0, 0, 0)])]
    assert weight.tolist() == [3, 1, 3]


def test_grid_points_n3_reference():
    assert list(map(tuple, domain_table(0, 2).index.tolist())) == N3_DOMAIN
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


def fraction_unit_axis(g):
    """The unit-period axis by rational arithmetic: a/T + (r + b)/N mod 1, rounded once."""
    x = Fraction(g.a) / Fraction(g.period) + Fraction(g.b) / g.n
    return np.array([float((x + Fraction(r, g.n)) % 1) for r in range(g.n)])


def test_unit_axis_matches_rational_arithmetic_bitwise():
    # both reduce the exact shift mod 1 and round once, at shifts from 5e-324 to 1e300
    grids = []
    for a, period, b, n in itertools.product(
            (0.0, 5e-324, -5e-324, 0.31, -10000.31, 1e6 + 0.31, 1e300, -1e300),
            (1e-300, 1e-3, 1.7, 1e300), (0.0, 0.37, 0.5, 1.0), (1, 2, 7, 121)):
        try:
            grids.append(GridSpec(a, b, n, period))
        except ValueError:      # a / T past the float range
            continue
    assert len(grids) == 480
    for g in grids:
        assert g._unit_axis().tobytes() == fraction_unit_axis(g).tobytes(), g


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(0, 0, 0)
    with pytest.raises(ValueError):
        GridSpec(0, 1.5, 3)
    with pytest.raises(ValueError):
        GridSpec(0, 0, 3, period=-1)
    GridSpec(0, 1.0, 3)  # b = 1 is allowed; no deduplication against b = 0
    for n in (3.0, 2.5, "3", True):
        with pytest.raises(ValueError, match=f"N must be an integer, got {n!r}"):
            GridSpec(0, 0, n)
    for n in (np.int64(3), np.int32(3), np.uint8(3)):
        g = GridSpec(0, 0, n)
        assert type(g.n) is int and g == GridSpec(0, 0, 3)    # N is written to JSON as is
        assert g.points().shape == (11, 3)


def test_gridspec_refuses_density_too_large_to_index():
    # the int32 pos holds the positions 0..P-1 up to N = 1860 (P = 2,145,953,240)
    assert GridSpec(0, 0, 1860).n == 1860
    for n in (1861, 727042, 10 ** 6, 2 ** 63 - 1):
        with pytest.raises(ValueError, match=f"N={n} is too large to index"):
            GridSpec(0, 0, n)


def test_grid_csv_format():
    buf = io.StringIO()
    write_grid_csv(GridSpec(0, 0, 3), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "r,s,t,x,y,z"
    assert len(lines) == 12
    assert lines[1] == "0,0,0,0,0,0"
    assert lines[2].startswith("1,0,0,0.33333333333333331,")


def test_domain_table_matches_enumeration_and_is_read_only():
    for c in (2, 3):    # relabelled ranges: D(-c, c) is D(0, 2c) with a new axis
        table, side = domain_table(-c, c), 2 * c + 1
        keys = list(map(tuple, table.index.tolist()))
        assert keys == [t for t in itertools.product(range(-c, c + 1), repeat=3)
                        if is_semidominant(t)]
        assert table.weight.tolist() == [3 if k == l == m else 1 for k, l, m in keys]
        assert table.flat.tolist() == [((k + c) * side + (l + c)) * side + (m + c)
                                       for k, l, m in keys]
        again = domain_table(-c, c)     # relabelled, not rebuilt
        assert all(getattr(again, f) is getattr(table, f) for f in ("weight", "flat", "pos"))
        assert np.array_equal(again.axis, table.axis)
        assert table._fields == ("weight", "flat", "pos", "axis")
        for arr in table:
            with pytest.raises(ValueError):
                arr[0] = 0


@pytest.mark.parametrize("m", [0, 1, 3, 60])
def test_centred_range_relabels_the_table_from_zero(m):
    # either range first, as a command builds them, or D(-m, m) kept in use while
    # more other sides than the cache holds come and go: the two share the cube arrays
    others = [s for s in range(6) if s != 2 * m + 1][:5]
    cycling = [r for s in others for r in ((-m, m), (0, s - 1))]
    for builds in ([(-m, m)], [(0, 2 * m)], cycling):
        _side_table.cache_clear()
        for n1, n2 in builds:
            domain_table(n1, n2)
        centred, table = domain_table(-m, m), domain_table(0, 2 * m)
        assert all(getattr(centred, f) is getattr(table, f) for f in ("weight", "flat", "pos"))
        assert np.array_equal(centred.index, table.index - m)
        assert centred.axis.tolist() == list(range(-m, m + 1))


def test_relabelling_allocates_only_the_axis():
    _side_table.cache_clear()
    base = domain_table(0, 40)               # 0.5 MB of cube arrays
    tracemalloc.start()
    try:
        table = domain_table(-20, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table.axis.nbytes + 4096
    assert table.pos is base.pos


def test_table_build_holds_no_index_cube():
    # the broadcast mask traces 1.9x the stored table; an index cube of
    # 3 side^3 intp entries would trace 3.5x
    _side_table.cache_clear()
    tracemalloc.start()
    try:
        table = domain_table(0, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * sum(a.nbytes for a in table)


def test_domain_positions():
    keys = list(map(tuple, domain_table(0, 3).index.tolist()))
    assert domain_positions(domain_table(0, 3), keys).tolist() == list(range(len(keys)))
    assert domain_positions(domain_table(0, 3), [(0, 1, 0), (4, 0, 0), (-1, 0, 0),
                                                 (3, 2, 1)]).tolist() == [
        -1, -1, -1, keys.index((3, 2, 1))]
    keys = list(map(tuple, domain_table(-2, 2).index.tolist()))
    assert domain_positions(domain_table(-2, 2), keys).tolist() == list(range(len(keys)))
    # negative entries, out of range on either side, a non-semidominant
    # rotation of a member, and an entry beyond int64
    assert domain_positions(domain_table(-2, 2), [(-2, -1, -2), (3, 0, 0), (0, 0, -3),
                                                  (-1, 0, 1), (0, 1, -1),
                                                  (-1, -2, -2)]).tolist() == [
        -1, -1, -1, -1, keys.index((0, 1, -1)), keys.index((-1, -2, -2))]
    assert domain_positions(domain_table(0, 3), [(2 ** 63, 0, 0), (3, 2, 1)]).tolist() == [
        -1, domain_table(0, 3).index.tolist().index([3, 2, 1])]


@pytest.mark.parametrize("n1, n2", [(0, 0), (0, 1), (0, 4), (0, 7), (-1, 1), (-3, 3)])
def test_domain_table_pos_inverts_rot(n1, n2):
    table = domain_table(n1, n2)
    side = n2 - n1 + 1
    assert table.pos.shape == (side,) * 3 and table.pos.dtype == np.int32
    assert table.pos.ravel()[table.flat].tolist() == list(range(len(table.index)))
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
