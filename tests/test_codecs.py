"""Differential tests of the text codecs against their per-row predecessors.

The oracles below are the writers and readers as they were before the
block formatter and the column-wise readers: f-string loops,
``json.dump(..., indent=1)`` and per-line or per-entry parsing.  The
writers must produce the same bytes, and the readers the same values
(bitwise, ``-0.0`` included) or the same error message.
"""

import hashlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from altexp.cli import _write_slice_csv, main
from altexp.domain import GridSpec, domain_positions, domain_table, grid_points, write_grid_csv
from altexp.interpolation import alt_interpolate_direct, eval_psi_alt_tensor
from altexp.io import (FormatError, MissingKeyError, read_coefficients_json,
                       read_samples_csv, write_coefficients_json, write_samples_csv)
from altexp.textrows import BLOCK
from altexp.transform import CoefficientSet, SampleSet

SPECIALS = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, 1 / 3, 2.5e-8, 1e16,
            123456789.0, -2.2250738585072014e-308]


# ------------------------------------------------------------- old writers

def old_write_samples_csv(s, fh):
    fh.write("r,s,t,re,im\n")
    for (r, s_, t), v in zip(s.table.index.tolist(), s.values.tolist()):
        fh.write(f"{r},{s_},{t},{v.real:.17g},{v.imag:.17g}\n")


def old_write_coefficients_json(c, fh):
    obj = {
        "N": c.grid.n, "M": c.m, "a": c.grid.a, "b": c.grid.b, "T": c.grid.period,
        "role": c.role,
        "coeffs": [
            {"k": k, "l": l, "m": m, "re": v.real, "im": v.imag}
            for (k, l, m), v in zip(c.table.index.tolist(), c.values.tolist())
        ],
    }
    json.dump(obj, fh, indent=1)
    fh.write("\n")


def old_write_grid_csv(g, fh):
    fh.write("r,s,t,x,y,z\n")
    for (r, s, t), (x, y, z) in grid_points(g):
        fh.write(f"{r},{s},{t},{x:.17g},{y:.17g},{z:.17g}\n")


def old_write_slice_csv(interp, z, res, fh):
    g = interp.grid
    coords = g.a + (np.arange(res) + 0.5) * (g.period / res)
    vals = eval_psi_alt_tensor(interp, coords, coords, np.array([z]))[..., 0]
    fh.write("x,y,re,im\n")
    for i, x in enumerate(coords):
        for j, y in enumerate(coords):
            v = vals[i, j]
            fh.write(f"{x:.17g},{y:.17g},{v.real:.17g},{v.imag:.17g}\n")


def text_of(write, *args):
    buf = io.StringIO()
    write(*args, buf)
    return buf.getvalue()


# ------------------------------------------------------------- old readers

def old_place(n1, n2, keys, values, where, what):
    pos = domain_positions(n1, n2, keys)
    bad = np.flatnonzero(pos < 0)
    if bad.size:
        i = bad[0]
        raise FormatError(f"{where[i]}: {keys[i]} is not a triple of the {what}")
    order = np.argsort(pos, kind="stable")
    dup = np.flatnonzero(np.diff(pos[order]) == 0)
    if dup.size:
        i, j = order[dup[0]], order[dup[0] + 1]
        raise FormatError(f"{where[i]} and {where[j]}: duplicate triple {keys[i]}")
    table = domain_table(n1, n2)
    out = np.zeros(len(table.index), dtype=complex)
    out[pos] = values
    if len(pos) < len(out):
        filled = np.zeros(len(out), dtype=bool)
        filled[pos] = True
        first = tuple(table.index[np.argmin(filled)].tolist())
        raise MissingKeyError(f"the {what} is missing triple {first}")
    return out


def old_read_samples_csv(grid, fh):
    header = fh.readline().strip()
    if header != "r,s,t,re,im":
        raise FormatError(f"line 1: expected header 'r,s,t,re,im', got {header!r}")
    keys, values, where = [], [], []
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise FormatError(f"line {lineno}: expected 5 fields, got {len(parts)}")
        try:
            r, s_, t = int(parts[0]), int(parts[1]), int(parts[2])
            re, im = float(parts[3]), float(parts[4])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
        if not (math.isfinite(re) and math.isfinite(im)):
            raise FormatError(f"line {lineno}: sample value {parts[3]},{parts[4]} is not finite")
        keys.append((r, s_, t))
        values.append(complex(re, im))
        where.append(f"line {lineno}")
    return SampleSet(grid, old_place(0, grid.n - 1, keys, values, where,
                                     f"N={grid.n} lattice"))


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite(v):
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:
        return False


def _field(obj, name, ok, need, where=""):
    if not isinstance(obj, dict) or name not in obj:
        raise FormatError(f"{where}missing or malformed field {name!r}")
    if not ok(obj[name]):
        raise FormatError(f"{where}field {name!r} must be {need}, got {obj[name]!r}")
    return obj[name]


def old_read_coefficients_json(fh):
    try:
        obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"line {exc.lineno}: {exc.msg}") from None
    n = _field(obj, "N", lambda v: _is_int(v) and v >= 1, "an integer >= 1")
    m = _field(obj, "M", lambda v: v is None or _is_int(v), "an integer or null")
    a, b, period = (_field(obj, f, _is_finite, "a finite number") for f in "abT")
    role = _field(obj, "role", lambda v: v in ("beta", "c_alt"), "'beta' or 'c_alt'")
    if role == "c_alt" and (m is None or n != 2 * m + 1):
        raise FormatError(f"role 'c_alt' needs N = 2M+1, got N={n}, M={m}")
    coeffs = _field(obj, "coeffs", lambda v: isinstance(v, list), "a list")
    keys, values, where = [], [], []
    for i, c in enumerate(coeffs):
        at = f"coeffs[{i}]: "
        keys.append(tuple(_field(c, f, _is_int, "an integer", at) for f in "klm"))
        re, im = (_field(c, f, _is_finite, "a finite number", at) for f in ("re", "im"))
        values.append(complex(re, im))
        where.append(f"coeffs[{i}]")
    try:
        grid = GridSpec(a, b, n, period)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    n1, n2 = (0, n - 1) if role == "beta" else (-m, m)
    return CoefficientSet(grid, role, old_place(n1, n2, keys, values, where,
                                                f"role {role!r} index range"), m=m)


def outcome(read, *args):
    """The set read, or the type and message of the exception raised."""
    try:
        return read(*args)
    except Exception as exc:
        return type(exc), str(exc)


def assert_same_outcome(new, old):
    if isinstance(old, tuple):
        assert new == old
        return
    assert not isinstance(new, tuple), new
    assert new.grid == old.grid
    assert getattr(new, "role", None) == getattr(old, "role", None)
    assert getattr(new, "m", None) == getattr(old, "m", None)
    assert np.array_equal(new.values.view(np.uint64), old.values.view(np.uint64))


# ------------------------------------------------------------------ values

def special_values(size, seed):
    """Complex values whose parts mix random normals with awkward doubles."""
    rng = np.random.default_rng(seed)
    pool = np.concatenate([SPECIALS, rng.normal(size=size)])
    out = np.empty(size, dtype=complex)
    out.real, out.imag = rng.choice(pool, size), rng.choice(pool, size)
    out.real[0], out.imag[0] = -0.0, 5e-324
    return out


def c_alt_set(g, seed):
    m = (g.n - 1) // 2
    size = len(domain_table(-m, m).index)
    return CoefficientSet(g, "c_alt", special_values(size, seed), m=m)


# ----------------------------------------------------------------- writers

@pytest.mark.parametrize("n", [1, 2, 6, 7, 20])
@pytest.mark.parametrize("a, b", [(0.31, 0.37), (0, 0.5)])
def test_writers_match_old_bytes(n, a, b):
    g = GridSpec(a, b, n)
    s = SampleSet(g, special_values(g.point_count, n))
    assert text_of(write_samples_csv, s) == text_of(old_write_samples_csv, s)
    assert text_of(write_grid_csv, g) == text_of(old_write_grid_csv, g)
    beta = CoefficientSet(g, "beta", special_values(g.point_count, n + 1))
    assert text_of(write_coefficients_json, beta) == text_of(old_write_coefficients_json, beta)
    if n % 2:
        c = c_alt_set(g, n + 2)
        assert text_of(write_coefficients_json, c) == text_of(old_write_coefficients_json, c)
        rng = np.random.default_rng(n)
        interp = alt_interpolate_direct(SampleSet(g, rng.normal(size=g.point_count)
                                                  + 1j * rng.normal(size=g.point_count)))
        for z, res in ((0.25, 8), (-1.3, 5)):
            assert (text_of(_write_slice_csv, interp, z, res)
                    == text_of(old_write_slice_csv, interp, z, res))


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(parts=st.lists(finite, min_size=8, max_size=8), a=st.one_of(finite, st.integers(-3, 3)))
def test_writers_match_old_bytes_on_any_finite_double(parts, a):
    g = GridSpec(a, 0.25, 2)
    v = np.empty(4, dtype=complex)
    v.real, v.imag = parts[:4], parts[4:]
    s, beta = SampleSet(g, v), CoefficientSet(g, "beta", v)
    assert text_of(write_samples_csv, s) == text_of(old_write_samples_csv, s)
    assert text_of(write_coefficients_json, beta) == text_of(old_write_coefficients_json, beta)


class Chunks:
    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)


def test_writers_stream_in_blocks():
    # N=31 has 10,417 rows: the text goes out in blocks of at most BLOCK rows
    g = GridSpec(0.31, 0.37, 31)
    s = SampleSet(g, special_values(g.point_count, 7))
    fh = Chunks()
    write_samples_csv(s, fh)
    assert "".join(fh.chunks) == text_of(old_write_samples_csv, s)
    assert max(c.count("\n") for c in fh.chunks) == BLOCK
    assert len(fh.chunks) > g.point_count // BLOCK


# ----------------------------------------------------------------- readers

def sample_text(n=3):
    g = GridSpec(0.31, 0.37, n)
    return g, text_of(old_write_samples_csv, SampleSet(g, special_values(g.point_count, 5)))


KEY_TEXT = ["1.0", "1_0", " 2", "+1", "x", "", "99", "-1", "true", "٣", "9" * 30]
VALUE_TEXT = ["nan", "inf", "-inf", "1e999", "-0.0", "1_0.5", " 2.5 ", "0x1p3", "",
              "true", "5e-324"]


@st.composite
def sample_mutations(draw):
    g, text = sample_text()
    lines = text.split("\n")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(1, len(lines) - 1))
        parts = lines[i].split(",")
        kind = draw(st.sampled_from(["drop_field", "blank", "value", "key", "dup",
                                     "missing", "space", "cr"]))
        if kind == "drop_field" and parts:
            del parts[draw(st.integers(0, len(parts) - 1))]
            lines[i] = ",".join(parts)
        elif kind == "blank":
            lines.insert(i, draw(st.sampled_from(["", " ", "\t", "\r"])))
        elif kind == "value" and len(parts) == 5:
            parts[draw(st.integers(3, 4))] = draw(st.sampled_from(VALUE_TEXT))
            lines[i] = ",".join(parts)
        elif kind == "key" and len(parts) == 5:
            parts[draw(st.integers(0, 2))] = draw(st.sampled_from(KEY_TEXT))
            lines[i] = ",".join(parts)
        elif kind == "dup":
            lines.insert(draw(st.integers(1, len(lines))), lines[i])
        elif kind == "missing":
            del lines[i]
        elif kind == "space" and parts:
            j = draw(st.integers(0, len(parts) - 1))
            parts[j] = draw(st.sampled_from([" ", "\t", "  "])) + parts[j] + " "
            lines[i] = ",".join(parts)
        elif kind == "cr":
            lines[i] += "\r"
    return g, "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(case=sample_mutations())
def test_sample_reader_matches_old_on_mutations(case):
    g, text = case
    assert_same_outcome(outcome(read_samples_csv, g, io.StringIO(text)),
                        outcome(old_read_samples_csv, g, io.StringIO(text)))


@pytest.mark.parametrize("text", [
    "r,s,t,re,im\n", "r,s,t,re,im", "r,s,t,re,im\n\n \n",
    "r,s,t,re,im\n0,0,0,1,0\n1,0,0,-0.0,-0.0\n",
    "r,s,t,re,im\n9223372036854775808,0,0,1,0\n",
    "r,s,t,re,im\n18446744073709551616,0,-1,1,0\n",
])
def test_sample_reader_matches_old_on_edge_files(text):
    g = GridSpec(0, 0, 2)
    assert_same_outcome(outcome(read_samples_csv, g, io.StringIO(text)),
                        outcome(old_read_samples_csv, g, io.StringIO(text)))


def test_sample_reader_keeps_negative_zero():
    g, text = sample_text()
    back = read_samples_csv(g, io.StringIO(text))
    assert math.copysign(1.0, back.values[0].real) == -1.0


FIELD_VALUES = [True, False, 1.0, "1", None, math.nan, math.inf, -math.inf, 10 ** 400,
                2 ** 63, 2 ** 64 + 1, -0.0, 0, -5, 5e-324, 1e300, 99, [], {}]


@st.composite
def coefficient_mutations(draw):
    g = GridSpec(0.31, 0.37, 3)
    role = draw(st.sampled_from(["beta", "c_alt"]))
    c = (CoefficientSet(g, "beta", special_values(g.point_count, 6)) if role == "beta"
         else c_alt_set(g, 6))
    obj = json.loads(text_of(old_write_coefficients_json, c))
    coeffs = obj["coeffs"]
    for _ in range(draw(st.integers(1, 3))):
        if not coeffs:
            break
        i = draw(st.integers(0, len(coeffs) - 1))
        kind = draw(st.sampled_from(["drop_field", "set_field", "entry", "dup", "missing"]))
        field = draw(st.sampled_from(["k", "l", "m", "re", "im"]))
        if kind == "drop_field" and isinstance(coeffs[i], dict):
            coeffs[i].pop(field, None)
        elif kind == "set_field" and isinstance(coeffs[i], dict):
            coeffs[i][field] = draw(st.sampled_from(FIELD_VALUES))
        elif kind == "entry":
            coeffs[i] = draw(st.sampled_from([[], "x", 3, None, [1, 2, 3, 4, 5]]))
        elif kind == "dup":
            coeffs.insert(draw(st.integers(0, len(coeffs))), dict(coeffs[i])
                          if isinstance(coeffs[i], dict) else coeffs[i])
        elif kind == "missing":
            del coeffs[i]
    return json.dumps(obj)


@settings(max_examples=300, deadline=None)
@given(text=coefficient_mutations())
def test_coefficient_reader_matches_old_on_mutations(text):
    assert_same_outcome(outcome(read_coefficients_json, io.StringIO(text)),
                        outcome(old_read_coefficients_json, io.StringIO(text)))


@pytest.mark.parametrize("coeffs", [[], [{"k": 0, "l": 0, "m": 0, "re": 1, "im": -0.0}]])
def test_coefficient_reader_matches_old_on_edge_files(coeffs):
    text = json.dumps({"N": 1, "M": None, "a": 0, "b": 0.5, "T": 1.0, "role": "beta",
                       "coeffs": coeffs})
    assert_same_outcome(outcome(read_coefficients_json, io.StringIO(text)),
                        outcome(old_read_coefficients_json, io.StringIO(text)))


# ----------------------------------------------------- non-finite refusals

def refused(write, *args):
    buf = io.StringIO()
    with pytest.raises(ValueError) as exc:
        write(*args, buf)
    assert buf.getvalue() == ""
    return str(exc.value)


def test_samples_writer_refuses_non_finite():
    g = GridSpec(0.31, 0.37, 3)
    v = np.ones(g.point_count, dtype=complex)
    v[4] = complex(1.0, math.inf)
    assert str(tuple(domain_table(0, 2).index[4].tolist())) in refused(
        write_samples_csv, SampleSet(g, v))


def test_coefficients_writer_refuses_non_finite():
    g = GridSpec(0.31, 0.37, 3)
    v = np.ones(g.point_count, dtype=complex)
    v[2] = math.nan
    assert str(tuple(domain_table(0, 2).index[2].tolist())) in refused(
        write_coefficients_json, CoefficientSet(g, "beta", v))
    object.__setattr__(g, "a", math.nan)        # GridSpec itself refuses a = nan
    refused(write_coefficients_json, CoefficientSet(g, "beta",
                                                    np.ones(g.point_count, dtype=complex)))


def test_grid_writer_refuses_non_finite():
    g = GridSpec(0.0, 0.5, 2)
    object.__setattr__(g, "a", math.inf)        # GridSpec itself refuses a = inf
    assert "(0, 0, 0)" in refused(write_grid_csv, g)


def test_slice_writer_refuses_non_finite():
    g = GridSpec(0.31, 0.37, 3)
    interp = alt_interpolate_direct(SampleSet(g, np.ones(g.point_count, dtype=complex)))
    interp.coeffs.values[0] = math.nan
    refused(_write_slice_csv, interp, 0.25, 4)


# ------------------------------------------------------ pinned CLI outputs

# sha256 of each output as written before the block formatter (numpy 2.4.6,
# OpenBLAS, x86-64), for the commands in cli_outputs
PINNED = {
    "b6.json": "c35d30d4b7661ba0914bb77c348de0a6ab1b67fd5ca9c5edda54a25f22a87bb2",
    "b7.json": "7dadb6ee59d5113c9397f40dd809275fd5adf56c83f5ba2def09ee8872413c34",
    "e6.csv": "0e66db2766d9b1e6c448f75036e7572cd4ca73255abe3e9d160fc2da23f40d8e",
    "e7.csv": "9243179e6b903f9676eda5da56ccbe83391a5023ed5c4240533f15efc463296b",
    "err.csv": "6559f1e3bfa59f8b7bceaf99262c8a2524e6cf95332cc12f94f81c56ed769ab7",
    "grid6.csv": "39bef1e7fd99c72f33c5f2decdf9153b645f51e8b4f109a46650d21590fc814d",
    "grid7.csv": "873195b7bd1cfb67941d83c1c155a837b7b206a343cc51e9a41c1a6cf1246651",
    "i7.json": "53129da82e2802e05e7da5add1dcec7a3459cc3154177c71bc45f0b7393062f8",
    "inv6.csv": "363315e3b245df763b6ce6cebd778fa209300ae7c66934632c522fb2a022cedb",
    "inv7.csv": "51524d14c62789c801cca2076d0823556c5a1ef7f759b6d9c93c04cbe0afaefd",
    "s6.csv": "fd871fdef5d0a40acac1fbe0cf6f3ed4ade5286dca10e0edc4741da80a165908",
    "s7.csv": "dd531ad8d57bda0511d36d19e7ba7cf779d0bd4e1e8f1fafbbff35b2d10ec0ce",
    "slice7.csv": "cca9d1c3b8ed8126ceea7c8fabccbccb2cc7e20f262f17e0c297a3c1a7f986b8",
}


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("pinned")

    def run(*argv):
        assert main([str(a) for a in argv]) == 0

    for n in (6, 7):
        lat = ("--N", n, "--a", 0.31, "--b", 0.37)
        run("grid", *lat, "--out", d / f"grid{n}.csv")
        run("sample", "--f", "bump", *lat, "--out", d / f"s{n}.csv")
        run("sample", "--f", "E:2,1,0", *lat, "--out", d / f"e{n}.csv")
        run("transform", "--in", d / f"s{n}.csv", *lat, "--out", d / f"b{n}.json")
        run("inverse", "--in", d / f"b{n}.json", "--out", d / f"inv{n}.csv")
    run("interpolate", "--in", d / "s7.csv", "--N", 7, "--a", 0.31, "--b", 0.37,
        "--out", d / "i7.json", "--slice", "z=0.25", "--res", 16,
        "--slice-out", d / "slice7.csv")
    run("error-table", "--N", 5, "--N", 7, "--a", 0.31, "--b", 0.37, "--quad-n", 32,
        "--out", d / "err.csv")
    return d


@pytest.mark.parametrize("name", sorted(PINNED))
def test_cli_output_bytes_pinned(cli_outputs, name):
    assert hashlib.sha256((cli_outputs / name).read_bytes()).hexdigest() == PINNED[name]
