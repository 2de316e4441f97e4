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
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from altexp import io as altio
from altexp.cli import _write_slice_csv, main
from altexp.domain import GridSpec, domain_positions, domain_table, write_grid_csv
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
    for (r, s, t), (x, y, z) in zip(domain_table(0, g.n - 1).index.tolist(),
                                    g.points().tolist()):
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

def old_place(table, keys, values, where, what):
    pos = domain_positions(table, keys)
    bad = np.flatnonzero(pos < 0)
    if bad.size:
        i = bad[0]
        raise FormatError(f"{where[i]}: {keys[i]} is not a triple of the {what}")
    order = np.argsort(pos, kind="stable")
    dup = np.flatnonzero(np.diff(pos[order]) == 0)
    if dup.size:
        i, j = order[dup[0]], order[dup[0] + 1]
        raise FormatError(f"{where[i]} and {where[j]}: duplicate triple {keys[i]}")
    out = np.zeros(len(table.index), dtype=complex)
    out[pos] = values
    if len(pos) < len(out):
        filled = np.zeros(len(out), dtype=bool)
        filled[pos] = True
        first = tuple(table.index[np.argmin(filled)].tolist())
        raise MissingKeyError(f"the {what} is missing triple {first}")
    return out


# The sample CSV grammar: each line blank, or three integer and two float
# fields padded with ASCII blanks (the spellings numpy's parser and int()
# and float() all read), and a '\r' only before the newline.
BLANK = r"[ \t\x0b\x0c]*"
KEY = rf"{BLANK}[+-]?[0-9]+{BLANK}"
FLOAT = (rf"{BLANK}[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
         rf"|(?i:inf|infinity|nan)){BLANK}")
SAMPLE_LINE = re.compile(rf"(?:(?:{KEY},){{3}}{FLOAT},{FLOAT}|{BLANK})\r?\n?")


def grammar_error(lineno, line):
    """The refusal of a line that int() and float() read but the grammar does
    not: it names the first character outside ASCII, a '_', one of
    '\\x1c'-'\\x1f' or a '\\r' before the newline."""
    off = re.search(r"[^\x00-\x7f]|[_\x1c-\x1f]|\r(?!\n?\Z)", line)
    assert off, f"line {lineno} is outside the grammar with no character to name: {line!r}"
    return FormatError(f"line {lineno}: {off.group()!r} is outside the sample CSV grammar")


def old_read_samples_csv(grid, fh):
    """The per-line reader with the grammar check, the header's included; a key
    past int64 gets the key check's message at its own line."""
    header = fh.readline()
    if not re.fullmatch(rf"{BLANK}r,s,t,re,im{BLANK}\r?\n?", header):
        got = header.removesuffix("\n").removesuffix("\r").strip(" \t\v\f")
        raise FormatError(f"line 1: expected header 'r,s,t,re,im', got {got!r}")
    keys, values, where = [], [], []
    for lineno, raw in enumerate(fh, start=2):
        line = raw.strip()
        if not line:
            if not SAMPLE_LINE.fullmatch(raw):
                raise grammar_error(lineno, raw)
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise FormatError(f"line {lineno}: expected 5 fields, got {len(parts)}")
        try:
            r, s_, t = int(parts[0]), int(parts[1]), int(parts[2])
            re_, im = float(parts[3]), float(parts[4])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
        if not SAMPLE_LINE.fullmatch(raw):
            raise grammar_error(lineno, raw)
        if not (math.isfinite(re_) and math.isfinite(im)):
            raise FormatError(f"line {lineno}: sample value {parts[3]},{parts[4]} is not finite")
        if not all(-2 ** 63 <= k < 2 ** 63 for k in (r, s_, t)):
            raise FormatError(f"line {lineno}: {(r, s_, t)} is not a triple of the "
                              f"N={grid.n} lattice")
        keys.append((r, s_, t))
        values.append(complex(re_, im))
        where.append(f"line {lineno}")
    return SampleSet(grid, old_place(domain_table(0, grid.n - 1), keys, values, where,
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
    if len(keys) < grid.point_count:
        raise MissingKeyError(f"the role {role!r} index range of N={n} holds "
                              f"{grid.point_count} triples; the file lists {len(keys)}")
    n1, n2 = (0, n - 1) if role == "beta" else (-m, m)
    return CoefficientSet(grid, role, old_place(domain_table(n1, n2), keys, values, where,
                                                f"role {role!r} index range"))


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
    return CoefficientSet(g, "c_alt", special_values(size, seed))


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


def test_grid_parameters_are_written_as_floats():
    # a, b and T are stored as Python floats, whatever real number type is given
    g = GridSpec(0.0, 0.5, 3, 2.0)
    c = CoefficientSet(g, "beta", special_values(g.point_count, 3))
    for grid in (GridSpec(0, 0.5, 3, 2), GridSpec(np.float32(0.0), np.float32(0.5), 3,
                                                   np.int64(2))):
        assert all(type(v) is float for v in (grid.a, grid.b, grid.period))
        assert (text_of(write_coefficients_json, CoefficientSet(grid, "beta", c.values))
                == text_of(write_coefficients_json, c))
    g32 = GridSpec(np.float32(0.31), 0.37, 5)
    assert g32.a == float(np.float32(0.31))
    assert '"a": 0.3100000023841858,' in text_of(
        write_coefficients_json, CoefficientSet(g32, "beta", np.zeros(g32.point_count)))
    for field, args in (("lattice shift a", ("0.3", 0.5, 3)),
                        ("fractional offset b", (0.0, None, 3)),
                        ("period T", (0.0, 0.5, 3, 2j))):
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            GridSpec(*args)
    with pytest.raises(ValueError, match="period T must be finite, got an integer past"):
        GridSpec(0.0, 0.5, 3, 10 ** 400)


def test_sets_store_complex_arrays():
    g = GridSpec(0.31, 0.37, 3)
    ones = np.ones(g.point_count, dtype=complex)
    assert SampleSet(g, ones).values is ones                  # no copy of complex128
    assert CoefficientSet(g, "beta", ones).values is ones
    for values in ([1.0] * g.point_count, [1] * g.point_count,
                   np.ones(g.point_count, dtype=int)):
        assert (text_of(write_samples_csv, SampleSet(g, values))
                == text_of(write_samples_csv, SampleSet(g, ones)))
        for role in ("beta", "c_alt"):
            assert (text_of(write_coefficients_json, CoefficientSet(g, role, values))
                    == text_of(write_coefficients_json, CoefficientSet(g, role, ones)))
    words = np.array(["one"] * g.point_count)
    with pytest.raises(ValueError):
        SampleSet(g, words)
    with pytest.raises(ValueError):
        CoefficientSet(g, "beta", words)


class Chunks:
    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)


def test_writers_stream_in_blocks():
    # N=31 has 10,417 rows and a res=70 slice 4900: the text goes out in
    # blocks of at most BLOCK rows, a row being a line or a coefficient entry
    g = GridSpec(0.31, 0.37, 31)
    s = SampleSet(g, special_values(g.point_count, 7))
    rng = np.random.default_rng(31)
    interp = alt_interpolate_direct(SampleSet(g, rng.normal(size=g.point_count)
                                              + 1j * rng.normal(size=g.point_count)))
    for write, old, args, row, rows in (
            (write_samples_csv, old_write_samples_csv, (s,), "\n", g.point_count),
            (write_coefficients_json, old_write_coefficients_json,
             (CoefficientSet(g, "beta", special_values(g.point_count, 8)),), '"k"', g.point_count),
            (write_coefficients_json, old_write_coefficients_json, (c_alt_set(g, 9),), '"k"',
             g.point_count),
            (_write_slice_csv, old_write_slice_csv, (interp, 0.25, 70), "\n", 70 * 70)):
        fh = Chunks()
        write(*args, fh)
        assert "".join(fh.chunks) == text_of(old, *args)
        assert max(c.count(row) for c in fh.chunks) == BLOCK
        assert len(fh.chunks) > rows // BLOCK


@pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 25])
@pytest.mark.parametrize("a", [0, 0.31, -0.9, 1e300])
def test_grid_writer_matches_reference(n, a):
    # N=25 has 5225 rows, more than one block
    for b in (0, 0.37, 1):
        for period in (1, 1.7):
            g = GridSpec(a, b, n, period)
            assert text_of(write_grid_csv, g) == text_of(old_write_grid_csv, g)


def test_grid_writer_streams_in_blocks():
    g = GridSpec(0.31, 0.37, 31)
    fh = Chunks()
    write_grid_csv(g, fh)
    assert "".join(fh.chunks) == text_of(old_write_grid_csv, g)
    assert max(c.count("\n") for c in fh.chunks) <= BLOCK
    assert len(fh.chunks) > g.point_count // BLOCK


@pytest.mark.parametrize("n", [1, 2, 7, 20])
@pytest.mark.parametrize("a, b, period", [(0, 0, 1), (0.31, 0.37, 1), (-0.9, 1, 1.7),
                                          (1e300, 0.37, 1.7)])
def test_lattice_coordinates_keep_their_bits(n, a, b, period):
    g = GridSpec(a, b, n, period)
    index = domain_table(0, n - 1).index
    points = a + (index + b) * (period / n)
    assert np.array_equal(g.points().view(np.uint64), points.view(np.uint64))
    axis = a + (np.arange(n) + b) * (period / n)
    assert np.array_equal(g._axis().view(np.uint64), axis.view(np.uint64))


# ----------------------------------------------------------------- readers

def sample_text(n=3):
    g = GridSpec(0.31, 0.37, n)
    return g, text_of(old_write_samples_csv, SampleSet(g, special_values(g.point_count, 5)))


KEY_TEXT = ["1.0", "1_0", " 2", "+1", "x", "", "99", "-1", "true", "٣", "9" * 30]
VALUE_TEXT = ["nan", "inf", "-inf", "1e999", "-0.0", "1_0.5", " 2.5 ", "0x1p3", "",
              "true", "5e-324", "1e1_0"]
# blanks numpy's parser reads (the first four) or that are outside the grammar
BLANKS = [" ", "\t", "  ", "\x0b", "\u2003", "\x1c"]


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
            lines.insert(i, draw(st.sampled_from(["", "\r"] + BLANKS)))
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
            parts[j] = draw(st.sampled_from(BLANKS)) + parts[j] + " "
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


MAX = 1.7976931348623157e308


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(finite, min_size=8, max_size=8), fmt=st.sampled_from(["%.17g", "%r"]))
@example(parts=[-0.0, 5e-324, -5e-324, MAX, -MAX, 2.2250738585072014e-308, 0.0, -1e-320],
         fmt="%.17g")
@example(parts=[-0.0, 5e-324, -5e-324, MAX, -MAX, 2.2250738585072014e-308, 0.0, -1e-320],
         fmt="%r")
def test_sample_reader_keeps_the_bits_of_float(parts, fmt):
    # numpy's parser reads these (ASCII, finite): each value has the bits float() gives
    g = GridSpec(0.31, 0.37, 2)
    texts = [fmt % v for v in parts]
    rows = [f"{r},{s},{t},{texts[i]},{texts[i + 4]}"
            for i, (r, s, t) in enumerate(domain_table(0, 1).index.tolist())]
    back = read_samples_csv(g, io.StringIO("r,s,t,re,im\n" + "\n".join(rows) + "\n"))
    want = np.array([float(t) for t in texts])
    assert np.array_equal(back.values.real.view(np.uint64), want[:4].view(np.uint64))
    assert np.array_equal(back.values.imag.view(np.uint64), want[4:].view(np.uint64))


def walk_calls(monkeypatch):
    """A list that gains an entry each time a line reaches the line walk."""
    calls = []

    def fault(line, what):
        calls.append(line)
        return real(line, what)

    real = altio._line_fault
    monkeypatch.setattr(altio, "_line_fault", fault)
    return calls


def test_sample_reader_paths_give_the_same_bits(monkeypatch):
    g, text = sample_text(20)            # more than one 64K-character chunk of lines
    walked = walk_calls(monkeypatch)
    plain = read_samples_csv(g, io.StringIO(text))
    assert_same_outcome(read_samples_csv(g, io.StringIO(text.replace("\n", "\r\n"))), plain)
    assert not walked                    # numpy's parser read both
    # a non-ASCII space, which int() and float() strip, is outside the grammar
    head, body = text.split("\n", 1)    # (the header's own line rules are checked first)
    spaced = head + "\n" + body.replace("\n", "\u2003\n")
    assert outcome(read_samples_csv, g, io.StringIO(spaced)) == (
        FormatError, "line 2: '\\u2003' is outside the sample CSV grammar")
    assert walked
    assert_same_outcome(plain, old_read_samples_csv(g, io.StringIO(text)))


@pytest.mark.parametrize("k", [2, 7, 12])
@pytest.mark.parametrize("field, spelling, named", [
    (0, "1_0", "_"), (1, "\u0663", "\u0663"), (3, "1_0.5", "_"), (4, "1e1_0", "_"),
    (None, "\u2003", "\\u2003"),
])
def test_sample_reader_refuses_what_only_python_reads(monkeypatch, k, field, spelling,
                                                       named):
    # a spelling that int() or float() reads but numpy's parser does not, on
    # line k of an N=3 body, is refused by name; the walk stops at that line
    g, body = sample_text()
    lines = body.split("\n")
    if field is None:                    # before the newline
        lines[k - 1] += spelling
    else:
        parts = lines[k - 1].split(",")
        parts[field] = spelling
        lines[k - 1] = ",".join(parts)
    text = "\n".join(lines)
    walked = walk_calls(monkeypatch)
    got = outcome(read_samples_csv, g, io.StringIO(text))
    assert got == (FormatError, f"line {k}: '{named}' is outside the sample CSV grammar")
    assert len(walked) == k - 1
    assert outcome(old_read_samples_csv, g, io.StringIO(text)) == got


def test_sample_reader_walks_only_the_block_numpy_refuses(monkeypatch):
    g, text = sample_text(25)            # 5225 rows: a refused body is read 4096 lines a go
    plain = read_samples_csv(g, io.StringIO(text))
    lines = text.split("\n")
    lines[3:3] = [" \t"]                 # lines of blanks, which numpy refuses,
    lines[5000:5000] = ["\x0b\r"]        # in the first block and in the second
    walked = walk_calls(monkeypatch)
    assert_same_outcome(read_samples_csv(g, io.StringIO("\n".join(lines))), plain)
    assert not walked
    lines[5100] += "\u2003"             # line 5101, in the block from line 4098
    text = "\n".join(lines)
    got = outcome(read_samples_csv, g, io.StringIO(text))
    assert got == (FormatError, "line 5101: '\\u2003' is outside the sample CSV grammar")
    assert len(walked) == 5101 - 4098 + 1
    assert outcome(old_read_samples_csv, g, io.StringIO(text)) == got


def test_sample_reader_parses_a_valid_body_at_most_twice(monkeypatch):
    # numpy refuses a trailing line of blanks; the blocks it then accepts are kept
    g, text = sample_text(25)            # 5225 rows: two blocks
    text += " \n"
    parsed = []

    def read_rows(body):
        parsed.append(len(body))
        return real(body)

    real = altio._read_rows
    monkeypatch.setattr(altio, "_read_rows", read_rows)
    got = read_samples_csv(g, io.StringIO(text))
    assert_same_outcome(got, old_read_samples_csv(g, io.StringIO(text)))
    body = len(text) - len(text.split("\n", 1)[0]) - 1
    assert len(parsed) == 3 and sum(parsed) <= 2.1 * body


@pytest.mark.parametrize("header, ok", [
    ("r,s,t,re,im", True), (" \tr,s,t,re,im\x0b\x0c \r", True), ("r,s,t,re,im\r\r", False),
    (" r,s,t,re,im\x1c", False), ("r,s,t,re,im\u2003", False), ("\x1fr,s,t,re,im\r", False),
    ("\x85r,s,t,re,im", False), ("r,s,t,re,im\r ", False), ("r, s,t,re,im", False),
])
def test_sample_reader_holds_the_header_to_the_line_rules(tmp_path, capsys, header, ok):
    # the header's line end and padding are the body's: one '\r' before the
    # newline and ASCII blanks; str.strip() would also take \x1c-\x1f and U+2003
    g, plain = sample_text()
    text = header + plain[plain.index("\n"):]
    got = outcome(read_samples_csv, g, io.StringIO(text))
    if ok:
        assert_same_outcome(got, read_samples_csv(g, io.StringIO(plain)))
    else:
        assert got == (FormatError, "line 1: expected header 'r,s,t,re,im', got "
                       + repr(header.removesuffix("\r").strip(" \t\v\f")))
    assert_same_outcome(outcome(old_read_samples_csv, g, io.StringIO(text)), got)
    # the CLI hands the reader the file's line ends untranslated
    want = (0, "") if ok else (3, f"error: {tmp_path / 'in.csv'}: {got[1]}\n")
    assert cli_transform(tmp_path, capsys, text) == want


def cli_transform(tmp_path, capsys, text):
    """Exit code and standard error of ``transform`` on a file holding ``text``
    (an N=3 lattice at a = 0.31, b = 0.37, as ``sample_text``)."""
    (tmp_path / "in.csv").write_bytes(text.encode())
    code = main(["transform", "--in", str(tmp_path / "in.csv"), "--N", "3", "--a", "0.31",
                 "--b", "0.37", "--out", str(tmp_path / "out.json")])
    return code, capsys.readouterr().err


def test_cli_names_the_line_of_a_stray_carriage_return(tmp_path, capsys):
    # '\r\r\n' ends line 2: the CLI, as the reader, names line 2, not a bad line after it
    g, plain = sample_text()
    lines = plain.split("\n")
    lines[1] += "\r\r"
    lines[2] += "x"                      # a bad value on line 3
    text = "\n".join(lines)
    got = outcome(read_samples_csv, g, io.StringIO(text))
    assert got == (FormatError, "line 2: '\\r' is outside the sample CSV grammar")
    want = (3, f"error: {tmp_path / 'in.csv'}: {got[1]}\n")
    assert cli_transform(tmp_path, capsys, text) == want


@pytest.mark.parametrize("text", ["r,s,t,re,im", "r,s,t,re,im\n", "r,s,t,re,im\n\n\n",
                                  "r,s,t,re,im\n\n \n\t\n\n"])
def test_sample_reader_lets_no_warning_escape(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MissingKeyError):
            read_samples_csv(GridSpec(0, 0, 2), io.StringIO(text))


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


ENTRY = {"k": 0, "l": 0, "m": 0, "re": 1, "im": -0.0}


@pytest.mark.parametrize("coeffs, header", [
    pytest.param([], {}, id="coeffs0"),
    pytest.param([ENTRY], {}, id="coeffs1"),
    pytest.param([ENTRY], {"role": "c_alt", "M": 1}, id="c_alt-N-not-2M+1"),
    pytest.param([ENTRY], {"role": "c_alt"}, id="c_alt-M-null"),
    pytest.param([ENTRY], {"a": 10 ** 400}, id="a-past-float"),
    pytest.param([dict(ENTRY, re=10 ** 400)], {}, id="re-past-float"),
])
def test_coefficient_reader_matches_old_on_edge_files(coeffs, header):
    text = json.dumps({"N": 1, "M": None, "a": 0, "b": 0.5, "T": 1.0, "role": "beta",
                       "coeffs": coeffs, **header})
    assert_same_outcome(outcome(read_coefficients_json, io.StringIO(text)),
                        outcome(old_read_coefficients_json, io.StringIO(text)))


def shuffled_body(n, seed):
    """The lattice, a shuffled N=n sample body and its rows' enumeration positions."""
    g = GridSpec(0.31, 0.37, n)
    s = SampleSet(g, special_values(g.point_count, seed))
    rows = text_of(write_samples_csv, s).split("\n")[1:-1]
    order = np.random.default_rng(seed).permutation(len(rows))
    return g, [rows[p] for p in order], order.tolist()


def sample_outcomes(g, rows):
    text = "r,s,t,re,im\n" + "\n".join(rows) + "\n"
    new = outcome(read_samples_csv, g, io.StringIO(text))
    assert_same_outcome(new, outcome(old_read_samples_csv, g, io.StringIO(text)))
    return new


def test_sample_reader_names_the_lowest_duplicate():
    g, rows, pos = shuffled_body(20, 11)
    if pos[0] < pos[1]:                      # two triples, the higher listed first
        rows[:2], pos[:2] = rows[1::-1], pos[1::-1]
    rows += rows[:2]                         # and again at the end, in that order
    triple = tuple(domain_table(0, 19).index[pos[1]].tolist())
    assert sample_outcomes(g, rows) == (
        FormatError, f"line 3 and line {len(rows) + 1}: duplicate triple {triple}")


def test_sample_reader_key_faults_keep_their_precedence():
    g, rows, pos = shuffled_body(20, 12)
    missing = pos.index(0)                  # the first triple of the range
    dup = rows[1] if missing != 1 else rows[2]
    # a duplicate beats a missing triple, wherever each sits in the body
    body = [r for i, r in enumerate(rows) if i != missing] + [dup]
    kind, message = sample_outcomes(g, body)
    assert kind is FormatError and "duplicate triple" in message
    # a row off the range beats both, though it comes after them
    kind, message = sample_outcomes(g, body + ["0,1,2,0.5,0.5"])
    assert (kind, message) == (FormatError, f"line {len(body) + 2}: (0, 1, 2) is not a "
                                             "triple of the N=20 lattice")
    kind, message = sample_outcomes(g, rows[:missing] + rows[missing + 1:])
    assert (kind, message) == (MissingKeyError, "the N=20 lattice is missing triple (0, 0, 0)")


def coefficient_outcomes(entries, n=21):
    text = json.dumps({"N": n, "M": (n - 1) // 2, "a": 0.31, "b": 0.37, "T": 1.0,
                       "role": "c_alt", "coeffs": entries})
    new = outcome(read_coefficients_json, io.StringIO(text))
    assert_same_outcome(new, outcome(old_read_coefficients_json, io.StringIO(text)))
    return new


def shuffled_entries(seed, n=21):
    c = c_alt_set(GridSpec(0.31, 0.37, n), seed)
    entries = json.loads(text_of(write_coefficients_json, c))["coeffs"]
    order = np.random.default_rng(seed).permutation(len(entries))
    return [entries[p] for p in order], order.tolist(), c.table.index


def test_coefficient_reader_names_the_lowest_duplicate():
    entries, pos, index = shuffled_entries(13)
    if pos[0] < pos[1]:
        entries[:2], pos[:2] = entries[1::-1], pos[1::-1]
    entries += entries[:2]
    triple = tuple(index[pos[1]].tolist())
    assert coefficient_outcomes(entries) == (
        FormatError, f"coeffs[1] and coeffs[{len(entries) - 1}]: duplicate triple {triple}")


def test_coefficient_reader_key_faults_keep_their_precedence():
    entries, pos, _ = shuffled_entries(14)
    missing = pos.index(0)
    dup = dict(entries[1] if missing != 1 else entries[2])
    body = [e for i, e in enumerate(entries) if i != missing] + [dup]
    kind, message = coefficient_outcomes(body)
    assert kind is FormatError and "duplicate triple" in message
    off = {"k": 0, "l": 1, "m": 2, "re": 0.5, "im": 0.5}
    assert coefficient_outcomes(body + [off]) == (
        FormatError, f"coeffs[{len(body)}]: (0, 1, 2) is not a triple of the "
                     "role 'c_alt' index range")
    # a file short of entries is refused by its count, before its keys are placed
    assert coefficient_outcomes(entries[:missing] + entries[missing + 1:]) == (
        MissingKeyError, f"the role 'c_alt' index range of N=21 holds {len(entries)} "
                         f"triples; the file lists {len(entries) - 1}")


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

# sha256 of each output of the commands in cli_outputs, set with numpy 2.4.6
# on an x86-64 host where OpenBLAS picks SkylakeX kernels and numpy dispatches
# up to AVX512_SPR.  Seven hold only on that host class (the byte contract in
# the README): b6.json, b7.json, i7.json, inv6.csv, inv7.csv and slice7.csv go
# through the zgemm of transform._separable and fail under
# OPENBLAS_CORETYPE=Haswell; err.csv goes through numpy's SIMD exp, whose bump
# values change under NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4",
# and fails there (its N=5 row ends ...087443, not ...087441).  The grid, s
# and e pins held under both.
PINNED = {
    "b6.json": "00d2fbe384fd8a5bbd5c738d1703c307f1dc1edfc4a826bdd1fde74788bfa2f1",
    "b7.json": "935192610ccc616c677380905319a5b9adc10e35028e7599871f6ae3e4bbfc1e",
    "e6.csv": "0e66db2766d9b1e6c448f75036e7572cd4ca73255abe3e9d160fc2da23f40d8e",
    "e7.csv": "9243179e6b903f9676eda5da56ccbe83391a5023ed5c4240533f15efc463296b",
    "err.csv": "aa18f97695df866f42b72e9661bc1e1eb9bd5d5d706e0a8ce36c39bdc8115a24",
    "grid6.csv": "39bef1e7fd99c72f33c5f2decdf9153b645f51e8b4f109a46650d21590fc814d",
    "grid7.csv": "873195b7bd1cfb67941d83c1c155a837b7b206a343cc51e9a41c1a6cf1246651",
    "i7.json": "a17a8949598a746a5a427143354fe05e61b1ebac43429b38d656433fe9e6ddbc",
    "inv6.csv": "9dbc302f14e34725bcdedd786bd18cce26133f6487b53c4160670e9c6cf866ac",
    "inv7.csv": "82c7935e591b7544b8aad52057712cd129bfe17ca6437cab2ba9a3c6ee85f49e",
    "s6.csv": "fd871fdef5d0a40acac1fbe0cf6f3ed4ade5286dca10e0edc4741da80a165908",
    "s7.csv": "dd531ad8d57bda0511d36d19e7ba7cf779d0bd4e1e8f1fafbbff35b2d10ec0ce",
    "slice7.csv": "ec160bbe38e305ee63c26fbcbbd5f6eaa6f457277b7d23a42c650cdce0976d8b",
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
