"""File formats: sample CSV and coefficient JSON (the grid CSV is in ``domain``).

The writers stream rows in blocks (``textrows``) with floats that read
back exactly (17 significant digits in CSV, ``float.__repr__`` in JSON),
and refuse a non-finite value before writing anything.  numpy's C parser
is the only reader of a sample body, under the grammar the README states;
``int()`` and ``float()`` only name the first line outside it.  The JSON
reader converts each entry field as one column, and refuses a file that
lists fewer entries than its range holds before anything is sized by N.
Both readers hand their keys and the table of their index range to one key
check (``_place``).
"""

from __future__ import annotations

import itertools
import json
import math
import re
import warnings
from typing import TextIO

import numpy as np

from .domain import DomainTable, GridSpec, domain_positions, index_cells
from .textrows import write_rows
from .transform import CoefficientSet, SampleSet


class FormatError(ValueError):
    """Malformed input file."""


class MissingKeyError(FormatError):
    """A sample or coefficient file lacks a required index triple."""


def _place(table: DomainTable, cols, values: np.ndarray, where, what: str) -> np.ndarray:
    """``values`` moved to the enumeration order of the range of ``table``.

    ``cols`` holds the k, l and m of every row, column by column.  Every
    triple of the range must occur exactly once, which one count per
    position checks; ``where(i)`` names the input location of row i.
    """
    pos = domain_positions(table, np.array(cols).T)

    def key(i):
        return tuple(int(c[i]) for c in cols)

    bad = np.flatnonzero(pos < 0)
    if bad.size:
        i = bad[0]
        raise FormatError(f"{where(i)}: {key(i)} is not a triple of the {what}")
    counts = np.bincount(pos, minlength=len(table.flat))
    dup = np.flatnonzero(counts > 1)
    if dup.size:
        i, j = np.flatnonzero(pos == dup[0])[:2]
        raise FormatError(f"{where(i)} and {where(j)}: duplicate triple {key(i)}")
    if len(pos) < len(counts):
        first = tuple(table.index[np.argmin(counts)].tolist())
        raise MissingKeyError(f"the {what} is missing triple {first}")
    out = np.empty(len(counts), dtype=complex)
    out[pos] = values
    return out


def _pairs(v: np.ndarray) -> np.ndarray:
    return np.column_stack([v.real, v.imag])


def write_samples_csv(s: SampleSet, fh: TextIO) -> None:
    write_rows(fh, "r,s,t,re,im\n", index_cells(s.table), "%.17g,%.17g\n",
               _pairs(s.values))


_SAMPLE_ROW = np.dtype([("r", np.int64), ("s", np.int64), ("t", np.int64),
                        ("re", float), ("im", float)])
_CHUNK = 1 << 16    # characters of a sample body split into lines at a time
# a character outside the grammar: printable ASCII but '_', tab, \v and \f
_OFF_GRAMMAR = re.compile(r"[^\t\x0b\x0c -^`-~]")


def _lines(text: str):
    """The items of ``text.split("\n")``, split about ``_CHUNK`` characters at a time."""
    start = 0
    while start <= len(text):
        end = text.find("\n", start + _CHUNK)
        end = len(text) if end < 0 else end
        yield from text[start:end].split("\n")
        start = end + 1


def _line_fault(line: str, what: str):
    """Why a sample line is outside the grammar, or None (int/float refusals first)."""
    off = _OFF_GRAMMAR.search(line.removesuffix("\r"))
    off = off and f"{off.group()!r} is outside the sample CSV grammar"
    parts = line.strip().split(",")
    if len(parts) != 5:     # a line of blanks has one empty field
        return off if parts == [""] else f"expected 5 fields, got {len(parts)}"
    try:
        key = int(parts[0]), int(parts[1]), int(parts[2])
        x, y = float(parts[3]), float(parts[4])
    except ValueError as exc:
        return str(exc)
    if not (math.isfinite(x) and math.isfinite(y)):
        return off or f"sample value {parts[3]},{parts[4]} is not finite"
    if not -2 ** 63 <= min(key) <= max(key) < 2 ** 63:     # past numpy's int64
        return off or f"{key} is not a triple of the {what}"
    return off


def _read_rows(text: str) -> tuple:
    """Key columns and values numpy reads from a sample body, all finite, or a ValueError."""
    # numpy reads \x1c-\x1f as blanks and some non-ASCII letters as digits
    if not text.isascii() or any(c in text for c in "\x1c\x1d\x1e\x1f"):
        raise ValueError("a character numpy reads unlike Python")
    with warnings.catch_warnings():     # numpy warns of a body with no rows
        warnings.simplefilter("ignore")
        rows = np.loadtxt(_lines(text), _SAMPLE_ROW, delimiter=",", comments=None, ndmin=1)
    values = np.empty(len(rows), dtype=complex)
    values.real, values.imag = rows["re"], rows["im"]
    if not np.isfinite(values).all():
        raise ValueError("a sample value is not finite")
    return rows["r"], rows["s"], rows["t"], values


def read_samples_csv(grid: GridSpec, fh: TextIO) -> SampleSet:
    # the body's line rules: one '\r' before the newline and ASCII blank padding
    header = fh.readline().removesuffix("\n").removesuffix("\r").strip(" \t\v\f")
    if header != "r,s,t,re,im":
        raise FormatError(f"line 1: expected header 'r,s,t,re,im', got {header!r}")
    body, what = fh.read(), f"N={grid.n} lattice"
    try:
        *cols, values = _read_rows(body)
    except ValueError:
        # numpy re-reads 4096 lines at a time less lines of blanks; a refused block is walked
        lines, blocks, lineno = _lines(body), [], 2
        while chunk := list(itertools.islice(lines, 4096)):
            text = "\n".join(t for t in chunk if t.removesuffix("\r").strip(" \t\v\f"))
            try:
                blocks.append(_read_rows(text))
            except ValueError:
                for n, line in enumerate(chunk, lineno):
                    if fault := _line_fault(line, what):
                        raise FormatError(f"line {n}: {fault}") from None
                raise
            lineno += len(chunk)
        *cols, values = map(np.concatenate, zip(*blocks))

    def where(i):   # numpy skips blank lines: count them for a message only
        return f"line {[n for n, line in enumerate(_lines(body), 2) if line.strip()][i]}"

    return SampleSet(grid, _place(grid.table, cols, values, where, what))


_COEFF_KEYS = ('  {\n   "k": %d,\n', '   "l": %d,\n', '   "m": %d,\n')


def write_coefficients_json(c: CoefficientSet, fh: TextIO) -> None:
    head = json.dumps({"N": c.grid.n, "M": c.m, "a": c.grid.a, "b": c.grid.b,
                       "T": c.grid.period, "role": c.role}, indent=1, allow_nan=False)
    # the layout of json.dump(..., indent=1) with the coefficient list last
    write_rows(fh, head[:-2] + ',\n "coeffs": [\n', index_cells(c.table, _COEFF_KEYS),
               '   "re": %r,\n   "im": %r\n  }', _pairs(c.values), sep=",\n")
    fh.write("\n ]\n}\n")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:
        return False


def _field(obj, name: str, ok, need: str, where: str = ""):
    if not isinstance(obj, dict) or name not in obj:
        raise FormatError(f"{where}missing or malformed field {name!r}")
    if not ok(obj[name]):
        raise FormatError(f"{where}field {name!r} must be {need}, got {obj[name]!r}")
    return obj[name]


def _coeff_entry_error(coeffs: list) -> None:
    """Raise the FormatError of the first malformed coefficient entry."""
    for i, c in enumerate(coeffs):
        at = f"coeffs[{i}]: "
        for f in "klm":
            _field(c, f, _is_int, "an integer", at)
        for f in ("re", "im"):
            _field(c, f, _is_finite, "a finite number", at)


def read_coefficients_json(fh: TextIO) -> CoefficientSet:
    try:
        obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"line {exc.lineno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:   # an over-long integer, or deep nesting
        raise FormatError(str(exc)) from None
    n = _field(obj, "N", lambda v: _is_int(v) and v >= 1, "an integer >= 1")
    m = _field(obj, "M", lambda v: v is None or _is_int(v), "an integer or null")
    a, b, period = (_field(obj, f, _is_finite, "a finite number") for f in "abT")
    role = _field(obj, "role", lambda v: v in ("beta", "c_alt"), "'beta' or 'c_alt'")
    if role == "c_alt" and (m is None or n != 2 * m + 1):
        raise FormatError(f"role 'c_alt' needs N = 2M+1, got N={n}, M={m}")
    if role == "beta" and m is not None:
        raise FormatError(f"field 'M' must be null for role 'beta', got {m!r}")
    coeffs = _field(obj, "coeffs", lambda v: isinstance(v, list), "a list")
    # the entries are checked field by field over the whole list; any bad
    # entry sends the list through the per-entry checks, which name the first
    try:
        k, l, m_, re, im = ([c[f] for c in coeffs] for f in ("k", "l", "m", "re", "im"))
        if set(map(type, k + l + m_)) - {int} or set(map(type, re + im)) - {int, float}:
            raise ValueError("a coefficient field has the wrong type")
        # set the parts one by one: re + 1j * im would turn -0.0 into 0.0
        values = np.empty(len(re), dtype=complex)
        values.real, values.imag = np.array(re, dtype=float), np.array(im, dtype=float)
        if not np.isfinite(values).all():
            raise ValueError("a coefficient is not finite")
    except (KeyError, TypeError, ValueError, OverflowError):
        _coeff_entry_error(coeffs)
        raise
    try:
        grid = GridSpec(a, b, n, period)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    what = f"role {role!r} index range"
    if len(values) < grid.point_count:     # refused before anything is sized by N
        raise MissingKeyError(f"the {what} of N={n} holds {grid.point_count} triples; "
                              f"the file lists {len(values)}")
    c = CoefficientSet(grid, role, np.empty(grid.point_count, dtype=complex))
    c.values[:] = _place(c.table, (k, l, m_), values, "coeffs[{}]".format, what)
    return c
