"""File formats: sample CSV, coefficient JSON, grid CSV.

Sample CSV carries the header ``r,s,t,re,im`` with one row per lattice
index triple.  Coefficient JSON is a single object with the grid
parameters, the role of the coefficients and the coefficient list in
enumeration order.  CSV floats are written with 17 significant digits and
JSON floats in the shortest form that reads back to the same double
(``float.__repr__``), so outputs are byte-reproducible and round-trip
exactly.  The writers stream rows in blocks (``textrows``) and refuse
non-finite values before writing anything; the readers convert whole
columns at once and name the first bad line or entry.
"""

from __future__ import annotations

import json
import math
from operator import itemgetter, methodcaller
from typing import TextIO

import numpy as np

from .domain import GridSpec, domain_positions, domain_table
from .textrows import BLOCK, write_rows
from .transform import CoefficientSet, SampleSet


class FormatError(ValueError):
    """Malformed input file."""


class MissingKeyError(FormatError):
    """A sample or coefficient file lacks a required index triple."""


def _place(n1: int, n2: int, cols, values: np.ndarray, where, what: str) -> np.ndarray:
    """``values`` moved to the enumeration order of D(n1, n2).

    ``cols`` holds the k, l and m of every row, column by column.  Every
    triple of the range must occur exactly once; ``where(i)`` names the
    input location of row i for the error message.
    """
    pos = domain_positions(n1, n2, np.array(cols).T)

    def key(i):
        return tuple(c[i] for c in cols)

    bad = np.flatnonzero(pos < 0)
    if bad.size:
        i = bad[0]
        raise FormatError(f"{where(i)}: {key(i)} is not a triple of the {what}")
    order = np.argsort(pos, kind="stable")
    dup = np.flatnonzero(np.diff(pos[order]) == 0)
    if dup.size:
        i, j = order[dup[0]], order[dup[0] + 1]
        raise FormatError(f"{where(i)} and {where(j)}: duplicate triple {key(i)}")
    table = domain_table(n1, n2)
    out = np.zeros(len(table.index), dtype=complex)
    out[pos] = values
    if len(pos) < len(out):
        filled = np.zeros(len(out), dtype=bool)
        filled[pos] = True
        first = tuple(table.index[np.argmin(filled)].tolist())
        raise MissingKeyError(f"the {what} is missing triple {first}")
    return out


def _pairs(v: np.ndarray) -> np.ndarray:
    return np.column_stack([v.real, v.imag])


def write_samples_csv(s: SampleSet, fh: TextIO) -> None:
    write_rows(fh, "r,s,t,re,im\n", "%d,%d,%d,%.17g,%.17g\n", s.table.index, _pairs(s.values))


def _sample_row_error(lines: list) -> None:
    """Raise the FormatError of the first malformed line of a sample body."""
    for lineno, line in enumerate(lines, start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise FormatError(f"line {lineno}: expected 5 fields, got {len(parts)}")
        try:
            for p in parts[:3]:
                int(p)
            re, im = float(parts[3]), float(parts[4])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
        if not (math.isfinite(re) and math.isfinite(im)):
            raise FormatError(f"line {lineno}: sample value {parts[3]},{parts[4]} is not finite")


def read_samples_csv(grid: GridSpec, fh: TextIO) -> SampleSet:
    header = fh.readline().strip()
    if header != "r,s,t,re,im":
        raise FormatError(f"line 1: expected header 'r,s,t,re,im', got {header!r}")
    lines = [line.strip() for line in fh.read().split("\n")]
    rows = list(filter(None, lines))
    cols = ([], [], [])
    values = np.empty(len(rows), dtype=complex)
    # the fields convert column by column, a block of rows at a time; any
    # bad line sends the body through the per-line checks, which name it
    try:
        if set(map(methodcaller("count", ","), rows)) - {4}:
            raise ValueError("a line does not have 5 fields")
        for start in range(0, len(rows), BLOCK):
            fields = ",".join(rows[start:start + BLOCK]).split(",")
            for j, col in enumerate(cols):
                col.extend(map(int, fields[j::5]))
            block = values[start:start + BLOCK]
            block.real, block.imag = (np.fromiter(map(float, fields[j::5]), float)
                                      for j in (3, 4))
        if not np.isfinite(values).all():
            raise ValueError("a sample value is not finite")
    except ValueError:
        _sample_row_error(lines)
        raise

    def where(i):
        return f"line {np.flatnonzero(list(map(bool, lines)))[i] + 2}"

    return SampleSet(grid, _place(0, grid.n - 1, cols, values, where,
                                  f"N={grid.n} lattice"))


_COEFF_ROW = ('  {\n   "k": %d,\n   "l": %d,\n   "m": %d,\n'
              '   "re": %r,\n   "im": %r\n  }')


def write_coefficients_json(c: CoefficientSet, fh: TextIO) -> None:
    head = json.dumps({"N": c.grid.n, "M": c.m, "a": c.grid.a, "b": c.grid.b,
                       "T": c.grid.period, "role": c.role}, indent=1, allow_nan=False)
    # the layout of json.dump(..., indent=1) with the coefficient list last
    write_rows(fh, head[:-2] + ',\n "coeffs": [\n', _COEFF_ROW, c.table.index,
               _pairs(c.values), sep=",\n", tail="\n ]\n}\n")


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
    n = _field(obj, "N", lambda v: _is_int(v) and v >= 1, "an integer >= 1")
    m = _field(obj, "M", lambda v: v is None or _is_int(v), "an integer or null")
    a, b, period = (_field(obj, f, _is_finite, "a finite number") for f in "abT")
    role = _field(obj, "role", lambda v: v in ("beta", "c_alt"), "'beta' or 'c_alt'")
    if role == "c_alt" and (m is None or n != 2 * m + 1):
        raise FormatError(f"role 'c_alt' needs N = 2M+1, got N={n}, M={m}")
    coeffs = _field(obj, "coeffs", lambda v: isinstance(v, list), "a list")
    # the entries are checked field by field over the whole list; any bad
    # entry sends the list through the per-entry checks, which name the first
    try:
        entries = map(itemgetter("k", "l", "m", "re", "im"), coeffs)
        k, l, m_, re, im = zip(*entries) if coeffs else ((),) * 5
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
    n1, n2 = (0, n - 1) if role == "beta" else (-m, m)
    return CoefficientSet(grid, role, _place(n1, n2, (k, l, m_), values, "coeffs[{}]".format,
                                             f"role {role!r} index range"), m=m)
