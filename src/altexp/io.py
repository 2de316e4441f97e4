"""File formats: sample CSV, coefficient JSON, grid CSV.

Sample CSV carries the header ``r,s,t,re,im`` with one row per lattice
index triple.  Coefficient JSON is a single object with the grid
parameters, the role of the coefficients and the coefficient list in
enumeration order.  All floats are written with 17 significant digits so
outputs are byte-reproducible and round-trip exactly.
"""

from __future__ import annotations

import json
import math
from typing import TextIO

import numpy as np

from .domain import GridSpec, domain_positions, domain_table
from .transform import CoefficientSet, SampleSet


class FormatError(ValueError):
    """Malformed input file."""


class MissingKeyError(FormatError):
    """A sample or coefficient file lacks a required index triple."""


def _place(n1: int, n2: int, keys: list, values: list, where: list, what: str) -> np.ndarray:
    """``values`` moved to the enumeration order of D(n1, n2).

    Every triple of the range must occur exactly once; ``where`` names
    the input location of each row for the error message.
    """
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


def write_samples_csv(s: SampleSet, fh: TextIO) -> None:
    fh.write("r,s,t,re,im\n")
    for (r, s_, t), v in zip(s.table.index.tolist(), s.values.tolist()):
        fh.write(f"{r},{s_},{t},{v.real:.17g},{v.imag:.17g}\n")


def read_samples_csv(grid: GridSpec, fh: TextIO) -> SampleSet:
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
    return SampleSet(grid, _place(0, grid.n - 1, keys, values, where,
                                  f"N={grid.n} lattice"))


def write_coefficients_json(c: CoefficientSet, fh: TextIO) -> None:
    obj = {
        "N": c.grid.n,
        "M": c.m,
        "a": c.grid.a,
        "b": c.grid.b,
        "T": c.grid.period,
        "role": c.role,
        "coeffs": [
            {"k": k, "l": l, "m": m, "re": v.real, "im": v.imag}
            for (k, l, m), v in zip(c.table.index.tolist(), c.values.tolist())
        ],
    }
    json.dump(obj, fh, indent=1)
    fh.write("\n")


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
    return CoefficientSet(grid, role, _place(n1, n2, keys, values, where,
                                             f"role {role!r} index range"), m=m)
