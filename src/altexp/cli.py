"""Command-line front end.

Subcommands: grid, sample, transform, inverse, interpolate, verify,
error-table.  Exit codes: 0 success, 1 verification failure, 2 usage
error, 3 I/O or format error.  ``ALTF_THREADS`` caps the BLAS thread
count and must be honored before numpy spins up its pools, hence the
environment handling at import time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

if "ALTF_THREADS" in os.environ:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, os.environ["ALTF_THREADS"])

import numpy as np

from . import io as altio
from .domain import GridSpec, write_grid_csv
from .interpolation import (ParityError, InterpolantAlt, alt_interpolate_direct,
                            alt_interpolate_remap, eval_psi_alt_tensor)
from .quadrature import BumpParams, bump, interpolation_error
from .transform import SampleSet, adft_forward, adft_inverse
from .verify import run_suite

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3


class UsageError(Exception):
    pass


def _grid_from_args(args) -> GridSpec:
    return GridSpec(args.a, args.b, args.N, args.T)


def _builtin_function(args):
    """Resolve --f into a vectorized callable on (..., 3) point arrays."""
    spec = args.f
    if spec.startswith("const:"):
        value = complex(spec[len("const:"):])
        return lambda pts: np.full(np.asarray(pts).shape[:-1], value)
    if spec.startswith("E:"):
        try:
            k, l, m = (int(c) for c in spec[len("E:"):].split(","))
        except ValueError:
            raise UsageError(f"bad E-function label in {spec!r}; expected E:k,l,m")
        from .functions import eval_E
        return lambda pts: np.asarray(eval_E((k, l, m), pts))
    if spec == "bump":
        center = tuple(float(c) for c in args.center.split(","))
        if len(center) != 3:
            raise UsageError(f"bump center needs 3 coordinates, got {args.center!r}")
        params = BumpParams(args.alpha, args.beta, center)
        return lambda pts: bump(params, pts)
    raise UsageError(f"unknown sample function {spec!r}; use const:<v>, E:k,l,m or bump")


def _sample_lattice(g: GridSpec, fn) -> SampleSet:
    """Samples of the vectorized ``fn`` at the lattice points, all finite."""
    s = SampleSet.from_array(g, np.asarray(fn(g.points()), dtype=complex))
    bad = np.flatnonzero(~np.isfinite(s.values))
    if bad.size:
        rst = tuple(s.table.index[bad[0]].tolist())
        raise UsageError(f"sample function is not finite at lattice point {rst}: "
                         f"{s.values[bad[0]]}")
    return s


def _open_out(path):
    try:
        return open(path, "w")
    except OSError as exc:
        raise SystemExit(_io_fail(f"cannot write {path}: {exc.strerror}"))


def _io_fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_IO


def cmd_grid(args) -> int:
    g = _grid_from_args(args)
    with _open_out(args.out) as fh:
        write_grid_csv(g, fh)
    return EXIT_OK


def cmd_sample(args) -> int:
    s = _sample_lattice(_grid_from_args(args), _builtin_function(args))
    with _open_out(args.out) as fh:
        altio.write_samples_csv(s, fh)
    return EXIT_OK


def _read_samples(args) -> SampleSet:
    g = _grid_from_args(args)
    try:
        with open(args.infile) as fh:
            return altio.read_samples_csv(g, fh)
    except OSError as exc:
        raise SystemExit(_io_fail(f"cannot read {args.infile}: {exc.strerror}"))
    except altio.FormatError as exc:
        raise SystemExit(_io_fail(f"{args.infile}: {exc}"))


def cmd_transform(args) -> int:
    s = _read_samples(args)
    coeffs = adft_forward(s, naive=args.naive)
    with _open_out(args.out) as fh:
        altio.write_coefficients_json(coeffs, fh)
    return EXIT_OK


def cmd_inverse(args) -> int:
    try:
        with open(args.infile) as fh:
            coeffs = altio.read_coefficients_json(fh)
    except OSError as exc:
        return _io_fail(f"cannot read {args.infile}: {exc.strerror}")
    except altio.FormatError as exc:
        return _io_fail(f"{args.infile}: {exc}")
    try:
        s = adft_inverse(coeffs)
    except ValueError as exc:
        return _io_fail(str(exc))
    with _open_out(args.out) as fh:
        altio.write_samples_csv(s, fh)
    return EXIT_OK


def _write_slice_csv(interp: InterpolantAlt, z: float, res: int, fh) -> None:
    """R x R cut of the interpolant on the plane of constant z.

    Header ``x,y,re,im``; x and y run over midpoints of a res x res
    subdivision of the period cell starting at the grid shift a.
    """
    g = interp.grid
    coords = g.a + (np.arange(res) + 0.5) * (g.period / res)
    vals = eval_psi_alt_tensor(interp, coords, coords, np.array([z]))[..., 0]
    fh.write("x,y,re,im\n")
    for i, x in enumerate(coords):
        for j, y in enumerate(coords):
            v = vals[i, j]
            fh.write(f"{x:.17g},{y:.17g},{v.real:.17g},{v.imag:.17g}\n")


def cmd_interpolate(args) -> int:
    s = _read_samples(args)
    try:
        interp = alt_interpolate_remap(s) if args.remap else alt_interpolate_direct(s)
    except ParityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    with _open_out(args.out) as fh:
        altio.write_coefficients_json(interp.coeffs, fh)
    if args.slice is not None:
        with _open_out(args.slice_out) as fh:
            _write_slice_csv(interp, args.slice, args.res, fh)
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suite(args.suite, seed=args.seed, inject_fault=args.inject_fault)
    report = {"seed": args.seed, "suite": args.suite,
              "checks": [r.as_dict() for r in results],
              "pass": all(r.passed for r in results)}
    text = json.dumps(report, indent=1)
    if args.out:
        with _open_out(args.out) as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK if report["pass"] else EXIT_VERIFY


def cmd_error_table(args) -> int:
    center = tuple(float(c) for c in args.center.split(","))
    params = BumpParams(args.alpha, args.beta, center)
    f = lambda pts: bump(params, pts)
    rows = []
    for n in args.N:
        g = GridSpec(args.a, args.b, n)
        interp = alt_interpolate_direct(_sample_lattice(g, f))
        quad_n = args.quad_n if args.quad_n else (256 if n >= 31 else 128)
        rows.append((n, interpolation_error(f, interp, quad_n)))
    out = _open_out(args.out) if args.out else sys.stdout
    out.write("N,error\n")
    for n, err in rows:
        out.write(f"{n},{err:.17g}\n")
    if args.out:
        out.close()
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _z_slice(text: str) -> float:
    try:
        z = float(text[2:]) if text.startswith("z=") else np.inf
    except ValueError:
        z = np.inf
    if not np.isfinite(z):
        raise argparse.ArgumentTypeError(f"expected z=<finite number>, got {text!r}")
    return z


def _add_grid_flags(p, default_b=0.0):
    p.add_argument("--N", type=int, required=True, help="grid density")
    p.add_argument("--a", type=float, default=0.0, help="lattice shift")
    p.add_argument("--b", type=float, default=default_b,
                   help="fractional offset in [0, 1]")
    p.add_argument("--T", type=float, default=1.0, help="period")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altexp",
        description="Alternating exponential functions: lattices, transforms, "
                    "interpolation and identity verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("grid", help="export lattice points as CSV")
    _add_grid_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("sample", help="sample a built-in function on the lattice")
    p.add_argument("--f", required=True,
                   help="const:<v>, E:k,l,m, or bump")
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--beta", type=float, default=0.2)
    p.add_argument("--center", default="0.75,0.75,0.25")
    _add_grid_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("transform", help="forward transform of a sample CSV")
    p.add_argument("--in", dest="infile", required=True)
    _add_grid_flags(p)
    p.add_argument("--naive", action="store_true",
                   help="use the direct-summation oracle path")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("inverse", help="inverse transform of a coefficient JSON")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_inverse)

    p = sub.add_parser("interpolate", help="build the interpolant for a sample CSV")
    p.add_argument("--in", dest="infile", required=True)
    _add_grid_flags(p)
    p.add_argument("--remap", action="store_true",
                   help="go through the forward transform plus index remap")
    p.add_argument("--slice", type=_z_slice, default=None,
                   help="export a plane cut, e.g. z=0.25")
    p.add_argument("--res", type=_positive_int, default=64, help="slice resolution")
    p.add_argument("--slice-out", default="slice.csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_interpolate)

    p = sub.add_parser("verify", help="run the identity verification suites")
    p.add_argument("suite", nargs="?", default="all",
                   choices=["all", "identities", "transform", "interpolation", "c3"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-fault", action="store_true",
                   help="perturb one transform coefficient before the remap check")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("error-table",
                       help="interpolation error of the bump test signal")
    p.add_argument("--N", type=int, action="append", required=True,
                   help="grid density; repeatable")
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=0.5)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--beta", type=float, default=0.2)
    p.add_argument("--center", default="0.75,0.75,0.25")
    p.add_argument("--quad-n", type=int, default=None,
                   help="quadrature subdivisions per axis")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_error_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
