"""Command-line front end.

Subcommands: grid, sample, transform, inverse, interpolate, verify,
error-table.  Commands raise on failure, and ``main`` alone turns the
exception into one ``error:`` line and an exit code: 0 success, 1
verification failure, 2 usage error, 3 I/O or format error, naming the
file, 4 out of memory, naming the command line, 5 any other internal
error, naming the exception type.  The commands run the
fast paths only; ``verify transform`` and ``verify interpolation`` check
them against the naive-sum and remap oracles.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import secrets
import sys

import numpy as np

from . import io as altio
from .domain import GridSpec, write_grid_csv
from .interpolation import InterpolantAlt, alt_interpolate_direct, eval_psi_alt_tensor
from .quadrature import BumpParams, bump, interpolation_error
from .textrows import write_rows
from .transform import SampleSet, adft_forward, adft_inverse
from .verify import run_suite

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_MEMORY = 4
EXIT_INTERNAL = 5


def _grid_from_args(args) -> GridSpec:
    return GridSpec(args.a, args.b, args.N, args.T)


def _bump_from_args(args):
    params = BumpParams(args.alpha, args.beta, args.center)
    return lambda pts: bump(params, pts)


def _builtin_function(args):
    """Resolve --f into a vectorized callable on (..., 3) point arrays."""
    spec = args.f
    if spec.startswith("const:"):
        try:
            value = complex(spec[len("const:"):])
        except ValueError:
            raise ValueError(f"bad constant in --f {spec!r}; expected const:<complex number>")
        return lambda pts: np.full(np.asarray(pts).shape[:-1], value)
    if spec.startswith("E:"):
        try:
            k, l, m = (int(c) for c in spec[len("E:"):].split(","))
            float(k), float(l), float(m)    # eval_E works in floats
        except (ValueError, OverflowError):
            raise ValueError(f"bad E-function label in --f {spec!r}; "
                             "expected E:k,l,m with integers that fit a float")
        from .functions import eval_E
        return lambda pts: np.asarray(eval_E((k, l, m), pts))
    if spec == "bump":
        return _bump_from_args(args)
    raise ValueError(f"unknown sample function in --f {spec!r}; "
                     "use const:<v>, E:k,l,m or bump")


def _sample_lattice(g: GridSpec, fn) -> SampleSet:
    """Samples of the vectorized ``fn`` at the lattice points, all finite."""
    s = SampleSet.from_array(g, np.asarray(fn(g.points()), dtype=complex))
    bad = np.flatnonzero(~np.isfinite(s.values))
    if bad.size:
        rst = tuple(s.table.index[bad[0]].tolist())
        raise ValueError(f"sample function is not finite at lattice point {rst}: "
                         f"{s.values[bad[0]]}")
    return s


def _read_input(path, read):
    """``read(fh)`` on the text file at ``path``.  A failure to open, read,
    decode or parse it raises OSError or FormatError naming ``path``."""
    try:
        with open(path) as fh:
            return read(fh)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    except (UnicodeDecodeError, altio.FormatError) as exc:
        raise altio.FormatError(f"{path}: {exc}") from None


@contextlib.contextmanager
def _open_outputs(*paths):
    """Open a temporary file beside every output before any is written.

    Once the body returns, each one is moved onto its output with
    ``os.replace``.  If an open fails, or the body raises, the temporary
    files are removed, so a failed command leaves no partial output and
    any earlier file of the same name as it was.
    """
    fhs = []
    try:
        for path in paths:
            head, name = os.path.split(os.fspath(path))
            tmp = os.path.join(head, f".{name}.{secrets.token_hex(4)}.tmp")
            fhs.append(open(tmp, "x"))   # the umask-derived mode of open(path, "w")
        path = ", ".join(map(str, paths))   # a write in the body may hit any of them
        yield fhs
        for fh, path in zip(fhs, paths):
            fh.close()
            os.replace(fh.name, path)
    except OSError as exc:   # name the output, not its temporary file
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    finally:
        for fh in fhs:
            fh.close()
            with contextlib.suppress(OSError):     # gone once moved into place
                os.remove(fh.name)


def cmd_grid(args) -> None:
    g = _grid_from_args(args)
    with _open_outputs(args.out) as (fh,):
        write_grid_csv(g, fh)


def cmd_sample(args) -> None:
    s = _sample_lattice(_grid_from_args(args), _builtin_function(args))
    with _open_outputs(args.out) as (fh,):
        altio.write_samples_csv(s, fh)


def _read_samples(args) -> SampleSet:
    g = _grid_from_args(args)
    return _read_input(args.infile, lambda fh: altio.read_samples_csv(g, fh))


def cmd_transform(args) -> None:
    coeffs = adft_forward(_read_samples(args))
    with _open_outputs(args.out) as (fh,):
        altio.write_coefficients_json(coeffs, fh)


def _read_beta(fh):
    c = altio.read_coefficients_json(fh)
    if c.role != "beta":
        raise altio.FormatError(f"inverse transform needs role 'beta', got {c.role!r}")
    return c


def cmd_inverse(args) -> None:
    s = adft_inverse(_read_input(args.infile, _read_beta))
    with _open_outputs(args.out) as (fh,):
        altio.write_samples_csv(s, fh)


def _write_slice_csv(interp: InterpolantAlt, z: float, res: int, fh) -> None:
    """R x R cut of the interpolant on the plane of constant z.

    Header ``x,y,re,im``; x and y run over midpoints of a res x res
    subdivision of the period cell starting at the grid shift a.
    """
    g = interp.grid
    coords = g.a + (np.arange(res) + 0.5) * (g.period / res)
    vals = eval_psi_alt_tensor(interp, coords, coords, np.array([z])).ravel()
    xy = np.column_stack([np.repeat(coords, res), np.tile(coords, res)])
    write_rows(fh, "x,y,re,im\n", "%.17g,%.17g,%.17g,%.17g\n", xy,
               np.column_stack([vals.real, vals.imag]))


def cmd_interpolate(args) -> None:
    interp = alt_interpolate_direct(_read_samples(args))
    slicing = args.slice is not None
    with _open_outputs(args.out, *([args.slice_out] if slicing else [])) as fhs:
        altio.write_coefficients_json(interp.coeffs, fhs[0])
        if slicing:
            _write_slice_csv(interp, args.slice, args.res, fhs[1])


def cmd_verify(args) -> bool:
    results = run_suite(args.suite, seed=args.seed, inject_fault=args.inject_fault)
    report = {"seed": args.seed, "suite": args.suite,
              "checks": [r.as_dict() for r in results],
              "pass": all(r.passed for r in results)}
    text = json.dumps(report, indent=1)
    if args.out:
        with _open_outputs(args.out) as (fh,):
            fh.write(text + "\n")
    else:
        print(text)
    return report["pass"]


def cmd_error_table(args) -> None:
    f = _bump_from_args(args)
    errors = []
    for n in args.N:
        g = GridSpec(args.a, args.b, n)
        interp = alt_interpolate_direct(_sample_lattice(g, f))
        quad_n = (256 if n >= 31 else 128) if args.quad_n is None else args.quad_n
        errors.append(interpolation_error(f, interp, quad_n))
    outputs = _open_outputs(args.out) if args.out else contextlib.nullcontext([sys.stdout])
    with outputs as (out,):
        write_rows(out, "N,error\n", "%d,%.17g\n", np.array(args.N)[:, None],
                   np.array(errors)[:, None])


def _int_at_least(lo: int):
    """An argparse type for integers >= ``lo``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = lo - 1
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be an integer >= {lo}, got {text!r}")
        return value
    return parse


def _z_slice(text: str) -> float:
    try:
        z = float(text[2:]) if text.startswith("z=") else np.inf
    except ValueError:
        z = np.inf
    if not np.isfinite(z):
        raise argparse.ArgumentTypeError(f"expected z=<finite number>, got {text!r}")
    return z


def _center(text: str) -> tuple:
    try:
        center = tuple(float(c) for c in text.split(","))
    except ValueError:
        center = ()
    if len(center) != 3 or not np.all(np.isfinite(center)):
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated finite numbers x,y,z, got {text!r}")
    return center


def _add_grid_flags(p, default_b=0.0):
    p.add_argument("--N", type=int, required=True, help="grid density")
    p.add_argument("--a", type=float, default=0.0, help="lattice shift")
    p.add_argument("--b", type=float, default=default_b,
                   help="fractional offset in [0, 1]")
    p.add_argument("--T", type=float, default=1.0, help="period")


def _add_bump_flags(p):
    p.add_argument("--alpha", type=float, default=0.1, help="bump inner radius")
    p.add_argument("--beta", type=float, default=0.2, help="bump outer radius")
    p.add_argument("--center", type=_center, default=(0.75, 0.75, 0.25),
                   help="bump center x,y,z")


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
    p.add_argument("--f", required=True, help="const:<v>, E:k,l,m, or bump")
    _add_bump_flags(p)
    _add_grid_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("transform", help="forward transform of a sample CSV")
    p.add_argument("--in", dest="infile", required=True)
    _add_grid_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("inverse", help="inverse transform of a coefficient JSON")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_inverse)

    p = sub.add_parser("interpolate", help="build the interpolant for a sample CSV")
    p.add_argument("--in", dest="infile", required=True)
    _add_grid_flags(p)
    p.add_argument("--slice", type=_z_slice, default=None,
                   help="export a plane cut, e.g. z=0.25")
    p.add_argument("--res", type=_int_at_least(1), default=64, help="slice resolution")
    p.add_argument("--slice-out", default="slice.csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_interpolate)

    p = sub.add_parser("verify", help="run the identity verification suites")
    p.add_argument("suite", nargs="?", default="all",
                   choices=["all", "identities", "transform", "interpolation", "c3"])
    p.add_argument("--seed", type=_int_at_least(0), default=0)
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
    _add_bump_flags(p)
    p.add_argument("--quad-n", type=_int_at_least(1), default=None,
                   help="quadrature subdivisions per axis")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_error_table)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a value that overflows is refused by the writers, in one line
        with np.errstate(over="ignore", invalid="ignore"):
            passed = args.func(args)     # only verify returns a verdict
    except OSError as exc:           # the helpers set filename to the path
        msg, code = f"{exc.filename}: {exc.strerror}", EXIT_IO
    except altio.FormatError as exc:  # prefixed with the path by _read_input
        msg, code = str(exc), EXIT_IO
    except ValueError as exc:
        msg, code = str(exc), EXIT_USAGE
    except MemoryError as exc:       # a request too large for this host
        request = " ".join(sys.argv[1:] if argv is None else argv)
        detail = f": {exc}" if str(exc) else ""
        msg, code = f"out of memory running 'altexp {request}'{detail}", EXIT_MEMORY
    except Exception as exc:         # a fault of the program; KeyboardInterrupt passes
        msg, code = f"internal error: {type(exc).__name__}: {exc}", EXIT_INTERNAL
    else:
        return EXIT_VERIFY if passed is False else EXIT_OK
    print(f"error: {msg}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
