"""Command-line front end.

Subcommands: grid, sample, transform, inverse, interpolate, verify,
error-table.  Commands raise on failure, and ``main`` alone turns the
exception into one ``error:`` line and an exit code: 0 success, 1
verification failure (any failed check, the C_3 group orders included),
2 usage error, 3 I/O or format error, naming the file, 4 out of memory,
naming the command line, 5 any other internal error, naming the
exception type, 6 numerical failure: valid input whose result is not
finite, refused by the writer, which names the first bad row.  ``main``
checks and opens every output before a command reads or computes
anything, and the command writes to the handles it is given, so an
output that names the input or cannot be opened is reported ahead of a
bad input or flag value.  An empty ``--in``, ``--out`` or ``--slice-out``
is a usage error naming the flag.  The commands run the fast paths only;
``verify transform`` and ``verify interpolation`` check them against the
naive-sum and remap oracles.  ``verify`` has no fault switch: the tests
inject faults by monkeypatching.
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
from .textrows import NonFiniteError, write_rows
from .transform import SampleSet, adft_forward, adft_inverse

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_MEMORY = 4
EXIT_INTERNAL = 5
EXIT_NUMERIC = 6


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
    s = SampleSet(g, fn(g.points()))
    bad = np.flatnonzero(~np.isfinite(s.values))
    if bad.size:
        rst = tuple(s.table.index[bad[0]].tolist())
        raise ValueError(f"sample function is not finite at lattice point {rst}: "
                         f"{s.values[bad[0]]}")
    return s


def _read_input(path, read):
    """``read(fh)`` on the text file at ``path``; a failure to open, read,
    decode or parse it raises FormatError naming ``path``, never OSError."""
    try:
        with open(path, newline="\n") as fh:    # untranslated: a '\r' reaches the grammar
            return read(fh)
    except OSError as exc:
        raise altio.FormatError(f"{path}: {exc.strerror}") from None
    except (UnicodeDecodeError, altio.FormatError) as exc:
        raise altio.FormatError(f"{path}: {exc}") from None


@contextlib.contextmanager
def _open_outputs(args):
    """Handles for the outputs of ``args``: ``--out``, ``--slice-out`` with
    ``--slice``, or standard output without ``--out``.

    An output naming the same file as ``--in`` or an earlier output is
    refused before any is opened.  Each is a temporary file beside its real
    path, moved onto it by ``os.replace`` once the body returns (a symlink
    keeps its link), and removed if an open fails or the body raises: a
    failed command leaves no partial output and an earlier file as it was.
    An existing output that is not a regular file (a device or a FIFO) is
    written in place.  An OSError in the body is reported as the outputs',
    and one writing standard output (a closed pipe) as ``<stdout>``'s.
    """
    if args.out is None:
        try:
            yield [sys.stdout]
            sys.stdout.flush()
        except OSError as exc:
            # what is left in the buffer would fail again when Python
            # flushes the stream at exit, so it goes to the null device
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise OSError(exc.errno, exc.strerror, "<stdout>") from None
        return
    slicing = getattr(args, "slice", None) is not None
    paths = [args.out, args.slice_out] if slicing else [args.out]
    real = [os.path.realpath(p) for p in paths]
    sources = [os.path.realpath(args.infile)] if hasattr(args, "infile") else []
    for i, path in enumerate(paths):
        if real[i] in sources:
            raise ValueError(f"{path}: names the same file as the input")
        if real[i] in real[:i]:
            raise ValueError(f"{path}: names the same file as another output")
    fhs, tmps = [], []    # tmps[i] is None for an output written in place
    try:
        for path, target in zip(paths, real):
            # the path as given: /dev/stdout on a pipe has no real path
            if os.path.exists(path) and not os.path.isfile(path):
                tmps.append(None)
                fhs.append(open(path, "w"))
            else:
                head, name = os.path.split(target)
                tmps.append(os.path.join(head, f".{name}.{secrets.token_hex(4)}.tmp"))
                fhs.append(open(tmps[-1], "x"))   # the umask-derived mode of open(path, "w")
        path = ", ".join(map(str, paths))   # the body may fail on any of them
        yield fhs
        for fh, tmp, target, path in zip(fhs, tmps, real, paths):
            fh.close()
            if tmp is not None:
                os.replace(tmp, target)
    except OSError as exc:   # name the output, not its temporary file
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    finally:
        for fh, tmp in zip(fhs, tmps):
            fh.close()
            if tmp is not None:
                with contextlib.suppress(OSError):     # gone once moved into place
                    os.remove(tmp)


def cmd_grid(args, fh) -> None:
    write_grid_csv(_grid_from_args(args), fh)


def cmd_sample(args, fh) -> None:
    s = _sample_lattice(_grid_from_args(args), _builtin_function(args))
    altio.write_samples_csv(s, fh)


def _read_samples(args) -> SampleSet:
    g = _grid_from_args(args)
    return _read_input(args.infile, lambda fh: altio.read_samples_csv(g, fh))


def cmd_transform(args, fh) -> None:
    altio.write_coefficients_json(adft_forward(_read_samples(args)), fh)


def _read_beta(fh):
    c = altio.read_coefficients_json(fh)
    if c.role != "beta":
        raise altio.FormatError(f"inverse transform needs role 'beta', got {c.role!r}")
    return c


def cmd_inverse(args, fh) -> None:
    altio.write_samples_csv(adft_inverse(_read_input(args.infile, _read_beta)), fh)


def _write_slice_csv(interp: InterpolantAlt, z: float, res: int, fh) -> None:
    """R x R cut of the interpolant on the plane of constant z.

    Header ``x,y,re,im``; x and y run over midpoints of a res x res
    subdivision of the period cell starting at the grid shift a.
    """
    g = interp.grid
    coords = g.a + (np.arange(res) + 0.5) * (g.period / res)
    vals = eval_psi_alt_tensor(interp, coords, coords, np.array([z])).ravel()
    i, j = np.divmod(np.arange(res * res), res)    # row i * res + j is the point (x_i, y_j)
    write_rows(fh, "x,y,re,im\n", [(coords, i, "%.17g,"), (coords, j, "%.17g,")],
               "%.17g,%.17g\n", np.column_stack([vals.real, vals.imag]))


def cmd_interpolate(args, fh, slice_fh=None) -> None:
    interp = alt_interpolate_direct(_read_samples(args))
    altio.write_coefficients_json(interp.coeffs, fh)
    if slice_fh is not None:
        _write_slice_csv(interp, args.slice, args.res, slice_fh)


def cmd_verify(args, fh) -> bool:
    from .verify import run_suite
    results = run_suite(args.suite, seed=args.seed)
    report = {"seed": args.seed, "suite": args.suite,
              "checks": [r.as_dict() for r in results],
              "pass": all(r.passed for r in results)}
    fh.write(json.dumps(report, indent=1) + "\n")
    return report["pass"]


def cmd_error_table(args, fh) -> None:
    f = _bump_from_args(args)
    errors = []
    for n in args.N:
        interp = alt_interpolate_direct(_sample_lattice(GridSpec(args.a, args.b, n), f))
        quad_n = (256 if n >= 31 else 128) if args.quad_n is None else args.quad_n
        errors.append(interpolation_error(f, interp, quad_n))
    write_rows(fh, "N,error\n", [(np.array(args.N), np.arange(len(errors)), "%d,")],
               "%.17g\n", np.array(errors)[:, None])


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


def _path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("must be a non-empty path")
    return text


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


def _add_grid_flags(p):
    p.add_argument("--N", type=int, required=True, help="grid density")
    p.add_argument("--a", type=float, default=0.0, help="lattice shift")
    p.add_argument("--b", type=float, default=0.0, help="fractional offset in [0, 1]")
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
    p.add_argument("--out", type=_path, required=True)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("sample", help="sample a built-in function on the lattice")
    p.add_argument("--f", required=True, help="const:<v>, E:k,l,m, or bump")
    _add_bump_flags(p)
    _add_grid_flags(p)
    p.add_argument("--out", type=_path, required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("transform", help="forward transform of a sample CSV")
    p.add_argument("--in", dest="infile", type=_path, required=True)
    _add_grid_flags(p)
    p.add_argument("--out", type=_path, required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("inverse", help="inverse transform of a coefficient JSON")
    p.add_argument("--in", dest="infile", type=_path, required=True)
    p.add_argument("--out", type=_path, required=True)
    p.set_defaults(func=cmd_inverse)

    p = sub.add_parser("interpolate", help="build the interpolant for a sample CSV")
    p.add_argument("--in", dest="infile", type=_path, required=True)
    _add_grid_flags(p)
    p.add_argument("--slice", type=_z_slice, default=None,
                   help="export a plane cut, e.g. z=0.25")
    p.add_argument("--res", type=_int_at_least(1), default=64, help="slice resolution")
    p.add_argument("--slice-out", type=_path, default="slice.csv")
    p.add_argument("--out", type=_path, required=True)
    p.set_defaults(func=cmd_interpolate)

    p = sub.add_parser("verify", help="run the identity verification suites")
    p.add_argument("suite", nargs="?", default="all",
                   choices=["all", "identities", "transform", "interpolation", "c3"])
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out", type=_path, default=None)
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
    p.add_argument("--out", type=_path, default=None)
    p.set_defaults(func=cmd_error_table)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a value that overflows is refused by the writers, in one line
        with np.errstate(over="ignore", invalid="ignore"), _open_outputs(args) as fhs:
            passed = args.func(args, *fhs)     # only verify returns a verdict
    except OSError as exc:           # an output's, named by _open_outputs
        msg, code = f"{exc.filename}: {exc.strerror}", EXIT_IO
    except altio.FormatError as exc:  # prefixed with the path by _read_input
        msg, code = str(exc), EXIT_IO
    except NonFiniteError as exc:    # valid input whose result overflowed
        msg, code = str(exc), EXIT_NUMERIC
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
