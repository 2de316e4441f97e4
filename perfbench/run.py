"""Closed-loop, per-operation benchmark of altexp.

    python3 perfbench/run.py --workload synthesis --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One caller issues one operation at a
time (see workloads.py), checks its outputs against oracles, and times
it.  The last line of standard output is the result JSON; the line
before it is the run record (machine, library builds, thread caps, seed,
commit).  A full record, with every operation's times and, for a traced
run, every span, is written to perfbench/out/.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates traced
and untraced operations and reports per-layer self times, per-operation
size counts and the tracing overhead.  NOTES.md describes both.
"""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    # BLAS reads these once, when numpy is first imported.
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import numpy as np

from spans import NO_SPANS, Spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("synthesis", "analysis", "paper")
SETUP_PROBES = 5  # fresh processes timed per run; the median is reported
MIN_OPS = 100     # the 90th percentile needs at least 10 operations above it
REF_WINDOW = 4    # host speed at an op: median of the reference timings within 4 ops

SPAN_METRICS = (
    "domain.write_grid_csv",
    "io.read_samples_csv", "io.write_coefficients_json",
    "io.read_coefficients_json", "io.write_samples_csv",
    "transform.adft_forward", "transform.adft_inverse", "transform.from_function",
    "interpolation.alt_interpolate_direct", "interpolation.eval_psi_alt",
    "interpolation.eval_psi_alt_tensor",
    "quadrature.interpolation_error", "quadrature.continuous_gram_entry",
)
COUNT_METRICS = {
    "domain.points": "points", "transform.coeffs": "coeffs",
    "interpolation.eval_points": "eval_points", "quadrature.cells": "cells",
    "io.bytes": "bytes",
}


class Op(NamedTuple):
    wall: float    # seconds
    cpu: float     # process CPU seconds
    traced: bool
    at: int        # index of the reference timing taken just before it


def load_program():
    """Import altexp from this checkout's sources, never from elsewhere."""
    if not (SRC / "altexp" / "__init__.py").is_file():
        sys.exit(f"perfbench: no altexp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import altexp
    if Path(altexp.__file__).resolve().parent != (SRC / "altexp").resolve():
        sys.exit(f"perfbench: altexp imported from {altexp.__file__}, not {SRC}")
    import workloads
    return workloads


def probe_setup(workload: str, seed: int):
    """Seconds from spawning a fresh process to the end of its first
    operation, and whether that operation passed its check."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report["cold_end"] - start, report["ok"]


def first_op(wl, workload: str, seed: int):
    """Build the input pool and run the cold operation; returns both."""
    pool, op, _ = wl.WORKLOADS[workload]
    items = pool(np.random.default_rng(seed))
    return items, op(items[0], NO_SPANS)


def self_check(wl, workload: str, item, out) -> bool:
    """The check passes the op's outputs and rejects every perturbed copy."""
    try:
        got = wl.WORKLOADS[workload][2](item, out)
    except Exception:
        traceback.print_exc()
        return False
    if not wl.tolerance_used(item["expected"], got) < 1:
        return False
    return all(wl.tolerance_used(item["expected"], bad) >= 1
               for bad in wl.perturbations(got, item["expected"]))


_REF_SMALL = np.linspace(0.0, 1.0, 600)
_REF_LARGE = np.linspace(0.0, 1.0, 4096)


def host_reference() -> None:
    """Fixed work, independent of altexp, timed before every operation.

    Many numpy calls on arrays of a few hundred values (like the per-key
    loops), some text formatting and parsing (like the readers and
    writers) and a few calls on arrays of a few thousand values (like
    the quadrature slabs).  The host's speed drifts by up to 1.7x over
    minutes, for this mix and for every workload together, so an
    operation's time divided by this reference, timed next to it, is far
    steadier than either.
    """
    for k in range(80):
        np.exp(2j * np.pi * np.mod(_REF_SMALL * k, 1.0)).sum()
    text = "\n".join(f"{i},{i * 0.37:.17g},{i * 1.3e-3:.17g}" for i in range(600))
    _ = {i: float(line.split(",")[1]) for i, line in enumerate(text.split("\n"))}
    for k in range(6):
        (np.exp(2j * np.pi * k * _REF_LARGE) * np.exp(-2j * np.pi * _REF_LARGE)).sum()


def run_ops(wl, workload: str, items, seconds: float, spans):
    """The closed loop.  With ``spans``, every odd operation is traced.

    Returns the operations attempted, those failed, the timings of the
    ones that returned, the finite tolerance ratios and the reference
    timings.  An op that returns but fails its check is timed and counted
    as failed; the run then reports ``correct: false``.
    """
    _, op, extract = wl.WORKLOADS[workload]
    ops, ratios, refs = [], [], []
    failed = 0
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        item = items[i % len(items)]
        tr = spans if spans is not None and i % 2 else NO_SPANS
        tr.begin_op(i)
        r0 = time.perf_counter()
        host_reference()
        refs.append(time.perf_counter() - r0)
        i += 1
        try:
            w0, c0 = time.perf_counter(), time.process_time()
            with tr.span("op"):
                out = op(item, tr)
            w1, c1 = time.perf_counter(), time.process_time()
            ops.append(Op(w1 - w0, c1 - c0, tr is spans, len(refs) - 1))
            ratio = wl.tolerance_used(item["expected"], extract(item, out))
        except Exception:
            if not failed:
                traceback.print_exc()
            ratio = math.inf
        if not ratio < 1:
            failed += 1
        if math.isfinite(ratio):
            ratios.append(ratio)
    return i, failed, ops, ratios, refs


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


def in_ref_units(ops, refs, field: str) -> list:
    """Each op's time divided by the host reference timed around it."""
    return [getattr(o, field) / statistics.median(
                refs[max(0, o.at - REF_WINDOW):o.at + REF_WINDOW + 1])
            for o in ops]


def worst_ratio(ratios) -> float:
    """Largest finite tolerance ratio, kept above 0 so that its logarithm
    is a JSON number (no finite ratio at all counts as the largest float)."""
    return max(max(ratios, default=sys.float_info.max), sys.float_info.min)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setups, ops, ratios, refs) -> dict:
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "op_p50_ref": metric(percentile(in_ref_units(ops, refs, "wall"), 50), "ref"),
        "op_cpu_p50_ref": metric(percentile(in_ref_units(ops, refs, "cpu"), 50), "ref"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "tol_margin_digits": metric(-math.log10(worst_ratio(ratios)), "digits"),
    }


def per_layer(spans, ops, ratios, refs) -> dict:
    selfs = spans.self_times()
    out = {f"{name}_s": metric(statistics.median(selfs[name]) if name in selfs else 0.0, "s")
           for name in SPAN_METRICS}
    out["op.self_s"] = metric(statistics.median(selfs["op"]), "s")
    counts = spans.median_counts()
    for name, key in COUNT_METRICS.items():
        out[name] = metric(counts.get(key, 0), "count")
    traced = [o.wall for o in ops if o.traced]
    plain = [o for o in ops if not o.traced]
    plain_walls = [o.wall for o in plain]
    out["trace.overhead_ratio"] = metric(
        percentile(traced, 50) / percentile(plain_walls, 50), "ratio")
    out["op_p50_s"] = metric(percentile(plain_walls, 50), "s")
    out["op_p90_s"] = metric(percentile(plain_walls, 90), "s")
    out["op_p90_ref"] = metric(percentile(in_ref_units(plain, refs, "wall"), 90), "ref")
    out["host_ref_s"] = metric(statistics.median(refs), "s")
    out["tol_used"] = metric(worst_ratio(ratios), "ratio")
    return out


def run_record(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        if git.returncode == 0:
            commit = git.stdout.strip()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.setup_probe:
        wl = load_program()
        items, out = first_op(wl, args.workload, args.seed)
        cold_end = time.monotonic()
        ok = self_check(wl, args.workload, items[0], out)
        print(json.dumps({"cold_end": cold_end, "ok": ok}))
        return 0

    wl = load_program()
    probes = ([probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
              if not args.trace else [])
    setups = [t for t, _ in probes]
    items, out = first_op(wl, args.workload, args.seed)
    checked = (self_check(wl, args.workload, items[0], out)
               and all(ok for _, ok in probes))

    spans = Spans() if args.trace else None
    attempted, failed, ops, ratios, refs = run_ops(
        wl, args.workload, items, args.seconds, spans)
    if len(ops) < MIN_OPS:
        print(f"perfbench: only {len(ops)} operations returned; "
              f"the 90th percentile needs {MIN_OPS}", file=sys.stderr)
    if len({o.traced for o in ops}) < (2 if args.trace else 1):
        sys.exit("perfbench: too few operations returned to report metrics")

    metrics = (per_layer(spans, ops, ratios, refs) if args.trace
               else end_to_end(setups, ops, ratios, refs))
    result = {"correct": checked and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = run_record(args)
    record["self_check"] = checked
    dump = {"record": record, "result": result, "setup_s": setups,
            "ops": [o._asdict() for o in ops], "refs": refs}
    if spans is not None:
        dump["spans"] = spans.dump()
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dump))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
