"""Seeded input pools, the timed operations and their oracles.

Each workload is three functions:

- ``pool(rng)`` builds ``POOL`` input items from the seed.  An item holds
  the inputs the program sees (text buffers, lattices, points) and the
  expected outputs as ``{name: (array, tolerance)}``.  Expected outputs
  come from oracles in this file (direct sums written with numpy), never
  from the library path being timed.
- ``op(item, tr)`` is one timed operation: the library calls a CLI
  command makes, in the same order.  Every call into a layer sits in a
  ``tr.span`` so a traced run can attribute time to it.
- ``extract(item, out)`` turns the program's outputs into arrays keyed
  like the expected outputs.  It parses the text outputs, so the check
  covers what a CLI user reads, and raises ``ValueError`` on a malformed
  output.

Sizes are chosen so one operation takes roughly 0.1-0.2 s on a 2-vCPU
host: a run of 30 s then holds well over 100 operations, which a 90th
percentile needs.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np

from altexp import domain, interpolation, quadrature, transform
from altexp import io as altio

POOL = 8
TOL = 1e-9

SYN_N = 12            # even lattice of the beta coefficients
SYN_INTERP_N = 11     # odd lattice of the prepared interpolant
SYN_POINTS = 64

ANA_N = 20            # grid export and forward transform
ANA_INTERP_N = 21     # interpolation and slice
ANA_PLANTED = 6
SLICE_RES = 128

PAPER_N = 15
PAPER_CELLS = 64
PAPER_BUMP = quadrature.BumpParams(0.1, 0.2, (0.75, 0.75, 0.25))
PAPER_ERROR = 3.9178e-4   # integral error at N=15 (paper, a=0, b=1/2)
PAPER_REL_TOL = 0.1


# ---------------------------------------------------------------- oracles

def semidominant(lo: int, hi: int) -> np.ndarray:
    """Semidominant triples in [lo, hi]^3, lexicographic (enumeration order)."""
    r = np.arange(lo, hi + 1)
    k, l, m = (g.ravel() for g in np.meshgrid(r, r, r, indexing="ij"))
    keep = ((k >= l) & (l >= m)) | ((l > k) & (k > m))
    return np.stack([k, l, m], axis=1)[keep]


def expand(keys: np.ndarray, coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Direct sum of coeffs[j] * E_{keys[j]} at each point (O(points * keys))."""
    x, y, z = pts[:, 0:1], pts[:, 1:2], pts[:, 2:3]
    k, l, m = keys[:, 0], keys[:, 1], keys[:, 2]
    e = (np.exp(2j * np.pi * (x * k + y * l + z * m))
         + np.exp(2j * np.pi * (x * l + y * m + z * k))
         + np.exp(2j * np.pi * (x * m + y * k + z * l)))
    return e @ coeffs


def bump(params: quadrature.BumpParams, pts: np.ndarray) -> np.ndarray:
    """The paper's smooth ball indicator, written out independently."""
    r = np.linalg.norm(pts - np.asarray(params.center), axis=-1)
    q = (r - params.alpha) / (params.beta - params.alpha)
    out = np.where(r < params.alpha, 1.0, 0.0)
    mid = (r >= params.alpha) & (q < 1.0)
    out[mid] = math.e * np.exp(1.0 / (q[mid] ** 2 - 1.0))
    return out


def gram_midpoint(t, tp, n: int) -> complex:
    """The midpoint sum of E_t conj(E_t') over {x > z, y > z}, reordered.

    Each of the nine plain-exponential terms factors as
    sum_k e^{2 pi i c z_k} S_a(k) S_b(k), with S the suffix sums over
    midpoints strictly above z_k: the same cells, summed in O(n).
    """
    u = (np.arange(n) + 0.5) / n

    def above(freq):
        e = np.exp(2j * np.pi * freq * u)
        return np.concatenate([np.cumsum(e[::-1])[::-1][1:], [0.0]])

    def rots(v):
        k, l, m = v
        return [(k, l, m), (l, m, k), (m, k, l)]

    total = 0j
    for a1, b1, c1 in rots(t):
        for a2, b2, c2 in rots(tp):
            ez = np.exp(2j * np.pi * (c1 - c2) * u)
            total += np.sum(ez * above(a1 - a2) * above(b1 - b2))
    return complex(total / n ** 3)


# ------------------------------------------------------------------ inputs

def shifted_lattice(rng, n: int) -> domain.GridSpec:
    """A lattice with a in (-1, 1) and b away from 0 and 1/2."""
    b = 0.5
    while abs(b - 0.5) < 0.05:
        b = rng.uniform(0.05, 0.95)
    return domain.GridSpec(rng.uniform(-1.0, 1.0), b, n)


def lattice_points(g: domain.GridSpec, idx: np.ndarray) -> np.ndarray:
    return g.a + (idx + g.b) * (g.period / g.n)


def random_complex(rng, size) -> np.ndarray:
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def samples_csv(idx: np.ndarray, f: np.ndarray) -> str:
    rows = [f"{r},{s},{t},{v.real!r},{v.imag!r}"
            for (r, s, t), v in zip(idx.tolist(), f.tolist())]
    return "r,s,t,re,im\n" + "\n".join(rows) + "\n"


def beta_json(g: domain.GridSpec, keys: np.ndarray, beta: np.ndarray) -> str:
    coeffs = [{"k": k, "l": l, "m": m, "re": v.real, "im": v.imag}
              for (k, l, m), v in zip(keys.tolist(), beta.tolist())]
    return json.dumps({"N": g.n, "M": None, "a": g.a, "b": g.b, "T": g.period,
                       "role": "beta", "coeffs": coeffs})


def planted(rng, keys: np.ndarray, count: int) -> np.ndarray:
    """Coefficients over ``keys`` that are zero except at ``count`` seeded keys."""
    c = np.zeros(len(keys), dtype=complex)
    c[rng.choice(len(keys), size=count, replace=False)] = random_complex(rng, count)
    return c


# ----------------------------------------------------------- text outputs

def parse_rows(text: str, header: str, ncols: int) -> np.ndarray:
    head, _, body = text.partition("\n")
    if head != header:
        raise ValueError(f"expected header {header!r}, got {head!r}")
    rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    if rows.shape[1] != ncols:
        raise ValueError(f"expected {ncols} columns, got {rows.shape[1]}")
    return rows


def parse_keyed(rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Values of ``r,s,t,re,im`` rows, which must list ``idx`` in order."""
    if rows.shape[0] != len(idx) or not np.array_equal(rows[:, :3], idx):
        raise ValueError("rows do not list the lattice in enumeration order")
    return rows[:, 3] + 1j * rows[:, 4]


def parse_coeffs(text: str, role: str, keys: np.ndarray) -> np.ndarray:
    obj = json.loads(text)
    if obj["role"] != role:
        raise ValueError(f"expected role {role!r}, got {obj['role']!r}")
    rows = np.array([[c["k"], c["l"], c["m"], c["re"], c["im"]]
                     for c in obj["coeffs"]], dtype=float).reshape(-1, 5)
    return parse_keyed(rows, keys)


# --------------------------------------------------------------- synthesis

def synthesis_pool(rng) -> list:
    idx = semidominant(0, SYN_N - 1)
    m = (SYN_INTERP_N - 1) // 2
    interp_keys = semidominant(-m, m)
    interp_idx = semidominant(0, SYN_INTERP_N - 1)
    items = []
    for _ in range(POOL):
        g = shifted_lattice(rng, SYN_N)
        beta = random_complex(rng, len(idx)) / math.sqrt(len(idx))
        gi = shifted_lattice(rng, SYN_INTERP_N)
        c = random_complex(rng, len(interp_keys)) / math.sqrt(len(interp_keys))
        f_interp = expand(interp_keys, c, lattice_points(gi, interp_idx))
        pts = rng.uniform(0.0, 1.0, (SYN_POINTS, 3))
        items.append({
            "beta_json": beta_json(g, idx, beta),
            "interp": interpolation.alt_interpolate_direct(
                transform.SampleSet.from_array(gi, f_interp)),
            "points": pts,
            "idx": idx,
            "expected": {
                "samples": (expand(idx, beta, lattice_points(g, idx)), TOL),
                "values": (expand(interp_keys, c, pts), TOL),
            },
        })
    return items


def synthesis_op(item, tr) -> dict:
    """``altexp inverse`` on a beta JSON, then the interpolant at scattered points."""
    text = item["beta_json"]
    with tr.span("io.read_coefficients_json"):
        beta = altio.read_coefficients_json(io.StringIO(text))
    with tr.span("transform.adft_inverse"):
        samples = transform.adft_inverse(beta)
    buf = io.StringIO()
    with tr.span("io.write_samples_csv"):
        altio.write_samples_csv(samples, buf)
    csv = buf.getvalue()
    with tr.span("interpolation.eval_psi_alt"):
        values = interpolation.eval_psi_alt(item["interp"], item["points"])
    n = len(item["idx"])
    tr.count(points=n, coeffs=n, eval_points=len(item["points"]),
             bytes=len(text) + len(csv))
    return {"csv": csv, "values": values}


def synthesis_extract(item, out) -> dict:
    rows = parse_rows(out["csv"], "r,s,t,re,im", 5)
    return {"samples": parse_keyed(rows, item["idx"]),
            "values": np.asarray(out["values"])}


# ---------------------------------------------------------------- analysis

def analysis_pool(rng) -> list:
    idx = semidominant(0, ANA_N - 1)
    interp_idx = semidominant(0, ANA_INTERP_N - 1)
    m = (ANA_INTERP_N - 1) // 2
    interp_keys = semidominant(-m, m)
    items = []
    for _ in range(POOL):
        g = shifted_lattice(rng, ANA_N)
        beta = planted(rng, idx, ANA_PLANTED)
        gi = shifted_lattice(rng, ANA_INTERP_N)
        c = planted(rng, interp_keys, ANA_PLANTED)
        coords = gi.a + (np.arange(SLICE_RES) + 0.5) * (gi.period / SLICE_RES)
        z = rng.uniform(0.0, 1.0)
        xx, yy = np.meshgrid(coords, coords, indexing="ij")
        cut = np.stack([xx.ravel(), yy.ravel(), np.full(xx.size, z)], axis=1)
        bz, nz = beta != 0, c != 0
        items.append({
            "grid": g,
            "fwd_csv": samples_csv(
                idx, expand(idx[bz], beta[bz], lattice_points(g, idx))),
            "interp_grid": gi,
            "interp_csv": samples_csv(
                interp_idx,
                expand(interp_keys[nz], c[nz], lattice_points(gi, interp_idx))),
            "coords": coords,
            "z": z,
            "idx": idx,
            "interp_keys": interp_keys,
            "expected": {
                "grid": (lattice_points(g, idx), TOL),
                "beta": (beta, TOL),
                "c_alt": (c, TOL),
                "slice": (expand(interp_keys[nz], c[nz], cut).reshape(
                    SLICE_RES, SLICE_RES), TOL),
            },
        })
    return items


def analysis_op(item, tr) -> dict:
    """``altexp grid``, ``transform`` and ``interpolate --slice``, in memory."""
    g, gi = item["grid"], item["interp_grid"]
    grid_buf = io.StringIO()
    with tr.span("domain.write_grid_csv"):
        domain.write_grid_csv(g, grid_buf)
    with tr.span("io.read_samples_csv"):
        samples = altio.read_samples_csv(g, io.StringIO(item["fwd_csv"]))
    with tr.span("transform.adft_forward"):
        beta = transform.adft_forward(samples)
    beta_buf = io.StringIO()
    with tr.span("io.write_coefficients_json"):
        altio.write_coefficients_json(beta, beta_buf)
    with tr.span("io.read_samples_csv"):
        samples = altio.read_samples_csv(gi, io.StringIO(item["interp_csv"]))
    with tr.span("interpolation.alt_interpolate_direct"):
        interp = interpolation.alt_interpolate_direct(samples)
    c_buf = io.StringIO()
    with tr.span("io.write_coefficients_json"):
        altio.write_coefficients_json(interp.coeffs, c_buf)
    coords = item["coords"]
    with tr.span("interpolation.eval_psi_alt_tensor"):
        cut = interpolation.eval_psi_alt_tensor(interp, coords, coords,
                                                np.array([item["z"]]))
    out = {"grid": grid_buf.getvalue(), "beta": beta_buf.getvalue(),
           "c_alt": c_buf.getvalue(), "slice": cut}
    p, pi = len(item["idx"]), len(item["interp_keys"])
    tr.count(points=2 * p + pi, coeffs=p + pi, eval_points=SLICE_RES ** 2,
             bytes=len(item["fwd_csv"]) + len(item["interp_csv"])
             + len(out["grid"]) + len(out["beta"]) + len(out["c_alt"]))
    return out


def analysis_extract(item, out) -> dict:
    rows = parse_rows(out["grid"], "r,s,t,x,y,z", 6)
    if not np.array_equal(rows[:, :3], item["idx"]):
        raise ValueError("grid rows do not list the lattice in enumeration order")
    cut = np.asarray(out["slice"])
    if cut.shape != (SLICE_RES, SLICE_RES, 1):
        raise ValueError(f"slice has shape {cut.shape}")
    return {"grid": rows[:, 3:],
            "beta": parse_coeffs(out["beta"], "beta", item["idx"]),
            "c_alt": parse_coeffs(out["c_alt"], "c_alt", item["interp_keys"]),
            "slice": cut[..., 0]}


# ------------------------------------------------------------------- paper

def paper_pool(rng) -> list:
    g = domain.GridSpec(0.0, 0.5, PAPER_N)
    idx = semidominant(0, PAPER_N - 1)
    samples = bump(PAPER_BUMP, lattice_points(g, idx))
    pairs = semidominant(0, 2)
    items = []
    for _ in range(POOL):
        t, tp = (tuple(pairs[i].tolist()) for i in rng.integers(len(pairs), size=2))
        items.append({
            "grid": g,
            "pair": (t, tp),
            "expected": {
                "samples": (samples, TOL),
                "error": (np.array(PAPER_ERROR), PAPER_REL_TOL * PAPER_ERROR),
                "gram": (np.array(gram_midpoint(t, tp, PAPER_CELLS)), TOL),
            },
        })
    return items


def paper_op(item, tr) -> dict:
    """``altexp error-table --N 15`` plus one continuous Gram entry."""
    f = lambda pts: quadrature.bump(PAPER_BUMP, pts)
    with tr.span("transform.from_function"):
        samples = transform.SampleSet.from_function(
            item["grid"], lambda p: complex(f(np.asarray(p))))
    with tr.span("interpolation.alt_interpolate_direct"):
        interp = interpolation.alt_interpolate_direct(samples)
    with tr.span("quadrature.interpolation_error"):
        error = quadrature.interpolation_error(f, interp, PAPER_CELLS)
    with tr.span("quadrature.continuous_gram_entry"):
        gram = quadrature.continuous_gram_entry(*item["pair"], PAPER_CELLS)
    p = item["grid"].point_count
    tr.count(points=p, coeffs=p, cells=2 * PAPER_CELLS ** 3)
    return {"samples": samples, "error": error, "gram": gram}


def paper_extract(item, out) -> dict:
    return {"samples": out["samples"].as_array(),
            "error": np.array(out["error"]), "gram": np.array(out["gram"])}


WORKLOADS = {
    "synthesis": (synthesis_pool, synthesis_op, synthesis_extract),
    "analysis": (analysis_pool, analysis_op, analysis_extract),
    "paper": (paper_pool, paper_op, paper_extract),
}


# ------------------------------------------------------------------ checks

def tolerance_used(expected: dict, got: dict) -> float:
    """Worst |got - expected| / tolerance over all outputs (>= 1 fails).

    Missing outputs, shape mismatches and non-finite values give inf.
    """
    worst = 0.0
    for name, (want, tol) in expected.items():
        have = np.asarray(got.get(name))
        if have.shape != np.shape(want):
            return math.inf
        ratio = float(np.max(np.abs(have - want))) / tol
        if not math.isfinite(ratio):
            return math.inf
        worst = max(worst, ratio)
    return worst


def perturbations(got: dict, expected: dict):
    """Copies of ``got`` with one value of one output moved off by
    max(1e-6, 2 * tolerance); the check must reject each of them."""
    for name, (_, tol) in expected.items():
        bad = dict(got)
        bad[name] = np.array(got[name], dtype=complex)
        bad[name].flat[0] += max(1e-6, 2 * tol)
        yield bad
