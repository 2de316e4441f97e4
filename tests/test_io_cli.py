import io
import json
import os

import numpy as np
import pytest

from altexp import cli
from altexp.cli import main
from altexp.domain import GridSpec, domain_size, enumerate_domain
from altexp.functions import eval_E
from altexp.interpolation import (InterpolantAlt, alt_interpolate_direct,
                                  alt_interpolate_remap, eval_psi_alt)
from altexp.io import (FormatError, MissingKeyError, read_coefficients_json,
                       read_samples_csv, write_coefficients_json,
                       write_samples_csv)
from altexp.quadrature import interpolation_error
from altexp.transform import SampleSet, adft_forward, adft_forward_naive


def run(argv):
    return main([str(a) for a in argv])


def test_sample_csv_round_trip():
    g = GridSpec(0.1, 0.6, 4)
    rng = np.random.default_rng(80)
    s = SampleSet.from_array(g, rng.normal(size=g.point_count)
                             + 1j * rng.normal(size=g.point_count))
    buf = io.StringIO()
    write_samples_csv(s, buf)
    buf.seek(0)
    back = read_samples_csv(g, buf)
    assert np.array_equal(back.as_array(), s.as_array())


def test_sample_csv_errors():
    g = GridSpec(0, 0, 2)
    with pytest.raises(FormatError, match="line 1"):
        read_samples_csv(g, io.StringIO("bad,header\n"))
    with pytest.raises(FormatError, match="line 2"):
        read_samples_csv(g, io.StringIO("r,s,t,re,im\n0,0,zero,1,0\n"))
    with pytest.raises(FormatError, match="lattice"):
        read_samples_csv(g, io.StringIO("r,s,t,re,im\n0,0,0,1,0\n"))


def test_coefficients_json_round_trip():
    g = GridSpec(0.2, 0.4, 3)
    rng = np.random.default_rng(81)
    c = adft_forward(SampleSet.from_array(
        g, rng.normal(size=g.point_count) + 0j))
    buf = io.StringIO()
    write_coefficients_json(c, buf)
    buf.seek(0)
    back = read_coefficients_json(buf)
    assert back.role == "beta"
    assert back.grid == g
    assert np.array_equal(back.values, c.values)


BUILDERS = {
    "beta": [adft_forward, adft_forward_naive],
    "c_alt": [lambda s: alt_interpolate_direct(s).coeffs,
              lambda s: alt_interpolate_remap(s).coeffs],
}


@pytest.mark.parametrize("role, n", [("beta", n) for n in (1, 2, 3, 5, 6, 7)]
                         + [("c_alt", n) for n in (1, 3, 5, 7)])
def test_library_coefficient_sets_read_back_unchanged(role, n):
    # the file's N, M, a, b and T all come from the set's grid, so every set
    # the library builds reads back as the same set
    g = GridSpec(0.31, 0.37, n, 1.7)
    rng = np.random.default_rng(82 + n)
    s = SampleSet.from_array(g, rng.normal(size=g.point_count)
                             + 1j * rng.normal(size=g.point_count))
    for build in BUILDERS[role]:
        c = build(s)
        buf = io.StringIO()
        write_coefficients_json(c, buf)
        back = read_coefficients_json(io.StringIO(buf.getvalue()))
        assert (back.grid, back.role, back.m) == (g, role, (n - 1) // 2 if role == "c_alt"
                                                  else None)
        assert np.array_equal(back.values.view(np.uint64), c.values.view(np.uint64))
        if role == "c_alt":
            p = (0.3 * g.period, 0.7 * g.period, 0.2 * g.period)
            assert eval_psi_alt(InterpolantAlt(back), p) == eval_psi_alt(InterpolantAlt(c), p)


def test_coefficients_json_errors():
    with pytest.raises(FormatError, match="line 1"):
        read_coefficients_json(io.StringIO("{not json"))
    with pytest.raises(FormatError, match="field"):
        read_coefficients_json(io.StringIO('{"N": 3}'))


def test_cli_grid(tmp_path):
    out = tmp_path / "grid.csv"
    assert run(["grid", "--N", 3, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,s,t,x,y,z"
    assert len(lines) == 12


def test_cli_sample_bump_row_count(tmp_path):
    out = tmp_path / "s.csv"
    code = run(["sample", "--f", "bump", "--alpha", 0.1, "--beta", 0.2,
                "--center", "0.75,0.75,0.25", "--N", 7, "--b", 0.5,
                "--out", out])
    assert code == 0
    assert len(out.read_text().splitlines()) == 1 + 119


def test_cli_sample_const_and_E(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["sample", "--f", "const:1", "--N", 1, "--out", out]) == 0
    assert out.read_text().splitlines() == ["r,s,t,re,im", "0,0,0,1,0"]

    out = tmp_path / "e.csv"
    assert run(["sample", "--f", "E:1,1,0", "--N", 3, "--out", out]) == 0
    g = GridSpec(0, 0, 3)
    with open(out) as fh:
        s = read_samples_csv(g, fh)
    for rst, v in zip(enumerate_domain(0, 2), s.values, strict=True):
        assert v == pytest.approx(eval_E((1, 1, 0), g.point(rst)), abs=1e-15)


def test_cli_transform_inverse_round_trip(tmp_path):
    s_csv, b_json, back_csv = (tmp_path / n for n in ("s.csv", "b.json", "s2.csv"))
    run(["sample", "--f", "bump", "--N", 5, "--b", 0.5, "--out", s_csv])
    assert run(["transform", "--in", s_csv, "--N", 5, "--b", 0.5,
                "--out", b_json]) == 0
    assert run(["inverse", "--in", b_json, "--out", back_csv]) == 0
    g = GridSpec(0, 0.5, 5)
    with open(s_csv) as fh:
        orig = read_samples_csv(g, fh)
    with open(back_csv) as fh:
        back = read_samples_csv(g, fh)
    assert np.abs(orig.as_array() - back.as_array()).max() < 1e-10


def test_cli_transform_const_single_nonzero(tmp_path):
    s_csv, b_json = tmp_path / "s.csv", tmp_path / "b.json"
    run(["sample", "--f", "const:1", "--N", 3, "--out", s_csv])
    run(["transform", "--in", s_csv, "--N", 3, "--out", b_json])
    obj = json.loads(b_json.read_text())
    nonzero = [c for c in obj["coeffs"] if abs(c["re"]) + abs(c["im"]) > 1e-12]
    assert len(nonzero) == 1
    assert (nonzero[0]["k"], nonzero[0]["l"], nonzero[0]["m"]) == (0, 0, 0)
    assert nonzero[0]["re"] == pytest.approx(1 / 3)


def test_cli_interpolate_slice(tmp_path):
    s_csv = tmp_path / "s.csv"
    run(["sample", "--f", "const:1", "--N", 3, "--out", s_csv])
    ijson, slc = tmp_path / "i.json", tmp_path / "slice.csv"
    assert run(["interpolate", "--in", s_csv, "--N", 3, "--out", ijson,
                "--slice", "z=0.25", "--res", 8, "--slice-out", slc]) == 0
    rows = slc.read_text().splitlines()
    assert rows[0] == "x,y,re,im"
    assert len(rows) == 1 + 64
    for row in rows[1:]:
        _, _, re, im = row.split(",")
        assert float(re) == pytest.approx(1.0, abs=1e-11)
        assert abs(float(im)) < 1e-11


def test_cli_interpolate_slice_shows_ring_overshoot(tmp_path):
    # the bump reconstruction at low density rings outside [0, 1]
    s_csv = tmp_path / "s.csv"
    run(["sample", "--f", "bump", "--N", 7, "--b", 0.5, "--out", s_csv])
    ijson, slc = tmp_path / "i.json", tmp_path / "slice.csv"
    run(["interpolate", "--in", s_csv, "--N", 7, "--b", 0.5, "--out", ijson,
         "--slice", "z=0.25", "--res", 32, "--slice-out", slc])
    vals = [float(r.split(",")[2]) for r in slc.read_text().splitlines()[1:]]
    assert min(vals) < -0.01


def test_cli_interpolate_even_n_exit_code(tmp_path):
    s_csv = tmp_path / "s.csv"
    run(["sample", "--f", "const:1", "--N", 4, "--out", s_csv])
    assert run(["interpolate", "--in", s_csv, "--N", 4,
                "--out", tmp_path / "i.json"]) == 2


def test_cli_missing_input_exit_code(tmp_path):
    assert run(["transform", "--in", tmp_path / "nope.csv", "--N", 3,
                "--out", tmp_path / "o.json"]) == 3


def test_cli_verify_pass_and_fault(tmp_path):
    rpt = tmp_path / "r.json"
    assert run(["verify", "interpolation", "--seed", 42, "--out", rpt]) == 0
    assert json.loads(rpt.read_text())["pass"] is True
    assert run(["verify", "interpolation", "--seed", 42, "--inject-fault",
                "--out", rpt]) == 1
    assert json.loads(rpt.read_text())["pass"] is False


def test_cli_verify_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["verify", "c3", "--seed", 42, "--out", a])
    run(["verify", "c3", "--seed", 42, "--out", b])
    assert a.read_bytes() == b.read_bytes()


def test_cli_error_table_small(tmp_path):
    out = tmp_path / "e.csv"
    assert run(["error-table", "--N", 7, "--quad-n", 48, "--out", out]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "N,error"
    n, err = rows[1].split(",")
    assert n == "7"
    assert float(err) == pytest.approx(266649e-8, rel=0.15)


def test_cli_outputs_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        run(["sample", "--f", "bump", "--N", 5, "--b", 0.5, "--out", out])
    assert a.read_bytes() == b.read_bytes()


def beta_json_obj(tmp_path):
    s_csv, b_json = tmp_path / "s.csv", tmp_path / "b.json"
    run(["sample", "--f", "bump", "--N", 3, "--a", 0.31, "--b", 0.37, "--out", s_csv])
    run(["transform", "--in", s_csv, "--N", 3, "--a", 0.31, "--b", 0.37,
         "--out", b_json])
    return json.loads(b_json.read_text())


@pytest.mark.parametrize("field, value", [
    ("N", 4.0), ("N", True), ("N", 0), ("M", "1"), ("a", "0.31"), ("b", None),
    ("T", float("nan")), ("k", 1.0), ("re", "0"), ("im", float("inf")),
    pytest.param("M", 1, id="M-int-on-beta")])
def test_cli_inverse_rejects_malformed_field(tmp_path, capsys, field, value):
    obj = beta_json_obj(tmp_path)
    if field in ("k", "re", "im"):
        obj["coeffs"][2][field] = value
    else:
        obj[field] = value
    bad, out = tmp_path / "bad.json", tmp_path / "back.csv"
    bad.write_text(json.dumps(obj))
    assert run(["inverse", "--in", bad, "--out", out]) == 3
    err = capsys.readouterr().err
    assert f"'{field}'" in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_coefficients_json_names_missing_triple():
    obj = {"N": 2, "M": None, "a": 0.0, "b": 0.0, "T": 1.0, "role": "beta",
           "coeffs": [{"k": k, "l": l, "m": m, "re": 1.0, "im": 0.0}
                      for k, l, m in [(0, 0, 0), (1, 1, 0), (1, 1, 1)]]}
    with pytest.raises(MissingKeyError, match=r"\(1, 0, 0\)"):
        read_coefficients_json(io.StringIO(json.dumps(obj)))


def sample_lines(tmp_path):
    s_csv = tmp_path / "s.csv"
    run(["sample", "--f", "const:1", "--N", 3, "--out", s_csv])
    return s_csv, s_csv.read_text().splitlines()


def test_cli_transform_rejects_duplicate_row(tmp_path, capsys):
    s_csv, lines = sample_lines(tmp_path)
    s_csv.write_text("\n".join(lines + [lines[3]]) + "\n")
    out = tmp_path / "b.json"
    assert run(["transform", "--in", s_csv, "--N", 3, "--out", out]) == 3
    assert "line 4 and line 13" in capsys.readouterr().err
    assert not out.exists()


def test_cli_transform_rejects_non_finite_sample(tmp_path, capsys):
    s_csv, lines = sample_lines(tmp_path)
    r, s, t, _, _ = lines[4].split(",")
    lines[4] = f"{r},{s},{t},nan,0"
    s_csv.write_text("\n".join(lines) + "\n")
    out = tmp_path / "b.json"
    assert run(["transform", "--in", s_csv, "--N", 3, "--out", out]) == 3
    assert "line 5" in capsys.readouterr().err
    assert not out.exists()


def test_cli_interpolate_rejects_nonpositive_res(tmp_path, capsys):
    s_csv, _ = sample_lines(tmp_path)
    out, slc = tmp_path / "i.json", tmp_path / "slice.csv"
    for res in (0, -1):
        with pytest.raises(SystemExit) as exc:
            run(["interpolate", "--in", s_csv, "--N", 3, "--out", out,
                 "--slice", "z=0.25", "--res", res, "--slice-out", slc])
        assert exc.value.code == 2
        assert "--res" in capsys.readouterr().err
    assert not out.exists() and not slc.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_sample_rejects_non_finite_function(tmp_path, capsys, value):
    out = tmp_path / "s.csv"
    assert run(["sample", "--f", f"const:{value}", "--N", 2, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "(0, 0, 0)" in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_cli_interpolate_rejects_bad_slice(tmp_path, capsys):
    s_csv, _ = sample_lines(tmp_path)
    out, slc = tmp_path / "i.json", tmp_path / "slice.csv"
    for spec in ("q=1", "z=abc"):
        with pytest.raises(SystemExit) as exc:
            run(["interpolate", "--in", s_csv, "--N", 3, "--out", out,
                 "--slice", spec, "--slice-out", slc])
        assert exc.value.code == 2
        assert "--slice" in capsys.readouterr().err
    assert not out.exists() and not slc.exists()


def test_cli_verify_identities_report(tmp_path):
    rpt = tmp_path / "r.json"
    assert run(["verify", "identities", "--seed", 3, "--out", rpt]) == 0
    assert all(c["pass"] is True for c in json.loads(rpt.read_text())["checks"])


def test_cli_interpolate_leaves_no_output_when_slice_out_fails(tmp_path, capsys):
    s_csv, _ = sample_lines(tmp_path)
    out = tmp_path / "i.json"
    assert run(["interpolate", "--in", s_csv, "--N", 3, "--out", out,
                "--slice", "z=0.2", "--slice-out", tmp_path / "nodir" / "c.csv"]) == 3
    assert "nodir" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_cli_error_table_rejects_nonpositive_quad_n(tmp_path, capsys, value):
    out = tmp_path / "e.csv"
    with pytest.raises(SystemExit) as exc:
        run(["error-table", "--N", 3, "--quad-n", value, "--out", out])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--quad-n" in err and repr(value) in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_cli_inverse_refuses_non_finite_samples(tmp_path, capsys):
    # finite coefficients whose expansion overflows: exit 2, no output file
    obj = beta_json_obj(tmp_path)
    for c in obj["coeffs"]:
        c["re"] = 1e308
    bad, out = tmp_path / "big.json", tmp_path / "back.csv"
    bad.write_text(json.dumps(obj))
    assert run(["inverse", "--in", bad, "--out", out]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, name", [
    (["grid", "--N", 3, "--a", "nan"], "shift a"),
    (["grid", "--N", 3, "--T", "nan"], "period T"),
    (["transform", "--N", 3, "--T", "inf"], "period T")])
def test_cli_rejects_non_finite_grid_flags(tmp_path, capsys, argv, name):
    s_csv, _ = sample_lines(tmp_path)
    out = tmp_path / "out"
    extra = ["--in", s_csv] if argv[0] == "transform" else []
    assert run(argv + extra + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert name in err and "finite" in err and err.count("\n") == 1
    assert not out.exists()


def test_cli_failed_rerun_keeps_earlier_outputs(tmp_path, capsys):
    s_csv, _ = sample_lines(tmp_path)
    out, slc = tmp_path / "i.json", tmp_path / "c.csv"
    assert run(["interpolate", "--in", s_csv, "--N", 3, "--out", out,
                "--slice", "z=0.2", "--slice-out", slc]) == 0
    before = out.read_bytes()
    assert run(["interpolate", "--in", s_csv, "--N", 3, "--out", out,
                "--slice", "z=0.2", "--slice-out", tmp_path / "nodir" / "c.csv"]) == 3
    assert out.read_bytes() == before

    obj = beta_json_obj(tmp_path)
    b_json, back = tmp_path / "b.json", tmp_path / "back.csv"
    assert run(["inverse", "--in", b_json, "--out", back]) == 0
    good = back.read_bytes()
    for c in obj["coeffs"]:
        c["re"] = 1e308
    b_json.write_text(json.dumps(obj))
    assert run(["inverse", "--in", b_json, "--out", back]) == 2
    assert back.read_bytes() == good
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "b.json", "back.csv", "c.csv", "i.json", "s.csv"]
    umask = os.umask(0)
    os.umask(umask)
    assert all(p.stat().st_mode & 0o777 == 0o666 & ~umask for p in (out, back))


@pytest.mark.parametrize("argv", [["sample", "--f", "bump", "--N", 3],
                                  ["error-table", "--N", 3]])
@pytest.mark.parametrize("center", ["1,2", "a,b,c"])
def test_cli_rejects_bad_center(tmp_path, capsys, argv, center):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--center", center, "--out", out])
    assert exc.value.code == 2
    assert "--center" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["grid", "--N", 2, "--a", 1.7e308, "--T", 1e308],
    ["sample", "--f", "const:1", "--N", 2, "--a", 1.7e308, "--T", 1e308],
    ["transform", "--N", 3, "--a", 1e10, "--T", 1e-300]])
def test_cli_rejects_overflowing_lattice(tmp_path, capsys, argv):
    s_csv, _ = sample_lines(tmp_path)
    out = tmp_path / "out"
    extra = ["--in", s_csv] if argv[0] == "transform" else []
    assert run(argv + extra + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert "a=" in err and "T=" in err and "overflow" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_cli_error_table_overflowing_bump_warns_nothing(tmp_path, capsys):
    # bump squares coordinates near 1e300, which overflow to r = inf
    out = tmp_path / "e.csv"
    assert run(["error-table", "--N", 3, "--quad-n", 8, "--a", 1e300, "--out", out]) == 0
    assert capsys.readouterr().err == ""
    f = cli._bump_from_args(cli.build_parser().parse_args(["error-table", "--N", "3"]))
    with np.errstate(over="ignore", invalid="ignore"):
        g = GridSpec(1e300, 0.5, 3)
        err = interpolation_error(f, alt_interpolate_direct(cli._sample_lattice(g, f)), 8)
    assert out.read_text() == f"N,error\n3,{err:.17g}\n"


@pytest.mark.filterwarnings("error")
def test_cli_transform_overflow_is_the_writer_refusal(tmp_path, capsys):
    s_csv, out = tmp_path / "s.csv", tmp_path / "b.json"
    assert run(["sample", "--f", "const:1e308+1e308j", "--N", 2, "--out", s_csv]) == 0
    assert run(["transform", "--in", s_csv, "--N", 2, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: refusing to write non-finite values at (0, 0, 0)")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_cli_error_table_refuses_non_finite_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "interpolation_error", lambda f, interp, n: float("nan"))
    out = tmp_path / "e.csv"
    assert run(["error-table", "--N", 3, "--N", 5, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err == "error: refusing to write non-finite values at (3,): (nan,)\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_cli_refuses_density_too_large_to_index(tmp_path, capsys):
    out = tmp_path / "g.csv"
    assert run(["grid", "--N", 10 ** 6, "--out", out]) == 2
    assert capsys.readouterr().err == "error: grid density N=1000000 is too large to index\n"
    assert not out.exists()

    obj = beta_json_obj(tmp_path)
    obj["N"] = 2 ** 63 - 1
    big, back = tmp_path / "big.json", tmp_path / "back.csv"
    big.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["inverse", "--in", big, "--out", back]) == 3
    assert capsys.readouterr().err == (
        f"error: {big}: grid density N={2 ** 63 - 1} is too large to index\n")
    assert not back.exists()


@pytest.mark.parametrize("argv", [["transform", "--N", 3], ["interpolate", "--N", 3],
                                  ["inverse"]])
def test_cli_undecodable_input_exit_code(tmp_path, capsys, argv):
    bad, out = tmp_path / "bad.bin", tmp_path / "out"
    bad.write_bytes(b"\xff\xfe\x00")
    assert run(argv + ["--in", bad, "--out", out]) == 3
    err = capsys.readouterr().err
    assert str(bad) in err and "decode" in err and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["bad.bin"]


def test_cli_inverse_rejects_interpolation_coefficients(tmp_path, capsys):
    s_csv, _ = sample_lines(tmp_path)
    ijson, out = tmp_path / "i.json", tmp_path / "back.csv"
    assert run(["interpolate", "--in", s_csv, "--N", 3, "--out", ijson]) == 0
    assert run(["inverse", "--in", ijson, "--out", out]) == 3
    err = capsys.readouterr().err
    assert str(ijson) in err and "'c_alt'" in err and err.count("\n") == 1
    assert not out.exists()


def test_cli_io_errors_name_the_path(tmp_path, capsys):
    missing, out = tmp_path / "nope.csv", tmp_path / "nodir" / "g.csv"
    assert run(["transform", "--in", missing, "--N", 3, "--out", tmp_path / "o.json"]) == 3
    err = capsys.readouterr().err
    assert str(missing) in err and err.count("\n") == 1
    assert run(["grid", "--N", 3, "--out", out]) == 3
    err = capsys.readouterr().err
    assert str(out) in err and ".tmp" not in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seed", range(5))
def test_cli_verify_transform_checks_naive_oracle(tmp_path, seed):
    rpt = tmp_path / "r.json"
    assert run(["verify", "transform", "--seed", seed, "--out", rpt]) == 0
    checks = {c["name"]: c["pass"] for c in json.loads(rpt.read_text())["checks"]}
    assert checks == {"discrete_orthogonality": True, "forward_vs_naive": True}


@pytest.mark.parametrize("spec", ["const:abc", "E:1,x,0", "sine",
                                  pytest.param(f"E:1,2,{10 ** 400}", id="E-beyond-float")])
def test_cli_sample_names_f_in_bad_spec(tmp_path, capsys, spec):
    out = tmp_path / "s.csv"
    assert run(["sample", "--f", spec, "--N", 2, "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"--f {spec!r}" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", "x"])
def test_cli_verify_rejects_bad_seed(capsys, seed):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "identities", "--seed", seed])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--seed" in err and repr(seed) in err


@pytest.mark.parametrize("detail", ["Unable to allocate 1.36 PiB", ""])
def test_cli_out_of_memory_is_one_line(tmp_path, capsys, monkeypatch, detail):
    def no_memory(*args):     # stands in for an allocation too large for the host
        raise MemoryError(detail)

    monkeypatch.setattr(cli, "GridSpec", no_memory)
    out = tmp_path / "e.csv"
    argv = ["error-table", "--N", 40000, "--quad-n", 1, "--out", out]
    assert run(argv) == cli.EXIT_MEMORY == 4
    err = capsys.readouterr().err
    request = " ".join(map(str, argv))
    assert err == f"error: out of memory running 'altexp {request}'" + (
        f": {detail}\n" if detail else "\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [["sample", "--f", "bump", "--N", 3, "--out", "s.csv"],
                                  ["error-table", "--N", 3, "--out", "e.csv"]])
@pytest.mark.parametrize("radius", ["--alpha", "--beta"])
def test_cli_bump_refuses_infinite_radius(tmp_path, capsys, argv, radius):
    out = tmp_path / argv[-1]
    assert run(argv[:-1] + [out, radius, "inf"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: radii must satisfy") and err.count("\n") == 1
    assert not out.exists()


def test_cli_internal_error_is_one_line(tmp_path, capsys, monkeypatch):
    def broken(*args):     # stands in for a fault of the program
        raise RuntimeError("something broke")

    monkeypatch.setattr(cli, "adft_forward", broken)
    s_csv, out = tmp_path / "s.csv", tmp_path / "b.json"
    run(["sample", "--f", "bump", "--N", 3, "--out", s_csv])
    capsys.readouterr()
    assert run(["transform", "--in", s_csv, "--N", 3, "--out", out]) == cli.EXIT_INTERNAL == 5
    err = capsys.readouterr().err
    assert err == "error: internal error: RuntimeError: something broke\n"
    assert not out.exists()


def test_cli_keyboard_interrupt_is_not_caught(tmp_path, monkeypatch):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "GridSpec", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run(["grid", "--N", 3, "--out", tmp_path / "g.csv"])
