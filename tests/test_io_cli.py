import io
import json

import numpy as np
import pytest

from altexp.cli import main
from altexp.domain import GridSpec, domain_size, enumerate_domain
from altexp.functions import eval_E
from altexp.io import (FormatError, MissingKeyError, read_coefficients_json,
                       read_samples_csv, write_coefficients_json,
                       write_samples_csv)
from altexp.transform import SampleSet, adft_forward


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
    assert np.array_equal(back.as_array(), c.as_array())


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


def test_cli_naive_flag_agrees(tmp_path):
    s_csv = tmp_path / "s.csv"
    run(["sample", "--f", "bump", "--N", 5, "--b", 0.5, "--out", s_csv])
    fast, slow = tmp_path / "fast.json", tmp_path / "slow.json"
    run(["transform", "--in", s_csv, "--N", 5, "--b", 0.5, "--out", fast])
    run(["transform", "--in", s_csv, "--N", 5, "--b", 0.5, "--naive",
         "--out", slow])
    a = json.loads(fast.read_text())["coeffs"]
    b = json.loads(slow.read_text())["coeffs"]
    assert max(abs(x["re"] - y["re"]) + abs(x["im"] - y["im"])
               for x, y in zip(a, b)) < 1e-11


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
    ("T", float("nan")), ("k", 1.0), ("re", "0"), ("im", float("inf"))])
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
