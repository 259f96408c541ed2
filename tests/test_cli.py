import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

import lemniscate
from lemniscate import thresholds
from lemniscate.admissibility import GridSpec
from lemniscate.boundary import make_triple
from lemniscate.catalog import LEMMAS, evaluate
from lemniscate.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_admissible_exits_zero(self, capsys):
        code, out, _ = run(capsys, "check", "--lemma", "first3", "--beta", "1.5")
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == 2
        assert report["verdict"]["admissible"] is True
        assert report["verdict"]["witness"] is None

    def test_violation_exits_two_with_witness(self, capsys):
        code, out, _ = run(capsys, "check", "--lemma", "first3", "--beta", "0.2")
        assert code == 2
        witness = json.loads(out)["verdict"]["witness"]
        assert witness is not None
        assert witness["margin"] < -1e-9

    def test_admissible_below_tabulated_bound(self, capsys):
        # the first3 bound is sufficient, not sharp: beta = 0.5 scans clean
        code, out, _ = run(capsys, "check", "--lemma", "first3", "--beta", "0.5")
        assert code == 0
        assert json.loads(out)["verdict"]["admissible"] is True

    def test_condition_lemma(self, capsys):
        code, out, _ = run(capsys, "check", "--lemma", "second-weighted",
                           "--gamma", "0.5", "--beta", "0.25")
        assert code == 0

    def test_unknown_lemma_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "check", "--lemma", "bogus")
        assert code == 1

    @pytest.mark.parametrize("flag", ["--m-min", "--m-max", "--m-points"])
    def test_m_grid_flags_are_usage_errors(self, capsys, flag):
        # m is minimized exactly over [n, inf): there is no m grid to set
        code, out, err = run(capsys, "check", "--lemma", "second-sqsum", flag, "2")
        assert code == 1
        assert out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("lemma,beta", [("first4", "1e-21"), ("first3", "1e-18"),
                                            ("sq2", "1e-18")])
    def test_violation_beyond_m_eight_is_found(self, capsys, lemma, beta):
        # psi depends on beta only through u = beta*m, so the violation that
        # beta = 0.1 shows at m ~ 1 recurs at m ~ 1/beta
        code, out, _ = run(capsys, "check", "--lemma", lemma, "--beta", beta)
        assert code == 2
        w = json.loads(out)["verdict"]["witness"]
        assert w["m"] > 8.0
        spec = LEMMAS[lemma]
        psi = evaluate(spec.make_form(float(beta)), make_triple(w["theta"], w["m"]))
        assert spec.region.contains(psi)
        assert spec.region.margin(psi) == pytest.approx(w["margin"], abs=1e-12)

    @pytest.mark.parametrize("lemma,beta", [
        ("first3", "1e-308"), ("first4", "5e-308"), ("one1", "2.2e-308"), ("one2", "2.3e-308"),
        ("moebius", "1e-306"), ("moebius", "5e-307"), ("moebius", "2e-307"),
    ])
    def test_violation_beside_nan_rows_exits_two(self, capsys, lemma, beta):
        # rays whose line parameter overflows have NaN limits; a finite row below
        # -eps_adm is a violation whatever those rows hold
        code, out, err = run(capsys, "check", "--lemma", lemma, "--beta", beta)
        assert (code, err) == (2, "")
        w = json.loads(out)["verdict"]["witness"]
        spec = LEMMAS[lemma]
        psi = evaluate(spec.make_form(float(beta)), make_triple(w["theta"], w["m"]))
        assert spec.region.contains(psi)
        assert spec.region.margin(psi) == pytest.approx(w["margin"], abs=1e-12)

    def test_non_finite_scan_is_usage_error(self, capsys):
        # every margin overflows to inf (1e300), or every row's limit is NaN
        # (1e-320): no finite row decides, so no verdict and no "Infinity" in the JSON
        for beta, shown in (("1e300", "inf"), ("1e-320", "nan")):
            with np.errstate(over="ignore", invalid="ignore"):
                code, out, err = run(capsys, "check", "--lemma", "first3", "--beta", beta)
            assert code == 1
            assert out == ""
            assert f"minimum margin is {shown}, not finite" in err

    @pytest.mark.parametrize("argv", [
        ["check", "--lemma", "one0", "--gamma", "5"],
        ["check", "--lemma", "ex1", "--beta-im", "2"],
        ["verify", "--lemma", "one0", "--gamma", "3", "--random", "1"],
        ["boundary", "--points", "5", "--psi", "one0", "--gamma", "2"],
    ])
    def test_coefficient_the_lemma_does_not_take_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "takes no" in err

    @pytest.mark.parametrize("argv", [
        ["--lemma", "first3", "--beta", "inf"],
        ["--lemma", "sq-1", "--beta", "1", "--beta-im", "nan"],
        ["--lemma", "sqrat", "--gamma", "nan"],
    ])
    def test_non_finite_coefficient_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "check", *argv)
        assert code == 1
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("argv", [
        ["--eps-adm", "nan"],
        ["--eps-adm", "-1"],
        ["--eps-adm", "inf"],
        ["--theta-margin", "nan"],
        ["--theta-margin", "inf"],
    ])
    def test_non_finite_or_negative_grid_value_is_usage_error(self, capsys, argv):
        # each used to print a false violation or invalid JSON (NaN, Infinity)
        code, out, err = run(capsys, "check", "--lemma", "first3", "--beta", "1.5", *argv)
        assert code == 1
        assert out == ""
        assert argv[0][2:].replace("-", "_") in err

    @pytest.mark.parametrize("command", [["check"], ["verify", "--random", "1"]])
    def test_complex_beta_for_a_real_beta_lemma_is_usage_error(self, capsys, command):
        code, out, err = run(capsys, *command, "--lemma", "moebius", "--beta", "2",
                             "--beta-im", "1")
        assert code == 1
        assert out == ""
        assert "real" in err

    def test_beta_im_adds_to_the_default_real_part(self, capsys):
        code, out, _ = run(capsys, "check", "--lemma", "sq-1", "--beta-im", "2")
        assert code == 0
        assert json.loads(out)["params"]["beta"] == [1.0, 2.0]

    def test_even_theta_points_reports_the_count_scanned(self, capsys):
        _, even, _ = run(capsys, "check", "--lemma", "one0", "--theta-points", "1000")
        _, odd, _ = run(capsys, "check", "--lemma", "one0", "--theta-points", "1001")
        assert json.loads(even)["grid"]["theta_points"] == 1001
        assert even == odd

    GRID_FLAGS = {"theta_points": 1001, "theta_margin": 1e-4, "eps_adm": 1e-7}

    @pytest.mark.parametrize("name", [f.name for f in fields(GridSpec)])
    def test_grid_flag_reaches_the_report(self, capsys, name):
        value = self.GRID_FLAGS[name]
        assert value != getattr(GridSpec(), name)
        flag = "--" + name.replace("_", "-")
        code, out, _ = run(capsys, "check", "--lemma", "ex2", flag, str(value))
        assert code == 0
        assert json.loads(out)["grid"] == {**asdict(GridSpec()), name: value}

    def test_default_json_is_byte_deterministic(self, capsys):
        _, first, _ = run(capsys, "check", "--lemma", "one0", "--beta", "1.3")
        _, second, _ = run(capsys, "check", "--lemma", "one0", "--beta", "1.3")
        assert first == second
        assert "timing_ms" not in first

    def test_timing_flag_adds_field(self, capsys):
        _, out, _ = run(capsys, "check", "--lemma", "one0", "--beta", "1.3", "--timing")
        assert "timing_ms" in json.loads(out)


class TestThreshold:
    @pytest.mark.parametrize("lemma,expected,tol", [
        ("one0", 1.1716, 1e-3),
        ("one1", 1.6569, 1e-3),
        ("one2", 2.3431, 1e-3),
    ])
    def test_closed_form_family(self, capsys, lemma, expected, tol):
        code, out, _ = run(capsys, "threshold", "--lemma", lemma)
        assert code == 0
        res = json.loads(out)["threshold"]
        assert abs(res["beta_star"] - expected) < tol
        assert res["beta_high"] - res["beta_low"] <= res["tolerance"]

    def test_bracket_error_exit_code(self, capsys):
        code, _, err = run(capsys, "threshold", "--lemma", "one0",
                           "--lo", "3.0", "--hi", "6.0")
        assert code == 3
        assert "transition" in err

    def test_unconditional_lemma_is_bracket_error(self, capsys):
        for lemma in ("first0", "first1", "first2", "sq-1", "sq0", "sq1"):
            code, out, err = run(capsys, "threshold", "--lemma", lemma)
            assert (code, out) == (3, ""), lemma
            assert "holds for every admissible coefficient" in err

    def test_lemma_without_a_scaling_coefficient_is_usage_error(self, capsys, monkeypatch):
        def no_scan(*args, **kwargs):
            raise AssertionError("a lemma with no certificate in beta must be rejected "
                                 "before any scan")

        monkeypatch.setattr(thresholds, "scan_profile", no_scan)
        # ex1..ex3, second-sum and second-sqsum take no coefficient at all
        for lemma in ("second-weighted", "sqrat", "ex1", "ex2", "ex3", "second-sum",
                      "second-sqsum"):
            code, out, err = run(capsys, "threshold", "--lemma", lemma)
            assert (code, out) == (1, ""), lemma
            assert f"{lemma} has no coefficient beta that scales b" in err

    @pytest.mark.parametrize("tol", ["0", "-1e-4", "nan", "inf"])
    def test_bad_tol_is_usage_error(self, capsys, monkeypatch, tol):
        def no_scan(*args, **kwargs):
            raise AssertionError("a bad tol must be rejected before any scan")

        monkeypatch.setattr(thresholds, "certified_at", no_scan)
        code, out, err = run(capsys, "threshold", "--lemma", "one0", f"--tol={tol}")
        assert code == 1
        assert out == ""
        assert "tol" in err

    @pytest.mark.parametrize("bound", ["--lo=7", "--lo=0", "--lo=nan", "--hi=inf"])
    def test_bad_interval_is_usage_error(self, capsys, monkeypatch, bound):
        def no_scan(*args, **kwargs):
            raise AssertionError("a bad interval must be rejected before any scan")

        monkeypatch.setattr(thresholds, "certified_at", no_scan)
        code, out, err = run(capsys, "threshold", "--lemma", "one0", bound)
        assert code == 1
        assert out == ""
        assert "lo < hi" in err

    def test_non_finite_certificate_scan_is_usage_error(self, capsys):
        # beta = 1e300 overflows every margin to inf; inf >= inf must not certify a
        # bound; at --lo 3 the low end is certified, a bracket error read on its own
        for lo in ([], ["--lo", "3"]):
            with np.errstate(over="ignore", invalid="ignore"):
                code, out, err = run(capsys, "threshold", "--lemma", "first3", *lo,
                                     "--hi", "1e300")
            assert (code, out) == (1, ""), lo
            assert err == "error: the scan's minimum margin is inf, not finite\n"

    def test_finite_minimum_beside_overflowed_margins_still_brackets(self, capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, _ = run(capsys, "threshold", "--lemma", "first3", "--hi", "1e150",
                               "--tol", "1e140")
        assert code == 0
        assert json.loads(out)["threshold"]["beta_low"] < 1.1874

    def test_overflowing_margins_bracket_without_warnings(self, capsys):
        # margins past |psi| ~ 1e154 are inf without a RuntimeWarning, and the
        # 3e150-wide bracket shrinks by ratio before it shrinks by width
        code, out, err = run(capsys, "threshold", "--lemma", "first3", "--hi", "1e150")
        assert code == 0
        assert err == ""
        res = json.loads(out)["threshold"]
        assert res["beta_low"] < 1.1874 < res["beta_high"]
        assert res["iterations"] <= 30

    def test_sub_ulp_tol_returns_adjacent_floats(self):
        # a subprocess, so that a bisection that never stops fails on the timeout
        src = str(Path(lemniscate.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "lemniscate", "threshold", "--lemma", "one0",
             "--tol", "1e-17"],
            capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        res = json.loads(proc.stdout)["threshold"]
        assert res["beta_high"] == np.nextafter(res["beta_low"], np.inf)
        assert abs(res["beta_star"] - (4 - 2 * np.sqrt(2.0))) < 1e-6

    def test_lone_lo_keeps_default_hi(self, capsys):
        # the one0 bound 1.1716 lies below the requested interval (1.2, 6)
        code, out, err = run(capsys, "threshold", "--lemma", "one0", "--lo", "1.2")
        assert code == 3
        assert out == ""
        assert "[1.2, 6]" in err

    def test_lone_hi_keeps_default_lo(self, capsys):
        _, lone, _ = run(capsys, "threshold", "--lemma", "one0", "--hi", "3")
        _, both, _ = run(capsys, "threshold", "--lemma", "one0", "--lo", "0.05", "--hi", "3")
        assert lone == both


class TestVerify:
    def test_random_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--lemma", "first0", "--beta", "1.0",
                           "--random", "3", "--seed", "11")
        assert code == 0
        report = json.loads(out)
        assert report["counterexamples"] == 0
        assert len(report["reports"]) == 3
        assert all(r["status"] in ("confirmed", "vacuous") for r in report["reports"])

    def test_p_from_json_file(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps([[1.0, 0.0], [0.125, 0.0]]))
        code, out, _ = run(capsys, "verify", "--lemma", "first0", "--beta", "1.0",
                           "--p-json", str(path))
        assert code == 0
        assert json.loads(out)["reports"][0]["status"] == "confirmed"

    @pytest.mark.parametrize("argv, flag", [
        (["--random", "0"], "--random"),
        (["--random", "-3"], "--random"),
        (["--random", "2", "--order", "0"], "--order"),
        (["--random", "2", "--order", "-2"], "--order"),
    ])
    def test_random_and_order_below_one_are_usage_errors(self, capsys, argv, flag):
        # a run that tested no p must not read as success
        code, out, err = run(capsys, "verify", "--lemma", "first0", *argv)
        assert code == 1
        assert out == ""
        assert flag in err

    @pytest.mark.parametrize("lemma", sorted(LEMMAS))
    def test_p_with_a_zero_inside_the_disk_is_vacuous(self, capsys, tmp_path, lemma):
        # 1 - 2z vanishes at z = 1/2; where psi divides by it, the hypothesis series
        # overflows as its order doubles, and that is no error in p
        path = tmp_path / "p.json"
        path.write_text("[[1, 0], [-2, 0]]")
        code, out, err = run(capsys, "verify", "--lemma", lemma, "--p-json", str(path))
        assert (code, err) == (0, "")

        def no_constant(name):
            raise AssertionError(f"{name} in the JSON")

        report, = json.loads(out, parse_constant=no_constant)["reports"]
        assert report["status"] == "vacuous"
        assert not report["hypothesis_holds"]

    @pytest.mark.parametrize("lemma, p, nulls", [
        # the series stays finite to the largest order, but its margin overflows
        ("first1", "[[1, 0], [-1.4, 0]]", ["hypothesis_max_margin"]),
        # both images overflow at the first order
        ("first0", "[[1, 0], [1e200, 0]]", ["conclusion_max_margin", "hypothesis_max_margin"]),
    ])
    def test_overflowed_margins_print_as_null(self, capsys, tmp_path, lemma, p, nulls):
        path = tmp_path / "p.json"
        path.write_text(p)
        code, out, err = run(capsys, "verify", "--lemma", lemma, "--p-json", str(path))
        assert (code, err) == (0, "")

        def no_constant(name):
            raise AssertionError(f"{name} in the JSON")

        report, = json.loads(out, parse_constant=no_constant)["reports"]
        assert report["status"] == "vacuous"
        assert sorted(k for k, v in report.items() if v is None) == nulls

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_non_finite_p_is_usage_error(self, capsys, tmp_path, bad):
        path = tmp_path / "p.json"
        path.write_text(f"[[1, 0], [{bad}, 0]]")
        code, out, err = run(capsys, "verify", "--lemma", "first0", "--p-json", str(path))
        assert code == 1
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("text", ["[1, 2]", '[[1, "x"]]', "[[true, false], [0.125, 0]]"])
    def test_malformed_p_is_usage_error(self, capsys, tmp_path, text):
        path = tmp_path / "p.json"
        path.write_text(text)
        code, out, err = run(capsys, "verify", "--lemma", "first0", "--p-json", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "[re, im]" in err

    def test_missing_p_file_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify", "--lemma", "first0",
                             "--p-json", str(tmp_path / "missing.json"))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "missing.json" in err


class TestTable:
    def test_all_rows_ok(self, capsys):
        code, out, _ = run(capsys, "table")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert len(lines) == len(LEMMAS) + 1  # header + one row per lemma
        assert all("OK" in ln for ln in lines[1:])

    def test_csv_header_fixed(self, capsys):
        code, out, _ = run(capsys, "table", "--format", "csv",
                           "--lemma-filter", "second")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["lemma", "functional", "target", "condition",
                           "reference", "computed", "status"]
        assert len(rows) == 4  # header + the three second-order lemmas

    def test_filter(self, capsys):
        _, out, _ = run(capsys, "table", "--lemma-filter", "one", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert [r[0] for r in rows[1:]] == ["one0", "one1", "one2"]


class TestBoundary:
    def test_five_points(self, capsys):
        code, out, _ = run(capsys, "boundary", "--points", "5")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["theta", "re_w", "im_w"]
        mid = rows[3]
        assert float(mid[0]) == 0.0
        assert float(mid[1]) == pytest.approx(np.sqrt(2))
        assert float(mid[2]) == 0.0

    def test_identity_on_dense_output(self, capsys):
        _, out, _ = run(capsys, "boundary", "--points", "1001")
        rows = list(csv.reader(io.StringIO(out)))[1:]
        w = np.array([float(r[1]) + 1j * float(r[2]) for r in rows])
        assert np.max(np.abs(np.abs(w * w - 1) - 1)) < 1e-10

    def test_psi_columns(self, capsys):
        code, out, _ = run(capsys, "boundary", "--points", "11", "--psi", "first3",
                           "--beta", "2.0")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["theta", "re_w", "im_w", "psi_re", "psi_im"]
        mid = rows[6]
        assert float(mid[3]) == pytest.approx(np.sqrt(2) + 0.25)
        assert float(mid[4]) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("flag", [["--beta", "2"], ["--beta-im", "1"], ["--gamma", "2"]])
    def test_coefficient_without_psi_is_usage_error(self, capsys, flag):
        code, out, err = run(capsys, "boundary", "--points", "5", *flag)
        assert code == 1
        assert out == ""
        assert "--psi" in err

    @pytest.mark.parametrize("margin", ["-0.1", "0", "1.0"])
    def test_theta_margin_out_of_range_is_usage_error(self, capsys, margin):
        code, out, err = run(capsys, "boundary", "--points", "5", "--theta-margin", margin)
        assert code == 1
        assert out == ""
        assert "theta_margin" in err

    def test_json_format(self, capsys):
        _, out, _ = run(capsys, "boundary", "--points", "3", "--format", "json")
        report = json.loads(out)
        assert report["command"] == "boundary"
        assert len(report["rows"]) == 3


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["check", "--lemma", "ex1", "--output", str(target)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(target.read_text())["lemma"] == "ex1"


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "x.csv"
    code, out, err = run(capsys, "boundary", "--points", "3", "--output", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "x.csv" in err


@pytest.mark.parametrize("argv", [
    ["check", "--lemma", "first3"],
    ["check", "--lemma", "second-sum"],
    ["threshold", "--lemma", "one0"],
    ["boundary", "--points", "5"],
    ["boundary", "--points", "5", "--psi", "second-sum"],
])
def test_theta_margin_below_an_ulp_of_pi_over_four_is_usage_error(capsys, argv):
    # pi/4 - 1e-300 rounds to pi/4: the grid's end points leave the open arc
    code, out, err = run(capsys, *argv, "--theta-margin", "1e-300")
    assert code == 1
    assert out == ""
    assert "theta must satisfy |theta| < pi/4" in err
