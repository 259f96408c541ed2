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
from lemniscate.catalog import LEMMAS
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
        assert report["schema"] == 1
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

    def test_m_max_below_class_index_is_usage_error(self, capsys):
        # second-sqsum scans from m = 2; a reversed m grid must not yield a verdict
        code, out, err = run(capsys, "check", "--lemma", "second-sqsum", "--m-max", "1.5")
        assert code == 1
        assert out == ""
        assert "m_max" in err

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
        ["--m-max", "inf"],
        ["--m-min", "nan"],
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

    GRID_FLAGS = {"theta_points": 1001, "theta_margin": 1e-4, "m_min": 1.5,
                  "m_max": 5.0, "m_points": 16, "eps_adm": 1e-7}

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
        code, _, _ = run(capsys, "threshold", "--lemma", "first0")
        assert code == 3

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

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_non_finite_p_is_usage_error(self, capsys, tmp_path, bad):
        path = tmp_path / "p.json"
        path.write_text(f"[[1, 0], [{bad}, 0]]")
        code, out, err = run(capsys, "verify", "--lemma", "first0", "--p-json", str(path))
        assert code == 1
        assert out == ""
        assert "finite" in err

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
