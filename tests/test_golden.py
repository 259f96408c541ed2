"""CLI reports match the JSON captured in tests/golden/.

The files hold the stdout of ``lemniscate check`` for every lemma at its
default coefficients, of two checks that find a witness, of
``lemniscate threshold`` for every thresholded lemma at the default and at a
1e-8 ``--tol``, of
``lemniscate verify --random 20 --seed 7`` for every lemma, and of
``lemniscate table --format json``.  Keys, booleans, integers and text compare
exactly.  Floats, and the numbers inside text (the table's ``computed``
column prints margins such as ``-1.110e-16``), compare to 1e-12 relative with
a 1e-12 absolute floor, so last-bit rounding on another CPU passes while a
changed verdict, witness or bound fails.  Regenerate a file only for an
intended change of output.
"""

import json
import re
from pathlib import Path

import pytest

from lemniscate.catalog import LEMMAS
from lemniscate.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

THRESHOLDED = sorted(k for k, lemma in LEMMAS.items() if lemma.threshold_ref is not None)

CASES = [(["check", "--lemma", lemma_id], 0) for lemma_id in sorted(LEMMAS)] + [
    (["check", "--lemma", "one0", "--beta", "1.0"], 2),
    (["check", "--lemma", "second-weighted", "--beta", "0.5", "--gamma", "0.1"], 2),
    (["table", "--format", "json"], 0),
] + [(["threshold", "--lemma", lemma_id], 0) for lemma_id in THRESHOLDED] + [
    (["threshold", "--lemma", lemma_id, "--tol", "1e-8"], 0) for lemma_id in THRESHOLDED
] + [
    (["verify", "--lemma", lemma_id, "--random", "20", "--seed", "7"], 0)
    for lemma_id in sorted(LEMMAS)
]


def golden_file(argv):
    return GOLDEN / ("_".join(arg.lstrip("-") for arg in argv) + ".json")


def close(actual: float, expected: float) -> bool:
    return actual == pytest.approx(expected, rel=1e-12, abs=1e-12)


def assert_matches(actual, expected, path="report"):
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and sorted(actual) == sorted(expected), path
        for key in expected:
            assert_matches(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{path}[{i}]")
    elif isinstance(expected, str):
        assert isinstance(actual, str), path
        assert NUMBER.split(actual) == NUMBER.split(expected), (path, actual, expected)
        for a, e in zip(NUMBER.findall(actual), NUMBER.findall(expected)):
            assert close(float(a), float(e)), (path, actual, expected)
    elif isinstance(expected, float):
        assert type(actual) is float and close(actual, expected), (path, actual, expected)
    else:  # bool, int, None
        assert type(actual) is type(expected) and actual == expected, (path, actual, expected)


def test_every_golden_file_has_a_case():
    assert sorted(GOLDEN.glob("*.json")) == sorted(golden_file(argv) for argv, _ in CASES)


@pytest.mark.parametrize("argv, exit_code", CASES, ids=[" ".join(a) for a, _ in CASES])
def test_report_matches_golden(argv, exit_code, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == exit_code
    assert_matches(json.loads(out), json.loads(golden_file(argv).read_text()))


@pytest.mark.parametrize("actual, ok", [
    ("min margin 2.220e-16", True),        # rounding noise next to -1.110e-16
    ("min margin 1.110e-01", False),
    ("max margin -1.110e-16", False),
])
def test_numbers_in_text_get_the_float_tolerance(actual, ok):
    if ok:
        assert_matches(actual, "min margin -1.110e-16")
    else:
        with pytest.raises(AssertionError):
            assert_matches(actual, "min margin -1.110e-16")
