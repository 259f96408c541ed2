"""Every scan passes through the names the perfbench tracer wraps.

``perfbench/spans.py`` patches library functions by ``owner.__dict__[attr]``
from outside the package.  A renamed function would make ``--trace 1`` fail
with KeyError, and a scan that bypassed ``scan_profile`` would go uncounted.
"""

import importlib.util
from pathlib import Path

import pytest

from lemniscate import admissibility, thresholds
from lemniscate.admissibility import GridSpec, check_admissible, scan_profile
from lemniscate.catalog import get_lemma
from lemniscate.thresholds import certified_at

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_defined_where_it_is_patched():
    for owner, attr, _ in _spans_module()._targets():
        assert attr in owner.__dict__, (owner.__name__, attr)


def _count_scans(monkeypatch, module):
    """Record the form and theta-row count of every scan made through ``module.scan_profile``."""
    rows, real = [], module.scan_profile

    def counting(form, *args, **kwargs):
        prof = real(form, *args, **kwargs)
        rows.append((form, len(prof.theta)))
        return prof

    monkeypatch.setattr(module, "scan_profile", counting)
    return rows


def test_check_admissible_scans_through_scan_profile(monkeypatch):
    rows = _count_scans(monkeypatch, admissibility)
    lemma = get_lemma("first3")
    check_admissible(lemma.make_form(0.2), lemma.region, n_class=lemma.n_class)
    assert rows == [(lemma.make_form(0.2), GridSpec().theta_points)]


def test_certified_at_scans_through_scan_profile(monkeypatch):
    rows = _count_scans(monkeypatch, thresholds)
    unit = get_lemma("one1").make_form(1.0)
    # a call on its own scans the full grid at beta = 1 once, certified or not
    assert certified_at("one1", 2.0)
    assert rows == [(unit, GridSpec().theta_points)]
    rows.clear()
    assert not certified_at("one1", 1.0)  # the center row rejects
    assert rows == [(unit, GridSpec().theta_points)]


def test_a_step_reads_every_row_of_the_table_once(monkeypatch):
    lemma = get_lemma("one1")
    unit = scan_profile(lemma.make_form(1.0), lemma.region, GridSpec(), lemma.n_class)
    reads, real = [], thresholds.scaled_minimum

    def counting(rays, *args):
        reads.append(rays)
        return real(rays, *args)

    monkeypatch.setattr(thresholds, "scaled_minimum", counting)
    for beta in (1.0, 2.0):  # one rejected, one certified
        reads.clear()
        assert certified_at("one1", beta, unit=unit) == (beta == 2.0)
        assert len(reads) == 1 and reads[0] is unit.rays


@pytest.mark.parametrize("beta", [1.0, 2.0])  # rejected, certified
def test_a_step_evaluates_only_its_start_margins(beta):
    lemma = get_lemma("one1")
    unit = scan_profile(lemma.make_form(1.0), lemma.region, GridSpec(), lemma.n_class)
    tracer = _spans_module().Tracer()
    tracer.install()
    tracer.active = True
    try:
        certified_at("one1", beta, unit=unit)
    finally:
        tracer.uninstall()
    calls, _, _ = tracer.totals()
    # no jet: each row read costs one margin, at m = n, and the rest is the table's
    assert calls["boundary.jet_arrays.grid"] + calls["boundary.jet_arrays.point"] == 0
    assert calls["admissibility.scan_profile"] == 0
    # one start margin per row theta >= 0
    assert tracer.counts["geometry.margin.points"] == GridSpec().theta_points // 2 + 1


def test_jet_counter_counts_the_points_each_scan_evaluates():
    tracer = _spans_module().Tracer()
    tracer.install()
    tracer.active = True
    try:
        lemma = get_lemma("first3")
        check_admissible(lemma.make_form(1.25), lemma.region, n_class=lemma.n_class)
    finally:
        tracer.uninstall()
    calls, _, _ = tracer.totals()
    # the scan's jet of the 1001 rows theta >= 0, then one per evaluation of the
    # search: the opening pair with the first 6 steps' 126 points, then 7 batches of 63
    assert tracer.counts["boundary.jet_arrays.grid_points"] == 1001 + 128 + 7 * 63
    assert calls["boundary.jet_arrays.point"] == 0


def test_the_tracer_reads_every_jet_call():
    # the tracer reads m as the second positional argument of jet_arrays; every
    # path that builds a jet passes it so
    tracer = _spans_module().Tracer()
    tracer.install()
    tracer.active = True
    try:
        one0, weighted = get_lemma("one0"), get_lemma("second-weighted")
        # a first-order witness through make_triple
        first = admissibility.check_admissible(one0.make_form(1.0), one0.region,
                                               n_class=one0.n_class)
        # a second-order witness through second_order_min_distance and min_over_t
        second = admissibility.check_admissible(weighted.make_form(1 / 6, 1 / 6),
                                                weighted.region, n_class=weighted.n_class)
        thresholds.find_beta_threshold("one1")
    finally:
        tracer.uninstall()
    assert first.witness is not None and second.witness is not None
    calls, _, _ = tracer.totals()
    assert calls["boundary.make_triple"] == 2
    assert calls["admissibility.min_over_t"] == 1
    assert calls["admissibility.check_admissible"] == 2
    assert calls["thresholds.find_beta_threshold"] == 1
    # the two witnesses' triples and the t-projection at the second one
    assert calls["boundary.jet_arrays.point"] == 3
    # the three scans, and the 8 evaluations of each verdict's polish
    assert calls["boundary.jet_arrays.grid"] == 3 + 2 * 8
    assert calls["catalog.second_order_min_distance"] == 1 + 8 + 1
