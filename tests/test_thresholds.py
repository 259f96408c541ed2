import bisect
import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from lemniscate import thresholds
from lemniscate.admissibility import ConfigurationError, GridSpec, _ray_minimum, scan_profile
from lemniscate.catalog import LEMMAS, get_lemma
from lemniscate.thresholds import (DEFAULT_SEARCH, DEFAULT_TOL, BracketError,
                                   ThresholdResult, certified_at, find_beta_threshold)

SQRT2 = np.sqrt(2.0)

CLOSED = {
    "one0": 4 - 2 * SQRT2,
    "one1": 4 * SQRT2 - 4,
    "one2": 8 - 4 * SQRT2,
    "moebius": 2.0,
    "sq2": 2 * SQRT2,
}


class TestClosedForms:
    @pytest.mark.parametrize("lemma_id,value", sorted(CLOSED.items()))
    def test_values(self, lemma_id, value):
        assert get_lemma(lemma_id).threshold_closed == pytest.approx(value, abs=1e-15)

    def test_no_closed_form(self):
        assert get_lemma("first3").threshold_closed is None
        assert get_lemma("first0").threshold_closed is None


class TestBisection:
    @pytest.mark.parametrize("lemma_id", sorted(CLOSED))
    def test_recovers_closed_forms(self, lemma_id):
        result = find_beta_threshold(lemma_id)
        assert abs(result.beta_star - CLOSED[lemma_id]) <= max(result.tolerance, 2e-3)

    @pytest.mark.parametrize("lemma_id,ref", [("first3", 1.1874), ("first4", 3.58095)])
    def test_recovers_tabulated_decimals(self, lemma_id, ref):
        result = find_beta_threshold(lemma_id)
        assert abs(result.beta_star - ref) <= 5e-3

    def test_bracket_invariants(self):
        result = find_beta_threshold("one1", tol=1e-4)
        assert result.beta_low < result.beta_star <= result.beta_high
        assert result.beta_high - result.beta_low <= result.tolerance
        assert certified_at("one1", result.beta_high)
        assert not certified_at("one1", result.beta_low)
        assert result.closed_form == pytest.approx(4 * SQRT2 - 4)
        assert result.iterations > 0

    def test_halving_grid_spacing_is_stable(self):
        coarse = find_beta_threshold("one1", grid=GridSpec(theta_points=1001))
        fine = find_beta_threshold("one1", grid=GridSpec(theta_points=2001))
        assert abs(coarse.beta_star - fine.beta_star) < 1e-4

    def test_explicit_search_interval(self):
        result = find_beta_threshold("moebius", search=(1.5, 2.5), tol=1e-4)
        assert result.beta_star == pytest.approx(2.0, abs=2e-3)


class TestBracketErrors:
    def test_interval_entirely_certified(self):
        with pytest.raises(BracketError):
            find_beta_threshold("one0", search=(3.0, 6.0))

    def test_interval_entirely_uncertified(self):
        with pytest.raises(BracketError):
            find_beta_threshold("one0", search=(0.05, 0.5))

    def test_unconditional_lemma_has_no_threshold(self):
        with pytest.raises(BracketError):
            find_beta_threshold("first0")

    def test_bad_interval(self):
        with pytest.raises(ConfigurationError):
            find_beta_threshold("one0", search=(2.0, 1.0))

    @pytest.mark.parametrize("search", [(3.0, 6.0), (0.05, 0.5)])
    def test_both_ends_are_read_before_the_interval_is_refused(self, step_certificate,
                                                               search):
        with pytest.raises(BracketError, match="no certificate transition"):
            find_beta_threshold("one0", search=search)
        assert step_certificate == list(search)

    def test_an_end_that_cannot_be_read_is_raised_before_the_bracket(self, monkeypatch):
        # lo is certified, a bracket error on its own; that hi cannot be read comes first
        def step(lemma_id, beta, grid=None, unit=None):
            if beta > 100.0:
                raise ConfigurationError("the scan's minimum margin is inf, not finite")
            return True

        monkeypatch.setattr(thresholds, "certified_at", step)
        with pytest.raises(ConfigurationError, match="not finite"):
            find_beta_threshold("first3", search=(3.0, 1e300))


def test_non_finite_scan_is_no_certificate():
    # beta = 1e300 overflows every margin to inf; inf >= inf must not certify
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConfigurationError, match="inf, not finite"):
            certified_at("first3", 1e300)


@pytest.mark.parametrize("lemma_id", ["first3", "sq2", "one2"])
def test_subnormal_coefficient_is_no_certificate(lemma_id):
    # every candidate u of the rays at beta = 1 lies past beta n; their m = u / beta
    # overflow to inf without a warning, and the margins there still count
    assert not certified_at(lemma_id, 5e-324)


def test_certificate_takes_a_real_coefficient():
    with pytest.raises(ConfigurationError, match="real coefficient"):
        certified_at("sq-1", 1.0 + 1.0j)


@pytest.mark.parametrize("lemma_id", ["ex1", "ex2", "ex3", "second-sum", "second-sqsum"])
def test_lemma_without_a_scaling_coefficient_has_no_certificate(monkeypatch, lemma_id):
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned before rejecting the lemma")

    monkeypatch.setattr(thresholds, "scan_profile", no_scan)
    with pytest.raises(ConfigurationError, match="no coefficient beta"):
        certified_at(lemma_id, None)


@pytest.fixture
def step_certificate(monkeypatch):
    """A step at beta = 1.2345 stands in for the scan; the call cap turns a
    bisection that never ends into a failure instead of a hang."""
    calls = []

    def step(lemma_id, beta, grid=None, unit=None):
        calls.append(beta)
        assert len(calls) < 200, "bisection did not stop"
        return beta >= 1.2345

    monkeypatch.setattr(thresholds, "certified_at", step)
    return calls


class TestTolerance:
    @pytest.mark.parametrize("tol", [0.0, -1e-4, float("nan"), float("inf")])
    def test_rejects_tol_that_is_not_finite_and_positive(self, step_certificate, tol):
        with pytest.raises(ConfigurationError, match="tol"):
            find_beta_threshold("one0", tol=tol)
        assert issubclass(ConfigurationError, ValueError)
        assert step_certificate == []

    @pytest.mark.parametrize("tol", [1e-17, 5e-324])
    def test_sub_ulp_tol_stops_at_adjacent_floats(self, step_certificate, tol):
        result = find_beta_threshold("one0", tol=tol)
        assert result.beta_high == np.nextafter(result.beta_low, np.inf)
        assert result.beta_low < 1.2345 <= result.beta_high
        # iterations counts the bisection steps, read or not: the plain search
        # reads both ends, 3 samples of the binary search and every step
        step_certificate.clear()
        assert _plain_threshold("one0", tol=tol) == result
        assert result.iterations == len(step_certificate) - 5


class TestWideInterval:
    def test_bisects_by_ratio_while_the_bracket_is_wide(self, step_certificate):
        # the samples leave [0.05, 1.4e149]; halving its width would take ~500 steps
        result = find_beta_threshold("one0", search=(0.05, 1e150))
        assert result.beta_low < 1.2345 <= result.beta_high
        assert result.beta_high - result.beta_low <= result.tolerance
        assert result.iterations == len(step_certificate) - 5
        assert result.iterations <= 30

    def test_narrow_brackets_bisect_by_width(self, step_certificate):
        # the default interval leaves a bracket within a factor of 16: plain halving
        result = find_beta_threshold("one0")
        width = (DEFAULT_SEARCH[1] - DEFAULT_SEARCH[0]) / 7
        assert result.iterations == int(np.ceil(np.log2(width / result.tolerance)))


class TestSearchInterval:
    @pytest.mark.parametrize("search", [(7.0, 6.0), (0.0, 6.0), (float("nan"), 6.0),
                                        (0.05, float("inf")), (-1.0, 6.0)])
    def test_rejects_malformed_interval_before_any_scan(self, step_certificate, search):
        with pytest.raises(ConfigurationError, match="lo < hi"):
            find_beta_threshold("one0", search=search)
        assert step_certificate == []


def _full_scan_certified(lemma_id, beta, grid=GridSpec(), unit=None):
    """The certificate by definition, from the full grid scan of the form at beta alone."""
    lemma = get_lemma(lemma_id)
    prof = scan_profile(lemma.make_form(beta), lemma.region, grid,
                        n_class=lemma.n_class)
    lowest, center = prof.minimum, prof.margins[len(prof.theta) // 2]
    return bool(lowest >= -grid.eps_adm and lowest >= center - 1e-12)


THRESHOLDED = sorted(k for k, lem in LEMMAS.items() if lem.threshold_ref is not None)
# every lemma certified_at accepts, the thresholded ones among them
SCALES_B = sorted(k for k, lem in LEMMAS.items() if lem.params in thresholds._SCALES_B)


@pytest.mark.parametrize("lemma_id", SCALES_B)
def test_coefficient_enters_as_u_equals_beta_m(lemma_id):
    # the premise of reading every certificate step from the rays of beta = 1:
    # psi at beta is psi at 1 with s = m sigma scaled by beta
    rng = np.random.default_rng(11)
    theta = rng.uniform(-0.78, 0.78, 400)
    m, beta = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), (2, 400)))
    r = np.sqrt(2.0 * np.cos(2.0 * theta)) * np.exp(1j * theta)
    s = m * np.exp(3j * theta) / (2.0 * np.sqrt(2.0 * np.cos(2.0 * theta)))
    lemma = get_lemma(lemma_id)
    direct = np.array([lemma.make_form(b).value(a, x) for b, a, x in zip(beta, r, s)])
    scaled = lemma.make_form(1.0).value(r, beta * s)
    assert np.all(np.abs(direct - scaled) <= 4 * np.finfo(float).eps * np.abs(direct))


def _betas(lemma):
    """91 coefficients across the default interval and on both sides of the bound."""
    bound = lemma.threshold_ref
    betas = list(np.linspace(0.05, 6.0, 25)) + list(np.geomspace(0.05, 50.0, 60))
    betas += [bound * (1 + d) for d in (-1e-3, 1e-3, -1e-4, 1e-4)]
    return betas + [bound - 1e-5, bound + 1e-5]


def _unit(lemma):
    return scan_profile(lemma.make_form(1.0), lemma.region, GridSpec(), lemma.n_class)


class TestCenterBandReject:
    @pytest.mark.parametrize("lemma_id", THRESHOLDED)
    def test_agrees_with_full_scan(self, lemma_id):
        lemma = get_lemma(lemma_id)
        betas = _betas(lemma)
        unit = _unit(lemma)
        shared = [certified_at(lemma_id, float(b), unit=unit) for b in betas]
        assert shared == [_full_scan_certified(lemma_id, float(b)) for b in betas]
        assert shared == [certified_at(lemma_id, float(b)) for b in betas]
        assert True in shared and False in shared

    @pytest.mark.parametrize("lemma_id,beta", [
        ("first3", 1.0),   # lemniscate target
        ("sq2", 2.5),      # disk target
        ("ex2", None),     # half-plane target
        ("moebius", 1.5),  # Moebius-disk target
        ("second-sum", None),  # second-order form, exact t-projection
    ])
    def test_band_rows_are_full_grid_rows(self, lemma_id, beta):
        # each row of a scan is the row function on its theta alone, so the band
        # a certificate reads first is what scanning those three rows would give
        lemma = get_lemma(lemma_id)
        form = lemma.make_form(beta)
        full = scan_profile(form, lemma.region, GridSpec(), lemma.n_class)
        c = len(full.theta) // 2
        band = full.theta[c - 1:c + 2]
        _, margins, _ = _ray_minimum(form, lemma.region, band, lemma.n_class)
        assert band[1] == 0.0
        assert np.array_equal(margins, full.margins[c - 1:c + 2])

    def test_shortcut_saves_full_scans_without_moving_the_bracket(self, monkeypatch):
        monkeypatch.setattr(thresholds, "certified_at", _full_scan_certified)
        reference = find_beta_threshold("one1")
        monkeypatch.undo()

        certs, scans = [], []
        real_certified, real_scan = thresholds.certified_at, thresholds.scan_profile

        def counting_certified(*args, **kwargs):
            certs.append(args)
            return real_certified(*args, **kwargs)

        def counting_scan(*args, **kwargs):
            prof = real_scan(*args, **kwargs)
            scans.append(len(prof.theta))
            return prof

        monkeypatch.setattr(thresholds, "certified_at", counting_certified)
        monkeypatch.setattr(thresholds, "scan_profile", counting_scan)
        result = find_beta_threshold("one1")
        assert result == reference
        # 2 ends and 2 seeds; the seeds decide the 3 samples and 14 bisection steps
        assert len(certs) == 4
        assert scans == [GridSpec().theta_points]  # the rays at beta = 1 serve every step


def _full_arc_rays(lemma):
    """The table of the lemma's form at beta = 1 over every row of the grid, both
    sides of the center line, scanned without scan_profile's mirroring."""
    form = lemma.make_form(1.0)
    return _ray_minimum(form, lemma.region, GridSpec().theta_grid(), lemma.n_class)[2]


def _profile_read_certified(lemma_id, beta, rays):
    """The certificate as each step read it before: the least margin of each band
    row and then of every row, from the full-arc unit rays by a per-row argmin."""
    lemma, grid = get_lemma(lemma_id), GridSpec()
    form, n = lemma.make_form(beta), float(lemma.n_class)

    def least(rows):
        r, sigma, m, margins = (column[rows] for column in rays)
        start = np.asarray(lemma.region.margin(form.value(r, sigma * n)))
        margins = np.concatenate([start, np.where(m > beta * n, margins, np.inf)], axis=1)
        j = np.argmin(margins, axis=1)
        rows_least = margins[np.arange(len(margins)), j]
        lowest = rows_least[np.argmin(rows_least)]
        if not np.isfinite(lowest):
            raise ConfigurationError("not finite")
        return rows_least, lowest

    c = grid.theta_points // 2
    band, band_least = least(slice(c - 1, c + 2))
    floor = max(-grid.eps_adm, band[1] - 1e-12)
    return bool(band_least >= floor and least(slice(None))[1] >= floor)


def _outcome(certify, *args):
    try:
        return certify(*args)
    except ConfigurationError:
        return "ConfigurationError"


class TestMarginsOnlyRead:
    @pytest.mark.parametrize("lemma_id", THRESHOLDED)
    def test_agrees_with_the_profile_read(self, lemma_id):
        lemma = get_lemma(lemma_id)
        unit, rays = _unit(lemma), _full_arc_rays(lemma)
        for beta in _betas(lemma) + [5e-324, 1e-300, 1e-30]:
            assert (_outcome(certified_at, lemma_id, float(beta), GridSpec(), unit)
                    == _outcome(_profile_read_certified, lemma_id, float(beta), rays)), beta

    @staticmethod
    def _unit_with(lemma_id, edit):
        """The unit profile of the lemma with its table's margins edited in a copy."""
        unit = _unit(get_lemma(lemma_id))
        margins = unit.rays.margins.copy()
        edit(margins)
        return dataclasses.replace(unit, rays=unit.rays._replace(margins=margins))

    def test_nan_off_the_band_raises_only_when_the_band_passes(self):
        def nan_in_last_row_limit(margins):  # the limit column always counts
            margins[-1, -1] = np.nan

        unit = self._unit_with("one1", nan_in_last_row_limit)
        with pytest.raises(ConfigurationError, match="nan, not finite"):
            certified_at("one1", 2.0, unit=unit)
        assert certified_at("one1", 1.0, unit=unit) is False  # the band rejects first

    def test_nan_beside_a_rejecting_row_rejects(self):
        def nan_next_to_the_center(margins):  # the table's row 0 is the center
            margins[1, -1] = np.nan

        unit = self._unit_with("one1", nan_next_to_the_center)
        # below the bound the center row rejects, whatever its neighbour holds
        assert certified_at("one1", 1.0, unit=unit) is False
        # above it no finite row rejects, so the NaN refuses the step
        with pytest.raises(ConfigurationError, match="nan, not finite"):
            certified_at("one1", 2.0, unit=unit)

    def test_all_inf_table_raises(self):
        def all_inf(margins):
            margins[:] = np.inf

        unit = self._unit_with("first3", all_inf)
        # at beta = 1e300 the start overflows to inf too, so nothing finite is left
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ConfigurationError, match="inf, not finite"):
                certified_at("first3", 1e300, unit=unit)


def test_table_and_grid_must_agree():
    # the band's center is the table's; a 2001-row table on a 1001-point grid
    # once read row 500 as the center and rejected certified coefficients
    unit = _unit(get_lemma("first3"))
    coarse = GridSpec(theta_points=1001)
    for beta in (1.19, 1.25, 2.0):
        assert certified_at("first3", beta, unit=unit)
        assert certified_at("first3", beta, grid=coarse)
        with pytest.raises(ConfigurationError, match="2001 rows, the grid 1001"):
            certified_at("first3", beta, grid=coarse, unit=unit)


def test_a_full_arc_table_is_refused():
    # the certificate reads the rows theta >= 0 with the center first; a table of
    # every row would be read at the grid's first two rows as its band
    lemma = get_lemma("first3")
    full = dataclasses.replace(_unit(lemma), rays=_full_arc_rays(lemma))
    for beta in (1.0, 1.25, 2.0):
        with pytest.raises(ConfigurationError, match="2001 rays, the grid 1001 rows"):
            certified_at("first3", beta, unit=full)


def _prescan_threshold(lemma_id, search=None, tol=DEFAULT_TOL, grid=GridSpec()):
    """The bracket as found before the binary search: every one of the 8 samples
    read, the certificate required to flip once across them, and the bisection
    started at the first certified sample."""
    lemma = get_lemma(lemma_id)
    lo, hi = search if search is not None else DEFAULT_SEARCH
    unit = scan_profile(lemma.make_form(1.0), lemma.region, grid, lemma.n_class)
    samples = np.linspace(lo, hi, 8)
    flags = [certified_at(lemma_id, float(b), grid=grid, unit=unit) for b in samples]
    assert flags == sorted(flags) and not flags[0] and flags[-1]
    k = flags.index(True)
    blo, bhi = float(samples[k - 1]), float(samples[k])
    iterations = 0
    while bhi - blo > tol:
        mid = math.sqrt(blo) * math.sqrt(bhi) if bhi > 16.0 * blo else 0.5 * (blo + bhi)
        if not blo < mid < bhi:
            break
        if certified_at(lemma_id, mid, grid=grid, unit=unit):
            bhi = mid
        else:
            blo = mid
        iterations += 1
    return ThresholdResult(lemma_id, blo, bhi, 0.5 * (blo + bhi), tol, iterations,
                           lemma.threshold_closed)


def _bench_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bracket_cases():
    """The 7 bounds at two tolerances and on a wide interval, and the bench's
    bounds pools at four seeds: 77 searches."""
    cases = [(lemma_id, None, tol) for tol in (1e-4, 1e-8) for lemma_id in THRESHOLDED]
    cases += [(lemma_id, (0.05, 1e150), DEFAULT_TOL) for lemma_id in THRESHOLDED]
    bounds = _bench_workloads().Bounds()
    for seed in (1, 2, 3, 7919):
        cases += [(lemma_id, (lo, hi), bounds.tol)
                  for lemma_id, lo, hi in bounds.pool(np.random.default_rng(seed))]
    return cases


class TestSampleSearch:
    @pytest.mark.parametrize("lemma_id,search,tol", _bracket_cases())
    def test_matches_the_eight_sample_prescan(self, lemma_id, search, tol):
        assert (find_beta_threshold(lemma_id, search=search, tol=tol)
                == _prescan_threshold(lemma_id, search=search, tol=tol))

    @pytest.mark.parametrize("bound", [0.06, 0.9, 1.2345, 2.6, 3.5, 4.3, 5.2, 5.99])
    def test_ends_first_then_a_binary_search_of_the_samples(self, monkeypatch, bound):
        # a step at `bound` stands in for the certificate, so the seeds, placed at
        # one0's own predicted transition, are off the step's transition
        calls = []

        def step(lemma_id, beta, grid=None, unit=None):
            calls.append(beta)
            return beta >= bound

        monkeypatch.setattr(thresholds, "certified_at", step)
        result = find_beta_threshold("one0")
        samples = list(np.linspace(*DEFAULT_SEARCH, 8))
        lemma = get_lemma("one0")
        guess = thresholds._predicted_transition(lemma, _unit(lemma), GridSpec(),
                                                 *DEFAULT_SEARCH, DEFAULT_TOL)
        width = max(DEFAULT_TOL / 64, 1e-8 * guess)
        seeds = [guess - width, guess + width][:1 if guess - width >= bound else 2]
        assert calls[:2] == [samples[0], samples[-1]]
        assert calls[2:2 + len(seeds)] == seeds
        searched = [b for b in calls[2 + len(seeds):] if b in samples]
        assert len(searched) <= 3 and set(searched) <= set(samples[1:7])
        assert calls[2 + len(seeds):2 + len(seeds) + len(searched)] == searched
        # each later read lies between the largest beta read uncertified and the least
        # read certified
        below, above = samples[0], samples[-1]
        for beta in calls[2:]:
            assert below < beta < above
            below, above = (below, beta) if beta >= bound else (beta, above)
        k = next(i for i, b in enumerate(samples) if b >= bound)
        assert samples[k - 1] <= result.beta_low < bound <= result.beta_high <= samples[k]
        assert _plain_threshold("one0") == result


def _plain_threshold(lemma_id, search=None, tol=DEFAULT_TOL, grid=GridSpec()):
    """The bracket as found before the seeds: both ends, a binary search of the 8
    samples and the bisection, each step read with ``thresholds.certified_at``."""
    lemma = get_lemma(lemma_id)
    lo, hi = search if search is not None else DEFAULT_SEARCH
    unit = scan_profile(lemma.make_form(1.0), lemma.region, grid, lemma.n_class)
    samples = np.linspace(lo, hi, 8)

    def certified(beta):
        return thresholds.certified_at(lemma_id, float(beta), grid=grid, unit=unit)

    assert (certified(samples[0]), certified(samples[-1])) == (False, True)
    k = bisect.bisect_left(samples, True, 1, 7, key=certified)
    blo, bhi = float(samples[k - 1]), float(samples[k])
    iterations = 0
    while bhi - blo > tol:
        mid = math.sqrt(blo) * math.sqrt(bhi) if bhi > 16.0 * blo else 0.5 * (blo + bhi)
        if not blo < mid < bhi:
            break
        if certified(mid):
            bhi = mid
        else:
            blo = mid
        iterations += 1
    return ThresholdResult(lemma_id, blo, bhi, 0.5 * (blo + bhi), tol, iterations,
                           lemma.threshold_closed)


def _counting_certificate(monkeypatch):
    """The betas every later certified_at call reads, in order."""
    reads, real = [], thresholds.certified_at

    def counting(lemma_id, beta, grid=GridSpec(), unit=None):
        reads.append(beta)
        return real(lemma_id, beta, grid=grid, unit=unit)

    monkeypatch.setattr(thresholds, "certified_at", counting)
    return reads


class TestSeededSearch:
    @pytest.mark.parametrize("lemma_id,search,tol", _bracket_cases() + [
        (lemma_id, None, tol) for tol in (1e-10, 1e-12) for lemma_id in THRESHOLDED])
    def test_matches_the_plain_bisection(self, lemma_id, search, tol):
        # the 7 bounds at four tolerances and on (0.05, 1e150), and the bench's pools;
        # at 1e-10, seeds tol / 64 from the prediction give first4 another bracket
        assert (find_beta_threshold(lemma_id, search=search, tol=tol)
                == _plain_threshold(lemma_id, search=search, tol=tol))

    @pytest.mark.parametrize("lemma_id", THRESHOLDED)
    @pytest.mark.parametrize("offset", [-1.0, -1e-3, 1e-3, 1.0, 50.0])
    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-8])
    def test_a_far_off_prediction_keeps_the_bracket(self, monkeypatch, lemma_id, offset,
                                                     tol):
        reference = _plain_threshold(lemma_id, tol=tol)
        guess = get_lemma(lemma_id).threshold_ref + offset
        monkeypatch.setattr(thresholds, "_predicted_transition", lambda *args: guess)
        assert find_beta_threshold(lemma_id, tol=tol) == reference

    @pytest.mark.parametrize("lemma_id", THRESHOLDED)
    def test_a_default_bound_takes_at_most_five_reads(self, monkeypatch, lemma_id):
        reads = _counting_certificate(monkeypatch)
        find_beta_threshold(lemma_id)
        assert len(reads) <= 5
        assert reads[:2] == list(DEFAULT_SEARCH)

    def test_no_prediction_reads_what_the_plain_bisection_reads(self, monkeypatch):
        # one0's Brent root on (0.05, 1e150) does not converge in 50 steps
        lemma = get_lemma("one0")
        assert thresholds._predicted_transition(lemma, _unit(lemma), GridSpec(),
                                                0.05, 1e150, DEFAULT_TOL) is None
        reads = _counting_certificate(monkeypatch)
        result = find_beta_threshold("one0", search=(0.05, 1e150))
        seeded = list(reads)
        reads.clear()
        assert _plain_threshold("one0", search=(0.05, 1e150)) == result
        assert seeded == reads


class TestBrentRoot:
    def test_finds_the_root_of_a_sign_change(self):
        root = thresholds._brent_root(lambda x: x ** 3 - 2.0, 0.0, 2.0, 1e-14, 0.0)
        assert abs(root - 2.0 ** (1.0 / 3.0)) <= 1e-14

    def test_an_end_root_is_returned(self):
        assert thresholds._brent_root(lambda x: x - 2.0, 0.0, 2.0, 1e-12, 0.0) == 2.0

    @pytest.mark.parametrize("f", [lambda x: x + 1.0,  # no sign change
                                   lambda x: 1.0 - x,  # falls instead of rising
                                   lambda x: x - 1.0 if x < 1.5 else math.nan,
                                   lambda x: math.inf if x == 0.0 else x - 1.0])
    def test_no_root_where_the_signs_or_the_values_do_not_allow_one(self, f):
        assert thresholds._brent_root(f, 0.0, 2.0, 1e-12, 0.0) is None

    def test_no_root_where_it_does_not_converge(self):
        # a linear bisection of 300 orders of magnitude takes ~1000 steps
        assert thresholds._brent_root(lambda x: 1.0 if x > 1.0 else -1.0,
                                      0.0, 1e300, 1e-12, 0.0) is None


@pytest.mark.parametrize("lemma_id", ["moebius", "one0", "one1", "one2"])
def test_admissibility_type_brackets_sit_just_below_their_closed_forms(lemma_id):
    # the certificate accepts margins down to -eps_adm = -1e-9, so it holds a
    # little below the closed form: by 1.0e-9 (one0) to 8.0e-9 (moebius)
    result = find_beta_threshold(lemma_id, tol=1e-12)
    assert 0.0 < result.closed_form - result.beta_high < 1e-8
