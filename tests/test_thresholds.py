import numpy as np
import pytest

from lemniscate import thresholds
from lemniscate.admissibility import (ConfigurationError, GridSpec, _margin_grid,
                                      scan_profile)
from lemniscate.catalog import LEMMAS, get_lemma
from lemniscate.thresholds import BracketError, certified_at, find_beta_threshold

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
        coarse = find_beta_threshold("one1", grid=GridSpec(theta_points=1001, m_points=32))
        fine = find_beta_threshold("one1", grid=GridSpec(theta_points=2001, m_points=64))
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


@pytest.fixture
def step_certificate(monkeypatch):
    """A step at beta = 1.2345 stands in for the scan; the call cap turns a
    bisection that never ends into a failure instead of a hang."""
    calls = []

    def step(lemma_id, beta, grid=None):
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
        assert result.iterations == len(step_certificate) - 8


class TestSearchInterval:
    @pytest.mark.parametrize("search", [(7.0, 6.0), (0.0, 6.0), (float("nan"), 6.0),
                                        (0.05, float("inf")), (-1.0, 6.0)])
    def test_rejects_malformed_interval_before_any_scan(self, step_certificate, search):
        with pytest.raises(ConfigurationError, match="lo < hi"):
            find_beta_threshold("one0", search=search)
        assert step_certificate == []


def _full_scan_certified(lemma_id, beta, grid=GridSpec()):
    """The certificate by definition, from the full grid scan alone."""
    lemma = get_lemma(lemma_id)
    prof = scan_profile(lemma.make_form(beta), lemma.region, grid,
                        n_class=lemma.n_class)
    return bool(prof.objective.min() >= -grid.eps_adm and prof.min_is_centered(1e-12))


THRESHOLDED = sorted(k for k, lem in LEMMAS.items() if lem.threshold_ref is not None)


class TestCenterBandReject:
    @pytest.mark.parametrize("lemma_id", THRESHOLDED)
    def test_agrees_with_full_scan(self, lemma_id):
        bound = LEMMAS[lemma_id].threshold_ref
        betas = list(np.linspace(0.05, 6.0, 25))
        betas += [bound * (1 + d) for d in (-1e-3, 1e-3, -1e-4, 1e-4)]
        betas += [bound - 1e-5, bound + 1e-5]
        flags = [certified_at(lemma_id, float(b)) for b in betas]
        assert flags == [_full_scan_certified(lemma_id, float(b)) for b in betas]
        assert True in flags and False in flags

    @pytest.mark.parametrize("lemma_id,beta", [
        ("first3", 1.0),   # lemniscate target
        ("sq2", 2.5),      # disk target
        ("ex2", None),     # half-plane target
        ("moebius", 1.5),  # Moebius-disk target
        ("second-sum", None),  # second-order form, exact t-projection
    ])
    def test_band_rows_are_full_grid_rows(self, lemma_id, beta):
        lemma = get_lemma(lemma_id)
        form = lemma.make_form(beta)
        grid = GridSpec()
        theta, m = grid.theta_grid(), grid.m_grid(lemma.n_class)
        c = len(theta) // 2
        band = _margin_grid(form, lemma.region, theta[c - 1:c + 2], m)
        full = _margin_grid(form, lemma.region, theta, m)
        assert np.array_equal(band, full[c - 1:c + 2])

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
            scans.append(args)
            return real_scan(*args, **kwargs)

        monkeypatch.setattr(thresholds, "certified_at", counting_certified)
        monkeypatch.setattr(thresholds, "scan_profile", counting_scan)
        result = find_beta_threshold("one1")
        assert result == reference
        assert len(certs) == 22
        assert len(scans) < 22
