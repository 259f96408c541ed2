from dataclasses import replace

import numpy as np
import pytest

from lemniscate.admissibility import (ConfigurationError, GridSpec,
                                      _margin_grid, check_admissible,
                                      min_over_t, scan_profile)
from lemniscate.boundary import make_triple
from lemniscate.catalog import (LEMMAS, SecondOrderSum, SecondOrderWeighted,
                                closed_form_g, evaluate, get_lemma)
from lemniscate.geometry import DELTA, Disk

SQRT2 = np.sqrt(2.0)
FAST = GridSpec(theta_points=1001, m_points=32)


def check_lemma(lemma_id, beta=None, gamma=None, grid=GridSpec()):
    lemma = get_lemma(lemma_id)
    form = lemma.make_form(beta, gamma)
    return check_admissible(form, lemma.region, grid, n_class=lemma.n_class)


def sample_t_box(form, triple, region, span=10.0, points=24):
    """Smallest |psi - center| over a sampled t box inside the half-plane."""
    e3 = np.exp(3j * triple.theta)
    u = triple.tau_min + np.linspace(0.0, span, points)
    v = np.linspace(-span, span, points)
    t = (u[:, None] + 1j * v[None, :]) * e3
    return float(np.min(np.abs(form.value(triple.r, triple.s, t) - region.center)))


class TestCheckAdmissible:
    def test_first0_any_positive_beta(self):
        assert check_lemma("first0", 1.0).admissible

    def test_one0_below_its_bound_has_witness(self):
        verdict = check_lemma("one0", 1.0)
        assert not verdict.admissible
        w = verdict.witness
        assert w is not None
        assert w.margin < -1e-9
        # soundness: the witness re-confirms through the public evaluation path
        triple = make_triple(w.theta, w.m)
        psi = evaluate(get_lemma("one0").make_form(1.0), triple)
        assert psi == pytest.approx(w.psi_value, abs=1e-12)
        assert DELTA.margin(psi) == pytest.approx(w.margin, abs=1e-12)

    def test_second_weighted_inside_condition(self):
        assert check_lemma("second-weighted", beta=0.25, gamma=0.5).admissible

    def test_second_weighted_outside_condition_has_witness(self):
        # 4*gamma - beta = 0.5 < 1
        verdict = check_lemma("second-weighted", beta=1 / 6, gamma=1 / 6)
        assert not verdict.admissible
        w = verdict.witness
        assert w.t is not None
        # witness t obeys the half-plane constraint and lands psi inside the disk
        triple = make_triple(w.theta, w.m)
        assert np.real(w.t * np.exp(-3j * w.theta)) >= triple.tau_min - 1e-12
        form = get_lemma("second-weighted").make_form(beta=1 / 6, gamma=1 / 6)
        psi = evaluate(form, triple, t=w.t)
        region = get_lemma("second-weighted").region
        assert region.margin(psi) == pytest.approx(w.margin, abs=1e-12)
        assert w.margin < -1e-9

    def test_halfplane_example(self):
        verdict = check_lemma("ex2")
        assert verdict.admissible
        # the objective touches the boundary exactly at (theta=0, m=1)
        assert abs(verdict.min_objective_seen) < 1e-9

    def test_boundary_touching_disk_examples(self):
        for lemma_id in ("ex1", "ex3", "second-sum"):
            verdict = check_lemma(lemma_id)
            assert verdict.admissible, lemma_id
            assert abs(verdict.min_objective_seen) < 1e-9, lemma_id

    def test_second_sqsum_uses_class_index_two(self):
        assert check_lemma("second-sqsum").admissible
        # forcing the scan down to m = 1 exposes interior values
        low = check_lemma("second-sqsum", grid=GridSpec(m_min=1.0))
        assert not low.admissible

    def test_pairing_error(self):
        with pytest.raises(ConfigurationError):
            check_admissible(SecondOrderSum(), DELTA)

    def test_verdict_deterministic(self):
        a = check_lemma("first3", 1.25, grid=FAST)
        b = check_lemma("first3", 1.25, grid=FAST)
        assert a == b


class TestMinOverT:
    def test_sum_at_center_line(self):
        triple = make_triple(0.0, 1.0)
        res = min_over_t(SecondOrderSum(), triple, Disk(0j, 3 / (8 * SQRT2)))
        assert res.objective == pytest.approx(3 / (8 * SQRT2))
        # minimizer sits on the constraint boundary
        assert np.real(res.t_star * np.exp(-3j * triple.theta)) == pytest.approx(triple.tau_min)

    def test_weighted_equal_coefficients(self):
        triple = make_triple(0.0, 1.0)
        res = min_over_t(SecondOrderWeighted(gamma=1.0, beta=1.0), triple, Disk(0j, 0.05))
        assert res.objective == pytest.approx(3 / (8 * SQRT2))

    def test_sum_at_m_four_thirds(self):
        triple = make_triple(0.0, 4.0 / 3.0)
        res = min_over_t(SecondOrderSum(), triple, Disk(0j, 0.1))
        assert res.objective == pytest.approx((16.0 / 3.0) / (8 * SQRT2))

    def test_matches_paper_style_lower_bound_everywhere(self):
        rng = np.random.default_rng(41)
        region = get_lemma("second-weighted").region
        for _ in range(300):
            theta = rng.uniform(-np.pi / 4 + 1e-6, np.pi / 4 - 1e-6)
            m = rng.uniform(1.0, 8.0)
            gamma = rng.uniform(0.05, 4.0)
            beta = rng.uniform(0.05, gamma)
            form = SecondOrderWeighted(gamma=gamma, beta=beta)
            res = min_over_t(form, make_triple(theta, m), region)
            bound = closed_form_g("second-weighted", theta, m, beta, gamma)
            assert res.objective >= bound - 1e-10
            assert res.objective == pytest.approx(bound, rel=1e-12, abs=1e-12)

    def test_box_sampling_never_undercuts_projection(self):
        rng = np.random.default_rng(43)
        for lemma_id in ("second-sum", "second-sqsum", "second-weighted"):
            lemma = get_lemma(lemma_id)
            form = lemma.make_form(lemma.default_beta, lemma.default_gamma)
            for _ in range(25):
                triple = make_triple(rng.uniform(-0.7, 0.7), rng.uniform(1.0, 6.0))
                exact = min_over_t(form, triple, lemma.region).objective
                sampled = sample_t_box(form, triple, lemma.region)
                assert sampled >= exact - 1e-12

    def test_errors(self):
        triple = make_triple(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            min_over_t(SecondOrderSum(), triple, DELTA)


def _min_is_centered(prof, tol=1e-12):
    return bool(prof.objective.min() >= prof.objective[len(prof.theta) // 2] - tol)


def _argmin_theta(prof):
    return float(prof.theta[int(np.argmin(prof.objective))])


class TestScanProfile:
    def test_first3_centered_above_bound(self):
        lemma = get_lemma("first3")
        prof = scan_profile(lemma.make_form(1.25), lemma.region, FAST)
        assert _min_is_centered(prof)
        assert abs(_argmin_theta(prof)) < 1e-12

    def test_first3_off_center_below_bound_yet_admissible(self):
        lemma = get_lemma("first3")
        prof = scan_profile(lemma.make_form(0.5), lemma.region, FAST)
        assert not _min_is_centered(prof)
        assert abs(_argmin_theta(prof)) > 0.01
        assert prof.objective.min() > 0  # no violation: the bound is not sharp here

    def test_sq2_centered_above_bound(self):
        lemma = get_lemma("sq2")
        prof = scan_profile(lemma.make_form(3.0), lemma.region, FAST)
        assert _min_is_centered(prof)

    def test_profile_matches_verdict_minimum(self):
        lemma = get_lemma("one1")
        prof = scan_profile(lemma.make_form(2.0), lemma.region, FAST)
        verdict = check_lemma("one1", 2.0, grid=FAST)
        # polish can only go at or below the grid profile minimum
        assert verdict.min_objective_seen <= prof.objective.min() + 1e-15


class TestGridHygiene:
    def test_m_cutoff_hides_no_violations(self):
        # margins for m in [m_max, 1e3] never undercut the scanned minimum
        theta = FAST.theta_grid()
        far_m = np.geomspace(FAST.m_max, 1e3, 200)
        for lemma_id, lemma in LEMMAS.items():
            form = lemma.make_form(lemma.default_beta, lemma.default_gamma)
            verdict = check_admissible(form, lemma.region, FAST, n_class=lemma.n_class)
            far = _margin_grid(form, lemma.region, theta, far_m)
            assert far.min() >= verdict.min_objective_seen - 1e-12, lemma_id

    def test_refinement_stability(self):
        for lemma_id, beta, gamma in [("first3", 1.5, None), ("one0", 1.3, None),
                                      ("second-weighted", 0.25, 0.5)]:
            verdict = check_lemma(lemma_id, beta, gamma, grid=FAST)
            assert verdict.admissible
            if verdict.min_objective_seen > 1e-4:
                double = check_lemma(lemma_id, beta, gamma, grid=replace(
                    FAST, theta_points=2 * FAST.theta_points + 1,
                    m_points=2 * FAST.m_points))
                assert double.admissible, lemma_id

    def test_clamp_hides_no_violations(self):
        # objectives at half the clamp distance exceed the scanned minimum
        from lemniscate.admissibility import _margin_at
        edge = np.pi / 4 - 5e-7
        for lemma_id in ("first0", "first3", "one0", "sq2", "sqrat",
                         "second-sum", "second-sqsum"):
            lemma = get_lemma(lemma_id)
            form = lemma.make_form(lemma.default_beta, lemma.default_gamma)
            verdict = check_admissible(form, lemma.region, FAST, n_class=lemma.n_class)
            near = _margin_at(form, lemma.region, edge, float(lemma.n_class))
            assert near >= verdict.min_objective_seen - 1e-12, lemma_id

    def test_grid_validation(self):
        with pytest.raises(ConfigurationError):
            GridSpec(theta_points=10)
        with pytest.raises(ConfigurationError):
            GridSpec(m_min=0.5)
        with pytest.raises(ConfigurationError):
            GridSpec(m_max=0.5)
        for bad in (-0.1, 0.0, 1.0):
            with pytest.raises(ConfigurationError):
                GridSpec(theta_margin=bad)
        for bad in (np.nan, np.inf, -1.0, -1e-12):
            with pytest.raises(ConfigurationError, match="eps_adm"):
                GridSpec(eps_adm=bad)
        for bad in ({"m_max": np.inf}, {"m_max": np.nan}, {"m_min": np.nan},
                    {"m_min": np.inf}):
            with pytest.raises(ConfigurationError, match="finite"):
                GridSpec(**bad)
        GridSpec(eps_adm=0.0)  # the non-strict boundary itself, no tolerance

    def test_m_max_must_exceed_class_index(self):
        # second-sqsum scans from m = 2: m_max = 1.5 would reverse the m grid
        grid = GridSpec(m_max=1.5)
        with pytest.raises(ConfigurationError):
            grid.m_grid(n_class=2)
        with pytest.raises(ConfigurationError):
            check_lemma("second-sqsum", grid=grid)
        assert grid.m_grid(n_class=1)[0] == 1.0
