from dataclasses import replace

import numpy as np
import pytest

from lemniscate import admissibility
from lemniscate.admissibility import (_GOLDEN, ConfigurationError, GridSpec,
                                      _golden_min, _ray_minimum, check_admissible,
                                      min_over_t, scan_profile)
from lemniscate.boundary import AdmissibleTriple, jet_arrays, make_triple
from lemniscate.catalog import (LEMMAS, FirstOrderPlus, SecondOrderSum,
                                SecondOrderWeighted, closed_form_g, direct_objective,
                                evaluate, get_lemma)
from lemniscate.geometry import DELTA, Disk, DomainError

SQRT2 = np.sqrt(2.0)
FAST = GridSpec(theta_points=1001)


def check_lemma(lemma_id, beta=None, gamma=None, grid=GridSpec(), n_class=None):
    lemma = get_lemma(lemma_id)
    form = lemma.make_form(beta, gamma)
    n_class = lemma.n_class if n_class is None else n_class
    return check_admissible(form, lemma.region, grid, n_class=n_class)


def sample_t_box(form, triple, region, span=10.0, points=24):
    """Smallest |psi - center| over a sampled t box inside the half-plane."""
    e3 = np.exp(3j * triple.theta)
    u = triple.tau_min + np.linspace(0.0, span, points)
    v = np.linspace(-span, span, points)
    t = (u[:, None] + 1j * v[None, :]) * e3
    return float(np.min(np.abs(form.value(triple.r, triple.s, t) - region.center)))


def _sampled(rng, draws=3):
    """(lemma_id, beta, gamma) at each lemma's defaults and at random coefficients."""
    cases = []
    for lemma_id, lemma in LEMMAS.items():
        cases.append((lemma_id, lemma.default_beta, lemma.default_gamma))
        for _ in range(draws if lemma.params != "none" else 0):
            beta = float(np.exp(rng.uniform(np.log(0.05), np.log(10.0))))
            if lemma.params == "beta-complex":
                beta = complex(beta, rng.uniform(-10.0, 10.0))
            gamma = float(rng.uniform(0.05, 4.0)) if lemma.params == "beta-gamma" else None
            cases.append((lemma_id, beta, gamma))
    return cases


SAMPLED = _sampled(np.random.default_rng(17))
THRESHOLDED = sorted(k for k, lemma in LEMMAS.items() if lemma.threshold_ref is not None)


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
        # scanning from m = 1 exposes interior values
        low = check_lemma("second-sqsum", n_class=1)
        assert not low.admissible

    def test_pairing_error(self):
        with pytest.raises(ConfigurationError):
            check_admissible(SecondOrderSum(), DELTA)

    def test_non_finite_scan_is_no_verdict(self):
        # beta = 1e300 overflows every margin to inf; no verdict may rest on that
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ConfigurationError, match="finite"):
                check_lemma("first3", 1e300)

    def test_overflowing_second_order_scan_raises_only_its_error(self):
        # gamma b + beta c at 1e308 overflows to a NaN distance; a RuntimeWarning
        # fails the test, so numpy must not report it before the scan does
        lemma = get_lemma("second-weighted")
        with pytest.raises(ConfigurationError, match="nan, not finite"):
            check_admissible(SecondOrderWeighted(gamma=1e308, beta=1e308), lemma.region,
                             n_class=lemma.n_class)

    def test_nan_polish_falls_back_to_the_grid_point(self, monkeypatch):
        lemma = get_lemma("first3")
        grid_min = scan_profile(lemma.make_form(1.25), lemma.region, FAST).minimum
        monkeypatch.setattr(admissibility, "_polish", lambda *args: (0.1, 2.0, np.nan))
        verdict = check_lemma("first3", 1.25, grid=FAST)
        assert verdict.admissible
        assert verdict.min_objective_seen == grid_min

    @pytest.mark.parametrize("beta", [1e-300, 1e-30, 1e-8, 1.0, 1e150])
    def test_extreme_coefficients_raise_no_warning(self, beta):
        # a RuntimeWarning fails the test; a non-finite minimum is no verdict
        for lemma_id, lemma in LEMMAS.items():
            if lemma.threshold_ref is None:
                continue
            try:
                verdict = check_lemma(lemma_id, beta)
            except ConfigurationError:
                continue
            assert verdict.admissible == (verdict.witness is None), lemma_id

    def test_verdict_deterministic(self):
        a = check_lemma("first3", 1.25, grid=FAST)
        b = check_lemma("first3", 1.25, grid=FAST)
        assert a == b

    @pytest.mark.parametrize("beta", [1e-315, 1e-320, 5e-324])
    @pytest.mark.parametrize("lemma_id", THRESHOLDED)
    def test_subnormal_beta_is_never_admissible(self, lemma_id, beta):
        # the ray's line parameter overflows, so its far part, where the
        # violation sits (m ~ 1/beta), cannot be seen: a refusal or a violation
        try:
            verdict = check_lemma(lemma_id, beta)
        except ConfigurationError:
            return
        assert not verdict.admissible


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
        # a caller's triple is checked as make_triple checks its (theta, m)
        for theta, m in ((0.9, 1.0), (0.0, 0.5)):
            bad = AdmissibleTriple(theta, m, triple.r, triple.s, triple.tau_min)
            with pytest.raises(DomainError):
                min_over_t(SecondOrderSum(), bad, Disk(0j, 0.1))


def _min_is_centered(prof, tol=1e-12):
    return bool(prof.minimum >= prof.margins[len(prof.theta) // 2] - tol)


def _argmin_theta(prof):
    return float(prof.theta[prof.argmin])


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
        assert prof.minimum > 0  # no violation: the bound is not sharp here

    def test_sq2_centered_above_bound(self):
        lemma = get_lemma("sq2")
        prof = scan_profile(lemma.make_form(3.0), lemma.region, FAST)
        assert _min_is_centered(prof)

    def test_profile_matches_verdict_minimum(self):
        lemma = get_lemma("one1")
        prof = scan_profile(lemma.make_form(2.0), lemma.region, FAST)
        verdict = check_lemma("one1", 2.0, grid=FAST)
        # polish can only go at or below the grid profile minimum
        assert verdict.min_objective_seen <= prof.minimum + 1e-15

    @pytest.mark.parametrize("n_class", [0.5, 0, -1, np.nan])
    @pytest.mark.parametrize("lemma_id", ["first3", "second-sum"])
    def test_n_class_must_be_an_integer_at_least_one(self, monkeypatch, lemma_id, n_class):
        # rejected before any row is scanned: a first-order scan used to start
        # its rays at m = 0.5 (first3 read a least margin of 0.185, against
        # 0.466 at n = 1), and a second-order one failed inside the jet
        rows = []
        monkeypatch.setattr(admissibility, "_ray_minimum",
                            lambda *args: rows.append(args) or _ray_minimum(*args))
        lemma = get_lemma(lemma_id)
        form = lemma.make_form(lemma.default_beta)
        for scan in (scan_profile, check_admissible):
            with pytest.raises(ConfigurationError, match="n_class"):
                scan(form, lemma.region, FAST, n_class)
        assert rows == []

    def test_minimum_is_the_first_least_margin(self):
        lemma = get_lemma("first3")
        prof = scan_profile(lemma.make_form(0.5), lemma.region, FAST)
        assert prof.margins.shape == prof.m.shape == prof.theta.shape
        assert prof.minimum == prof.margins.min()
        assert prof.argmin == np.argmin(prof.margins)

    def test_one_nan_margin_anywhere_is_no_scan(self, monkeypatch):
        lemma = get_lemma("one1")
        margin = type(lemma.region).margin

        def one_nan(region, w):
            margins = np.array(margin(region, w))
            margins[-1, 0] = np.nan  # the last row's start, far from the minimum, which is finite
            return margins

        monkeypatch.setattr(type(lemma.region), "margin", one_nan)
        with pytest.raises(ConfigurationError, match="nan, not finite"):
            scan_profile(lemma.make_form(2.0), lemma.region, FAST)

    def test_a_violation_outweighs_a_nan_row(self, monkeypatch):
        # one1 at beta = 1 lies below its necessary bound: the NaN row refuses nothing
        lemma = get_lemma("one1")
        margin = type(lemma.region).margin

        def one_nan(region, w):
            margins = np.array(margin(region, w))
            margins[-1, 0] = np.nan
            return margins

        monkeypatch.setattr(type(lemma.region), "margin", one_nan)
        prof = scan_profile(lemma.make_form(1.0), lemma.region, FAST)
        assert np.isnan(prof.margins[-1])
        assert prof.minimum == np.nanmin(prof.margins) < -FAST.eps_adm
        assert not check_admissible(lemma.make_form(1.0), lemma.region, FAST).admissible


def _real_draws(rng, draws=6):
    """(lemma_id, beta, gamma) at random real coefficients in [0.05, 20]."""
    cases = []
    for lemma_id, lemma in LEMMAS.items():
        if lemma.params == "none":
            cases.append((lemma_id, None, None))
            continue
        for _ in range(draws):
            beta, gamma = rng.uniform(0.05, 20.0, 2)
            cases.append((lemma_id, float(beta),
                          float(gamma) if lemma.params == "beta-gamma" else None))
    return cases


REAL_DRAWS = _real_draws(np.random.default_rng(31))
# violations, whose verdicts read the witness from the scan's argmin
REAL_VIOLATIONS = [("first3", 0.2, None), ("first4", 0.5, None), ("moebius", 1.0, None),
                   ("one0", 1.0, None), ("one1", 0.8, None), ("one2", 1.0, None),
                   ("sq2", 0.3, None), ("second-weighted", 1 / 6, 1 / 6)]


class TestHalfArc:
    """A profile with real coefficients is even in theta, so the scan reads theta >= 0."""

    @staticmethod
    def _full_arc(lemma_id, beta, gamma):
        """(m, margins, rays) of every row of the default grid, not mirrored."""
        lemma = get_lemma(lemma_id)
        return _ray_minimum(lemma.make_form(beta, gamma), lemma.region,
                            GridSpec().theta_grid(), lemma.n_class)

    @pytest.mark.parametrize("lemma_id,beta,gamma", REAL_DRAWS)
    def test_real_coefficient_profiles_are_bitwise_even(self, lemma_id, beta, gamma):
        # the premise of the half scan: rows theta and -theta of the mirrored grid agree
        m, margins, _ = self._full_arc(lemma_id, beta, gamma)
        assert np.array_equal(m, m[::-1])
        assert np.array_equal(margins, margins[::-1])

    @pytest.mark.parametrize("lemma_id,beta,gamma",
                             _real_draws(np.random.default_rng(37), 1) + REAL_VIOLATIONS)
    def test_half_scan_is_the_full_scan(self, monkeypatch, lemma_id, beta, gamma):
        rows = []
        monkeypatch.setattr(admissibility, "_ray_minimum",
                            lambda *args: rows.append(len(args[2])) or _ray_minimum(*args))
        lemma = get_lemma(lemma_id)
        form = lemma.make_form(beta, gamma)
        grid = GridSpec()
        prof = scan_profile(form, lemma.region, grid, lemma.n_class)
        monkeypatch.undo()
        m, margins, rays = self._full_arc(lemma_id, beta, gamma)
        c = grid.theta_points // 2
        assert rows == [c + 1]
        assert np.array_equal(prof.m, m) and np.array_equal(prof.margins, margins)
        assert prof.argmin == int(np.argmin(margins))
        # the table holds the rows theta >= 0, center first
        assert (prof.rays is None) == (rays is None)
        for half, full in zip(prof.rays or (), rays or ()):
            assert np.array_equal(half, full[c:])

    @pytest.mark.parametrize("beta", [1.0 + 1.0j, 0.3 - 7.0j])
    def test_complex_beta_scans_the_full_arc(self, monkeypatch, beta):
        rows = []
        monkeypatch.setattr(admissibility, "jet_arrays",
                            lambda theta, m: rows.append(len(theta)) or jet_arrays(theta, m))
        lemma, grid = get_lemma("sq-1"), GridSpec()
        prof = scan_profile(lemma.make_form(beta), lemma.region, grid, lemma.n_class)
        monkeypatch.undo()
        m, margins, _ = self._full_arc("sq-1", beta, None)
        assert rows == [grid.theta_points]
        assert len(prof.rays.m) == grid.theta_points
        assert np.array_equal(prof.m, m) and np.array_equal(prof.margins, margins)
        assert prof.argmin == int(np.argmin(margins))

    def test_a_tie_goes_to_the_negative_side(self):
        # first3 below its bound is least off the center line, on both sides alike
        lemma = get_lemma("first3")
        prof = scan_profile(lemma.make_form(0.5), lemma.region, GridSpec(), lemma.n_class)
        i = prof.argmin
        assert prof.theta[i] < -0.01
        assert prof.margins[-1 - i] == prof.minimum and prof.theta[-1 - i] == -prof.theta[i]


@pytest.mark.parametrize("beta", [1e-300, 1e-30, 1.0, 1e100])
def test_ray_slope_does_not_cancel(beta):
    # at beta = 1e-30, psi = a + beta b/a^4 at b = sigma rounds to a; the slope is not a difference
    r, sigma, _, _ = jet_arrays(FAST.theta_grid()[::50], 1.0)
    r, sigma = r[:, 0], sigma[:, 0]
    form = FirstOrderPlus(4, beta)
    assert np.array_equal(form.lead(r), r)
    assert np.array_equal(form.slope(r, sigma), beta * sigma / r**4)


def test_slope_is_linear_in_b():
    # the scan reads the ray lead(r) + m slope(r, sigma) for b = m sigma
    r, sigma, _, _ = jet_arrays(FAST.theta_grid()[::50], 1.0)
    r, sigma = r[:, 0], sigma[:, 0]
    for lemma_id, beta, gamma in SAMPLED:
        lemma = get_lemma(lemma_id)
        if lemma.order != 1:
            continue
        form = lemma.make_form(beta, gamma)
        for m in (1.0, 2.5, 1e3):
            scaled = m * form.slope(r, sigma)
            err = np.abs(form.slope(r, m * sigma) - scaled) / np.abs(scaled)
            assert np.max(err) <= 1e-14, (lemma_id, beta, gamma, m)


def dense_margins(lemma_id, beta, gamma, theta, m):
    """Region margins of psi at every m of a 1-D ``m`` on each theta, shape (K, M):
    at b = m sigma for first-order forms, and from the oracle's exact t-projected
    distance for second-order ones."""
    lemma = get_lemma(lemma_id)
    if lemma.order == 2:
        dist = direct_objective(lemma_id, theta[:, None], m[None, :], beta, gamma)
        return dist - lemma.region.radius
    r, sigma, _, _ = jet_arrays(theta, 1.0)
    return np.asarray(lemma.region.margin(lemma.make_form(beta, gamma).value(r, sigma * m)))


class TestGridHygiene:
    def test_no_row_above_a_dense_m_grid(self):
        # each row's least margin is at or below every margin of a dense m grid out to 1e6
        for lemma_id, beta, gamma in SAMPLED:
            lemma = get_lemma(lemma_id)
            n = lemma.n_class
            prof = scan_profile(lemma.make_form(beta, gamma), lemma.region, FAST, n)
            theta, margins = prof.theta[::10], prof.margins[::10]
            dense = np.union1d(np.geomspace(n, 1e6, 200), np.linspace(n, n + 12, 121))
            least = dense_margins(lemma_id, beta, gamma, theta, dense).min(axis=1)
            assert np.all(margins <= least + 1e-12 * np.maximum(1.0, np.abs(least))), \
                (lemma_id, beta, gamma)

    def test_ray_minimizers_start_at_the_class_index(self):
        for lemma_id, beta, gamma in SAMPLED:
            lemma = get_lemma(lemma_id)
            prof = scan_profile(lemma.make_form(beta, gamma), lemma.region, FAST, lemma.n_class)
            assert np.all(prof.m >= lemma.n_class), (lemma_id, beta, gamma)
        # scanning second-sqsum from m = 1 reaches below its class index
        lemma = get_lemma("second-sqsum")
        assert scan_profile(lemma.make_form(), lemma.region, FAST, 1).m.min() == 1.0

    def test_second_order_rays_are_least_at_the_class_index(self):
        # base = B0 + m kappa sigma with kappa real and > 0, so the projected
        # distance's vertex 2/3 (1 - kappa/coef) lies below 1 <= n
        r, sigma, _, _ = jet_arrays(FAST.theta_grid(), 1.0)
        r, sigma = r[:, 0], sigma[:, 0]
        for lemma_id, beta, gamma in SAMPLED:
            lemma = get_lemma(lemma_id)
            if lemma.order != 2:
                continue
            form = lemma.make_form(beta, gamma)
            kappa = (form.base(r, sigma) - form.base(r, 0.0 * sigma)) / sigma
            assert np.all(np.abs(kappa.imag) <= 1e-12 * np.abs(kappa)), (lemma_id, beta, gamma)
            assert np.all(kappa.real > 0.0), (lemma_id, beta, gamma)
            prof = scan_profile(form, lemma.region, FAST, lemma.n_class)
            assert np.all(prof.m == lemma.n_class), (lemma_id, beta, gamma)

    def test_refinement_stability(self):
        for lemma_id, beta, gamma in [("first3", 1.5, None), ("one0", 1.3, None),
                                      ("second-weighted", 0.25, 0.5)]:
            verdict = check_lemma(lemma_id, beta, gamma, grid=FAST)
            assert verdict.admissible
            if verdict.min_objective_seen > 1e-4:
                double = check_lemma(lemma_id, beta, gamma, grid=replace(
                    FAST, theta_points=2 * FAST.theta_points + 1))
                assert double.admissible, lemma_id

    def test_clamp_hides_no_violations(self):
        # least margins over all m at half the clamp distance exceed the scanned minimum
        edge = np.pi / 4 - 5e-7
        for lemma_id in ("first0", "first3", "one0", "sq2", "sqrat",
                         "second-sum", "second-sqsum"):
            lemma = get_lemma(lemma_id)
            form = lemma.make_form(lemma.default_beta, lemma.default_gamma)
            verdict = check_admissible(form, lemma.region, FAST, n_class=lemma.n_class)
            near = _ray_minimum(form, lemma.region, np.array([edge]), lemma.n_class)[1][0]
            assert near >= verdict.min_objective_seen - 1e-12, lemma_id

    def test_even_theta_count_becomes_odd(self):
        grid = GridSpec(theta_points=1000)
        assert grid == GridSpec(theta_points=1001)
        assert len(grid.theta_grid()) == grid.theta_points
        assert grid.theta_grid()[grid.theta_points // 2] == 0.0
        assert GridSpec().theta_points == 2001

    def test_grid_validation(self):
        with pytest.raises(ConfigurationError):
            GridSpec(theta_points=10)
        for bad in (-0.1, 0.0, 1.0):
            with pytest.raises(ConfigurationError):
                GridSpec(theta_margin=bad)
        for bad in (np.nan, np.inf, -1.0, -1e-12):
            with pytest.raises(ConfigurationError, match="eps_adm"):
                GridSpec(eps_adm=bad)
        GridSpec(eps_adm=0.0)  # the non-strict boundary itself, no tolerance


def golden_min_one_point(f, lo, hi, iters):
    """Reference: the golden-section search one scalar evaluation at a time."""
    a, b = float(lo), float(hi)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def one_point_search(f, lo, hi, iters=48):
    """The reference search on an array function f, one scalar point per call,
    returning its abscissa as a numpy float as the library's search does."""
    x, fx = golden_min_one_point(lambda x: float(f(np.array([x]))[0]), lo, hi, iters)
    return np.float64(x), fx


SEARCH_CASES = {
    "smooth": lambda x: (x - 0.37) ** 2 + 0.1 * np.sin(5.0 * x),
    "constant": lambda x: np.full(np.shape(x), 0.25),  # every comparison ties
    "nan on part": lambda x: np.where(x > 0.7, np.nan, (x - 0.3) ** 2),
    "step": lambda x: np.where(x < 0.61, 1.0, 0.0),
}

# a coefficient (or class index) on the violating side for every lemma that can fail
FAILING = [("first3", 0.2, None, GridSpec()), ("first4", 0.5, None, GridSpec()),
           ("sq2", 0.3, None, GridSpec()), ("one0", 1.0, None, GridSpec()),
           ("one1", 0.8, None, GridSpec()), ("one2", 1.0, None, GridSpec()),
           ("moebius", 1.0, None, GridSpec()),
           ("second-weighted", 1 / 6, 1 / 6, GridSpec()),
           ("second-sqsum", None, None, GridSpec(), 1)]


class TestBatchedPolish:
    @pytest.mark.parametrize("iters", [7, 48, 49])
    @pytest.mark.parametrize("name", sorted(SEARCH_CASES))
    def test_same_steps_as_one_point_search(self, monkeypatch, name, iters):
        f = SEARCH_CASES[name]
        monkeypatch.setattr(admissibility, "_GOLDEN_ITERS", iters)
        x, fx = _golden_min(f, 0.1, 1.3)
        x_ref, f_ref = one_point_search(f, 0.1, 1.3, iters)
        assert (float(x).hex(), fx.hex()) == (float(x_ref).hex(), f_ref.hex())

    @pytest.mark.parametrize("depth", range(1, 8))
    @pytest.mark.parametrize("iters", [1, 7, 48, 49])
    @pytest.mark.parametrize("name", sorted(SEARCH_CASES))
    def test_same_steps_at_every_batch_depth(self, monkeypatch, name, iters, depth):
        # depths that divide the step count and depths that leave a short last batch
        monkeypatch.setattr(admissibility, "_BATCH_DEPTH", depth)
        self.test_same_steps_as_one_point_search(monkeypatch, name, iters)

    def test_same_verdicts_as_one_point_search(self, monkeypatch):
        cases = [(lemma_id, lemma.default_beta, lemma.default_gamma, GridSpec())
                 for lemma_id, lemma in LEMMAS.items()] + FAILING
        batched = [check_lemma(*case) for case in cases]
        monkeypatch.setattr(admissibility, "_golden_min", one_point_search)
        reference = [check_lemma(*case) for case in cases]
        assert [v.admissible for v in reference[len(LEMMAS):]] == [False] * len(FAILING)
        for case, got, want in zip(cases, batched, reference):
            assert repr(got) == repr(want), case

    def test_one_scan_and_one_batched_search(self, monkeypatch):
        shapes = []

        def counting(theta, m):
            out = jet_arrays(theta, m)
            shapes.append(out[1].shape)
            return out

        monkeypatch.setattr(admissibility, "jet_arrays", counting)
        check_lemma("first3", 1.25)
        # one jet for the scan of theta >= 0, then one per evaluation of the search:
        # its two opening points with both subtrees of the first 6 steps, then 7
        # batches of 6 steps; the minimizer's m was seen
        assert shapes == [(1001, 1), (128, 1)] + 7 * [(63, 1)]
