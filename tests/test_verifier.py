import numpy as np
import pytest

from lemniscate.catalog import LEMMAS
from lemniscate.geometry import DELTA, Disk
from lemniscate.series import (NormalizationError, TruncatedSeries, p_of_f,
                               sqrt_one_plus_z_series)
from lemniscate.verifier import (ImageProbe, ProbeSpec, hypothesis_series,
                                 image_in_region, random_normalized_f,
                                 random_normalized_p, sharpness_probe_example2,
                                 verify_implication)


class TestImageInRegion:
    def test_dominant_image_fills_but_stays_inside(self):
        # order must outrun the branch point at z = -1: the truncated image
        # only settles inside the target from a few hundred coefficients on
        probe = image_in_region(sqrt_one_plus_z_series(384), DELTA)
        assert probe.contained
        assert probe.max_margin < 0
        assert probe.max_margin > -0.05  # the image hugs the boundary at r=0.999

    def test_constant_sits_at_the_anchor(self):
        probe = image_in_region(TruncatedSeries.constant(1.0, 8), DELTA)
        assert probe.max_margin == pytest.approx(-1.0)

    def test_escaping_function_reports_worst_point(self):
        p = TruncatedSeries(np.array([1.0, 0.9], dtype=complex))
        probe = image_in_region(p, DELTA)
        assert not probe.contained
        z, w = probe.worst_point
        # the escape is along the positive real axis, near the rim
        assert abs(z) == pytest.approx(0.999)
        assert abs(z.imag) < 1e-12 and z.real > 0
        assert abs(w * w - 1) == pytest.approx(1.0 + probe.max_margin)
        assert probe.max_margin > 1.5

    def test_anchor_mismatch(self):
        with pytest.raises(NormalizationError):
            image_in_region(TruncatedSeries.constant(1.0, 4), Disk(0j, 0.5))

    def test_callable_evaluator(self):
        # the exact map sends |z| = rho to |w^2 - 1| = rho: margin rho - 1
        probe = image_in_region(lambda z: np.sqrt(1 + z), DELTA)
        assert probe.max_margin == pytest.approx(-1e-3, abs=1e-9)

    def test_margins_monotone_in_radius(self):
        for p in (sqrt_one_plus_z_series(96), random_normalized_p(16, seed=5)):
            per_radius = []
            for rho in (0.9, 0.99, 0.999):
                spec = ProbeSpec(radius=rho)
                per_radius.append(image_in_region(p, DELTA, spec).max_margin)
            assert per_radius == sorted(per_radius)

    @pytest.mark.parametrize("radius", [0.0, 1.0, -0.5, np.nan])
    def test_radius_outside_the_open_unit_interval_is_rejected(self, radius):
        with pytest.raises(ValueError, match="radius"):
            ProbeSpec(radius=radius)


def _three_level_reference(series, region, k=4096):
    """The largest margin over the circles 0.9, 0.99 and 0.999, and where it sat."""
    worst_margin, worst = -np.inf, None
    for rho in (0.9, 0.99, 0.999):
        w = series.values_on_circle(rho, k)
        margins = region.margin(w)
        idx = int(np.argmax(margins))
        if margins[idx] > worst_margin:
            worst_margin = float(margins[idx])
            worst = (complex(rho * np.exp(2j * np.pi * idx / k)), complex(w[idx]))
    return worst_margin, worst


def test_outer_circle_matches_three_level_reference():
    # the maximum principle puts every largest margin on the outermost circle
    for lemma_id, lemma in LEMMAS.items():
        beta, gamma = lemma.default_beta, lemma.default_gamma
        for seed in range(10):
            p = random_normalized_p(16, seed=seed, n_class=lemma.n_class)
            rep = verify_implication(lemma_id, p, beta, gamma)
            hyp = hypothesis_series(lemma, p.pad_to(rep.work_order), beta, gamma)
            for probe, series, region in ((rep.hypothesis_probe, hyp, lemma.region),
                                          (rep.conclusion_probe, p, DELTA)):
                got = (probe.max_margin, probe.worst_point)
                assert got == _three_level_reference(series, region), (lemma_id, seed)


def test_one_circle_evaluation_per_probe(monkeypatch):
    calls = []
    original = TruncatedSeries.values_on_circle

    def counting(self, radius, points):
        calls.append(radius)
        return original(self, radius, points)

    monkeypatch.setattr(TruncatedSeries, "values_on_circle", counting)
    for lemma_id in ("first0", "moebius", "second-weighted"):
        lemma = LEMMAS[lemma_id]
        p = random_normalized_p(16, seed=1, n_class=lemma.n_class)
        calls.clear()
        verify_implication(lemma_id, p, lemma.default_beta, lemma.default_gamma)
        assert calls == [0.999, 0.999]


class TestHypothesisSeries:
    def test_linear_form(self):
        p = TruncatedSeries(np.array([1.0, 0.125], dtype=complex)).pad_to(16)
        hyp = hypothesis_series("first0", p, beta=1.0)
        # p + z p' = 1 + z/8 + z/8
        np.testing.assert_allclose(hyp.coeffs[:2], [1.0, 0.25], atol=1e-14)

    def test_derivative_ratio_form(self):
        p = TruncatedSeries.geometric(24)  # 1/(1-z): z p'/p = z/(1-z)
        hyp = hypothesis_series("ex2", p)
        np.testing.assert_allclose(hyp.coeffs, np.r_[0.0, np.ones(24)], atol=1e-12)

    def test_second_order_form(self):
        p = TruncatedSeries(np.array([1.0, 0.0, 0.25], dtype=complex)).pad_to(8)
        hyp = hypothesis_series("second-sqsum", p)
        # a^2 + z p' + z^2 p'': 1 + (0.5 + 0.5 + 0.5) z^2 + 0.0625 z^4
        np.testing.assert_allclose(hyp.coeffs[:5], [1, 0, 1.5, 0, 0.0625], atol=1e-14)

    @pytest.mark.parametrize("lemma_id", sorted(LEMMAS))
    def test_matches_pointwise_psi(self, lemma_id):
        # series route vs psi applied to the Horner values (p, z p', z^2 p'')
        lemma = LEMMAS[lemma_id]
        beta, gamma = lemma.default_beta, lemma.default_gamma
        p = random_normalized_p(16, seed=7, n_class=lemma.n_class)
        hyp = hypothesis_series(lemma, p.pad_to(96), beta, gamma)
        poly = np.polynomial.Polynomial(p.coeffs)
        z = np.array([0.0, 0.5, -0.5, 0.3 + 0.4j, -0.1 - 0.45j])
        jet = (poly(z), z * poly.deriv(1)(z), z**2 * poly.deriv(2)(z))
        want = lemma.make_form(beta, gamma).value(*jet[: lemma.order + 1])
        np.testing.assert_allclose(hyp.evaluate(z), want, rtol=1e-12, atol=1e-12)


class TestVerifyImplication:
    def test_dominant_itself_is_vacuous_for_the_linear_form(self):
        # at z -> 1 the expression sqrt(1+z) + z (sqrt(1+z))' leaves the target
        rep = verify_implication("first0", sqrt_one_plus_z_series(96), beta=1.0)
        assert rep.status == "vacuous"
        assert not rep.hypothesis_holds

    def test_small_perturbation_is_confirmed(self):
        p = TruncatedSeries(np.array([1.0, 0.125], dtype=complex))
        rep = verify_implication("first0", p, beta=1.0)
        assert rep.status == "confirmed"
        assert rep.hypothesis_holds and rep.conclusion_holds

    def test_class_index_is_enforced(self):
        p = TruncatedSeries(np.array([1.0, 0.125], dtype=complex))
        rep = verify_implication("second-sqsum", p)
        assert not rep.class_ok
        assert rep.status == "vacuous"
        q = TruncatedSeries(np.array([1.0, 0.0, 0.125], dtype=complex))
        rep2 = verify_implication("second-sqsum", q)
        assert rep2.class_ok
        assert rep2.status == "confirmed"

    def test_unnormalized_p_rejected(self):
        with pytest.raises(NormalizationError):
            verify_implication("first0", TruncatedSeries.constant(2.0, 8), beta=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_coefficient_rejected(self, bad):
        p = TruncatedSeries(np.array([1.0, bad, 0.125], dtype=complex))
        with pytest.raises(NormalizationError, match="finite"):
            verify_implication("first0", p, beta=1.0)
        q = TruncatedSeries(np.array([bad, 0.125], dtype=complex))
        with pytest.raises(NormalizationError, match="finite"):
            verify_implication("first0", q, beta=1.0)

    def test_no_counterexamples_on_a_quick_sample(self):
        rng_seeds = range(40, 52)
        for seed in rng_seeds:
            p = random_normalized_p(12, seed=seed)
            for lemma_id, beta, gamma in [("first0", 1.0, None), ("first3", 1.25, None),
                                          ("one0", 1.2, None), ("sq2", 3.0, None),
                                          ("sqrat", 1.0, 1.0), ("moebius", 2.0, None),
                                          ("second-weighted", 0.25, 0.5)]:
                rep = verify_implication(lemma_id, p, beta, gamma)
                assert rep.status != "COUNTEREXAMPLE", (lemma_id, seed)

    def test_adaptive_order_reports(self):
        p = random_normalized_p(12, seed=3)
        rep = verify_implication("first3", p, beta=1.25)
        assert rep.work_order >= 64
        assert rep.tail_ok
        assert isinstance(rep.hypothesis_probe, ImageProbe)


class TestSharpnessProbe:
    def test_near_limit(self):
        val = sharpness_probe_example2(1e-4)
        assert val == pytest.approx(0.25 - 1.25e-5, abs=1e-8)

    def test_midpoint(self):
        assert sharpness_probe_example2(0.5) == pytest.approx(1.0 / 6.0)

    def test_origin(self):
        assert sharpness_probe_example2(1.0) == 0.0

    def test_always_below_the_bound(self):
        deltas = 10.0 ** np.linspace(-6, -0.01, 200)
        vals = np.array([sharpness_probe_example2(d) for d in deltas])
        assert np.all(vals < 0.25)
        assert sharpness_probe_example2(1e-5) == pytest.approx(0.25 - 1.25e-6, abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            sharpness_probe_example2(0.0)
        with pytest.raises(ValueError):
            sharpness_probe_example2(1.5)


class TestGenerators:
    def test_p_generator_contract(self):
        p = random_normalized_p(20, seed=0, n_class=2)
        assert p.coeffs[0] == 1.0
        assert p.coeffs[1] == 0.0
        k = np.arange(2, 21)
        assert np.all(np.abs(p.coeffs[2:]) <= 0.5 / k**2 + 1e-15)

    def test_f_generator_contract(self):
        f = random_normalized_f(20, seed=1)
        assert f.coeffs[0] == 0.0
        assert f.coeffs[1] == 1.0
        p = p_of_f(f)
        assert p.coeffs[0] == 1.0

    def test_seeding_is_reproducible(self):
        a = random_normalized_p(16, seed=9)
        b = random_normalized_p(16, seed=9)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)


def test_f_level_expression_matches_p_level():
    # z f'/f * (1 + (1 + z f''/f' - z f'/f) * beta) == p + beta z p', coefficientwise
    beta = 0.7
    for seed in range(3):
        f = random_normalized_f(40, seed=seed)
        p = p_of_f(f)
        a, b = p, p.derivative().shift_up()
        direct = a + b.scale(beta)
        fp = f.derivative()
        zfpf = (f.shift_down() + f.shift_down().derivative().shift_up()) / f.shift_down()
        zfppfp = (fp.derivative().shift_up()) / fp
        one = TruncatedSeries.constant(1.0, min(zfpf.order, zfppfp.order))
        flevel = zfpf + (zfpf * (one + zfppfp - zfpf)).scale(beta)
        n = min(flevel.order, direct.order, 32)
        np.testing.assert_allclose(flevel.coeffs[: n + 1], direct.coeffs[: n + 1], atol=1e-10)
