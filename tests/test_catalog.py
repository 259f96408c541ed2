import numpy as np
import pytest

from lemniscate.boundary import make_triple
from lemniscate.catalog import (LEMMAS, ArityError, FirstOrderPlus, OnePlus,
                                ParameterError, SecondOrderSum, SquarePlus,
                                UnknownLemmaError, closed_form_g,
                                direct_objective, evaluate, get_lemma,
                                min_g_formula)

SQRT2 = np.sqrt(2.0)

WITH_CLOSED_FORM = sorted(k for k, v in LEMMAS.items() if v.closed_g is not None)


def draw_params(lemma, rng):
    if lemma.params == "none":
        return None, None
    beta = rng.uniform(1e-3, 10.0)
    if lemma.params == "beta-complex" and rng.uniform() < 0.5:
        beta = complex(beta, rng.uniform(-10.0, 10.0))
    gamma = rng.uniform(1e-3, 10.0) if lemma.params == "beta-gamma" else None
    return beta, gamma


class TestEvaluate:
    def test_first_order_plus_cubic_denominator(self):
        form = FirstOrderPlus(3, 2.0)
        psi = evaluate(form, make_triple(0.0, 1.0))
        # sqrt(2) + 2*(1/(2 sqrt 2))/(2 sqrt 2) = sqrt(2) + 1/4
        assert psi == pytest.approx(SQRT2 + 0.25)

    def test_one_plus(self):
        psi = evaluate(OnePlus(0, 1.0), make_triple(0.0, 1.0))
        assert psi == pytest.approx(1 + 1 / (2 * SQRT2))

    def test_second_order_with_t(self):
        psi = evaluate(SecondOrderSum(), make_triple(0.0, 1.0), t=0j)
        assert psi == pytest.approx(1 / (2 * SQRT2))

    def test_arity_errors(self):
        triple = make_triple(0.0, 1.0)
        with pytest.raises(ArityError):
            evaluate(SecondOrderSum(), triple)
        with pytest.raises(ArityError):
            evaluate(OnePlus(0, 1.0), triple, t=1j)


class TestClosedFormExamples:
    def test_one0_at_beta_two(self):
        # 16/64 + 8/(4 sqrt 2) + 4/2
        val = closed_form_g("one0", 0.0, 1.0, beta=2.0)
        assert val == pytest.approx(0.25 + SQRT2 + 2.0)
        assert val == pytest.approx(3.6642135623730)

    def test_one0_at_its_bound_is_exactly_one(self):
        assert closed_form_g("one0", 0.0, 1.0, beta=4 - 2 * SQRT2) == pytest.approx(1.0, abs=1e-12)

    def test_moebius_at_its_bound_is_exactly_one(self):
        # 4*(2)^2 / (4 + 8 + 4)
        assert closed_form_g("moebius", 0.0, 1.0, beta=2.0) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_lemma(self):
        with pytest.raises(UnknownLemmaError):
            closed_form_g("nope", 0.0, 1.0)


class TestMinGExamples:
    def test_first3(self):
        # 1 + 2/sqrt(2) + 20/32 + 8/(64 sqrt 2) + 16/4096, frozen from direct arithmetic
        expected = 1 + 2 / SQRT2 + 0.625 + 8 / (64 * SQRT2) + 16 / 4096
        assert expected == pytest.approx(3.1315081600214131)
        assert min_g_formula("first3", 1.0, beta=2.0) == pytest.approx(expected, rel=1e-14)

    def test_first4_all_beta_terms_vanish(self):
        assert min_g_formula("first4", 1.0, beta=0.0) == pytest.approx(1.0)

    def test_sq2(self):
        # 1 + 8/32 + 2 sqrt2/(2 sqrt2)
        assert min_g_formula("sq2", 1.0, beta=2 * SQRT2) == pytest.approx(2.25)

    def test_matches_closed_form_at_center(self):
        rng = np.random.default_rng(31)
        for lemma_id in WITH_CLOSED_FORM:
            lemma = LEMMAS[lemma_id]
            if lemma.min_g is None:
                continue
            for _ in range(25):
                beta, gamma = draw_params(lemma, rng)
                m = rng.uniform(1.0, 8.0)
                a = min_g_formula(lemma_id, m, beta, gamma)
                b = closed_form_g(lemma_id, 0.0, m, beta, gamma)
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


class TestOracleEquivalence:
    """The catalogued closed forms against raw substitution into psi."""

    @pytest.mark.parametrize("lemma_id", WITH_CLOSED_FORM)
    def test_direct_vs_closed(self, lemma_id):
        lemma = LEMMAS[lemma_id]
        rng = np.random.default_rng(hash(lemma_id) % 2**32)
        worst = 0.0
        for _ in range(100):
            beta, gamma = draw_params(lemma, rng)
            theta = rng.uniform(-np.pi / 4 + 1e-6, np.pi / 4 - 1e-6, 100)
            m = rng.uniform(1.0, 8.0, 100)
            direct = direct_objective(lemma_id, theta, m, beta, gamma)
            closed = closed_form_g(lemma_id, theta, m, beta, gamma)
            err = np.max(np.abs(direct - closed) / np.maximum(1.0, np.abs(closed)))
            worst = max(worst, float(err))
        assert worst < 1e-9, f"{lemma_id}: worst rel err {worst:.3e}"

    @pytest.mark.parametrize("lemma_id", WITH_CLOSED_FORM)
    def test_even_in_theta(self, lemma_id):
        lemma = LEMMAS[lemma_id]
        rng = np.random.default_rng(1 + hash(lemma_id) % 2**32)
        beta, gamma = draw_params(lemma, rng)
        theta = rng.uniform(0, np.pi / 4 - 1e-6, 500)
        m = rng.uniform(1.0, 8.0, 500)
        plus = closed_form_g(lemma_id, theta, m, beta, gamma)
        minus = closed_form_g(lemma_id, -theta, m, beta, gamma)
        assert np.allclose(plus, minus, rtol=1e-13, atol=0)


class TestFormValidation:
    def test_exponent_ranges(self):
        with pytest.raises(ParameterError):
            FirstOrderPlus(5, 1.0)
        with pytest.raises(ParameterError):
            SquarePlus(3, 1.0)
        with pytest.raises(ParameterError):
            OnePlus(-1, 1.0)

    def test_complex_beta_only_for_the_product_form(self):
        SquarePlus(-1, 1 + 2j)  # fine
        with pytest.raises(ParameterError):
            SquarePlus(0, 1 + 2j)
        with pytest.raises(ParameterError):
            FirstOrderPlus(0, 1j)

    def test_positivity(self):
        with pytest.raises(ParameterError):
            OnePlus(0, -1.0)
        with pytest.raises(ParameterError):
            SquarePlus(-1, -0.5 + 1j)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(1.0, np.nan),
                                     complex(np.inf, 1.0)])
    def test_non_finite_coefficients(self, bad):
        for lemma in LEMMAS.values():
            if lemma.params == "none":
                continue
            with pytest.raises(ParameterError, match="finite"):
                lemma.make_form(bad, lemma.default_gamma)
            if lemma.params == "beta-gamma":
                with pytest.raises(ParameterError, match="finite"):
                    lemma.make_form(lemma.default_beta, bad)

    def test_real_beta_lemmas_reject_complex_beta(self):
        # moebius builds the complex-capable SquarePlus(-1, .), yet its oracle
        # and its params declare a real beta
        for lemma in LEMMAS.values():
            if lemma.params == "beta":
                with pytest.raises(ParameterError, match="real"):
                    lemma.make_form(lemma.default_beta + 1j)
        assert get_lemma("moebius").make_form(2.0).beta == 2.0
        assert get_lemma("sq-1").make_form(1 + 2j).beta == 1 + 2j

    def test_lemma_param_arity(self):
        with pytest.raises(ParameterError):
            get_lemma("ex1").make_form(beta=1.0)
        with pytest.raises(ParameterError):
            get_lemma("one0").make_form()
        with pytest.raises(ParameterError):
            get_lemma("sqrat").make_form(beta=1.0)
        with pytest.raises(ParameterError):
            get_lemma("one0").make_form(beta=1.0, gamma=1.0)


def test_catalog_shape():
    assert len(LEMMAS) == 20
    assert sorted(LEMMAS) == sorted([
        "first0", "first1", "first2", "first3", "first4",
        "sq-1", "sq0", "sq1", "sq2", "sqrat",
        "one0", "one1", "one2", "ex1", "ex2", "ex3", "moebius",
        "second-sum", "second-sqsum", "second-weighted",
    ])
    assert get_lemma("second-sqsum").n_class == 2
    assert get_lemma("second-sum").order == 2
    assert get_lemma("first0").order == 1
