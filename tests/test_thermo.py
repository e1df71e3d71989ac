import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from noisymarkov.errors import (
    DivisionNearZeroError,
    InsufficientContextError,
    NoisyMarkovError,
    OutOfRangeError,
)
from noisymarkov.model import channel_model, validate_params
from noisymarkov.simulate import generate_dataset
from noisymarkov.thermo import (
    bowen_gibbs_certificate,
    bowen_gibbs_ratio,
    coboundary,
    decay_rate_bound,
    g_continued_fraction,
    g_continued_fraction_detail,
    g_function,
    gibbs_potential,
    limit_field,
    pressure,
    required_context,
    variation_estimate,
)
from noisymarkov import thermo, transfer
from noisymarkov.transfer import (
    conditional_prob,
    extended_fields,
    field_shift,
    log2cosh,
    log_partition_term,
    two_sided_conditional,
    two_sided_limit_conditional,
)

from conftest import PARAM_GRID, random_word, second_iterate_product, second_iterate_sup
from test_reader_digests import CELLS as DIGEST_CELLS
from test_reader_digests import WORDS as DIGEST_WORDS

M_REF = channel_model(0.2, 0.1)

#: positive root of t^2 - 1.6 t + 0.216 = 0, divided by 2: the all-ones g at (0.2, 0.1)
G_ALL_ONES = (1.6 + math.sqrt(1.6**2 - 4 * 0.216)) / 4.0


def compose_tail_field(model, s0, s1, iters=500):
    """Limit field of the 2-periodic tail (s0, s1, s0, s1, ...) by iterating the pair map."""
    w = 0.0
    for _ in range(iters):
        w = model.K * s0 + float(field_shift(model.K * s1 + float(field_shift(w, model)), model))
    return w


class TestDecayRateBound:
    def test_no_memory_at_half(self):
        bound = decay_rate_bound(validate_params(0.5, 0.3))
        assert bound.rho == 0.0
        assert bound.regime == "naive"
        assert bound.C == bound.C1

    def test_clean_channel_closed_form(self):
        bound = decay_rate_bound(validate_params(0.2, 0.05))
        assert bound.regime == "eps_lt_p"
        assert bound.rho == pytest.approx(57.0 / 140.0, abs=1e-12)

    def test_second_iterate_regression(self):
        # frozen regression baseline; a 50-digit maximisation of the two-step product
        # gives 0.57507496852255500819 at w* = -0.18440
        bound = decay_rate_bound(validate_params(0.2, 0.3))
        assert bound.regime == "second_iterate"
        assert bound.rho == pytest.approx(0.575074968522555, abs=1e-9)
        assert bound.rho < 0.6

    def test_noninformative_channel_degenerates_to_naive(self):
        bound = decay_rate_bound(validate_params(0.2, 0.5))
        assert bound.regime == "naive"
        assert bound.rho == pytest.approx(0.6, abs=1e-14)

    def test_always_improves_on_naive(self):
        for p, eps in PARAM_GRID:
            bound = decay_rate_bound(validate_params(p, eps))
            naive = abs(1.0 - 2.0 * p)
            assert bound.rho <= naive
            assert bound.rho < naive - 1e-9  # strict on the whole grid (eps not in {0, 1/2, 1})
            assert 0.0 < bound.rho < 1.0
            assert bound.C == pytest.approx(bound.C1 / (1.0 - bound.rho), rel=1e-14)

    def test_regime_selection(self):
        for p, eps in PARAM_GRID:
            bound = decay_rate_bound(validate_params(p, eps))
            assert bound.regime == ("eps_lt_p" if eps < p else "second_iterate")

    def test_symmetry_folding(self):
        base = decay_rate_bound(validate_params(0.2, 0.1))
        assert decay_rate_bound(validate_params(0.2, 0.9)).rho == pytest.approx(base.rho, rel=1e-14)
        assert decay_rate_bound(validate_params(0.8, 0.1)).rho == pytest.approx(base.rho, rel=1e-14)

    def test_unvalidated_cell_is_refused(self):
        # the bound validates (p, epsilon) itself rather than trusting a duck-typed cell
        with pytest.raises(OutOfRangeError, match="strictly inside"):
            decay_rate_bound(SimpleNamespace(p=1.5, epsilon=0.2))

    def test_couplings_carry_the_certificate_of_their_cell(self):
        for p, eps in PARAM_GRID:
            model = channel_model(p, eps)
            assert decay_rate_bound(validate_params(p, eps)) == decay_rate_bound(model)
            assert decay_rate_bound(model) is model.decay

    def test_existing_couplings_are_not_validated_again(self, monkeypatch):
        model = channel_model(0.2, 0.1)

        def refuse(p, epsilon):
            raise AssertionError("the cell's certificate was derived again")

        monkeypatch.setattr(transfer, "channel_model", refuse)
        context = required_context(1e-9, model)
        assert context >= 1
        assert transfer.decay_rate_bound(model) is model.decay
        assert 0.0 < g_function(np.ones(context + 1, dtype=np.int8), 1e-9, model) < 1.0
        assert 0.0 < bowen_gibbs_certificate(model).C_lower

    def test_holder_exponent(self):
        bound = decay_rate_bound(validate_params(0.2, 0.05))
        assert bound.theta == pytest.approx(-math.log2(bound.rho), rel=1e-14)

    def test_second_iterate_closed_form_factorization(self, rng):
        # |A'(K + A(w)) A'(w)| = (1-2p)^2 / ((alpha+(1-alpha)cosh(2K+2A(w)))(alpha+(1-alpha)cosh 2w))
        m = channel_model(0.2, 0.3)
        w = rng.uniform(-2.5, 2.5, size=500)
        lhs = second_iterate_product(w, m)
        shift = field_shift(w, m)
        a = (1.0 - m.p) ** 2 + m.p**2
        one_m_a = 1.0 - a
        rhs = (1.0 - 2.0 * m.p) ** 2 / (
            (a + one_m_a * np.cosh(2 * m.K + 2 * shift)) * (a + one_m_a * np.cosh(2 * w))
        )
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_second_iterate_strictly_below_naive_square(self):
        for p, eps in PARAM_GRID:
            sup2 = second_iterate_sup(channel_model(p, eps))
            assert sup2 < (1.0 - 2.0 * p) ** 2 - 1e-9

    def test_second_iterate_closed_form_matches_search(self):
        cells = [(p, eps) for p, eps in PARAM_GRID if eps >= p]
        cells += [tuple(c) for c in np.random.default_rng(7).uniform(0.01, 0.49, size=(200, 2))]
        checked = 0
        for p, eps in cells:
            m = channel_model(p, eps)
            bound = decay_rate_bound(m)
            if bound.regime != "second_iterate":
                continue
            checked += 1
            assert bound.rho == pytest.approx(math.sqrt(second_iterate_sup(m)), rel=1e-14)
            # the peak u* = exp(-2 w*) lies inside the invariant field interval
            r2c = m.r**2 * m.c
            u_star = math.sqrt((1.0 + r2c) / (m.r**2 + m.c))
            assert math.exp(-2.0 * bound.C1) <= u_star <= math.exp(2.0 * bound.C1)
            w_star = -0.5 * math.log(u_star)
            assert float(second_iterate_product(w_star, m)) == pytest.approx(bound.rho**2, rel=1e-14)
        assert checked > 100

    @pytest.mark.parametrize(
        "p,eps,rho",
        [
            # the supremum to 50 digits, rounded: 2.000000165480741998180743e-10
            (0.4999999999, 0.499999999999, 2.000000165480742e-10),
            # 2.000000000057510929032423e-07
            (0.4999999, 0.49999999, 2.0000000000575108e-07),
        ],
    )
    def test_second_iterate_near_half(self, p, eps, rho):
        bound = decay_rate_bound(validate_params(p, eps))
        assert bound.regime == "second_iterate"
        assert abs(bound.rho - rho) <= 4 * math.ulp(rho)

    @pytest.mark.parametrize("p,eps", [(1e-17, 0.2), (1e-300, 1e-300)])
    @pytest.mark.parametrize(
        "query",
        [
            decay_rate_bound,
            lambda m: required_context(1e-9, m),
            lambda m: g_function([1, -1, 1], 1e-9, m),
            bowen_gibbs_certificate,
        ],
        ids=["decay_rate_bound", "required_context", "g_function", "bowen_gibbs_certificate"],
    )
    def test_no_certificate_where_rho_rounds_to_one(self, p, eps, query):
        # the transfer layer stays exact here, so validate_params accepts the cell
        model = channel_model(p, eps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRangeError, match="1 - rho"):
                query(model)


class TestLimitField:
    def test_noninformative_channel(self):
        m = channel_model(0.2, 0.5)
        assert limit_field(np.ones(80, dtype=np.int8), 1e-6, m) == 0.0

    def test_all_ones_fixed_point(self):
        w = limit_field(np.ones(50, dtype=np.int8), 1e-4, M_REF)
        assert w == pytest.approx(1.7372056530, abs=1e-4)

    def test_alternating_tail_periodic_orbit(self):
        y = np.array([(-1) ** i for i in range(60)], dtype=np.int8)
        # independent oracle: converge the composed two-symbol map
        expected = compose_tail_field(M_REF, 1, -1)
        # the repeat-extension of the alternating word differs from the periodic
        # continuation only beyond the horizon; compare on a long prefix instead
        from noisymarkov.transfer import backward_fields

        got = backward_fields(y, M_REF).values[0]
        assert got == pytest.approx(expected, abs=1e-9)

    def test_insufficient_context(self):
        with pytest.raises(InsufficientContextError):
            limit_field(np.ones(3, dtype=np.int8), 1e-9, M_REF)

    def test_required_context_certifies(self):
        for tol in (1e-3, 1e-8, 1e-12):
            n = required_context(tol, M_REF)
            bound = decay_rate_bound(M_REF)
            assert bound.C * bound.rho**n < tol
            assert bound.C * bound.rho ** (n - 1) >= tol or n == 1

    def test_nonpositive_tol_is_package_error(self):
        with pytest.raises(NoisyMarkovError):
            required_context(0.0, M_REF)

    def test_tolerance_respected_against_extension(self, rng):
        # any continuation changes the value by less than the certificate
        tol = 1e-7
        prefix = random_word(rng, required_context(tol, M_REF))
        base = limit_field(prefix, tol, M_REF)
        for _ in range(5):
            longer = np.concatenate([prefix, random_word(rng, 40)])
            assert abs(limit_field(longer, tol, M_REF) - base) < tol


class TestGFunction:
    def test_noninformative_channel(self, rng):
        m = channel_model(0.2, 0.5)
        assert g_function(random_word(rng, 80), 1e-6, m) == pytest.approx(0.5, abs=1e-15)

    def test_all_ones_value(self):
        g = g_function(np.ones(80, dtype=np.int8), 1e-8, M_REF)
        assert g == pytest.approx(G_ALL_ONES, rel=1e-12)
        assert g == pytest.approx(0.72558, abs=1e-5)

    def test_normalization(self, rng):
        for _ in range(20):
            tail = random_word(rng, 60)
            total = g_function(np.concatenate([[1], tail]), 1e-12, M_REF) + g_function(
                np.concatenate([[-1], tail]), 1e-12, M_REF
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_ratio_form_agrees(self, rng):
        # g = cosh(w0) exp(B(w1)) / (lam cosh(w1)) with limit fields
        for _ in range(20):
            y = random_word(rng, 70)
            g = g_function(y, 1e-13, M_REF)
            fields = extended_fields(y, M_REF)
            w0, w1 = fields[0], fields[1]
            alt = (
                math.exp(float(log2cosh(w0)) - float(log2cosh(w1)) + float(log_partition_term(w1, M_REF)))
                / M_REF.lam
            )
            assert g == pytest.approx(alt, rel=1e-12)

    def test_range(self, rng):
        for _ in range(50):
            g = g_function(random_word(rng, 60), 1e-10, M_REF)
            assert 0.0 < g < 1.0

    def test_conditional_probability_convergence(self, rng):
        # |Q(y0 | y_1^n) - g(y)| <= C rho^n, additive floor = float resolution of g
        from noisymarkov.transfer import conditional_prob

        for p, eps in [(0.2, 0.1), (0.3, 0.35)]:
            model = channel_model(p, eps)
            bound = decay_rate_bound(model)
            y = random_word(np.random.default_rng(5), 200)
            g = g_function(y, 1e-14, model)
            for n in range(1, 61):
                cond = conditional_prob(int(y[0]), y[1 : n + 1], model)
                assert abs(cond - g) <= bound.C * bound.rho**n + 1e-15

    def test_needs_tail(self):
        with pytest.raises(InsufficientContextError):
            g_function(np.array([1]), 1e-6, M_REF)

    @pytest.mark.parametrize("cell", [*DIGEST_CELLS, (0.45, 0.45), (0.2, 0.1)], ids=str)
    def test_one_formula_for_every_conditional(self, cell, rng):
        # bit for bit, g is the limit conditional with no left side, and the one-sided conditional
        # the two-sided one with no left side: one helper computes every Q(y | context)
        params = validate_params(*cell)
        words = [generate_dataset(params, *DIGEST_WORDS[name]).y.symbols for name in sorted(DIGEST_WORDS)]
        words = [s[i:] for s in words for i in (0, 1, len(s) // 2, len(s) - 2)]
        words += [random_word(rng, int(n)) for n in rng.integers(2, 40, size=300)]
        certified = params.decay is not None
        for y in words:
            y0, tail = int(y[0]), y[1:]
            assert conditional_prob(y0, tail, params).hex() == two_sided_conditional(y0, [], tail, params).hex()
            if certified:  # a tolerance that every context meets
                assert (g_function(y, 1e300, params).hex()
                        == two_sided_limit_conditional(y0, [], tail, 1e300, params).hex()), (cell, len(y))


class TestContinuedFraction:
    def test_noninformative_channel_exact_half(self, rng):
        m = channel_model(0.2, 0.5)
        for depth in (1, 7, 50):
            y = random_word(rng, depth + 1)
            assert g_continued_fraction(y, depth, m) == 0.5

    def test_all_ones_matches_quadratic_root(self):
        g = g_continued_fraction(np.ones(250, dtype=np.int8), 200, M_REF)
        assert g == pytest.approx(G_ALL_ONES, rel=1e-12)

    def test_agrees_with_recursion(self, rng):
        worst = 0.0
        for _ in range(200):
            y = random_word(rng, 230)
            worst = max(
                worst,
                abs(g_function(y, 1e-13, M_REF) - g_continued_fraction(y, 200, M_REF)),
            )
        assert worst < 1e-10

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            g_continued_fraction(np.ones(10, dtype=np.int8), 0, M_REF)
        with pytest.raises(InsufficientContextError):
            g_continued_fraction(np.ones(10, dtype=np.int8), 10, M_REF)

    def test_detail_diagnostics(self):
        detail = g_continued_fraction_detail(np.ones(250, dtype=np.int8), 200, M_REF)
        assert detail.depth == 200
        assert detail.min_denominator > 0.1
        assert detail.tail_sensitivity < 1e-100  # strongly contracting at this point

    @pytest.mark.parametrize("p, eps", [(0.2, 0.1), (0.02, 0.3), (0.7, 0.2), (0.3, 0.8)])
    def test_detail_equals_plain_recurrence(self, p, eps, rng):
        # the recurrence written out level by level, as the reference for every field
        m = channel_model(p, eps)
        t2p, four_ee = 1.0 - 2.0 * p, 4.0 * eps * (1.0 - eps)
        for depth in (1, 2, 17, 300):
            y = random_word(rng, depth + 1)
            u = thermo._tail_value(t2p, 1.0 - 2.0 * eps)
            sizes, sensitivity = [abs(u)], 1.0
            for i in range(depth - 1, -1, -1):
                q = t2p * float(y[i]) * float(y[i + 1])
                sensitivity *= abs(four_ee * q) / (u * u)
                u = (1.0 + q) - four_ee * q / u
                sizes.append(abs(u))
            detail = g_continued_fraction_detail(y, depth, m)
            assert detail.value.hex() == (0.5 * u).hex()
            assert detail.min_denominator.hex() == min(sizes).hex()
            assert detail.tail_sensitivity.hex() == sensitivity.hex()

    def test_near_zero_denominator_guard(self, rng, monkeypatch):
        # force the tail value onto the preimage of zero to exercise the guard
        y = np.ones(12, dtype=np.int8)
        t2p = 1.0 - 2.0 * M_REF.p
        a1 = 1.0 + t2p
        b1 = 4.0 * M_REF.epsilon * (1.0 - M_REF.epsilon) * t2p
        monkeypatch.setattr(thermo, "_tail_value", lambda q, f: b1 / a1 + 1e-16)
        with pytest.raises(DivisionNearZeroError):
            g_continued_fraction(y, 5, M_REF)


class TestPotentialAndCoboundary:
    def test_potential_flat_channel(self):
        m = channel_model(0.2, 0.5)
        assert gibbs_potential(np.ones(80, dtype=np.int8), 1e-9, m) == pytest.approx(
            math.log(2.5), rel=1e-14
        )

    def test_potential_two_forms(self, rng):
        # B(w0) = (1/2) log(4 sinh^2(w0) + 1/(p(1-p)))
        for p, eps in [(0.2, 0.1), (0.5, 0.2), (0.3, 0.35)]:
            model = channel_model(p, eps)
            length = max(60, required_context(1e-12, model) + 1)
            y = random_word(rng, length)
            phi = gibbs_potential(y, 1e-12, model)
            w0 = limit_field(y, 1e-12, model)
            other = 0.5 * math.log(4.0 * math.sinh(w0) ** 2 + 1.0 / (p * (1.0 - p)))
            assert phi == pytest.approx(other, rel=1e-12)

    def test_potential_all_ones(self):
        phi = gibbs_potential(np.ones(80, dtype=np.int8), 1e-10, M_REF)
        w = limit_field(np.ones(80, dtype=np.int8), 1e-10, M_REF)
        assert phi == pytest.approx(float(log_partition_term(w, M_REF)), rel=1e-14)

    def test_coboundary_flat_channel(self):
        m = channel_model(0.2, 0.5)
        assert coboundary(np.ones(80, dtype=np.int8), 1e-9, m) == pytest.approx(0.4, rel=1e-14)

    def test_coboundary_identity(self, rng):
        # g = (e^phi / lam) h(y) / h(Sy)
        for _ in range(25):
            y = random_word(rng, 120)
            g = g_function(y, 1e-13, M_REF)
            lhs = (
                math.exp(gibbs_potential(y, 1e-13, M_REF))
                / M_REF.lam
                * coboundary(y, 1e-13, M_REF)
                / coboundary(y[1:], 1e-13, M_REF)
            )
            assert g == pytest.approx(lhs, abs=1e-10)

    def test_coboundary_positive_and_shift_covariant(self, rng):
        y = random_word(rng, 150)
        for i in (0, 3, 17):
            h_offset = math.cosh(extended_fields(y, M_REF)[i]) * math.exp(
                -float(log_partition_term(extended_fields(y, M_REF)[i], M_REF))
            )
            h_shifted = coboundary(y[i:], 1e-12, M_REF)
            assert h_offset == pytest.approx(h_shifted, rel=1e-12)
            assert h_shifted > 0.0


class TestPressure:
    def test_symmetric_point(self):
        assert pressure(channel_model(0.5, 0.5)) == pytest.approx(math.log(4.0), rel=1e-14)

    def test_reference_point(self):
        assert pressure(M_REF) == pytest.approx(math.log(25.0 / 3.0), rel=1e-14)


class TestBowenGibbs:
    def test_certificate_sanity(self):
        cert = bowen_gibbs_certificate(M_REF)
        assert cert.pressure == pytest.approx(math.log(25.0 / 3.0), rel=1e-14)
        assert 0.0 < cert.C_lower <= cert.C_upper
        assert cert.C_upper / cert.C_lower >= 1.0

    def test_flat_channel_ratio_is_constant(self, rng):
        m = channel_model(0.2, 0.5)
        cert = bowen_gibbs_certificate(m)
        for n in (1, 5, 20, 80):
            ratio = bowen_gibbs_ratio(random_word(rng, n), m)
            assert ratio == pytest.approx(1.0, rel=1e-12)
            assert cert.C_lower <= ratio <= cert.C_upper

    def test_ratios_within_certificate(self, rng):
        cert = bowen_gibbs_certificate(M_REF)
        for _ in range(500):
            y = random_word(rng, int(rng.integers(1, 101)))
            ratio = bowen_gibbs_ratio(y, M_REF)
            assert cert.C_lower <= ratio <= cert.C_upper

    def test_ratio_stabilizes_along_declared_continuation(self, rng):
        # growing the cylinder into the declared constant tail: Cauchy property
        y = np.concatenate([random_word(rng, 100), np.ones(300, dtype=np.int8)])
        r200 = bowen_gibbs_ratio(y[:200], M_REF)
        r400 = bowen_gibbs_ratio(y[:400], M_REF)
        assert abs(r200 - r400) < 1e-6

    def test_ratio_survives_long_words(self, rng):
        # raw Q underflows near length 340 at this pressure; log-space must not
        ratio = bowen_gibbs_ratio(random_word(rng, 400), M_REF)
        assert math.isfinite(ratio) and ratio > 0.0


class TestVariationEstimate:
    def test_flat_channel_no_variation(self):
        m = channel_model(0.2, 0.5)
        assert variation_estimate(5, 16, m, seed=1) == 0.0

    def test_bound_at_reference_point(self):
        m = channel_model(0.2, 0.05)
        bound = decay_rate_bound(m)
        v = variation_estimate(10, 64, m, seed=7)
        assert v <= bound.C * bound.rho**10

    def test_non_increasing(self):
        m = channel_model(0.2, 0.05)
        values = [variation_estimate(n, 32, m, seed=3) for n in range(1, 16)]
        for lo, hi in zip(values[1:], values[:-1]):
            assert lo <= hi * (1.0 + 1e-9) + 1e-15

    def test_deterministic(self):
        m = channel_model(0.3, 0.2)
        assert variation_estimate(6, 16, m, seed=5) == variation_estimate(6, 16, m, seed=5)

    def test_validation(self):
        with pytest.raises(ValueError):
            variation_estimate(0, 16, M_REF, seed=1)
        with pytest.raises(ValueError):
            variation_estimate(3, 0, M_REF, seed=1)
