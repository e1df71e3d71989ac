import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from noisymarkov.denoise import (
    PosteriorMarginals,
    bfp_denoise,
    bit_error_rate,
    default_context_length,
    dude,
    dude_detail,
    emission_column,
    emission_inverse,
    emission_matrix,
    estimate_p_moment,
    forward_backward,
    gibbs_denoise,
    map_denoise,
    posterior_from_two_sided,
    _posterior_batch,
)
from noisymarkov.errors import (
    InsufficientContextError,
    LengthMismatchError,
    NoisyMarkovError,
    OutOfRangeError,
    SingularChannelError,
)
from noisymarkov.model import channel_model, validate_params
from noisymarkov.oracle import code_to_spins
from noisymarkov.simulate import generate_dataset
from noisymarkov.transfer import two_sided_conditional

from conftest import alpha_beta_posteriors, random_word

P_REF = validate_params(0.2, 0.1)
M_REF = channel_model(0.2, 0.1)


class TestEmissionMatrix:
    def test_row_stochastic(self):
        pi = emission_matrix(0.3)
        np.testing.assert_allclose(pi.sum(axis=1), [1.0, 1.0])
        assert pi[0, 0] == 0.7  # P(Y=-1 | X=-1)
        assert pi[1, 0] == 0.3  # P(Y=-1 | X=+1)

    def test_inverse_is_printed_form(self):
        eps = 0.25
        pinv = emission_inverse(eps)
        np.testing.assert_allclose(
            pinv, np.array([[1 - eps, -eps], [-eps, 1 - eps]]) / (1 - 2 * eps)
        )
        np.testing.assert_allclose(pinv @ emission_matrix(eps), np.eye(2), atol=1e-14)

    def test_singular_at_half(self):
        with pytest.raises(SingularChannelError):
            emission_inverse(0.5)

    def test_column(self):
        np.testing.assert_allclose(emission_column(0.1, 1), [0.1, 0.9])
        np.testing.assert_allclose(emission_column(0.1, -1), [0.9, 0.1])

    def test_bad_symbol_is_package_error(self):
        with pytest.raises(NoisyMarkovError):
            emission_column(0.1, 0)


class TestForwardBackward:
    def test_single_symbol_bayes(self):
        post = forward_backward([1], P_REF)
        assert post.q_plus[0] == pytest.approx(0.9, rel=1e-12)
        assert post.q_minus[0] == pytest.approx(0.1, rel=1e-12)

    def test_two_symbols_hand_enumeration(self):
        # P(X_1=+1, y=(+1,+1)) = 0.333, Q(+1,+1) = 0.346
        post = forward_backward([1, 1], P_REF)
        assert post.q_plus[0] == pytest.approx(0.333 / 0.346, rel=1e-12)

    def test_uninformative_channel(self, rng):
        post = forward_backward(random_word(rng, 9), validate_params(0.2, 0.5))
        np.testing.assert_allclose(post.q_plus, 0.5, atol=1e-14)

    def test_rows_normalized(self, rng):
        post = forward_backward(random_word(rng, 200), P_REF)
        np.testing.assert_allclose(post.q_plus + post.q_minus, 1.0, atol=1e-12)


class TestPosteriorFromTwoSided:
    def test_point_mass_recovery(self):
        # X deterministic: q2 is the corresponding emission column mixture
        eps = 0.1
        q2 = np.array([eps, 1.0 - eps])  # law of Y given X = +1
        post = posterior_from_two_sided(q2, 1, P_REF)
        np.testing.assert_allclose(post, [0.0, 1.0], atol=1e-12)

    def test_hand_arithmetic(self):
        post = posterior_from_two_sided(np.array([0.5, 0.5]), 1, validate_params(0.3, 0.25))
        np.testing.assert_allclose(post, [0.25, 0.75], rtol=1e-14)

    def test_negative_intermediate_warns_and_clamps(self):
        with pytest.warns(UserWarning):
            post = posterior_from_two_sided(np.array([1.0, 0.0]), -1, P_REF)
        assert post[0] == pytest.approx(1.0)
        assert post[1] == 0.0

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            posterior_from_two_sided(np.array([0.9, 0.9]), 1, P_REF)
        with pytest.raises(ValueError):
            posterior_from_two_sided(np.array([-0.2, 1.2]), 1, P_REF)

    def test_singular_channel(self):
        with pytest.raises(SingularChannelError):
            posterior_from_two_sided(np.array([0.5, 0.5]), 1, validate_params(0.2, 0.5))

    def test_bad_symbol_is_package_error(self):
        with pytest.raises(NoisyMarkovError):
            posterior_from_two_sided(np.array([0.5, 0.5]), 0, P_REF)

    def test_exhaustive_identity_with_forward_backward(self):
        # exact two-sided conditionals mapped through the channel inversion
        # must reproduce the forward-backward posteriors at every position,
        # and those must equal the alpha/beta oracle, which shares no code
        # with the transfer recursion that both sides of the identity use
        worst = 0.0
        worst_oracle = 0.0
        for n in range(1, 10):
            for code in range(1 << n):
                y = code_to_spins(code, n)
                post = forward_backward(y, P_REF)
                oracle_minus, oracle_plus = alpha_beta_posteriors(y, P_REF.p, P_REF.epsilon)
                worst_oracle = max(
                    worst_oracle,
                    float(np.max(np.abs(post.q_minus - oracle_minus))),
                    float(np.max(np.abs(post.q_plus - oracle_plus))),
                )
                for i in range(n):
                    q2 = np.array(
                        [
                            two_sided_conditional(-1, y[:i], y[i + 1 :], M_REF),
                            two_sided_conditional(1, y[:i], y[i + 1 :], M_REF),
                        ]
                    )
                    mapped, _ = _posterior_batch(q2[None, :], y[i : i + 1], P_REF.epsilon)
                    worst = max(
                        worst,
                        abs(mapped[0, 0] - post.q_minus[i]),
                        abs(mapped[0, 1] - post.q_plus[i]),
                    )
        assert worst < 1e-10
        assert worst_oracle < 1e-10


class TestDude:
    def test_default_context_length(self):
        assert default_context_length(2) == 1
        assert default_context_length(1_000_000) == 10
        assert default_context_length(2**40) == 12

    def test_counts_on_reference_string(self):
        result = dude_detail(np.array([1, 1, -1, 1, 1]), 0.1, k=1)
        # m(+, -, +) = 1 and m(+, +, +) = 0, so the center estimate is a point mass on -1
        np.testing.assert_allclose(result.q2[1], [1.0, 0.0])
        assert np.array_equal(result.xhat.symbols, [1, 1, -1, 1, 1])
        assert result.k == 1

    def test_constant_sequence_passthrough(self):
        y = np.ones(60, dtype=np.int8)
        assert np.array_equal(dude(y, 0.05, k=2).symbols, y)

    def test_too_short(self):
        with pytest.raises(InsufficientContextError):
            dude(np.ones(5, dtype=np.int8), 0.1, k=2)  # n = 2k + 1 has no usable statistics

    def test_nonpositive_context_is_package_error(self):
        with pytest.raises(NoisyMarkovError):
            dude(np.ones(10, dtype=np.int8), 0.1, k=0)
        with pytest.raises(OutOfRangeError):
            default_context_length(0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, None])
    def test_q2_equals_window_recount(self, k):
        y = _count_word(k)
        n = len(y)
        k_used = _default_k(n) if k is None else k
        m_minus, m_plus = _context_counts(y, 2 * k_used + 1, k_used)
        result = dude_detail(y, 0.2, k)
        assert result.k == k_used
        tot = m_minus + m_plus
        assert np.array_equal(result.q2, np.stack([m_minus / tot, m_plus / tot], axis=1))

    def test_boundaries_passed_through(self, rng):
        y = random_word(rng, 500)
        k = 3
        xhat = dude(y, 0.1, k=k).symbols
        assert np.array_equal(xhat[:k], y[:k])
        assert np.array_equal(xhat[-k:], y[-k:])

    def test_estimates_are_distributions(self, rng):
        result = dude_detail(random_word(rng, 2000), 0.2, k=6)
        assert np.all(result.q2 >= 0.0)
        np.testing.assert_allclose(result.q2.sum(axis=1), 1.0, atol=1e-12)
        assert result.n_clamped >= 0

    def test_singular_channel(self):
        with pytest.raises(SingularChannelError):
            dude(np.ones(10, dtype=np.int8), 0.5, k=1)

    def test_recovers_under_light_noise(self):
        path = generate_dataset(validate_params(0.05, 0.1), 50_000, seed=4)
        ber_raw = bit_error_rate(path.y, path.x)
        ber_dude = bit_error_rate(dude(path.y, 0.1, k=3), path.x)
        assert ber_dude < ber_raw


class TestBfp:
    def test_singular_channel(self):
        with pytest.raises(SingularChannelError):
            bfp_denoise(np.ones(10, dtype=np.int8), validate_params(0.2, 0.5))

    def test_exact_mode_shapes(self, rng):
        y = random_word(rng, 64)
        xhat, marg = bfp_denoise(y, P_REF, mode="exact")
        assert len(xhat) == 64
        assert len(marg) == 64
        np.testing.assert_allclose(marg.q_plus + marg.q_minus, 1.0, atol=1e-12)

    def test_surrogate_differs_from_exact_two_sided(self):
        # the product form must NOT coincide with the true two-sided conditional
        diffs = []
        for code in range(1 << 9):
            w = code_to_spins(code, 9)
            bfp_q2 = _bfp_center_surrogate(w, M_REF)
            exact = two_sided_conditional(int(w[4]), w[:4], w[5:], M_REF)
            diffs.append(abs(bfp_q2 - exact))
        assert max(diffs) > 1e-3

    def test_symmetric_contexts_agree_in_argmax(self, rng):
        # observational check on sampled palindromic windows (not a universal claim)
        for _ in range(40):
            half = random_word(rng, 4)
            for y0 in (-1, 1):
                w = np.concatenate([half, [y0], half[::-1]])
                surrogate = _bfp_center_surrogate(w, M_REF)
                exact = two_sided_conditional(int(w[4]), w[:4], w[5:], M_REF)
                assert (surrogate >= 0.5) == (exact >= 0.5)

    def test_empirical_mode_runs_and_passes_boundaries(self, rng):
        y = random_word(rng, 3000)
        xhat, marg = bfp_denoise(y, P_REF, mode="empirical", k=2)
        assert np.array_equal(xhat.symbols[:2], y[:2])
        assert np.array_equal(xhat.symbols[-2:], y[-2:])
        np.testing.assert_allclose(marg.q_plus + marg.q_minus, 1.0, atol=1e-12)

    def test_bad_mode(self):
        with pytest.raises(NoisyMarkovError):
            bfp_denoise(np.ones(10, dtype=np.int8), P_REF, mode="typo")

    def test_nonpositive_context_is_package_error(self):
        with pytest.raises(NoisyMarkovError):
            bfp_denoise(np.ones(10, dtype=np.int8), P_REF, mode="empirical", k=0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, None])
    def test_empirical_posteriors_equal_window_recount(self, k):
        y = _count_word(k)
        n = len(y)
        k_used = _default_k(n) if k is None else k
        m = n - 2 * k_used
        # left contexts end at their centre, right contexts start at it
        l_minus, l_plus = _context_counts(y, k_used + 1, k_used)
        r_minus, r_plus = _context_counts(y, k_used + 1, 0)
        l_tot, r_tot = l_minus + l_plus, r_minus + r_plus
        q_left = np.stack([l_minus / l_tot, l_plus / l_tot], axis=1)[:m]
        q_right = np.stack([r_minus / r_tot, r_plus / r_tot], axis=1)[k_used : k_used + m]
        prod = q_left * q_right
        expected, _ = _posterior_batch(
            prod / prod.sum(axis=1, keepdims=True), y[k_used : n - k_used], P_REF.epsilon
        )
        xhat, marg = bfp_denoise(y, P_REF, mode="empirical", k=k)
        assert np.array_equal(marg.q_minus[k_used : n - k_used], expected[:, 0])
        assert np.array_equal(marg.q_plus[k_used : n - k_used], expected[:, 1])
        interior = xhat.symbols[k_used : n - k_used]
        assert np.array_equal(interior, np.where(expected[:, 1] >= expected[:, 0], 1, -1))


def _count_word(k) -> np.ndarray:
    """A correlated noisy word of about 3000 symbols, so that contexts repeat unevenly."""
    seed = 0 if k is None else k
    return generate_dataset(validate_params(0.1, 0.2), 3001, seed).y.symbols


def _default_k(n: int) -> int:
    return min(12, max(1, math.ceil(0.5 * math.log2(n))))


def _context_counts(y, width: int, centre: int) -> tuple[np.ndarray, np.ndarray]:
    """Recount of m(c, -1) and m(c, +1) for the context c of every window of ``width``.

    Each window of the word is coded as an integer, bit t for its t-th symbol
    being +1, and all codes are counted with one bincount. The context of a
    window is its code with the ``centre`` bit set or cleared.
    """
    plus = (np.asarray(y) == 1).astype(np.int64)
    codes = sliding_window_view(plus, width) @ (1 << np.arange(width))
    counts = np.bincount(codes, minlength=1 << width)
    bit = 1 << centre
    return counts[codes & ~bit].astype(np.float64), counts[codes | bit].astype(np.float64)


def _bfp_center_surrogate(window, model) -> float:
    """Probability the BFP product assigns to the observed center symbol."""
    _, marg = bfp_denoise(window, validate_params(model.p, model.epsilon), mode="exact")
    # recompute the surrogate for Y directly from the product of cosh terms
    from noisymarkov.transfer import backward_fields, field_shift, forward_fields

    i = len(window) // 2
    a_r = float(field_shift(backward_fields(window, model).values[i + 1], model))
    a_l = float(field_shift(forward_fields(window, model).values[i - 1], model))
    y0 = float(window[i])
    num = math.cosh(model.K * y0 + a_l) * math.cosh(model.K * y0 + a_r)
    den = num + math.cosh(-model.K * y0 + a_l) * math.cosh(-model.K * y0 + a_r)
    return num / den


class TestMomentEstimator:
    def test_hand_value(self):
        # 662 agreements and 338 disagreements out of 1000 pairs: r_hat = 0.324
        steps = np.concatenate([np.ones(662), -np.ones(338)])
        y = np.concatenate([[1.0], np.cumprod(steps)]).astype(np.int8)
        assert estimate_p_moment(y, 0.2) == pytest.approx(0.05, abs=1e-12)

    def test_uncorrelated_clamps_to_half(self):
        y = np.array([1, 1, -1], dtype=np.int8)  # r_hat = 0
        assert estimate_p_moment(y, 0.2) == 0.5

    def test_overcorrelated_clamps_low(self):
        y = np.ones(100, dtype=np.int8)  # r_hat = 1 > (1-2eps)^2
        assert estimate_p_moment(y, 0.2) == pytest.approx(1e-6)

    def test_consistency_at_scale(self):
        path = generate_dataset(validate_params(0.05, 0.2), 1_000_000, seed=17)
        assert abs(estimate_p_moment(path.y, 0.2) - 0.05) < 0.002

    def test_validation(self):
        with pytest.raises(SingularChannelError):
            estimate_p_moment(np.ones(10, dtype=np.int8), 0.5)
        with pytest.raises(InsufficientContextError):
            estimate_p_moment(np.array([1]), 0.2)


class TestGibbsDenoise:
    def test_equals_forward_backward_at_estimated_p(self, rng):
        path = generate_dataset(validate_params(0.1, 0.2), 5000, seed=9)
        p_hat = estimate_p_moment(path.y, 0.2)
        expected = map_denoise(forward_backward(path.y, validate_params(p_hat, 0.2)))
        got = gibbs_denoise(path.y, 0.2)
        assert np.array_equal(got.symbols, expected.symbols)

    def test_singular_channel(self):
        with pytest.raises(SingularChannelError):
            gibbs_denoise(np.ones(10, dtype=np.int8), 0.5)


class TestMapDenoise:
    def test_argmax(self):
        post = PosteriorMarginals(q_minus=np.array([0.9, 0.2]), q_plus=np.array([0.1, 0.8]))
        assert np.array_equal(map_denoise(post).symbols, [-1, 1])

    def test_tie_breaks_plus(self):
        post = PosteriorMarginals(q_minus=np.array([0.5]), q_plus=np.array([0.5]))
        assert map_denoise(post).symbols[0] == 1

    def test_scale_invariance(self):
        post = PosteriorMarginals(q_minus=np.array([0.3, 0.8]), q_plus=np.array([0.7, 0.2]))
        scaled = PosteriorMarginals(q_minus=3.0 * post.q_minus, q_plus=3.0 * post.q_plus)
        assert np.array_equal(map_denoise(post).symbols, map_denoise(scaled).symbols)


class TestBitErrorRate:
    def test_extremes(self, rng):
        x = random_word(rng, 100)
        assert bit_error_rate(x, x) == 0.0
        assert bit_error_rate(-x, x) == 1.0
        half = x.copy()
        half[::2] *= -1
        assert bit_error_rate(half, x) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            bit_error_rate([1, 1], [1, 1, 1])
