import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    gibbs_detail,
    gibbs_params,
    map_denoise,
    posterior_from_two_sided,
    _centre_counts,
    _channel_weights,
    _window_codes,
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
from noisymarkov.transfer import neighbour_ratios, two_sided_conditional

import noisymarkov.denoise as denoise_module
from conftest import alpha_beta_posteriors, matrix_route_posteriors, random_word
from test_denoise_digests import CELL as DIGEST_CELL
from test_denoise_digests import DUDE_EPSILONS as DIGEST_EPSILONS
from test_denoise_digests import DUDE_KS as DIGEST_KS
from test_denoise_digests import WORDS as DIGEST_WORDS

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

    @pytest.mark.parametrize("seed, side", [(0, "q_plus"), (1, "q_minus")])
    def test_small_posteriors_do_not_flush(self, seed, side):
        # at |J| > 177 the odds t = rho_l rho_r c^y leave the double range; a posterior of
        # subnormal size stays within one subnormal step of its value from the same three floats
        params = validate_params(1e-300, 0.2)
        y = generate_dataset(params, 70_000, seed).y
        q = getattr(forward_backward(y, params), side)
        left, right = neighbour_ratios(y, params)
        factors = np.where(y.symbols == 1, params.c, 1.0 / params.c)
        log2_t = np.log2(left) + np.log2(right) + np.log2(factors)
        log2_q = -log2_t if side == "q_plus" else log2_t  # where the posterior is tiny
        subnormal = np.flatnonzero((log2_q > -1073) & (log2_q < -1023))
        assert subnormal.size >= 10
        for i in subnormal.tolist():
            t = Fraction(float(left[i])) * Fraction(float(right[i])) * Fraction(float(factors[i]))
            exact = 1 / (1 + t) if side == "q_plus" else t / (1 + t)
            assert abs(Fraction(float(q[i])) - exact) <= Fraction(2) ** -1074, (i, float(q[i]), float(exact))


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

    @pytest.mark.parametrize("q2", [[0.5, 0.25, 0.25], [[0.5, 0.5]], 1.0], ids=["three", "row", "scalar"])
    def test_rejects_a_wrong_shape(self, q2):
        with pytest.raises(OutOfRangeError, match=r"shape \(2,\)"):
            posterior_from_two_sided(q2, 1, P_REF)

    @pytest.mark.parametrize("q2", [[math.nan, 1.0], [1.0, math.nan]], ids=["minus", "plus"])
    def test_rejects_non_finite(self, q2):
        with pytest.raises(OutOfRangeError):
            posterior_from_two_sided(np.array(q2), 1, P_REF)

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
                    mapped = posterior_from_two_sided(q2, int(y[i]), P_REF)
                    worst = max(
                        worst,
                        abs(mapped[0] - post.q_minus[i]),
                        abs(mapped[1] - post.q_plus[i]),
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

    def test_exact_tie_goes_to_plus(self):
        # at eps = 1/4 the inversion is exact in floats; the context (+, +) is seen
        # with centre -1 five times and +1 three times, and against an observed +1
        # that count ratio ties exactly: positions 11-13 keep their +1
        y = np.array([1, -1] * 5 + [1] * 5, dtype=np.int8)
        xhat = dude(y, 0.25, k=1).symbols
        assert np.array_equal(xhat[11:14], [1, 1, 1])
        assert np.array_equal(xhat[1:10:2], y[1:10:2])  # the -1 centres are kept as well

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

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 11, 28, None])
    def test_q2_equals_window_recount(self, k):
        # k <= 4 counts with the direct-address table, k = 11 and 28 through the sort;
        # past eps = 1/2 the inversion flags and clamps the other entry
        y = _count_word(k)
        n = len(y)
        k_used = _default_k(n) if k is None else k
        m_minus, m_plus = _context_counts(y, 2 * k_used + 1, k_used)
        tot = m_minus + m_plus
        q2 = np.stack([m_minus / tot, m_plus / tot], axis=1)
        for eps in (0.2, 0.7):
            result = dude_detail(y, eps, k)
            assert result.k == k_used
            assert np.array_equal(result.q2, q2)
            post, flagged = matrix_route_posteriors(q2, y[k_used : n - k_used], eps)
            interior = np.where(post[:, 1] >= post[:, 0], 1, -1)
            assert np.array_equal(result.xhat.symbols, np.concatenate(
                [y[:k_used], interior, y[n - k_used :]]))
            assert result.n_clamped == flagged

    def test_longest_context_keeps_every_window_apart(self):
        # 2k + 1 = 57 symbols fill the window coder. A two-sided code of more
        # symbols would not fit its int64, and distinct windows of this word
        # would merge unseen, so both denoisers refuse it
        y = np.ones(400, dtype=np.int8)
        y[[150, 151, 300]] = -1
        m_minus, m_plus = _context_counts(y, 57, 28)
        tot = m_minus + m_plus
        assert np.array_equal(dude_detail(y, 0.2, 28).q2, np.stack([m_minus / tot, m_plus / tot], axis=1))
        for k in (29, 40):
            with pytest.raises(OutOfRangeError, match="at most 28"):
                dude_detail(y, 0.2, k)
            with pytest.raises(OutOfRangeError, match="at most 28"):
                bfp_denoise(y, P_REF, mode="empirical", k=k)

    def test_q2_is_read_only_and_built_once(self):
        result = dude_detail(_count_word(3), 0.2, 3)
        q2 = result.q2
        assert not q2.flags.writeable
        assert result.q2 is q2

    @pytest.mark.parametrize(
        "eps",
        [1e-300, 1e-9, 0.1, 0.2, 0.3, 0.45, 0.49999, 0.5 - 1e-9,
         0.5 + 1e-9, 0.50001, 0.55, 0.7, 0.8, 0.95, 1.0 - 1e-9],
    )
    def test_scalar_rule_equals_matrix_route(self, eps):
        # every count pair with 0 < m(c, -1) + m(c, +1) <= 200, seen with either
        # centre, must give the reference's posteriors bit for bit; at eps = 0.2
        # the pairs 8j : 17j against y = -1 miss an exact tie by about 3e-16 j
        q2, _, _ = _count_pairs(200)
        for symbol in (-1, 1):
            y = np.full(len(q2), symbol, dtype=np.int8)
            post, flagged = matrix_route_posteriors(q2, y, eps)
            v_minus, v_plus, clamped = _channel_weights(q2[:, 0], q2[:, 1], y, eps)
            total = v_minus + v_plus
            assert np.array_equal(v_minus / total, post[:, 0])
            assert np.array_equal(v_plus / total, post[:, 1])
            assert np.array_equal(v_plus >= v_minus, post[:, 1] >= post[:, 0])
            assert np.count_nonzero(clamped) == flagged

    @pytest.mark.parametrize("eps", [0.1, 0.2, 0.3, 0.7])
    def test_decisions_equal_exact_arithmetic(self, eps):
        # with eps = a / d exactly (the float's binary fraction) and q2 = m / T,
        # d (1 - 2 eps) T Pi^{-1} q2 has the integer entries
        # (d - a) m(c, -+1) - a m(c, +-1); clamped, weighted by P(y | x) d and
        # compared exactly, they give the decision of exact arithmetic, which
        # the package and the reference must both reach off near-ties
        q2, m_minus, m_plus = _count_pairs(200)
        a, d = eps.as_integer_ratio()
        sign = 1 if d > 2 * a else -1
        u_minus = np.maximum(sign * ((d - a) * m_minus.astype(object) - a * m_plus), 0)
        u_plus = np.maximum(sign * ((d - a) * m_plus.astype(object) - a * m_minus), 0)
        for symbol in (-1, 1):
            w_minus, w_plus = (a, d - a) if symbol == 1 else (d - a, a)
            v_minus, v_plus = w_minus * u_minus, w_plus * u_plus
            decided = np.abs(v_plus - v_minus) * 10**12 > v_plus + v_minus
            exact = (v_plus >= v_minus).astype(bool)
            assert decided.sum() > 0.99 * len(q2)
            y = np.full(len(q2), symbol, dtype=np.int8)
            pv_minus, pv_plus, _ = _channel_weights(q2[:, 0], q2[:, 1], y, eps)
            assert np.array_equal((pv_plus >= pv_minus)[decided], exact[decided])
            post, _ = matrix_route_posteriors(q2, y, eps)
            assert np.array_equal((post[:, 1] >= post[:, 0])[decided], exact[decided])

    @pytest.mark.parametrize("eps", [1e-9, 0.1, 0.2, 0.25, 0.3, 0.45, 0.7, 0.75, 1.0 - 1e-9])
    def test_every_decision_is_exact(self, eps, monkeypatch):
        # no near-tie is left out: every (m(c, -1), m(c, +1), y) that occurs on
        # the pinned words of test_denoise_digests, and every count pair of the
        # grid seen with either centre, is decided as the clamped inversion
        # decides it in exact arithmetic on the binary eps (the float argmax that
        # the count threshold replaced missed 8 positions of the 5 000-symbol
        # word at eps = 0.2, k = 4, and count pairs of the grid at 0.2, 0.3, 0.45)
        if eps in DIGEST_EPSILONS:
            for n, seed in DIGEST_WORDS.items():
                y = generate_dataset(DIGEST_CELL, n, seed).y.symbols
                for k in DIGEST_KS:
                    m_minus, m_plus = _context_counts(y, 2 * k + 1, k)
                    want = _exact_dude_decisions(m_minus, m_plus, y[k : n - k], eps)
                    assert np.array_equal(dude_detail(y, eps, k).xhat.symbols[k : n - k], want), (n, k)
        # the grid is fed to DUDE as a count table of one pair code per context
        # (context << 1 | centre), the layout of the sort path of _centre_counts
        _, m_minus, m_plus = _count_pairs(200)
        table = np.stack([m_minus, m_plus], axis=1).ravel()
        pairs = np.flatnonzero(table)
        monkeypatch.setattr(denoise_module, "_centre_counts", lambda *args: (pairs, table, 0))
        xhat = dude_detail(np.ones(len(pairs) + 2, dtype=np.int8), eps, 1).xhat.symbols[1:-1]
        contexts = pairs >> 1
        want = _exact_dude_decisions(m_minus[contexts], m_plus[contexts], 2 * (pairs & 1) - 1, eps)
        assert np.array_equal(xhat, want)

    def test_count_paths_agree(self, rng, monkeypatch):
        # the sort renumbers the pair codes, but not the counts read at them,
        # nor DUDE's per-pair decisions
        y = random_word(rng, 5000)
        plus = (y == 1).astype(np.int64)
        codes = sliding_window_view(plus, 9) @ (1 << np.arange(9))

        def counts():
            pairs, table, bit = _centre_counts(codes, 9, 4)
            return table[pairs & ~(1 << bit)], table[pairs | (1 << bit)]

        direct, detail = counts(), dude_detail(y, 0.2, 4)
        monkeypatch.setattr(denoise_module, "COUNT_TABLE_MAX", 0)
        sorted_, resorted = counts(), dude_detail(y, 0.2, 4)
        for a, b in zip(direct, sorted_):
            assert np.array_equal(a, b)
        assert resorted.xhat == detail.xhat
        assert resorted.n_clamped == detail.n_clamped
        assert np.array_equal(resorted.q2, detail.q2)

    @pytest.mark.parametrize(
        "n, k, sorts",
        [(200_000, 9, False), (1_000_000, 10, False), (1_000_000, 11, True)],
    )
    def test_count_cut_over(self, n, k, sorts, monkeypatch):
        # the bench's context lengths (k <= 9 at N = 2e5, k <= 10 at 10^6) count by
        # direct address; a table past 2^22 entries is replaced by a sort
        original, calls = np.unique, []

        def counting_unique(*args, **kwargs):
            calls.append(len(args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counting_unique)
        word = generate_dataset(validate_params(0.1, 0.2), n, seed=k).y
        dude_detail(word, 0.2, k)
        assert bool(calls) == sorts

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

    @pytest.mark.parametrize("eps", [-0.1, 1.5, math.nan])
    def test_crossover_outside_unit_interval_is_package_error(self, eps):
        with pytest.raises(OutOfRangeError):
            dude(np.ones(10, dtype=np.int8), eps, k=1)

    def test_recovers_under_light_noise(self):
        path = generate_dataset(validate_params(0.05, 0.1), 50_000, seed=4)
        ber_raw = bit_error_rate(path.y, path.x)
        ber_dude = bit_error_rate(dude(path.y, 0.1, k=3), path.x)
        assert ber_dude < ber_raw


class TestWindowCodes:
    @settings(max_examples=150, deadline=None)
    @given(
        width=st.integers(1, 57),
        length=st.sampled_from(["w", "w+1", "8m-1", "8m", "8m+1"]),
        extra_bytes=st.integers(0, 3),
        density=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_sliding_window_oracle(self, width, length, extra_bytes, density, seed):
        # words of every length class around the eight-symbol bytes, the
        # window's own width included; all-+1 words set every masked bit
        m = (width + 1) // 8 + 1 + extra_bytes
        n = {"w": width, "w+1": width + 1, "8m-1": 8 * m - 1, "8m": 8 * m, "8m+1": 8 * m + 1}[length]
        plus = np.random.default_rng(seed).random(n) < density
        codes = _window_codes(plus, width)
        assert codes.dtype == np.int64
        oracle = sliding_window_view(plus.astype(np.int64), width) @ (1 << np.arange(width))
        assert np.array_equal(codes, oracle)


class TestBfp:
    def test_empirical_memory_peak(self):
        # the (k+1)-window codes and the two posteriors of 10^6 symbols come to
        # 24 MiB, and the per-position stage runs in blocks of 2^16 positions,
        # whose temporaries add a few MiB: about 29.5 MiB in all
        y = generate_dataset(P_REF, 1_000_000, 3).y
        tracemalloc.start()
        try:
            bfp_denoise(y, P_REF, mode="empirical")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 36 * 2**20

    def test_singular_channel(self):
        with pytest.raises(SingularChannelError):
            bfp_denoise(np.ones(10, dtype=np.int8), validate_params(0.2, 0.5))

    def test_exact_mode_shapes(self, rng):
        y = random_word(rng, 64)
        xhat, marg = bfp_denoise(y, P_REF, mode="exact")
        assert len(xhat) == 64
        assert len(marg) == 64
        np.testing.assert_allclose(marg.q_plus + marg.q_minus, 1.0, atol=1e-12)

    @pytest.mark.parametrize("p, eps", [(0.1, 0.2), (0.02, 0.3), (0.3, 0.05), (0.2, 0.45), (0.1, 0.7)])
    def test_exact_posteriors_equal_matrix_route(self, p, eps, rng):
        # reference: the product of the one-sided conditionals
        # (1-eps) sigma(+-2A) + eps sigma(-+2A), inverted through the channel as a matrix
        y = random_word(rng, 4000)
        left, right = neighbour_ratios(y, channel_model(p, eps))

        def one_sided(ratio):
            # sigma(2A) and sigma(-2A) with ratio = exp(-2A)
            up = 1.0 / (1.0 + ratio)
            down = 1.0 / (1.0 + 1.0 / ratio)
            return (1 - eps) * down + eps * up, (1 - eps) * up + eps * down

        (l_minus, l_plus), (r_minus, r_plus) = one_sided(left), one_sided(right)
        prod = np.stack([l_minus * r_minus, l_plus * r_plus], axis=1)
        post, _ = matrix_route_posteriors(prod / prod.sum(axis=1, keepdims=True), y, eps)
        xhat, marg = bfp_denoise(y, validate_params(p, eps), mode="exact")
        np.testing.assert_allclose(marg.q_minus, post[:, 0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(marg.q_plus, post[:, 1], rtol=0, atol=1e-12)
        decided = np.abs(post[:, 1] - post[:, 0]) > 1e-12
        assert np.array_equal(xhat.symbols[decided], np.where(post[:, 1] >= post[:, 0], 1, -1)[decided])

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

    def test_empirical_exact_tie_goes_to_plus(self):
        # pair counts N(+,-) = 5, N(+,+) = 3, N(-,-) = 5, N(-,+) = 4; at k = 1 a +1
        # between a + and a - has the one-sided estimates (5/8, 3/8) and (1/2, 1/2),
        # whose normalized product (5/8, 3/8) ties exactly at eps = 1/4 (as in
        # TestDude::test_exact_tie_goes_to_plus): positions 1, 5 and 9 keep their +1
        runs = [(1, 2), (-1, 2), (1, 2), (-1, 2), (1, 2), (-1, 2), (1, 1), (-1, 2), (1, 1), (-1, 2)]
        y = np.array([s for s, length in runs for _ in range(length)], dtype=np.int8)
        xhat, marg = bfp_denoise(y, validate_params(0.2, 0.25), mode="empirical", k=1)
        tied = [1, 5, 9]
        assert np.array_equal(marg.q_plus[tied], [0.5, 0.5, 0.5])
        assert np.array_equal(xhat.symbols[tied], [1, 1, 1])

    def test_bad_mode(self):
        with pytest.raises(NoisyMarkovError):
            bfp_denoise(np.ones(10, dtype=np.int8), P_REF, mode="typo")

    def test_context_length_in_exact_mode_is_refused(self):
        with pytest.raises(OutOfRangeError, match="k=5"):
            bfp_denoise(np.ones(10, dtype=np.int8), P_REF, mode="exact", k=5)

    def test_nonpositive_context_is_package_error(self):
        with pytest.raises(NoisyMarkovError):
            bfp_denoise(np.ones(10, dtype=np.int8), P_REF, mode="empirical", k=0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 22, 28, None])
    def test_empirical_posteriors_equal_window_recount(self, k):
        # k <= 4 counts both sides in one direct-address table, shorter than the
        # word, and gathers rows computed per table entry; k = 22 and 28 sort
        # each side into a table longer than the word and divide per position
        self.assert_empirical_equals_recount(_count_word(k), k)

    @pytest.mark.parametrize("k, n", [(3, 2**16 + 3), (10, 2**16 + 25), (1, 2**17 + 1)])
    def test_empirical_blocks_equal_window_recount(self, k, n):
        # the per-position stage runs in blocks of 2^16 positions: a last block
        # of boundary positions only, one cut inside the right boundary, and two cuts
        y = generate_dataset(validate_params(0.1, 0.2), n, k).y.symbols
        self.assert_empirical_equals_recount(y, k)

    @staticmethod
    def assert_empirical_equals_recount(y, k):
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
        expected, _ = matrix_route_posteriors(
            prod / prod.sum(axis=1, keepdims=True), y[k_used : n - k_used], P_REF.epsilon
        )
        xhat, marg = bfp_denoise(y, P_REF, mode="empirical", k=k)
        assert np.array_equal(marg.q_minus[k_used : n - k_used], expected[:, 0])
        assert np.array_equal(marg.q_plus[k_used : n - k_used], expected[:, 1])
        # boundary positions get the channel-only posterior of a uniform q2
        ends = np.r_[0:k_used, n - k_used : n]
        channel_only, _ = matrix_route_posteriors(np.full((len(ends), 2), 0.5), y[ends], P_REF.epsilon)
        assert np.array_equal(marg.q_minus[ends], channel_only[:, 0])
        assert np.array_equal(marg.q_plus[ends], channel_only[:, 1])
        interior = xhat.symbols[k_used : n - k_used]
        assert np.array_equal(interior, np.where(expected[:, 1] >= expected[:, 0], 1, -1))


#: Prints digests of DUDE's and empirical BFP's outputs on the _count_word words.
_KERNEL_PROBE = """
import hashlib
from noisymarkov.denoise import bfp_denoise, dude_detail
from noisymarkov.model import validate_params
from noisymarkov.simulate import generate_dataset

params = validate_params(0.1, 0.2)
for seed in (0, 1, 2, 3, 4):
    y = generate_dataset(params, 3001, seed).y.symbols
    for k in (1, 2, 3, 4):
        result = dude_detail(y, 0.2, k)
        print(seed, k, hashlib.sha256(result.xhat.symbols.tobytes()).hexdigest(),
              hashlib.sha256(result.q2.tobytes()).hexdigest(), result.n_clamped)
    _, marg = bfp_denoise(y, params, mode="empirical")
    print(seed, "bfp", hashlib.sha256(marg.q_minus.tobytes() + marg.q_plus.tobytes()).hexdigest())
"""


class TestHostIndependence:
    def test_outputs_do_not_depend_on_the_blas_kernel(self):
        # OpenBLAS picks its kernel by CPU at run time, and a kernel with fused
        # multiply-add rounds a matrix product differently from one without; the
        # channel inversion uses no BLAS, so forcing the oldest x86-64 kernel
        # (no FMA) must leave every output byte the same
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for coretype in (None, "Nehalem"):
            env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            env["OPENBLAS_NUM_THREADS"] = "1"
            if coretype:
                env["OPENBLAS_CORETYPE"] = coretype
            run = subprocess.run([sys.executable, "-c", _KERNEL_PROBE], env=env,
                                 capture_output=True, text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            outputs.append(run.stdout.splitlines())
        assert len(outputs[0]) == 25
        assert outputs[0] == outputs[1]


def _count_word(k) -> np.ndarray:
    """A correlated noisy word of about 3000 symbols, so that contexts repeat unevenly."""
    seed = 0 if k is None else k
    return generate_dataset(validate_params(0.1, 0.2), 3001, seed).y.symbols


def _count_pairs(limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every count pair (m(c, -1), m(c, +1)) with 0 < m(c, -1) + m(c, +1) <= limit, and its q2 rows."""
    m_minus, m_plus = (a.ravel() for a in np.meshgrid(np.arange(limit + 1), np.arange(limit + 1)))
    keep = (m_minus + m_plus > 0) & (m_minus + m_plus <= limit)
    m_minus, m_plus = m_minus[keep], m_plus[keep]
    tot = m_minus + m_plus
    return np.stack([m_minus / tot, m_plus / tot], axis=1), m_minus, m_plus


def _exact_dude_decisions(m_minus, m_plus, y, eps: float) -> np.ndarray:
    """DUDE's decision at counts (m(c, -1), m(c, +1)) and centre y, in exact arithmetic on the binary eps.

    With Fraction(eps) = a / d and T = m(c, -1) + m(c, +1), the channel
    inversion u = Pi^{-1} q2 of q2 = m / T, scaled by the positive |d - 2a| T,
    has the integer entries sign(d - 2a) ((d - a) m(c, -+1) - a m(c, +-1)).
    They are clamped at zero, weighted by d P(y | x) and compared exactly,
    exact ties toward +1. Distinct triples, coded in one int64 each, are
    decided once and gathered.
    """
    m_minus, m_plus = (np.asarray(m, dtype=np.int64) for m in (m_minus, m_plus))
    triples, at = np.unique((m_minus << 32 | m_plus) << 1 | (np.asarray(y) == 1), return_inverse=True)
    m_minus, m_plus = (triples >> 33).astype(object), (triples >> 1 & 0xFFFFFFFF).astype(object)
    a, d = Fraction(eps).as_integer_ratio()
    sign = 1 if d > 2 * a else -1
    u_minus = np.maximum(sign * ((d - a) * m_minus - a * m_plus), 0)
    u_plus = np.maximum(sign * ((d - a) * m_plus - a * m_minus), 0)
    plus = (triples & 1) == 1  # d P(y | x) is d - a where y = x and a where it differs
    v_minus = np.where(plus, a * u_minus, (d - a) * u_minus)
    v_plus = np.where(plus, (d - a) * u_plus, a * u_plus)
    return np.where(v_plus >= v_minus, 1, -1).astype(np.int8)[at]


def _default_k(n: int) -> int:
    return min(12, max(1, math.ceil(0.5 * math.log2(n))))


def _context_counts(y, width: int, centre: int) -> tuple[np.ndarray, np.ndarray]:
    """Recount of m(c, -1) and m(c, +1) for the context c of every window of ``width``.

    Each window of the word is coded as an integer, bit t for its t-th symbol
    being +1, and the distinct codes are counted with one sort. The context of
    a window is its code with the ``centre`` bit set or cleared.
    """
    plus = (np.asarray(y) == 1).astype(np.int64)
    codes = sliding_window_view(plus, width) @ (1 << np.arange(width))
    uniq, counts = np.unique(codes, return_counts=True)

    def count(c):
        at = np.minimum(np.searchsorted(uniq, c), len(uniq) - 1)
        return np.where(uniq[at] == c, counts[at], 0).astype(np.float64)

    bit = 1 << centre
    return count(codes & ~bit), count(codes | bit)


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

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -0.1, 1.5])
    def test_crossover_outside_unit_interval_is_package_error(self, eps):
        with pytest.raises(OutOfRangeError):
            estimate_p_moment(np.ones(10, dtype=np.int8), eps)


class TestGibbsDenoise:
    def test_equals_forward_backward_at_estimated_p(self, rng):
        path = generate_dataset(validate_params(0.1, 0.2), 5000, seed=9)
        p_hat = estimate_p_moment(path.y, 0.2)
        expected = map_denoise(forward_backward(path.y, validate_params(p_hat, 0.2)))
        got = gibbs_denoise(path.y, 0.2)
        assert np.array_equal(got.symbols, expected.symbols)

    def test_detail_returns_the_fitted_cell(self):
        path = generate_dataset(validate_params(0.1, 0.2), 5000, seed=9)
        xhat, fitted = gibbs_detail(path.y, 0.2)
        assert fitted == gibbs_params(path.y, 0.2)
        assert xhat == gibbs_denoise(path.y, 0.2)

    def test_singular_channel(self):
        with pytest.raises(SingularChannelError):
            gibbs_denoise(np.ones(10, dtype=np.int8), 0.5)


class TestMapDenoise:
    def test_posteriors_of_unequal_shapes_are_refused(self):
        with pytest.raises(LengthMismatchError):
            PosteriorMarginals(q_minus=np.array([0.5, 0.5]), q_plus=np.array([0.5]))

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
