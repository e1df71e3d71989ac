import math
from fractions import Fraction

import numpy as np
import pytest

from noisymarkov.denoise import forward_backward
from noisymarkov import transfer
from noisymarkov.errors import MalformedDataError, OutOfRangeError, TooLongError
from noisymarkov.model import channel_model, validate_params
from noisymarkov.oracle import (
    brute_force_cylinder,
    code_to_spins,
    enumerate_cylinder_table,
    spin_word_code,
)
from noisymarkov.sequences import FieldTrajectory, SpinSequence, as_spin_array
from noisymarkov.simulate import generate_dataset
from noisymarkov.thermo import decay_rate_bound
from noisymarkov.transfer import (
    LANE_CUTOVER,
    LANE_WIDTH,
    _extended_field,
    _fixed_point_ratio,
    _lane_rounds,
    _leading_ratio,
    _scan_ratios,
    _scan_shifts,
    _sequential_ratios,
    _walk,
    backward_fields,
    conditional_prob,
    cylinder_prob,
    extended_fields,
    field_shift,
    field_shift_deriv,
    fixed_point_field,
    forward_fields,
    log2cosh,
    log_cylinder_prob,
    log_partition_term,
    log_partition_term_deriv,
    neighbour_ratios,
    required_context,
    two_sided_conditional,
    two_sided_limit_conditional,
)

from conftest import (
    PARAM_GRID,
    alpha_beta_posteriors,
    assert_both_sides_walked,
    random_word,
    walked_shifts,
)

M_REF = channel_model(0.2, 0.1)
P_REF = validate_params(0.2, 0.1)


#: Source flip rates at which the transfer step is checked: both edges, both sides of 1/2, and 1/2 itself.
STEP_PROBABILITIES = [1e-300, 1e-17, 0.02, 0.1, 0.45, 0.5, 0.55, 0.9, 1.0 - 1e-12]


def iterate_fixed_point(model, symbol=1, iters=2000):
    """Independent oracle: solve w = K*symbol + A(w) by plain iteration."""
    w = 0.0
    for _ in range(iters):
        w = model.K * symbol + 0.5 * math.log(math.cosh(w + model.J) / math.cosh(w - model.J))
    return w


class TestSpinSequence:
    def test_validation(self):
        seq = SpinSequence(np.array([1, -1, 1]))
        assert len(seq) == 3
        with pytest.raises(ValueError):
            SpinSequence(np.array([1, 0, 1]))
        with pytest.raises(ValueError):
            SpinSequence(np.array([], dtype=np.int8))
        with pytest.raises(ValueError):
            as_spin_array(np.array([[1, -1]]))
        with pytest.raises(ValueError):
            as_spin_array([1.5, -1.0])

    @pytest.mark.parametrize(
        "word",
        [np.array([[1, -1]]), np.array([], dtype=np.int8), np.array(["+", "-"]), [1, 0, 1],
         [1.0, np.nan], [np.inf], [1e300, -1.0]],
        ids=["two-dimensional", "empty", "non-numeric", "not-a-spin", "nan", "inf", "huge"],
    )
    def test_malformed_word_is_package_error(self, word):
        with pytest.raises(MalformedDataError):
            as_spin_array(word)
        with pytest.raises(MalformedDataError):
            forward_backward(word, P_REF)

    def test_coercion_and_readonly(self):
        arr = as_spin_array([1, -1, 1])
        assert arr.dtype == np.int8
        with pytest.raises(ValueError):
            arr[0] = -1
        seq = SpinSequence([1, 1])
        assert as_spin_array(seq) is seq.symbols

    def test_allow_empty(self):
        assert len(as_spin_array([], allow_empty=True)) == 0

    def test_wraps_a_spin_sequence(self):
        seq = SpinSequence([1, -1])
        again = SpinSequence(seq)
        assert again == seq
        assert again.symbols is seq.symbols

    def test_equality_with_a_non_word(self):
        seq = SpinSequence([1, -1])
        assert seq.__eq__(3) is NotImplemented
        assert not seq == 3
        assert seq != [1, -1]


class TestFieldFunctions:
    def test_odd_at_zero(self):
        assert field_shift(0.0, M_REF) == 0.0

    def test_non_float_reals_are_fields(self):
        # an int or a numpy integer passes check_field as it is, and reads as its float
        for w in (1, np.int64(1)):
            assert field_shift(w, M_REF) == field_shift(1.0, M_REF)
            assert log_partition_term(w, M_REF) == log_partition_term(1.0, M_REF)

    def test_saturates_at_coupling(self):
        assert float(field_shift(10.0, M_REF)) == pytest.approx(M_REF.J, abs=1e-8)
        assert float(field_shift(-10.0, M_REF)) == pytest.approx(-M_REF.J, abs=1e-8)

    def test_known_value(self):
        # atanh(0.6 tanh 1) via the tanh identity
        assert float(field_shift(1.0, M_REF)) == pytest.approx(0.4934577532067753, rel=1e-13)

    def test_bounded_by_coupling(self, rng):
        w = rng.uniform(-50, 50, size=1000)
        assert np.all(np.abs(field_shift(w, M_REF)) <= abs(M_REF.J))

    def test_tanh_identity(self, rng):
        # tanh(A(w)) = (1-2p) tanh(w)
        w = rng.uniform(-10, 10, size=10_000)
        lhs = np.tanh(field_shift(w, M_REF))
        rhs = (1.0 - 2.0 * M_REF.p) * np.tanh(w)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-15)

    def test_log_form_agrees(self, rng):
        # the defining (1/2) log cosh-ratio form
        w = rng.uniform(-10, 10, size=1000)
        ref = 0.5 * (log2cosh(w + M_REF.J) - log2cosh(w - M_REF.J))
        np.testing.assert_allclose(field_shift(w, M_REF), ref, rtol=1e-12, atol=1e-14)

    def test_basic_identity(self, rng):
        # exp(s A(w) + B(w)) = 2 cosh(w + s J)
        w = rng.uniform(-10, 10, size=10_000)
        for s in (1, -1):
            lhs = np.exp(s * field_shift(w, M_REF) + log_partition_term(w, M_REF))
            rhs = 2.0 * np.cosh(w + s * M_REF.J)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_partition_term_values(self):
        assert float(log_partition_term(0.0, M_REF)) == pytest.approx(math.log(2.5), rel=1e-14)
        m_half = channel_model(0.5, 0.3)
        assert float(log_partition_term(0.0, m_half)) == pytest.approx(math.log(2.0), rel=1e-14)
        # second printed form: (1/2) log(e^{2w} + e^{-2w} + e^{2J} + e^{-2J})
        w = 1.37
        ref = 0.5 * math.log(
            math.exp(2 * w) + math.exp(-2 * w) + math.exp(2 * M_REF.J) + math.exp(-2 * M_REF.J)
        )
        assert float(log_partition_term(w, M_REF)) == pytest.approx(ref, rel=1e-14)

    def test_partition_term_floor(self, rng):
        w = rng.uniform(-5, 5, size=200)
        assert np.all(log_partition_term(w, M_REF) >= math.log(2.0) - 1e-15)

    def test_combined_identity_example(self):
        lhs = math.exp(float(field_shift(1.0, M_REF)) + float(log_partition_term(1.0, M_REF)))
        assert lhs == pytest.approx(2.0 * math.cosh(1.0 + M_REF.J), rel=1e-13)

    def test_derivatives_match_finite_differences(self):
        h = 1e-6
        for w in (-2.3, -0.4, 0.0, 0.9, 3.1):
            da = (float(field_shift(w + h, M_REF)) - float(field_shift(w - h, M_REF))) / (2 * h)
            assert float(field_shift_deriv(w, M_REF)) == pytest.approx(da, abs=1e-8)
            db = (
                float(log_partition_term(w + h, M_REF)) - float(log_partition_term(w - h, M_REF))
            ) / (2 * h)
            assert float(log_partition_term_deriv(w, M_REF)) == pytest.approx(db, abs=1e-8)

    def test_deriv_stable_for_huge_fields(self):
        assert float(field_shift_deriv(1000.0, M_REF)) == 0.0
        assert float(field_shift_deriv(-1e300, M_REF)) == 0.0


class TestTransferStep:
    """One step of the walk against m(u) = (r + u) / (1 + r*u) in exact rational arithmetic, from the float r and u."""

    @staticmethod
    def worst_ulps(p, us):
        """Largest distance of the walk's step from the exact m(u), in units in the last place of m(u)."""
        # at eps = 1/2, c = 1 exactly, so the walk steps from its start ratio u itself
        model = channel_model(p, 0.5)
        assert model.c == 1.0
        r = Fraction(model.r)
        symbol = np.array([1], dtype=np.int8)
        worst = Fraction(0)
        for u in us.tolist():
            got = _walk(symbol, model, u)
            exact = 1 / r if u == math.inf else (r + Fraction(u)) / (1 + r * Fraction(u))
            worst = max(worst, abs(Fraction(got) - exact) / Fraction(math.ulp(float(exact))))
        return worst

    @pytest.mark.parametrize("p", STEP_PROBABILITIES)
    def test_within_two_ulp_over_the_whole_range(self, p, rng):
        us = np.append(10.0 ** rng.uniform(-300, 300, size=400), math.inf)
        assert self.worst_ulps(p, us) <= 2

    @pytest.mark.parametrize("p", STEP_PROBABILITIES)
    def test_within_four_ulp_near_one(self, p, rng):
        # near u = 1 no term of the step dominates, so each of its roundings counts:
        # 2.8 ulp seen over 2*10^5 draws (3.3 for the two-branch form it replaced)
        assert self.worst_ulps(p, 10.0 ** rng.uniform(-4, 4, size=400)) <= 4


class TestFieldScans:
    def test_single_symbol_base_case(self):
        assert backward_fields([1], M_REF).values[0] == pytest.approx(M_REF.K)
        assert forward_fields([-1], M_REF).values[0] == pytest.approx(-M_REF.K)

    def test_recursion_step(self, rng):
        y = random_word(rng, 12)
        w = backward_fields(y, M_REF).values
        for i in range(11):
            expected = M_REF.K * y[i] + float(field_shift(w[i + 1], M_REF))
            assert w[i] == pytest.approx(expected, rel=1e-14)

    def test_all_ones_converges_to_fixed_point(self):
        w = backward_fields(np.ones(50, dtype=np.int8), M_REF).values
        assert w[0] == pytest.approx(iterate_fixed_point(M_REF), abs=1e-6)
        assert w[0] == pytest.approx(1.7372056530, abs=1e-6)

    def test_forward_mirrors_backward(self, rng):
        y = random_word(rng, 20)
        pal = np.concatenate([y, y[::-1]])
        fwd = forward_fields(pal, M_REF).values
        bwd = backward_fields(pal[::-1], M_REF).values
        np.testing.assert_allclose(fwd, bwd[::-1], rtol=1e-14)

    def test_forward_all_ones(self):
        w = forward_fields(np.ones(50, dtype=np.int8), M_REF).values
        assert w[-1] == pytest.approx(1.7372056530, abs=1e-6)

    def test_noninformative_channel_zeroes_fields(self, rng):
        m = channel_model(0.2, 0.5)
        y = random_word(rng, 30)
        assert np.all(backward_fields(y, m).values == 0.0)
        assert np.all(forward_fields(y, m).values == 0.0)

    def test_invariant_interval(self, rng):
        for p, eps in PARAM_GRID:
            m = channel_model(p, eps)
            c1 = abs(m.K) + abs(m.J)
            y = random_word(rng, 200)
            assert np.all(np.abs(backward_fields(y, m).values) <= c1)

    def test_window_metadata(self):
        seq = SpinSequence(np.array([1, -1, 1]))
        traj = backward_fields(seq, M_REF)
        assert isinstance(traj, FieldTrajectory)
        assert len(traj) == 3

    def test_user_built_trajectory(self):
        values = [0.5, -1]
        traj = FieldTrajectory(values)
        assert len(traj) == 2
        assert traj.values.dtype == np.float64 and not traj.values.flags.writeable
        values[0] = 9.0  # the trajectory holds its own copy
        assert np.array_equal(traj.values, [0.5, -1.0])

    def test_extended_fields_match_long_scan(self, rng):
        y = random_word(rng, 15)
        ext = extended_fields(y, M_REF)
        long_word = np.concatenate([y, np.full(200, y[-1], dtype=np.int8)])
        ref = backward_fields(long_word, M_REF).values[:15]
        np.testing.assert_allclose(ext, ref, rtol=0, atol=1e-12)

    def test_fixed_point_is_fixed(self):
        # near p = 1 the field map has slope close to -1, so plain iteration barely converges
        for model in (M_REF, channel_model(1.0 - 1e-6, 0.2)):
            for sym in (1, -1):
                w = fixed_point_field(sym, model)
                assert w == pytest.approx(model.K * sym + float(field_shift(w, model)), abs=1e-14)


#: The four default bench cells, a long-memory cell whose burn-in nears LANE_WIDTH,
#: and two cells with p > 1/2, where r > 1.
LANE_CELLS = [(0.05, 0.2), (0.1, 0.2), (0.15, 0.2), (0.2, 0.2), (0.02, 0.3), (0.9, 0.2), (0.98, 0.3)]

#: Words at eps = 0.45, (p, n, seed) of generate_dataset, where lanes started a certified
#: burn-in away from their first entry differed from the walk by an ulp at 1 to 3 entries.
LANE_MISS_WORDS = [(0.7, 72_201, 2), (0.3, 72_201, 10), (0.45, 200_000, 0)]

#: Cells whose generated words couple in lanes of 45 000 and 66 000 symbols, below the
#: cut-over of 64 (b + L) symbols that a certified burn-in L once set, or where no
#: certificate exists at all (1e-17, 0.2).
SHORT_LANE_CELLS = [(0.1, 0.45), (0.45, 0.45), (0.7, 0.45), (1e-17, 0.2)]


def lane_cut(words: int = 1) -> int:
    """The shortest length at which ``words`` words scanned together run in lanes."""
    return -(-LANE_CUTOVER // words) * LANE_WIDTH


class TestLaneScan:
    @pytest.mark.parametrize("p, eps", LANE_CELLS)
    def test_burn_in_is_the_smallest_certified_length(self, p, eps):
        # the certificate gives the burn-in of the limit readers; the lane gate reads the length alone
        model = channel_model(p, eps)
        bound = decay_rate_bound(model)
        burn_in = required_context(1e-17, model)
        assert bound.C * bound.rho**burn_in < 1e-17 <= bound.C * bound.rho ** (burn_in - 1)
        for words in (1, 2):
            assert _lane_rounds(lane_cut(words) - 1, words) == 0
            assert _lane_rounds(lane_cut(words), words) == 2
        assert _lane_rounds(10**6, 2) == 2 + (10**6 // LANE_WIDTH) // transfer.LANE_ROUND_LANES

    @pytest.mark.parametrize("p, eps", LANE_CELLS)
    @pytest.mark.parametrize("start", ["zero", "fixed_point"])
    def test_lanes_match_the_sequential_scan(self, p, eps, start, rng, lane_calls):
        model = channel_model(p, eps)
        # below the cut-over of both sides, at it, past it by a length that is no multiple of b,
        # and past the cut-over of one side alone
        for n in (lane_cut(2) - 1, lane_cut(2), lane_cut(2) + 3 * LANE_WIDTH + 777, lane_cut(1) + 777):
            y = random_word(rng, n)
            init = 1.0 if start == "zero" else _fixed_point_ratio(int(y[-1]), model)  # zero shift: ratio 1
            lane_calls.clear()
            assert_both_sides_walked(y, model, init)
            assert lane_calls == ([True] if n >= lane_cut(2) else [])
            lane_calls.clear()
            np.testing.assert_array_equal(_scan_shifts(y, model, init), walked_shifts(y, model, init))
            assert lane_calls == ([True] if n >= lane_cut(1) else [])

    @pytest.mark.parametrize("p, eps", SHORT_LANE_CELLS)
    @pytest.mark.parametrize("n", [45_000, 66_000])
    def test_lanes_below_the_certified_cut_over(self, p, eps, n, lane_calls):
        params = validate_params(p, eps)
        assert_both_sides_walked(generate_dataset(params, n, 1).y.symbols, params)
        assert lane_calls == [True]

    def test_lanes_that_never_meet_fall_back_to_the_walk(self, lane_calls):
        # at rho = 1 - 4e-14 the lanes of a generated word do not meet in their rounds
        params = validate_params(1e-10, 0.49)
        assert_both_sides_walked(generate_dataset(params, 41_000, 1).y.symbols, params)
        assert lane_calls == [False]

    @pytest.mark.parametrize("p, n, seed", LANE_MISS_WORDS)
    def test_lanes_match_the_sequential_scan_at_high_noise(self, p, n, seed, lane_calls):
        params = validate_params(p, 0.45)
        assert_both_sides_walked(generate_dataset(params, n, seed).y.symbols, params)
        assert lane_calls == [True]

    def test_narrow_lanes_meet_after_rounds(self, rng, monkeypatch, lane_calls):
        # lanes of 16 symbols at a cell whose lanes meet after about 250 steps take many rounds
        monkeypatch.setattr(transfer, "LANE_WIDTH", 16)
        monkeypatch.setattr(transfer, "LANE_ROUND_LANES", 8)
        model = channel_model(0.02, 0.3)
        y = random_word(rng, 20_777)
        walked = []
        monkeypatch.setattr(transfer, "_sequential_ratios", lambda symbols, *args: walked.append(len(symbols))
                            or _sequential_ratios(symbols, *args))
        assert_both_sides_walked(y, model)
        assert lane_calls == [True]
        assert max(walked) < 16  # the tails alone: the lanes did not fall back to the walk

    @pytest.mark.parametrize("p, eps", [(0.1, 0.2), (0.02, 0.3)])
    def test_forward_fields_mirror_backward_fields(self, p, eps, rng, lane_calls):
        # numpy's log rounds some ratios differently on a reversed view: every log is taken contiguous
        model = channel_model(p, eps)
        y = random_word(rng, lane_cut() + 777)
        mirrored = backward_fields(y[::-1], model).values[::-1]
        np.testing.assert_array_equal(forward_fields(y, model).values, mirrored)
        assert lane_calls == [True, True]

    def test_forward_backward_on_lanes_matches_alpha_beta(self, rng, lane_calls):
        p, eps = 0.1, 0.2
        y = random_word(rng, 80_000)
        post = forward_backward(y, validate_params(p, eps))
        assert lane_calls == [True]
        oracle_minus, oracle_plus = alpha_beta_posteriors(y, p, eps)
        np.testing.assert_allclose(post.q_minus, oracle_minus, rtol=0, atol=1e-10)
        np.testing.assert_allclose(post.q_plus, oracle_plus, rtol=0, atol=1e-10)


def test_the_scan_reads_no_certificate(rng, monkeypatch, lane_calls):
    # the lanes are exact by coupling alone: their gate, their rounds and the sum of log Q read the length
    model = channel_model(0.1, 0.2)
    y = random_word(rng, 2 * lane_cut() + 777)
    half = len(y) // 2
    queries = {
        "neighbour_ratios": lambda: neighbour_ratios(y, model),
        "backward_fields": lambda: backward_fields(y, model).values,
        "log_cylinder_prob": lambda: log_cylinder_prob(y, model),
        "extended_fields": lambda: extended_fields(y, model),
        "conditional_prob": lambda: conditional_prob(int(y[0]), y[1:], model),
        "two_sided_conditional": lambda: two_sided_conditional(int(y[half]), y[:half], y[half + 1 :], model),
        "two_sided_limit_conditional":
            lambda: two_sided_limit_conditional(int(y[half]), y[:half], y[half + 1 :], 1e-9, model),
    }
    before = {name: query() for name, query in queries.items()}

    def refuse(*args):
        raise AssertionError("the scan read the decay certificate")

    monkeypatch.setattr(transfer, "required_context", refuse)
    monkeypatch.setattr(transfer, "decay_rate_bound", refuse)
    lane_calls.clear()
    for name, query in queries.items():
        np.testing.assert_array_equal(query(), before[name], err_msg=name)
    assert lane_calls == [True] * 4  # the four whole-word scans ran in lanes


class TestLeadingShift:
    """_leading_ratio(y, model, start, i) is entry i of _scan_ratios(y, model, start), bit for bit."""

    @staticmethod
    def starts(model, y):
        """Every start ratio the package uses or the scan admits: 1, r, 1/r and the fixed points."""
        fixed = {_fixed_point_ratio(s, model) for s in ((int(y[-1]),) if len(y) else (1, -1))}
        return [1.0, model.r, 1.0 / model.r, *sorted(fixed)]

    def assert_leading(self, y, model):
        for start in self.starts(model, y):
            (ratios,) = _scan_ratios(y, model, start)
            for i in range(min(2, len(y) + 1)):
                assert _leading_ratio(y, model, start, i).hex() == float(ratios[i]).hex(), (len(y), start, i)
        if len(y):  # the limit field of thermo.limit_field
            assert _extended_field(y, model).hex() == float(extended_fields(y, model)[0]).hex()

    @pytest.mark.parametrize("p, eps", [(0.1, 0.2), (0.02, 0.3), (0.45, 1e-300)])
    def test_lane_length_words(self, p, eps, rng):
        model = channel_model(p, eps)
        for n in (lane_cut(), lane_cut() + LANE_WIDTH + 5):
            self.assert_leading(random_word(rng, n), model)

    @pytest.mark.parametrize("p, eps", [(0.1, 0.2), (0.02, 0.3)])
    def test_many_short_words(self, p, eps, rng):
        # enough ratios that a log rounding differently from numpy's shows in the limit field
        model = channel_model(p, eps)
        for n in rng.integers(1, 17, size=1500):
            y = random_word(rng, int(n))
            start = _fixed_point_ratio(int(y[-1]), model)
            assert _leading_ratio(y, model, start).hex() == float(_scan_ratios(y, model, start)[0][0]).hex()
            assert _extended_field(y, model).hex() == float(extended_fields(y, model)[0]).hex()

    @pytest.mark.parametrize("p, eps", [(1e-17, 0.2), (1e-300, 1e-300)])
    def test_cells_without_certificate(self, p, eps, rng):
        model = channel_model(p, eps)
        for n in (3, 64, lane_cut() + 777):
            self.assert_leading(random_word(rng, n), model)

    @pytest.mark.parametrize("p, eps", [(0.1, 0.2), (0.02, 0.3), (1e-17, 0.2), (1e-300, 1e-300)])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_short_and_empty_words(self, p, eps, n, rng):
        model = channel_model(p, eps)
        for y in (np.ones(n, dtype=np.int8), -np.ones(n, dtype=np.int8), random_word(rng, n)):
            self.assert_leading(y, model)


class TestBruteForceOracle:
    def test_single_symbol_is_half(self):
        for p, eps in PARAM_GRID:
            params = validate_params(p, eps)
            assert brute_force_cylinder([1], params) == pytest.approx(0.5, rel=1e-14)
            assert brute_force_cylinder([-1], params) == pytest.approx(0.5, rel=1e-14)

    def test_two_symbol_enumeration(self):
        # 0.324 + 0.009 + 0.009 + 0.004
        assert brute_force_cylinder([1, 1], P_REF) == pytest.approx(0.346, rel=1e-12)

    def test_fair_coin_channel(self):
        params = validate_params(0.3, 0.5)
        for n in (1, 4, 8):
            q = brute_force_cylinder(np.ones(n, dtype=np.int8), params)
            assert q == pytest.approx(2.0**-n, rel=1e-12)

    def test_budget(self):
        with pytest.raises(TooLongError):
            brute_force_cylinder(np.ones(23, dtype=np.int8), P_REF)

    def test_word_codes_roundtrip(self, rng):
        for length in (1, 5, 11):
            for _ in range(20):
                y = random_word(rng, length)
                assert np.array_equal(code_to_spins(spin_word_code(y), length), y)

    @pytest.mark.parametrize("code, length", [(8, 3), (-1, 3)])
    def test_code_out_of_range_is_package_error(self, code, length):
        with pytest.raises(OutOfRangeError):
            code_to_spins(code, length)

    def test_table_matches_per_word(self):
        table = enumerate_cylinder_table(6, P_REF)
        for code in range(64):
            word = code_to_spins(code, 6)
            assert table[code] == pytest.approx(brute_force_cylinder(word, P_REF), rel=1e-13)

    def test_table_budget(self):
        with pytest.raises(TooLongError):
            enumerate_cylinder_table(13, P_REF)


class TestCylinderProb:
    def test_matches_oracle_sampled(self, rng):
        for p, eps in PARAM_GRID:
            params = validate_params(p, eps)
            model = channel_model(p, eps)
            for length in (1, 2, 3, 5, 8, 10):
                y = random_word(rng, length)
                expected = brute_force_cylinder(y, params)
                assert cylinder_prob(y, model) == pytest.approx(expected, rel=1e-12)

    def test_single_symbol(self):
        assert cylinder_prob([1], M_REF) == pytest.approx(0.5, rel=1e-12)

    def test_reference_pair(self):
        assert cylinder_prob([1, 1], M_REF) == pytest.approx(0.346, rel=1e-12)

    def test_fair_coin_long_word(self):
        m = channel_model(0.3, 0.5)
        assert cylinder_prob(np.ones(8, dtype=np.int8), m) == pytest.approx(2.0**-8, rel=1e-12)

    def test_log_space_survives_long_words(self, rng):
        m = channel_model(0.3, 0.5)
        n = 5000
        # raw probability 2^-5000 underflows; the log must stay exact
        assert log_cylinder_prob(np.ones(n, dtype=np.int8), m) == pytest.approx(
            -n * math.log(2.0), rel=1e-12
        )

    def test_normalization(self):
        for p, eps in [(0.2, 0.1), (0.3, 0.25), (0.45, 0.45), (0.1, 0.45)]:
            model = channel_model(p, eps)
            for length in (1, 4, 8):
                total = math.fsum(
                    cylinder_prob(code_to_spins(c, length), model) for c in range(1 << length)
                )
                assert total == pytest.approx(1.0, abs=1e-10)

    def test_marginal_consistency(self, rng):
        for p, eps in PARAM_GRID:
            model = channel_model(p, eps)
            y = random_word(rng, 9)
            q = cylinder_prob(y, model)
            right = sum(cylinder_prob(np.append(y, s), model) for s in (-1, 1))
            left = sum(cylinder_prob(np.insert(y, 0, s), model) for s in (-1, 1))
            assert q == pytest.approx(right, rel=1e-12)
            assert q == pytest.approx(left, rel=1e-12)


class TestConditionalProb:
    def test_noninformative(self, rng):
        m = channel_model(0.2, 0.5)
        assert conditional_prob(1, random_word(rng, 10), m) == pytest.approx(0.5, rel=1e-12)

    def test_reference_value(self):
        assert conditional_prob(1, [1], M_REF) == pytest.approx(0.692, rel=1e-12)

    def test_matches_cylinder_ratio(self, rng):
        for p, eps in PARAM_GRID:
            model = channel_model(p, eps)
            future = random_word(rng, 8)
            for y0 in (-1, 1):
                ratio = cylinder_prob(np.insert(future, 0, y0), model) / cylinder_prob(
                    future, model
                )
                assert conditional_prob(y0, future, model) == pytest.approx(ratio, rel=1e-12)

    def test_normalized(self, rng):
        future = random_word(rng, 12)
        total = conditional_prob(1, future, M_REF) + conditional_prob(-1, future, M_REF)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_symbol(self):
        with pytest.raises(ValueError):
            conditional_prob(0, [1], M_REF)


class TestTwoSidedConditional:
    def test_noninformative(self, rng):
        m = channel_model(0.2, 0.5)
        val = two_sided_conditional(1, random_word(rng, 4), random_word(rng, 4), m)
        assert val == pytest.approx(0.5, rel=1e-12)

    def test_empty_left_reduces_to_one_sided(self, rng):
        right = random_word(rng, 7)
        assert two_sided_conditional(1, [], right, M_REF) == pytest.approx(
            conditional_prob(1, right, M_REF), rel=1e-12
        )

    def test_both_empty_is_marginal(self):
        assert two_sided_conditional(1, [], [], M_REF) == pytest.approx(0.5, rel=1e-14)

    def test_matches_brute_force_ratio(self, rng):
        for p, eps in [(0.2, 0.1), (0.3, 0.25), (0.45, 0.35)]:
            params = validate_params(p, eps)
            model = channel_model(p, eps)
            for _ in range(10):
                left = random_word(rng, int(rng.integers(1, 5)))
                right = random_word(rng, int(rng.integers(1, 5)))
                for y0 in (-1, 1):
                    num = brute_force_cylinder(np.concatenate([left, [y0], right]), params)
                    den = num + brute_force_cylinder(
                        np.concatenate([left, [-y0], right]), params
                    )
                    assert two_sided_conditional(y0, left, right, model) == pytest.approx(
                        num / den, rel=1e-12
                    )

    def test_reference_window(self):
        num = brute_force_cylinder([1, 1, 1], P_REF)
        den = num + brute_force_cylinder([1, -1, 1], P_REF)
        assert two_sided_conditional(1, [1], [1], M_REF) == pytest.approx(num / den, rel=1e-12)

    def test_sums_to_one(self, rng):
        left, right = random_word(rng, 6), random_word(rng, 6)
        total = two_sided_conditional(1, left, right, M_REF) + two_sided_conditional(
            -1, left, right, M_REF
        )
        assert total == pytest.approx(1.0, abs=1e-12)


class TestTwoSidedLimitConditional:
    def test_noninformative_exact(self):
        m = channel_model(0.2, 0.5)
        assert two_sided_limit_conditional(1, [1, -1], [-1, 1], 1e-9, m) == 0.5

    def test_all_ones_contexts_hit_fixed_point(self):
        wp = iterate_fixed_point(M_REF)
        shift = float(field_shift(wp, M_REF))
        expected = math.cosh(M_REF.K + 2 * shift) / (
            math.cosh(M_REF.K + 2 * shift) + math.cosh(-M_REF.K + 2 * shift)
        )
        got = two_sided_limit_conditional(1, np.ones(30, dtype=np.int8), np.ones(30, dtype=np.int8), 1e-9, M_REF)
        assert got == pytest.approx(expected, rel=1e-10)
        assert got == pytest.approx(0.8422934228293172, rel=1e-12)

    def test_agrees_with_long_finite_contexts(self, rng):
        left = random_word(rng, 8)
        right = random_word(rng, 8)
        tol = 1e-9
        lim = two_sided_limit_conditional(1, left, right, tol, M_REF)
        # extend each context outward by repeating its outermost symbol
        long_left = np.concatenate([np.full(80, left[0], dtype=np.int8), left])
        long_right = np.concatenate([right, np.full(80, right[-1], dtype=np.int8)])
        fin = two_sided_conditional(1, long_left, long_right, M_REF)
        assert lim == pytest.approx(fin, abs=tol)

    def test_requires_positive_tol(self):
        with pytest.raises(ValueError):
            two_sided_limit_conditional(1, [1], [1], 0.0, M_REF)
