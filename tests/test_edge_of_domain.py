"""The transfer recursion near the edge of the parameter domain.

(p, eps) are drawn log-uniformly toward 0, down to 1e-300, and toward 1. There
cylinder probabilities must still meet the brute-force oracle, the posteriors
must still meet the alpha/beta oracle, and no call may warn or raise. On long
words the lane scan must equal the sequential scan where a decay certificate
exists, and give way to it silently where none does. The decay certificate and
the Gibbs quantities built on it either return finite, consistent values or
refuse with a package error, OutOfRangeError exactly where rho rounds to 1.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisymarkov.denoise import bfp_denoise, forward_backward
from noisymarkov.errors import (
    CertificateOverflowError,
    InsufficientContextError,
    NoisyMarkovError,
    OutOfRangeError,
)
from noisymarkov.model import channel_model, validate_params
from noisymarkov.oracle import brute_force_cylinder
from noisymarkov.thermo import bowen_gibbs_certificate, g_function
from noisymarkov.transfer import (
    _fixed_point_ratio,
    backward_fields,
    cylinder_prob,
    decay_rate_bound,
    forward_fields,
    log_cylinder_prob,
    required_context,
    two_sided_conditional,
)

from conftest import alpha_beta_posteriors, assert_both_sides_walked

#: Below this the oracle's own terms go subnormal and lose their relative accuracy.
ORACLE_FLOOR = 1e-290

#: Long enough for a word and its reverse to be scanned in lanes together.
LANE_WORD = 70_000

#: Tolerance of the thermo queries; g is asked for on windows of up to G_WINDOW symbols.
THERMO_TOL = 1e-9
G_WINDOW = 4096

toward_zero = st.floats(0.3, 300.0).map(lambda t: 10.0**-t)
toward_one = st.floats(0.3, 15.0).map(lambda t: 1.0 - 10.0**-t)
edge_probability = st.one_of(toward_zero, toward_one)
words = st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=12).map(
    lambda w: np.array(w, dtype=np.int8)
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(p=edge_probability, eps=edge_probability, y=words)
def test_transfer_matches_oracles_near_the_edge(p, eps, y):
    params = validate_params(p, eps)
    model = channel_model(p, eps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cylinder_prob(y, model)
        log_q = log_cylinder_prob(y, model)
        post = forward_backward(y, params)
        fields = (backward_fields(y, model).values, forward_fields(y, model).values)
    expected = brute_force_cylinder(y, params)
    if expected >= ORACLE_FLOOR:
        assert got == pytest.approx(expected, rel=1e-12)
    else:
        assert got <= 2.0 * ORACLE_FLOOR
    assert math.isfinite(log_q)
    assert all(np.all(np.isfinite(f)) for f in fields)
    oracle_minus, oracle_plus = alpha_beta_posteriors(y, p, eps)
    np.testing.assert_allclose(post.q_minus, oracle_minus, rtol=0, atol=1e-12)
    np.testing.assert_allclose(post.q_plus, oracle_plus, rtol=0, atol=1e-12)


@pytest.mark.parametrize("p, eps", [(1e-17, 0.2), (1e-300, 1e-300), (1.0 - 1e-12, 0.2)])
def test_forward_backward_finite_at_probes(p, eps, rng):
    y = rng.choice(np.array([-1, 1], dtype=np.int8), size=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        post = forward_backward(y, validate_params(p, eps))
    oracle_minus, oracle_plus = alpha_beta_posteriors(y, p, eps)
    np.testing.assert_allclose(post.q_minus, oracle_minus, rtol=0, atol=1e-12)
    np.testing.assert_allclose(post.q_plus, oracle_plus, rtol=0, atol=1e-12)


def test_tiny_couplings_stay_finite(rng):
    # p = eps = 1e-300 puts K + |J| near 690, where exp(2 w) overflows
    params = validate_params(1e-300, 1e-300)
    model = channel_model(1e-300, 1e-300)
    y = rng.choice(np.array([-1, 1], dtype=np.int8), size=40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [
            cylinder_prob(y[:10], model),
            cylinder_prob(np.ones(10, dtype=np.int8), model),
            *backward_fields(y, model).values,
            two_sided_conditional(1, y[:5], y[6:12], model),
            two_sided_conditional(-1, y[:5], y[6:12], model),
            *bfp_denoise(y, params, mode="exact")[1].q_plus,
        ]
    assert all(math.isfinite(v) for v in values)
    assert cylinder_prob(np.ones(10, dtype=np.int8), model) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("p, eps", [(0.1, 1e-308), (0.45, 1e-300)])
def test_lane_scan_where_factors_overflow(p, eps, rng, lane_calls):
    # the channel factors eps/(1-eps) and its inverse underflow and overflow in a product with the ratio
    model = channel_model(p, eps)
    y = rng.choice(np.array([-1, 1], dtype=np.int8), size=LANE_WORD)
    for start in (1.0, _fixed_point_ratio(int(y[-1]), model)):
        assert_both_sides_walked(y, model, start)
    assert lane_calls == [True, True]


@pytest.mark.parametrize(
    "p, eps, n", [(0.1, 1e-308, LANE_WORD), (0.45, 1e-300, LANE_WORD), (1e-300, 1e-300, 3), (1e-300, 1e-300, 200)]
)
def test_ratio_readers_stay_in_range(p, eps, n, rng, lane_calls):
    # c^{y_i} rho_l rho_r leaves the double range here; the readers must round it, not warn or give NaN
    params = validate_params(p, eps)
    words = [rng.choice(np.array([-1, 1], dtype=np.int8), size=n), np.ones(n, dtype=np.int8)]
    for y in words:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            post = forward_backward(y, params)
            xhat, marg = bfp_denoise(y, params, mode="exact")
            log_q = log_cylinder_prob(y, params)
        for q in (post.q_minus, post.q_plus, marg.q_minus, marg.q_plus):
            assert np.all((q >= 0.0) & (q <= 1.0))  # false for NaN
        assert math.isfinite(log_q) and log_q <= 0.0
        assert np.isin(xhat.symbols, (-1, 1)).all()
    assert len(lane_calls) == (4 if n == LANE_WORD else 0)  # forward_backward and exact BFP, on both words


@pytest.mark.parametrize("p, eps", [(1e-17, 0.2), (1e-300, 1e-300), (1.0 - 1e-12, 0.2)])
def test_lane_scan_falls_back_without_certificate(p, eps, rng, lane_calls):
    # without a certificate the lanes run all the same; where they do not meet, the word is walked
    model = channel_model(p, eps)
    assert_both_sides_walked(rng.choice(np.array([-1, 1], dtype=np.int8), size=LANE_WORD), model)
    assert len(lane_calls) == 1


def _outcome(query):
    """query() with warnings as errors: its value, or the package error it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return query()
        except NoisyMarkovError as exc:
            return exc


def reference_rate(model):
    """The certified rate by its definition, folded to p, eps <= 1/2.

    The closed form where the channel is cleaner than the source, the naive
    |1-2p| where K = 0, else the root of the two-step supremum over [-C1, C1],
    written out in closed form (its peak lies inside that interval).
    """
    p, eps = model.p, model.epsilon
    pq, eq = min(p, 1.0 - p), min(eps, 1.0 - eps)
    naive = abs(1.0 - 2.0 * p)
    if p == 0.5:
        return 0.0
    if eq < pq:
        return eq * (1.0 - eq) * naive / ((pq - eq) ** 2 + eq * (1.0 - eq))
    if eq == 0.5:
        return naive
    a = (1.0 - pq) ** 2 * (1.0 - eq) + pq**2 * eq
    b = pq**2 * (1.0 - eq) + eq * (1.0 - pq) ** 2
    return naive * math.sqrt(eq * (1.0 - eq)) / (pq * (1.0 - pq) + math.sqrt(a * b))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(p=edge_probability, eps=edge_probability, y=words)
def test_thermo_layer_near_the_edge(p, eps, y):
    model = channel_model(p, eps)  # the cell is valid even where it has no certificate
    rate = reference_rate(model)
    assert (model.decay is None) == (rate >= 1.0)
    bound = _outcome(lambda: decay_rate_bound(model))
    context = _outcome(lambda: required_context(THERMO_TOL, model))
    cert = _outcome(lambda: bowen_gibbs_certificate(model))
    if rate >= 1.0:
        assert all(isinstance(out, OutOfRangeError) for out in (bound, context, cert))
        assert isinstance(_outcome(lambda: g_function(y, THERMO_TOL, model)), NoisyMarkovError)
        return
    assert bound is model.decay
    assert bound.rho == rate
    assert math.isfinite(bound.C)
    assert isinstance(context, int) and context >= 1
    if not isinstance(cert, CertificateOverflowError):
        assert 0.0 < cert.C_lower <= cert.C_upper < math.inf
    # a window long enough to certify g wherever that takes at most G_WINDOW symbols
    g = _outcome(lambda: g_function(np.resize(y, min(context + 1, G_WINDOW)), THERMO_TOL, model))
    if context < G_WINDOW:
        assert 0.0 <= g <= 1.0
    else:
        assert isinstance(g, InsufficientContextError)
