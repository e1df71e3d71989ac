"""The transfer recursion near the edge of the parameter domain.

(p, eps) are drawn log-uniformly toward 0, down to 1e-300, and toward 1. There
cylinder probabilities must still meet the brute-force oracle, the posteriors
must still meet the alpha/beta oracle, and no call may warn or raise. On long
words the lane scan must equal the sequential scan where a decay certificate
exists, and give way to it silently where none does.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisymarkov.denoise import bfp_denoise, forward_backward
from noisymarkov.model import channel_model, validate_params
from noisymarkov.oracle import brute_force_cylinder
from noisymarkov.transfer import (
    _fixed_point_shift,
    _scan_shifts,
    _sequential_shifts,
    backward_fields,
    cylinder_prob,
    forward_fields,
    log_cylinder_prob,
    scan_burn_in,
    two_sided_conditional,
)

from conftest import alpha_beta_posteriors

#: Below this the oracle's own terms go subnormal and lose their relative accuracy.
ORACLE_FLOOR = 1e-290

#: Long enough to be scanned in lanes at every cell below that has a decay certificate.
LANE_WORD = 70_000

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
def test_lane_scan_where_factors_overflow(p, eps, rng):
    # a certificate exists, but the channel factors eps/(1-eps) and its inverse
    # underflow and overflow in a product with the ratio
    model = channel_model(p, eps)
    y = rng.choice(np.array([-1, 1], dtype=np.int8), size=LANE_WORD)
    assert scan_burn_in(len(y), model) is not None
    for init in (0.0, _fixed_point_shift(int(y[-1]), model)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lanes = _scan_shifts(y, model, init)
        assert np.all(np.isfinite(lanes))
        np.testing.assert_array_equal(lanes, _sequential_shifts(y, model, init))


@pytest.mark.parametrize("p, eps", [(1e-17, 0.2), (1e-300, 1e-300), (1.0 - 1e-12, 0.2)])
def test_lane_scan_falls_back_without_certificate(p, eps, rng):
    model = channel_model(p, eps)
    y = rng.choice(np.array([-1, 1], dtype=np.int8), size=LANE_WORD)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert scan_burn_in(len(y), model) is None
        shifts = _scan_shifts(y, model)
    np.testing.assert_array_equal(shifts, _sequential_shifts(y, model, 0.0))
