"""Drift of the ratio-space readers from the shift-space arithmetic they replaced.

``forward_backward``, exact ``bfp_denoise`` and ``log_cylinder_prob`` read the
neighbour ratios rho = exp(-2A) of the transfer scan. Before, they took the
shifts A = -log(rho)/2 and exponentiated them again; the oracles in conftest
keep that arithmetic. On lane-length words at three cells the outputs stay
within the bounds below of those oracles and flip no decision.
"""

import math

import numpy as np
import pytest

from noisymarkov.denoise import bfp_denoise, forward_backward, map_denoise
from noisymarkov.model import validate_params
from noisymarkov.transfer import (
    LANE_CUTOVER,
    LANE_WIDTH,
    _cascade_sum,
    _lane_rounds,
    log_cylinder_prob,
    neighbour_ratios,
)

from conftest import (
    random_word,
    shift_space_bfp,
    shift_space_log_cylinder_prob,
    shift_space_posteriors,
)

#: Each posterior, in units in the last place of that posterior (12 seen).
FB_DRIFT_ULP = 16

#: Exact BFP posteriors, absolutely (4 * 2^-53 seen): its two entries cancel
#: where they nearly tie, so a small posterior carries an absolute error.
BFP_DRIFT = 8 * 2.0**-53

#: log Q of the whole word, in units in its last place (1 seen).
LOG_Q_DRIFT_ULP = 2

#: A posterior from the ratios, against the same formula in long double (3 seen).
FB_LONG_DOUBLE_ULP = 4

DRIFT_CELLS = [(0.1, 0.2), (0.02, 0.3), (0.2, 0.2)]

U = 2.0**-53


def ulps(a, b) -> int:
    """Largest distance in units in the last place between two arrays of non-negative floats."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return int(np.max(np.abs(a.view(np.int64) - b.view(np.int64))))


@pytest.fixture(params=DRIFT_CELLS, ids=lambda cell: f"p={cell[0]},eps={cell[1]}")
def lane_word(request, rng):
    """A cell and a word past the lane cut-over of one side by a length that is no multiple of b."""
    params = validate_params(*request.param)
    y = random_word(rng, LANE_CUTOVER * LANE_WIDTH + 3 * LANE_WIDTH + 777)
    assert _lane_rounds(len(y))
    return params, y


def test_forward_backward_drift(lane_word):
    params, y = lane_word
    oracle_minus, oracle_plus = shift_space_posteriors(y, params)
    post = forward_backward(y, params)
    assert ulps(post.q_minus, oracle_minus) <= FB_DRIFT_ULP
    assert ulps(post.q_plus, oracle_plus) <= FB_DRIFT_ULP
    flipped = np.flatnonzero(map_denoise(post).symbols != np.where(oracle_plus >= oracle_minus, 1, -1))
    assert flipped.size == 0, flipped


def test_forward_backward_rounds_as_long_double(lane_word):
    # the same odds formed and inverted in extended precision, where the host has it
    params, y = lane_word
    left, right = (np.asarray(side, dtype=np.longdouble) for side in neighbour_ratios(y, params))
    c = np.longdouble(params.epsilon) / (1 - np.longdouble(params.epsilon))
    odds = left * right * np.where(y == 1, c, 1 / c)
    post = forward_backward(y, params)
    assert ulps(post.q_plus, (1 / (1 + odds)).astype(np.float64)) <= FB_LONG_DOUBLE_ULP
    assert ulps(post.q_minus, (odds / (1 + odds)).astype(np.float64)) <= FB_LONG_DOUBLE_ULP


def test_exact_bfp_drift(lane_word):
    params, y = lane_word
    oracle_x, oracle_minus, oracle_plus = shift_space_bfp(y, params)
    xhat, marg = bfp_denoise(y, params, mode="exact")
    assert np.max(np.abs(marg.q_minus - oracle_minus)) <= BFP_DRIFT
    assert np.max(np.abs(marg.q_plus - oracle_plus)) <= BFP_DRIFT
    flipped = np.flatnonzero(xhat.symbols != oracle_x)
    assert flipped.size == 0, flipped


def test_log_cylinder_prob_drift(lane_word):
    params, y = lane_word
    assert ulps(-log_cylinder_prob(y, params), -shift_space_log_cylinder_prob(y, params)) <= LOG_Q_DRIFT_ULP


def cascade_bound(terms: np.ndarray, exact: float) -> float:
    """The stated bound on |_cascade_sum - fsum|: its own bound plus fsum's half ulp of the exact sum."""
    n = len(terms)
    levels = max(1, math.ceil(math.log2(n)))
    total = abs(exact) / (1.0 - U)
    return (2.0 * U * total + levels * n * U * U * math.fsum(np.abs(terms).tolist())) * (1.0 + 8 * U)


def test_cascade_sum_within_its_bound_of_fsum(rng):
    same_sign = equal = 0
    for word in range(2000):
        n = int(rng.integers(1, 5001))
        if word % 2:
            # logs of probabilities, as log_cylinder_prob sums them
            terms = np.log(rng.uniform(1e-6, 1.0, size=n))
            same_sign += 1
        else:
            # both signs and wide magnitudes, where the terms cancel
            terms = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, size=n)
        exact = math.fsum(terms.tolist())
        got = _cascade_sum(terms)
        assert abs(got - exact) <= cascade_bound(terms, exact), (word, n, got, exact)
        equal += word % 2 and got == exact
    # where the terms share a sign the bound is about one rounding: almost every sum is fsum's
    assert equal >= 0.9 * same_sign
