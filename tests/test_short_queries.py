"""The short-query fast paths against the code they replaced, bit for bit.

``oracle.brute_force_cylinder`` looks its powers up by count, short words
have their Q formed on Python floats in ``log_cylinder_prob``, and
``bowen_gibbs_ratio`` walks the scan of the extension from the fixed point
only until it meets the scan from ratio 1. Each is held equal to the
reference kept in ``conftest.py`` at the seven digest cells, which include
the edge cells (0.45, 1e-300) and (1e-300, 1e-300). Both first fast paths
take numpy's log, not ``math.log``, as the package does wherever it logs a
ratio, and a test searches out an input where the two round apart.
"""

import math

import numpy as np
import pytest

from noisymarkov import oracle
from noisymarkov.model import validate_params
from noisymarkov.transfer import (
    SHORT_WORD_CUTOVER,
    _extended_field,
    _extended_ratio,
    _fixed_point_ratio,
    _rejoined_ratios,
    _scan_ratios,
    _shift_from_ratio,
    log_cylinder_prob,
)
from noisymarkov.thermo import bowen_gibbs_ratio

from conftest import (
    array_log_cylinder_prob,
    power_brute_force_cylinder,
    random_word,
    two_scan_bowen_gibbs_ratio,
    walked_ratios,
)
from test_reader_digests import CELLS, _key

#: Lengths of the words ``bowen_gibbs_ratio`` is held to its reference at.
BOWEN_LENGTHS = (1, 2, 3, 15, 16, 17, 48, 49, 100, 241, 1000, 5000)


@pytest.mark.parametrize("cell", CELLS, ids=_key)
def test_brute_force_takes_the_per_configuration_powers_values(cell, rng):
    params = validate_params(*cell)
    for length in range(1, 17):
        words = [random_word(rng, length) for _ in range(3)]
        words += [np.ones(length, dtype=np.int8), -np.ones(length, dtype=np.int8)]
        for y in words:
            assert oracle.brute_force_cylinder(y, params) == power_brute_force_cylinder(y, *cell)


def test_spin_word_code_is_the_sum_of_its_bits(rng):
    for length in (1, 7, 8, 9, 16, 22, 63, 64, 65, 200):
        y = random_word(rng, length)
        assert oracle.spin_word_code(y) == sum(1 << i for i, v in enumerate(y.tolist()) if v == -1)


@pytest.mark.parametrize("cell", CELLS, ids=_key)
def test_short_log_cylinder_prob_equals_the_array_formula(cell, rng):
    model = validate_params(*cell)
    for length in range(1, 2 * SHORT_WORD_CUTOVER + 1):
        for y in (random_word(rng, length), np.ones(length, dtype=np.int8)):
            assert log_cylinder_prob(y, model) == array_log_cylinder_prob(y, model)


@pytest.mark.parametrize("cell", CELLS, ids=_key)
def test_bowen_gibbs_ratio_equals_its_two_scans(cell, rng):
    model = validate_params(*cell)
    for length in BOWEN_LENGTHS:
        for y in (random_word(rng, length), -np.ones(length, dtype=np.int8)):
            assert bowen_gibbs_ratio(y, model) == two_scan_bowen_gibbs_ratio(y, model)


@pytest.mark.parametrize("cell", CELLS, ids=_key)
def test_rejoined_ratios_equal_the_walk_from_the_fixed_point(cell, rng):
    model = validate_params(*cell)
    for length in BOWEN_LENGTHS:
        y = random_word(rng, length)
        start = _fixed_point_ratio(int(y[-1]), model)
        (scan,) = _scan_ratios(y, model)
        np.testing.assert_array_equal(_rejoined_ratios(y, model, start, scan), walked_ratios(y, model, start))


def test_rejoined_ratios_on_a_word_scanned_in_lanes(rng):
    # long enough for the lanes, which must give the walk's values for both starts
    model = validate_params(0.1, 0.2)
    y = random_word(rng, 90_000)
    start = _fixed_point_ratio(int(y[-1]), model)
    (scan,) = _scan_ratios(y, model)
    np.testing.assert_array_equal(_rejoined_ratios(y, model, start, scan), _scan_ratios(y, model, start)[0])


def test_walks_that_never_meet_inside_the_word():
    # at p = 1e-300 the chain never forgets its start: the two walks stay apart over the whole word
    model = validate_params(1e-300, 0.2)
    y = np.ones(1000, dtype=np.int8)
    y[::3] = -1
    start = _fixed_point_ratio(int(y[-1]), model)
    (scan,) = _scan_ratios(y, model)
    rejoined = _rejoined_ratios(y, model, start, scan)
    assert not np.any(rejoined == scan)
    np.testing.assert_array_equal(rejoined, walked_ratios(y, model, start))
    assert bowen_gibbs_ratio(y, model) == two_scan_bowen_gibbs_ratio(y, model)


def _first_apart(values, found):
    """The first of ``values`` at which ``found`` gives a pair of different results, and that pair; skips if none."""
    for value in values:
        numpy_way, math_way = found(value)
        if numpy_way != math_way:
            return value, numpy_way, math_way
    pytest.skip("numpy's log and math.log round alike on every searched input on this host")


def test_the_package_takes_numpys_log_where_math_log_rounds_apart():
    model = validate_params(0.1, 0.2)
    rng = np.random.default_rng(31)
    bound = abs(model.J)

    def field(y):
        rho = _extended_ratio(y, model, 1)
        math_shift = min(max(-0.5 * math.log(rho), -bound), bound)
        return (model.K * float(y[0]) + float(_shift_from_ratio(np.float64(rho), model)),
                model.K * float(y[0]) + math_shift)

    y, numpy_field, math_field = _first_apart((random_word(rng, 12) for _ in range(20_000)), field)
    assert _extended_field(y, model) == numpy_field != math_field

    def log_q(y):
        eps = model.epsilon
        rho = walked_ratios(y, model)[1:]
        q = (np.where(y == 1, eps, 1.0 - eps) * rho + np.where(y == 1, 1.0 - eps, eps)) / (rho + 1.0)
        return math.fsum(np.log(q).tolist()), math.fsum(map(math.log, q.tolist()))

    y, numpy_log_q, math_log_q = _first_apart((random_word(rng, 12) for _ in range(20_000)), log_q)
    assert len(y) < SHORT_WORD_CUTOVER
    assert log_cylinder_prob(y, model) == numpy_log_q != math_log_q
