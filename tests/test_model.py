import inspect
import math
import pickle
import sys

import numpy as np
import pytest

from noisymarkov import thermo, transfer
from noisymarkov.denoise import (
    default_context_length,
    dude,
    emission_column,
    emission_inverse,
    estimate_p_moment,
    posterior_from_two_sided,
)
from noisymarkov.errors import OutOfRangeError
from noisymarkov.model import ChannelParams, channel_model, validate_params
from noisymarkov.oracle import code_to_spins, enumerate_cylinder_table
from noisymarkov.simulate import generate_dataset, sample_markov, transmit
from noisymarkov.thermo import g_continued_fraction_detail, variation_estimate

from conftest import PARAM_GRID


class TestValidateParams:
    def test_in_range(self):
        params = validate_params(0.2, 0.1)
        assert params.p == 0.2
        assert params.epsilon == 0.1

    @pytest.mark.parametrize(
        "p,eps",
        [(0.0, 0.1), (1.0, 0.1), (0.2, 0.0), (0.2, 1.0), (-0.3, 0.1), (0.2, 7.0)],
    )
    def test_boundaries_excluded(self, p, eps):
        with pytest.raises(OutOfRangeError):
            validate_params(p, eps)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(OutOfRangeError):
            validate_params(bad, 0.1)
        with pytest.raises(OutOfRangeError):
            validate_params(0.2, bad)

    @pytest.mark.parametrize("tiny", [5e-309, 5e-324, 1.0 / sys.float_info.max])
    def test_cells_whose_couplings_overflow_are_refused(self, tiny):
        # at or below 1/sys.float_info.max, (1 - v)/v overflows and J or K is infinite
        with pytest.raises(OutOfRangeError):
            validate_params(tiny, 0.2)
        with pytest.raises(OutOfRangeError):
            validate_params(0.2, tiny)

    @pytest.mark.parametrize("p, eps", [(0.1, 1e-308), (6e-309, 6e-309)])
    def test_smallest_cells_are_accepted(self, p, eps):
        params = validate_params(p, eps)
        assert all(math.isfinite(v) for v in (params.J, params.K, params.cJ, params.lam, params.r, params.c))

    def test_non_real_rejected(self):
        with pytest.raises(OutOfRangeError):
            validate_params("0.2", 0.1)
        with pytest.raises(OutOfRangeError):
            validate_params(0.2, True)

    def test_numpy_scalars_accepted_as_float(self):
        params = validate_params(np.float32(0.2), np.float64(0.1))
        assert type(params.p) is float and type(params.epsilon) is float
        assert params.p == float(np.float32(0.2))

    @pytest.mark.parametrize("bad", [True, False, np.bool_(True)])
    def test_booleans_rejected(self, bad):
        with pytest.raises(OutOfRangeError):
            validate_params(bad, 0.1)
        with pytest.raises(OutOfRangeError):
            validate_params(0.2, bad)

    def test_half_is_legal(self):
        # J or K = 0 is rejected only by operations that invert the channel
        assert validate_params(0.5, 0.5).p == 0.5

    def test_immutable(self):
        params = validate_params(0.2, 0.1)
        with pytest.raises(AttributeError):
            params.p = 0.3


class TestDeriveCouplings:
    """The constants that validate_params derives with the cell."""

    def test_reference_point(self):
        # e^J = 2 and e^K = 3 at (0.2, 0.1)
        m = validate_params(0.2, 0.1)
        assert m.J == pytest.approx(math.log(2.0), rel=1e-14)
        assert m.K == pytest.approx(math.log(3.0), rel=1e-14)
        assert m.cJ == pytest.approx(1.25, rel=1e-14)
        assert m.lam == pytest.approx(25.0 / 3.0, rel=1e-14)

    def test_symmetric_point(self):
        m = validate_params(0.5, 0.5)
        assert m.J == 0.0
        assert m.K == 0.0
        assert m.lam == pytest.approx(4.0, rel=1e-14)

    def test_equal_rates(self):
        m = validate_params(0.2, 0.2)
        assert m.J == m.K

    def test_normalizer_forms_agree(self, rng):
        # lam = 2(cosh(J+K) + cosh(J-K)) = 4 cosh(J) cosh(K)
        points = PARAM_GRID + [tuple(rng.uniform(0.01, 0.99, size=2)) for _ in range(50)]
        for p, eps in points:
            m = validate_params(p, eps)
            other = 2.0 * (math.cosh(m.J + m.K) + math.cosh(m.J - m.K))
            assert m.lam == pytest.approx(other, rel=1e-14)
            assert m.lam > 0.0

    def test_tanh_identities(self, rng):
        for p, eps in PARAM_GRID + [tuple(rng.uniform(0.01, 0.99, size=2)) for _ in range(50)]:
            m = validate_params(p, eps)
            assert math.tanh(m.J) == pytest.approx(1.0 - 2.0 * p, rel=1e-14, abs=1e-15)
            assert math.tanh(m.K) == pytest.approx(1.0 - 2.0 * eps, rel=1e-14, abs=1e-15)

    def test_deterministic_and_pure(self):
        derived = ("J", "K", "cJ", "lam", "r", "c", "decay")
        first, second = validate_params(0.37, 0.21), validate_params(0.37, 0.21)
        assert [getattr(first, name) for name in derived] == [getattr(second, name) for name in derived]

    def test_half_gives_zero_coupling(self):
        assert validate_params(0.5, 0.2).J == 0.0
        assert validate_params(0.2, 0.5).K == 0.0

    def test_identity_is_the_pair(self):
        params = validate_params(0.2, 0.1)
        assert repr(params) == "ChannelParams(p=0.2, epsilon=0.1)"
        assert params == ChannelParams(0.2, 0.1) != ChannelParams(0.2, 0.3)
        assert hash(params) == hash(ChannelParams(0.2, 0.1))
        with pytest.raises(AttributeError):
            params.J = 1.0

    def test_one_function_builds_the_cell(self):
        assert channel_model is validate_params


def _takes_a_cell(func) -> bool:
    return inspect.isfunction(func) and {"model", "params"} & set(inspect.signature(func).parameters)


CELL_FUNCTIONS = {
    f"{module.__name__.rpartition('.')[2]}.{name}": getattr(module, name)
    for module in (transfer, thermo)
    for name in module.__all__
    if _takes_a_cell(getattr(module, name))
}

_WORD = np.resize(np.array([1, 1, -1, 1, -1, -1, 1], dtype=np.int8), 200)

#: An argument for every other parameter name of the functions in CELL_FUNCTIONS.
CELL_FUNCTION_ARGS = {
    "w": np.linspace(-3.0, 3.0, 7),
    "y": _WORD,
    "left": _WORD[:30],
    "right": _WORD[30:60],
    "future": _WORD[:30],
    "symbol": 1,
    "y0": -1,
    "tol": 1e-6,
    "depth": 20,
    "n": 5,
    "samples": 3,
    "seed": 0,
}


@pytest.mark.parametrize("func", CELL_FUNCTIONS.values(), ids=CELL_FUNCTIONS.keys())
def test_cell_functions_take_the_validated_cell(func):
    """Every public transfer and thermo function gives the same bits for validate_params' cell."""

    def call(cell):
        return func(*(
            cell if name in ("model", "params") else CELL_FUNCTION_ARGS[name]
            for name in inspect.signature(func).parameters
        ))

    assert pickle.dumps(call(validate_params(0.1, 0.2))) == pickle.dumps(call(channel_model(0.1, 0.2)))


def test_cell_functions_found():
    assert {"transfer.cylinder_prob", "transfer.decay_rate_bound", "thermo.g_function",
            "thermo.bowen_gibbs_certificate", "thermo.variation_estimate"} <= set(CELL_FUNCTIONS)


CELL = validate_params(0.1, 0.2)

#: Calls given a negative seed, a count that is not an integer or a float seed, and
#: calls given a probability, tolerance or spin symbol that is not one.
BAD_COUNT_CALLS = {
    "generate_dataset-seed": lambda: generate_dataset(CELL, 10, -1),
    "sample_markov-seed": lambda: sample_markov(0.1, 10, -1),
    "transmit-seed": lambda: transmit(_WORD, 0.2, -1),
    "variation_estimate-seed": lambda: variation_estimate(3, 2, CELL, -1),
    "generate_dataset-float-seed": lambda: generate_dataset(CELL, 10, 1.0),
    "g_continued_fraction_detail-depth": lambda: g_continued_fraction_detail(_WORD, 2.5, CELL),
    "dude-k": lambda: dude(_WORD, 0.2, k=2.5),
    "generate_dataset-n": lambda: generate_dataset(CELL, 2.5, 0),
    "sample_markov-n": lambda: sample_markov(0.1, 2.5, 0),
    "variation_estimate-samples": lambda: variation_estimate(3, 2.5, CELL, 0),
    "enumerate_cylinder_table-length": lambda: enumerate_cylinder_table(2.5, CELL),
    "default_context_length-n": lambda: default_context_length(2.5),
    "code_to_spins-code": lambda: code_to_spins(2.5, 3),
    "generate_dataset-bool-n": lambda: generate_dataset(CELL, True, 0),
    "sample_markov-str-p": lambda: sample_markov("0.1", 10, 0),
    "transmit-str-epsilon": lambda: transmit(_WORD, "0.2", 0),
    "dude-str-epsilon": lambda: dude(_WORD, "0.2", 2),
    "dude-zero-epsilon": lambda: dude(_WORD, 0.0, 1),
    "estimate_p_moment-str-epsilon": lambda: estimate_p_moment(_WORD, "0.2"),
    "required_context-str-tol": lambda: transfer.required_context("1e-6", CELL),
    "g_function-str-tol": lambda: thermo.g_function(_WORD, "1e-6", CELL),
    "two_sided_limit_conditional-str-tol":
        lambda: transfer.two_sided_limit_conditional(1, _WORD, _WORD, "1e-6", CELL),
    "posterior_from_two_sided-str-q2": lambda: posterior_from_two_sided("ab", 1, CELL),
    "posterior_from_two_sided-array-y_n":
        lambda: posterior_from_two_sided([0.5, 0.5], np.array([1, 1]), CELL),
    "two_sided_conditional-array-y0":
        lambda: transfer.two_sided_conditional(np.array([1, 1]), _WORD, _WORD, CELL),
    "emission_inverse-nan-epsilon": lambda: emission_inverse(math.nan),
    "emission_column-str-epsilon": lambda: emission_column("0.1", 1),
}

#: The field maps, each given a field argument that is neither a real scalar nor a float array.
FIELD_MAPS = {
    "log2cosh": transfer.log2cosh,
    **{name: lambda w, f=getattr(transfer, name): f(w, CELL) for name in (
        "field_shift", "field_shift_deriv", "log_partition_term", "log_partition_term_deriv")},
}
BAD_FIELDS = {"str": "0.5", "None": None, "bool": True, "list": [0.5], "int-array": np.array([1, 2])}
BAD_COUNT_CALLS.update({
    f"{name}-{kind}-w": lambda f=f, w=w: f(w)
    for name, f in FIELD_MAPS.items() for kind, w in BAD_FIELDS.items()
})


@pytest.mark.parametrize("call", BAD_COUNT_CALLS.values(), ids=BAD_COUNT_CALLS.keys())
def test_bad_count_or_seed_is_out_of_range(call):
    with pytest.raises(OutOfRangeError):
        call()


def test_numpy_integer_counts_and_seeds_are_accepted():
    path = generate_dataset(CELL, np.int64(50), np.uint32(7))
    assert path.y == generate_dataset(CELL, 50, 7).y
