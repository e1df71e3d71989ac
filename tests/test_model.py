import math

import pytest

from noisymarkov.errors import OutOfRangeError
from noisymarkov.model import channel_model, derive_couplings, validate_params

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

    def test_non_real_rejected(self):
        with pytest.raises(OutOfRangeError):
            validate_params("0.2", 0.1)
        with pytest.raises(OutOfRangeError):
            validate_params(0.2, True)

    def test_half_is_legal(self):
        # J or K = 0 is rejected only by operations that invert the channel
        assert validate_params(0.5, 0.5).p == 0.5

    def test_immutable(self):
        params = validate_params(0.2, 0.1)
        with pytest.raises(AttributeError):
            params.p = 0.3


class TestDeriveCouplings:
    def test_reference_point(self):
        # e^J = 2 and e^K = 3 at (0.2, 0.1)
        m = channel_model(0.2, 0.1)
        assert m.J == pytest.approx(math.log(2.0), rel=1e-14)
        assert m.K == pytest.approx(math.log(3.0), rel=1e-14)
        assert m.cJ == pytest.approx(1.25, rel=1e-14)
        assert m.lam == pytest.approx(25.0 / 3.0, rel=1e-14)

    def test_symmetric_point(self):
        m = channel_model(0.5, 0.5)
        assert m.J == 0.0
        assert m.K == 0.0
        assert m.lam == pytest.approx(4.0, rel=1e-14)

    def test_equal_rates(self):
        m = channel_model(0.2, 0.2)
        assert m.J == m.K

    def test_normalizer_forms_agree(self, rng):
        # lam = 2(cosh(J+K) + cosh(J-K)) = 4 cosh(J) cosh(K)
        points = PARAM_GRID + [tuple(rng.uniform(0.01, 0.99, size=2)) for _ in range(50)]
        for p, eps in points:
            m = channel_model(p, eps)
            other = 2.0 * (math.cosh(m.J + m.K) + math.cosh(m.J - m.K))
            assert m.lam == pytest.approx(other, rel=1e-14)
            assert m.lam > 0.0

    def test_tanh_identities(self, rng):
        for p, eps in PARAM_GRID + [tuple(rng.uniform(0.01, 0.99, size=2)) for _ in range(50)]:
            m = channel_model(p, eps)
            assert math.tanh(m.J) == pytest.approx(1.0 - 2.0 * p, rel=1e-14, abs=1e-15)
            assert math.tanh(m.K) == pytest.approx(1.0 - 2.0 * eps, rel=1e-14, abs=1e-15)

    def test_deterministic_and_pure(self):
        params = validate_params(0.37, 0.21)
        assert derive_couplings(params) == derive_couplings(params)

    def test_half_gives_zero_coupling(self):
        assert channel_model(0.5, 0.2).J == 0.0
        assert channel_model(0.2, 0.5).K == 0.0
