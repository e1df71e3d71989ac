"""Channel parameters and the coupling constants derived from them.

Every formula in the package reads its constants from a single ``Couplings``
object so that the source flip rate p and channel crossover rate epsilon are
validated exactly once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OutOfRangeError


@dataclass(frozen=True)
class ChannelParams:
    """Validated model parameters: source flip probability p, channel crossover epsilon."""

    p: float
    epsilon: float

    def __post_init__(self) -> None:
        for name in ("p", "epsilon"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise OutOfRangeError(f"{name} must be a real number, got {value!r}")
            value = float(value)
            if not math.isfinite(value):
                raise OutOfRangeError(f"{name} must be finite, got {value}")
            if not 0.0 < value < 1.0:
                raise OutOfRangeError(f"{name} must lie strictly inside (0, 1), got {value}")
            object.__setattr__(self, name, value)


def validate_params(p: float, epsilon: float) -> ChannelParams:
    """Validate (p, epsilon); raises OutOfRangeError rather than clamping."""
    return ChannelParams(p, epsilon)


@dataclass(frozen=True)
class Couplings:
    """All derived constants, kept together with the parameters that produced them.

    J = (1/2) log((1-p)/p)            source coupling, tanh(J) = 1 - 2p
    K = (1/2) log((1-eps)/eps)        field coupling, tanh(K) = 1 - 2 eps
    cJ = cosh(J)                      cylinder prefactor
    lam = 4 cosh(J) cosh(K)           per-symbol normalizer
    r = p/(1-p) = exp(-2J)            ratio form of J, used by the transfer scan
    c = eps/(1-eps) = exp(-2K)        ratio form of K, used by the transfer scan
    """

    p: float
    epsilon: float
    J: float
    K: float
    cJ: float
    lam: float
    r: float
    c: float


def derive_couplings(params: ChannelParams) -> Couplings:
    """Derive all coupling constants from validated parameters. Pure and deterministic."""
    p, eps = params.p, params.epsilon
    J = 0.5 * math.log((1.0 - p) / p)
    K = 0.5 * math.log((1.0 - eps) / eps)
    return Couplings(
        p=p,
        epsilon=eps,
        J=J,
        K=K,
        cJ=math.cosh(J),
        lam=4.0 * math.cosh(J) * math.cosh(K),
        r=p / (1.0 - p),
        c=eps / (1.0 - eps),
    )


def channel_model(p: float, epsilon: float) -> Couplings:
    """Validate raw parameters and derive couplings in one step."""
    return derive_couplings(validate_params(p, epsilon))
