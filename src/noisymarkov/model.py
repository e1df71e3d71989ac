"""One cell of the model: the parameters, their couplings and the decay certificate.

A ``ChannelParams`` validates the source flip rate p and the channel crossover
rate epsilon once, and derives every constant the formulas of the package
read, the cell's decay certificate included, when it is built. The package
checks each kind of scalar argument in one place: ``check_probability`` (inside
(0, 1)), ``check_tolerance`` (positive) and ``check_count`` (counts, lengths,
seeds) here, ``sequences.check_spin`` for a symbol and ``transfer.check_field``
for the argument of a field map.

Decay-rate certificate. The naive contraction rate of the field map
w -> K*y + A(w) of the transfer module is sup|dA/dw| = |1-2p|. When the
channel is cleaner than the source (min(eps,1-eps) < min(p,1-p)) the fields
stay a fixed distance away from zero and the rate improves to the closed form

    rho = eps(1-eps) |1-2p| / ((p-eps)^2 + eps(1-eps))   (folded to p,eps <= 1/2).

Otherwise two consecutive steps are contracted jointly and
rho = sqrt( sup_w |A'(K + A(w)) A'(w)| ) < |1-2p|, the supremum taken over the
invariant field interval |w| <= C1 = |K|+|J|. With u = exp(-2w), folded to
r, c <= 1, A'(w) = u (1-r^2) / ((r+u)(1+r*u)) and K + A(w) has ratio c*m(u),
so the factor (r+u)(1+r*u) cancels from the product, which is the rational
function

    (1-r^2)^2 c u / ((r(1+c) + (r^2+c) u) (1 + r^2 c + r(1+c) u)).

It peaks at u* = sqrt((1 + r^2 c) / (r^2 + c)), which lies in [1, 1/(r c)],
inside the interval [exp(-2 C1), exp(2 C1)] that the fields obey. So the
supremum over that interval is the global one. Written in p and eps (folded to
p, eps <= 1/2), which avoids the cancellation in 1 - r^2 near p = 1/2,

    rho = (1-2p) sqrt(eps(1-eps)) / (p(1-p) + sqrt(a b)),
    a = (1-p)^2 (1-eps) + p^2 eps,   b = p^2 (1-eps) + eps (1-p)^2.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

from .errors import OutOfRangeError


@dataclass(frozen=True)
class ChannelParams:
    """One validated cell: source flip probability p and channel crossover epsilon.

    Building it derives the constants below, once; only (p, epsilon) enter
    repr, equality and hash. p or epsilon at or below 1/sys.float_info.max is
    refused, as (1 - v)/v overflows there and J or K would be infinite.

    J = (1/2) log((1-p)/p)            source coupling, tanh(J) = 1 - 2p
    K = (1/2) log((1-eps)/eps)        field coupling, tanh(K) = 1 - 2 eps
    cJ = cosh(J)                      cylinder prefactor
    lam = 4 cosh(J) cosh(K)           per-symbol normalizer
    r = p/(1-p) = exp(-2J)            ratio form of J, used by the transfer scan
    c = eps/(1-eps) = exp(-2K)        ratio form of K, used by the transfer scan
    decay                             the decay certificate, None where rho rounds to 1
    """

    p: float
    epsilon: float
    J: float = field(init=False, repr=False, compare=False)
    K: float = field(init=False, repr=False, compare=False)
    cJ: float = field(init=False, repr=False, compare=False)
    lam: float = field(init=False, repr=False, compare=False)
    r: float = field(init=False, repr=False, compare=False)
    c: float = field(init=False, repr=False, compare=False)
    decay: DecayBound | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p, eps = check_probability("p", self.p), check_probability("epsilon", self.epsilon)
        if min(p, eps) <= 1.0 / sys.float_info.max:
            raise OutOfRangeError(f"p and epsilon must exceed 1/sys.float_info.max, got ({p!r}, {eps!r})")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "epsilon", eps)
        J = 0.5 * math.log((1.0 - p) / p)
        K = 0.5 * math.log((1.0 - eps) / eps)
        derived = dict(J=J, K=K, cJ=math.cosh(J), lam=4.0 * math.cosh(J) * math.cosh(K),
                       r=p / (1.0 - p), c=eps / (1.0 - eps),
                       decay=_decay_bound(p, eps, abs(K) + abs(J)))
        for name, value in derived.items():
            object.__setattr__(self, name, value)


def validate_params(p: float, epsilon: float) -> ChannelParams:
    """Validate (p, epsilon) and derive the cell; raises OutOfRangeError rather than clamping."""
    return ChannelParams(p, epsilon)


#: validate_params under its second name; both build the same cell.
channel_model = validate_params


def check_probability(name: str, value) -> float:
    """Refuse a probability ``value`` that is not a real number strictly inside (0, 1).

    Returns it as a float. Booleans, strings, NaN and +-inf raise OutOfRangeError.
    """
    if not isinstance(value, numbers.Real) or isinstance(value, bool) or not 0.0 < value < 1.0:
        raise OutOfRangeError(f"{name} must be a real number strictly inside (0, 1), got {value!r}")
    return float(value)


def check_tolerance(tol) -> float:
    """Refuse a tolerance ``tol`` that is not a positive real number; returns it as a float."""
    if not isinstance(tol, numbers.Real) or isinstance(tol, bool) or not tol > 0.0:
        raise OutOfRangeError(f"tol must be a positive real number, got {tol!r}")
    return float(tol)


def check_count(name: str, value, least: int = 0) -> None:
    """Refuse a count, length, depth or seed ``value`` that is not an integer >= ``least``.

    Python and numpy integers pass; booleans and floats, integral or not, raise
    OutOfRangeError, as does a value below ``least``.
    """
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise OutOfRangeError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise OutOfRangeError(f"{name} must be >= {least}, got {value}")


@dataclass(frozen=True)
class DecayBound:
    """Certified geometric decay of field memory: |w_i^{(n)} - w_i| <= C * rho^(n-i).

    regime is one of "naive" (rate |1-2p|), "eps_lt_p" (closed form) or
    "second_iterate" (closed-form supremum over two composed steps).
    C = C1/(1-rho) with C1 = |K| + |J|, the radius of the invariant interval.
    """

    rho: float
    regime: str
    C: float
    C1: float

    @property
    def theta(self) -> float:
        """Holder exponent with respect to the 2^-n metric: theta = -log2(rho)."""
        return math.inf if self.rho == 0.0 else -math.log2(self.rho)


def _decay_bound(p: float, eps: float, c1: float) -> DecayBound | None:
    """The decay certificate of the cell (module docstring), or None where rho rounds to 1."""
    naive = abs(1.0 - 2.0 * p)
    if p == 0.5:
        rho, regime = 0.0, "naive"
    else:
        # the output law is invariant under eps -> 1-eps (and p -> 1-p) up to sign
        # flips, and |J|, |K| only see the folded values
        pq, eq = min(p, 1.0 - p), min(eps, 1.0 - eps)
        if eq < pq:
            rho = eq * (1.0 - eq) * naive / ((pq - eq) ** 2 + eq * (1.0 - eq))
            regime = "eps_lt_p"
        elif eq == 0.5:
            # K = 0: the two-step product peaks at w = 0 with value (1-2p)^2,
            # so the second iterate brings no improvement
            rho, regime = naive, "naive"
        else:
            # the peak of the two-step product at u* (module docstring), in p and eps:
            # the same form in r and c loses digits to 1 - r^2 near p = 1/2
            a = (1.0 - pq) ** 2 * (1.0 - eq) + pq**2 * eq
            b = pq**2 * (1.0 - eq) + eq * (1.0 - pq) ** 2
            rho = naive * math.sqrt(eq * (1.0 - eq)) / (pq * (1.0 - pq) + math.sqrt(a * b))
            regime = "second_iterate"
    if rho >= 1.0:
        return None
    return DecayBound(rho=rho, regime=regime, C=c1 / (1.0 - rho), C1=c1)
