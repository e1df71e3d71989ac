"""Gibbs structure of the output law: g-function, potential, pressure, decay rates.

The one-sided conditional probabilities of the output process converge
uniformly, so the process is a g-measure with

    g(y) = cosh(w_0) exp(B(w_1)) / (lam cosh(w_1))
         = 1/2 + (1/2)(1-2p)(1-2eps) y_0 tanh(w_1),

where w_i are the limit fields of the infinite tail. It is also a Bowen-Gibbs
measure for the potential phi(y) = B(w_0(y)) at pressure P = log(lam), with an
explicit sandwich constant pair, and 2*g admits the continued fraction

    2g = a_1 - b_1/(a_2 - b_2/(a_3 - ...)),
    q_i = (1-2p) y_{i-1} y_i,  a_i = 1 + q_i,  b_i = 4 eps (1-eps) q_i.

Finite inputs are interpreted through the repeat-last-symbol extension; the
decay certificate C * rho^L bounds the influence of the unseen tail, so every
limit quantity here carries a guaranteed error bar.

Decay-rate certificate. The naive contraction rate of the field map is
sup|dA/dw| = |1-2p|. When the channel is cleaner than the source
(min(eps,1-eps) < min(p,1-p)) the fields stay a fixed distance away from zero
and the rate improves to the closed form

    rho = eps(1-eps) |1-2p| / ((p-eps)^2 + eps(1-eps))   (folded to p,eps <= 1/2).

Otherwise two consecutive steps are contracted jointly and
rho = sqrt( sup_w |A'(K + A(w)) A'(w)| ) < |1-2p|, with the supremum taken
numerically over the invariant field interval [-(|K|+|J|), |K|+|J|].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DivisionNearZeroError, InsufficientContextError, OutOfRangeError
from .model import Couplings, channel_model
from .sequences import as_spin_array
from .transfer import (
    extended_fields,
    field_shift,
    field_shift_deriv,
    log_cylinder_prob,
    log_partition_term,
    log_partition_term_deriv,
)

__all__ = [
    "DecayBound",
    "GibbsCertificate",
    "ContinuedFractionResult",
    "decay_rate_bound",
    "required_context",
    "limit_field",
    "g_function",
    "g_continued_fraction",
    "g_continued_fraction_detail",
    "gibbs_potential",
    "coboundary",
    "pressure",
    "bowen_gibbs_certificate",
    "bowen_gibbs_ratio",
    "variation_estimate",
]

#: Denominator magnitude below which continued-fraction evaluation refuses to proceed.
NEAR_ZERO_DENOMINATOR = 1e-13


@dataclass(frozen=True)
class DecayBound:
    """Certified geometric decay of field memory: |w_i^{(n)} - w_i| <= C * rho^(n-i).

    regime is one of "naive" (rate |1-2p|), "eps_lt_p" (closed form) or
    "second_iterate" (numerical supremum over two composed steps).
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


@dataclass(frozen=True)
class GibbsCertificate:
    """Sandwich constants: C_lower <= Q(y_0^n) / exp(S_{n+1} phi - (n+1) P) <= C_upper."""

    pressure: float
    C_lower: float
    C_upper: float


@dataclass(frozen=True)
class ContinuedFractionResult:
    """Continued-fraction evaluation with truncation diagnostics.

    tail_sensitivity is |d(2g)/d(u_tail)|, the product of b_i/u_{i+1}^2 along
    the backward recurrence; min_denominator is the smallest |u| encountered.
    """

    value: float
    depth: int
    min_denominator: float
    tail_sensitivity: float


def _golden_max(f, lo: float, hi: float, xtol: float = 1e-12) -> tuple[float, float]:
    """Golden-section maximization of a scalar function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _grid_golden_max(f, lo: float, hi: float, grid_points: int = 10_001, xtol: float = 1e-12) -> float:
    """Dense-grid scan followed by golden-section refinement around the best cell."""
    xs = np.linspace(lo, hi, grid_points)
    fs = np.asarray(f(xs), dtype=np.float64)
    i = int(np.argmax(fs))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, grid_points - 1)]
    _, fmax = _golden_max(lambda x: float(f(x)), float(a), float(b), xtol)
    return max(fmax, float(fs[i]))


def second_iterate_product(w, model: Couplings):
    """|A'(K + A(w)) * A'(w)|, the two-step contraction factor at field w."""
    inner = model.K + field_shift(w, model)
    return np.abs(field_shift_deriv(inner, model) * field_shift_deriv(w, model))


@lru_cache(maxsize=512)
def _decay_rate_bound_cached(p: float, eps: float) -> DecayBound:
    model = channel_model(p, eps)
    c1 = abs(model.K) + abs(model.J)
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
            folded = channel_model(pq, eq)
            sup2 = _grid_golden_max(lambda w: second_iterate_product(w, folded), -c1, c1)
            rho, regime = math.sqrt(sup2), "second_iterate"
    if rho >= 1.0:
        raise OutOfRangeError(
            f"no decay certificate at (p, epsilon) = ({p!r}, {eps!r}): "
            "1 - rho is not representable in double precision"
        )
    return DecayBound(rho=rho, regime=regime, C=c1 / (1.0 - rho), C1=c1)


def decay_rate_bound(params) -> DecayBound:
    """Certified decay rate for (p, epsilon); accepts ChannelParams or Couplings."""
    return _decay_rate_bound_cached(params.p, params.epsilon)


def required_context(tol: float, model) -> int:
    """Smallest context length L with C * rho^L < tol."""
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    bound = decay_rate_bound(model)
    if bound.rho == 0.0 or bound.C < tol:
        return 1
    return max(1, math.floor(math.log(tol / bound.C) / math.log(bound.rho)) + 1)


def _certified_context(y, tol: float, model: Couplings) -> np.ndarray:
    arr = as_spin_array(y)
    bound = decay_rate_bound(model)
    if bound.rho > 0.0 and bound.C * bound.rho ** len(arr) >= tol:
        raise InsufficientContextError(
            f"context of length {len(arr)} certifies only "
            f"{bound.C * bound.rho ** len(arr):.3e} > tol = {tol:.3e}; "
            f"need at least {required_context(tol, model)} symbols"
        )
    return arr


def limit_field(y, tol: float, model: Couplings) -> float:
    """Limit field w_0 of the one-sided sequence starting with y, within tol.

    The value is computed along the repeat-last-symbol extension of y; the
    decay certificate guarantees that any other tail changes it by less than
    C * rho^len(y), which must be below tol (InsufficientContextError otherwise).
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    arr = _certified_context(y, tol, model)
    return float(extended_fields(arr, model)[0])


def g_function(y, tol: float, model: Couplings) -> float:
    """Conditional probability g(y) = Q(y_0 | y_1, y_2, ...) of the first symbol.

    Evaluated as 1/2 + (1/2)(1-2p)(1-2eps) y_0 tanh(w_1) with w_1 the limit
    field of the tail; |dg/dw_1| <= 1/2, so certifying the tail field to tol
    certifies g to tol.
    """
    arr = as_spin_array(y)
    if len(arr) < 2:
        raise InsufficientContextError("g needs the leading symbol plus a nonempty tail")
    w1 = limit_field(arr[1:], tol, model)
    t2p = 1.0 - 2.0 * model.p
    t2e = 1.0 - 2.0 * model.epsilon
    return 0.5 + 0.5 * t2p * t2e * float(arr[0]) * math.tanh(w1)


def _tail_value(q_inf: float, t2e: float) -> float:
    """Attracting fixed point of u -> (1 + q) - 4eps(1-eps) q / u for the constant tail.

    The two fixed points solve u^2 - (1+q) u + 4eps(1-eps) q = 0; the attracting
    one has the larger modulus (the multiplier of the Moebius map at a fixed
    point u is b/u^2 and the product of the two roots is b). The discriminant
    is evaluated as (1-q)^2 + 4 q (1-2eps)^2, which is exact when eps = 1/2
    (tail value 1) and avoids cancellation for q > 0.
    """
    a_inf = 1.0 + q_inf
    disc = (1.0 - q_inf) ** 2 + 4.0 * q_inf * t2e * t2e
    root = math.sqrt(disc)
    u_hi = 0.5 * (a_inf + root)
    u_lo = 0.5 * (a_inf - root)
    return u_hi if abs(u_hi) >= abs(u_lo) else u_lo


def g_continued_fraction_detail(y, depth: int, model: Couplings) -> ContinuedFractionResult:
    """Continued-fraction evaluation of g, truncated at ``depth``, with diagnostics.

    The backward recurrence starts from the attracting fixed-point value of the
    repeat-last-symbol tail rather than from zero, which removes the leading
    truncation error. Denominators below NEAR_ZERO_DENOMINATOR raise
    DivisionNearZeroError; the result is reported, never patched.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    arr = as_spin_array(y)
    if len(arr) < depth + 1:
        raise InsufficientContextError(
            f"continued fraction of depth {depth} needs {depth + 1} symbols, got {len(arr)}"
        )
    t2p = 1.0 - 2.0 * model.p
    t2e = 1.0 - 2.0 * model.epsilon
    four_ee = 4.0 * model.epsilon * (1.0 - model.epsilon)
    q = t2p * arr[:depth].astype(np.float64) * arr[1 : depth + 1].astype(np.float64)
    a = 1.0 + q
    b = four_ee * q
    u = _tail_value(t2p, t2e)
    min_den = abs(u)
    sensitivity = 1.0
    for i in range(depth - 1, -1, -1):
        if abs(u) < NEAR_ZERO_DENOMINATOR:
            raise DivisionNearZeroError(
                f"denominator {u:.3e} below {NEAR_ZERO_DENOMINATOR} at level {i + 1}"
            )
        sensitivity *= abs(b[i]) / (u * u)
        u = a[i] - b[i] / u
        min_den = min(min_den, abs(u))
    return ContinuedFractionResult(
        value=0.5 * u, depth=depth, min_denominator=min_den, tail_sensitivity=sensitivity
    )


def g_continued_fraction(y, depth: int, model: Couplings) -> float:
    """g evaluated through its continued fraction, truncated at ``depth``."""
    return g_continued_fraction_detail(y, depth, model).value


def gibbs_potential(y, tol: float, model: Couplings) -> float:
    """Potential phi(y) = B(w_0(y)); |dB/dw| <= 1 so the field tolerance carries over."""
    w0 = limit_field(y, tol, model)
    return float(log_partition_term(w0, model))


def coboundary(y, tol: float, model: Couplings) -> float:
    """h(y) = cosh(w_0) exp(-B(w_0)); satisfies g = (e^phi / lam) h / (h o shift)."""
    w0 = limit_field(y, tol, model)
    return math.cosh(w0) * math.exp(-float(log_partition_term(w0, model)))


def pressure(model: Couplings) -> float:
    """Pressure of the potential: P = log(lam)."""
    return math.log(model.lam)


def bowen_gibbs_certificate(model: Couplings) -> GibbsCertificate:
    """Explicit sandwich constants for the Bowen-Gibbs property of the output law.

    All suprema/infima are taken over the invariant interval I = [-C1, C1].
    cosh and B are even and increasing in |w|, so their extrema sit at 0 and
    C1; sup|dB/dw| is located by the numerical search. The factor 2 matches
    the closed-form cylinder formula in the transfer module docstring.
    """
    bound = decay_rate_bound(model)
    c1 = bound.C1
    sup_dB = _grid_golden_max(
        lambda w: np.abs(log_partition_term_deriv(w, model)), -c1, c1
    )
    grid = np.linspace(-c1, c1, 10_001)
    b_vals = log_partition_term(grid, model)
    sup_B, inf_B = float(np.max(b_vals)), float(np.min(b_vals))
    sup_cosh = math.cosh(c1)
    inf_cosh = 1.0
    correction = math.exp(bound.C * sup_dB / (1.0 - bound.rho))
    c_upper = 2.0 * model.cJ * sup_cosh * math.exp(-inf_B) * correction
    c_lower = 2.0 * model.cJ * inf_cosh * math.exp(-sup_B) / correction
    return GibbsCertificate(pressure=pressure(model), C_lower=c_lower, C_upper=c_upper)


def bowen_gibbs_ratio(y, model: Couplings) -> float:
    """Ratio Q(y_0^n) / exp(S_{n+1} phi(y) - (n+1) P) for the repeat-extension of y.

    Both the cylinder probability and the Birkhoff sum are assembled in log
    space, so the ratio stays well-defined for words far longer than the
    underflow threshold of a raw probability.
    """
    arr = as_spin_array(y)
    n1 = len(arr)
    fields = extended_fields(arr, model)
    birkhoff = math.fsum(log_partition_term(fields, model))
    log_ratio = log_cylinder_prob(arr, model) - (birkhoff - n1 * math.log(model.lam))
    return math.exp(log_ratio)


def variation_estimate(n: int, samples: int, model: Couplings, seed: int) -> float:
    """Largest observed |g(y) - g(y~)| over pairs agreeing on their first n symbols.

    Pairs are adversarial: a common random prefix of length n continued by the
    all +1 tail versus the all -1 tail, which is where the variation of g is
    attained for a monotone field map. Prefix streams are drawn from per-sample
    spawned substreams, so estimates at different n are nested (the length-n
    prefix of every sample extends its length-(n-1) prefix).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    half_tt = 0.5 * (1.0 - 2.0 * model.p) * (1.0 - 2.0 * model.epsilon)
    worst = 0.0
    for child in np.random.SeedSequence(seed).spawn(samples):
        rng = np.random.default_rng(child)
        prefix = (1 - 2 * rng.integers(0, 2, size=n, dtype=np.int64)).astype(np.int8)
        g_pair = []
        for tail in (1, -1):
            # field at position 1 of the prefix continued by tail, tail, ...
            w1 = float(extended_fields(np.append(prefix[1:], tail), model)[0])
            g_pair.append(0.5 + half_tt * float(prefix[0]) * math.tanh(w1))
        worst = max(worst, abs(g_pair[0] - g_pair[1]))
    return worst
