"""Gibbs structure of the output law: g-function, potential, pressure, decay rates.

The one-sided conditional probabilities of the output process converge
uniformly, so the process is a g-measure with

    g(y) = cosh(w_0) exp(B(w_1)) / (lam cosh(w_1))
         = (P(y_0 | +1) + P(y_0 | -1) t) / (1 + t),   t = exp(-2 A(w_1)),

where w_i are the limit fields of the infinite tail and t the odds
P(X_0 = -1) / P(X_0 = +1) it puts on the hidden spin: g is computed as the
one-sided conditional, by the transfer module's one formula for every
Q(y | context). It is also a Bowen-Gibbs measure for the potential
phi(y) = B(w_0(y)) at pressure P = log(lam), with an explicit sandwich
constant pair, and 2*g admits the continued fraction

    2g = a_1 - b_1/(a_2 - b_2/(a_3 - ...)),
    q_i = (1-2p) y_{i-1} y_i,  a_i = 1 + q_i,  b_i = 4 eps (1-eps) q_i.

Finite inputs are interpreted through the repeat-last-symbol extension; the
decay certificate C * rho^L, built once per cell with its ``ChannelParams``
(see the model module), bounds the influence of the unseen tail, so every
limit quantity here carries a guaranteed error bar. Every query reads that
certificate through ``decay_rate_bound`` rather than deriving it again.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import CertificateOverflowError, DivisionNearZeroError, InsufficientContextError
from .model import ChannelParams, check_count, check_tolerance
from .sequences import as_spin_array
from .transfer import (
    DecayBound,
    _extended_field,
    _extended_ratio,
    _log_prob_and_extended_fields,
    _symbol_prob,
    decay_rate_bound,
    log2cosh,
    log_partition_term,
    log_partition_term_deriv,
    required_context,
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

#: Logs of the largest and of the smallest positive double: the Bowen-Gibbs
#: constants are refused where log C_upper or log C_lower falls outside them.
LOG_FLOAT_MAX = math.log(sys.float_info.max)
LOG_FLOAT_TINY = math.log(math.ulp(0.0))


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


def _check_certified(n: int, tol: float, model: ChannelParams) -> None:
    """Refuse a context of n symbols whose unseen tail the decay certificate does not bound below ``tol``."""
    bound = decay_rate_bound(model)
    if bound.rho > 0.0 and bound.C * bound.rho**n >= tol:
        raise InsufficientContextError(
            f"context of length {n} certifies only {bound.C * bound.rho**n:.3e} > tol = {tol:.3e}; "
            f"need at least {required_context(tol, model)} symbols"
        )


def limit_field(y, tol: float, model: ChannelParams) -> float:
    """Limit field w_0 of the one-sided sequence starting with y, within tol.

    The value is computed along the repeat-last-symbol extension of y; the
    decay certificate guarantees that any other tail changes it by less than
    C * rho^len(y), which must be below tol (InsufficientContextError otherwise).
    """
    arr = as_spin_array(y)
    _check_certified(len(arr), check_tolerance(tol), model)
    return _extended_field(arr, model)


def g_function(y, tol: float, model: ChannelParams) -> float:
    """Conditional probability g(y) = Q(y_0 | y_1, y_2, ...) of the first symbol.

    Bit for bit ``two_sided_limit_conditional(y_0, [], y_1^n, tol, model)``,
    read off the repeat-last-symbol extension of the tail; as |dg/dw_1| <= 1/2,
    certifying the tail field to tol certifies g to tol.
    """
    arr = as_spin_array(y)
    if len(arr) < 2:
        raise InsufficientContextError("g needs the leading symbol plus a nonempty tail")
    _check_certified(len(arr) - 1, check_tolerance(tol), model)
    return _symbol_prob(int(arr[0]), _extended_ratio(arr, model, 1), model)


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


def g_continued_fraction_detail(y, depth: int, model: ChannelParams) -> ContinuedFractionResult:
    """Continued-fraction evaluation of g, truncated at ``depth``, with diagnostics.

    The backward recurrence starts from the attracting fixed-point value of the
    repeat-last-symbol tail rather than from zero, which removes the leading
    truncation error. Denominators below NEAR_ZERO_DENOMINATOR raise
    DivisionNearZeroError; the result is reported, never patched.
    """
    check_count("depth", depth, 1)
    arr = as_spin_array(y)
    if len(arr) < depth + 1:
        raise InsufficientContextError(
            f"continued fraction of depth {depth} needs {depth + 1} symbols, got {len(arr)}"
        )
    t2p = 1.0 - 2.0 * model.p
    t2e = 1.0 - 2.0 * model.epsilon
    four_ee = 4.0 * model.epsilon * (1.0 - model.epsilon)
    q = t2p * arr[:depth].astype(np.float64) * arr[1 : depth + 1].astype(np.float64)
    a = (1.0 + q).tolist()
    b = (four_ee * q).tolist()
    b_size = abs(four_ee * t2p)  # |b_i|, the same at every level as q_i = +-(1-2p)
    u = _tail_value(t2p, t2e)
    size = min_den = abs(u)
    sensitivity = 1.0
    for i in range(depth - 1, -1, -1):
        if size < NEAR_ZERO_DENOMINATOR:
            raise DivisionNearZeroError(
                f"denominator {u:.3e} below {NEAR_ZERO_DENOMINATOR} at level {i + 1}"
            )
        sensitivity *= b_size / (u * u)
        u = a[i] - b[i] / u
        size = abs(u)
        if size < min_den:
            min_den = size
    return ContinuedFractionResult(
        value=0.5 * u, depth=depth, min_denominator=min_den, tail_sensitivity=sensitivity
    )


def g_continued_fraction(y, depth: int, model: ChannelParams) -> float:
    """g evaluated through its continued fraction, truncated at ``depth``."""
    return g_continued_fraction_detail(y, depth, model).value


def gibbs_potential(y, tol: float, model: ChannelParams) -> float:
    """Potential phi(y) = B(w_0(y)); |dB/dw| <= 1 so the field tolerance carries over."""
    w0 = limit_field(y, tol, model)
    return float(log_partition_term(w0, model))


def coboundary(y, tol: float, model: ChannelParams) -> float:
    """h(y) = cosh(w_0) exp(-B(w_0)); satisfies g = (e^phi / lam) h / (h o shift)."""
    w0 = limit_field(y, tol, model)
    return math.cosh(w0) * math.exp(-float(log_partition_term(w0, model)))


def pressure(model: ChannelParams) -> float:
    """Pressure of the potential: P = log(lam)."""
    return math.log(model.lam)


def bowen_gibbs_certificate(model: ChannelParams) -> GibbsCertificate:
    """Explicit sandwich constants for the Bowen-Gibbs property of the output law.

    All suprema/infima are taken over the invariant interval I = [-C1, C1].
    B is even with B'' = (sech^2(w+J) + sech^2(w-J))/2 > 0, so B' is odd and
    increasing: B, |B'| and cosh are all even and increasing in |w|, and each
    extremum sits at an end of I. So sup|B'| = B'(C1), sup B = B(C1),
    inf B = B(0), sup cosh = cosh(C1) and inf cosh = 1. The factor 2 matches
    the closed-form cylinder formula in the transfer module docstring.

    Where C_upper would overflow or C_lower underflow to 0, which is decided on
    their logs before any exponential is taken, CertificateOverflowError is
    raised.
    """
    bound = decay_rate_bound(model)
    c1 = bound.C1
    sup_dB = float(log_partition_term_deriv(c1, model))
    sup_B = float(log_partition_term(c1, model))
    inf_B = float(log_partition_term(0.0, model))
    exponent = bound.C * sup_dB / (1.0 - bound.rho)
    # the logs of C_upper and C_lower, as 2 cJ = exp(B(0))
    log_upper = float(log2cosh(c1)) - math.log(2.0) + exponent
    log_lower = inf_B - sup_B - exponent
    if not (log_upper <= LOG_FLOAT_MAX and log_lower >= LOG_FLOAT_TINY):
        raise CertificateOverflowError(
            f"Bowen-Gibbs constants at (p, epsilon) = ({model.p!r}, {model.epsilon!r}) leave "
            f"double precision: log C_upper = {log_upper:.6g}, log C_lower = {log_lower:.6g}"
        )
    correction = math.exp(exponent)
    c_upper = 2.0 * model.cJ * math.cosh(c1) * math.exp(-inf_B) * correction
    c_lower = 2.0 * model.cJ * math.exp(-sup_B) / correction
    return GibbsCertificate(pressure=pressure(model), C_lower=c_lower, C_upper=c_upper)


def bowen_gibbs_ratio(y, model: ChannelParams) -> float:
    """Ratio Q(y_0^n) / exp(S_{n+1} phi(y) - (n+1) P) for the repeat-extension of y.

    Both the cylinder probability and the Birkhoff sum are assembled in log
    space, so the ratio stays well-defined for words far longer than the
    underflow threshold of a raw probability. Q and the fields come from one
    scan of the word and a walk of its extension that stops where it meets
    that scan.
    """
    arr = as_spin_array(y)
    log_q, fields = _log_prob_and_extended_fields(arr, model)
    birkhoff = math.fsum(log_partition_term(fields, model).tolist())
    return math.exp(log_q - (birkhoff - len(arr) * math.log(model.lam)))


def variation_estimate(n: int, samples: int, model: ChannelParams, seed: int) -> float:
    """Largest observed |g(y) - g(y~)| over pairs agreeing on their first n symbols.

    Pairs are adversarial: a common random prefix of length n continued by the
    all +1 tail versus the all -1 tail, which is where the variation of g is
    attained for a monotone field map. Prefix streams are drawn from per-sample
    spawned substreams, so estimates at different n are nested (the length-n
    prefix of every sample extends its length-(n-1) prefix).
    """
    check_count("n", n, 1)
    check_count("samples", samples, 1)
    check_count("seed", seed)
    worst = 0.0
    for child in np.random.SeedSequence(seed).spawn(samples):
        rng = np.random.default_rng(child)
        prefix = (1 - 2 * rng.integers(0, 2, size=n, dtype=np.int64)).astype(np.int8)
        # g of the prefix continued by tail, tail, ..., as g_function reads it
        plus, minus = (_symbol_prob(int(prefix[0]), _extended_ratio(np.append(prefix, tail), model, 1), model)
                       for tail in (1, -1))
        worst = max(worst, abs(plus - minus))
    return worst
