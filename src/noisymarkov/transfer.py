"""Exact output-process probabilities via the transfer recursion.

Summing the hidden spins of the output law one by one reduces the 2^n
configuration sum to a linear right-to-left scan of auxiliary fields

    w_n = K*y_n,    w_i = K*y_i + A(w_{i+1})   for i < n,

where A is the field carried over from a summed-out neighbor and B is the
log-weight that neighbor releases:

    A(w) = (1/2) log( cosh(w+J) / cosh(w-J) ),   |A(w)| <= |J|
    B(w) = (1/2) log( 4 cosh(w+J) cosh(w-J) )
    exp(s*A(w) + B(w)) = 2 cosh(w + s*J)       for s = +-1.

The scan runs on the ratio rho = exp(-2A). With r = p/(1-p) = exp(-2J),
c = eps/(1-eps) = exp(-2K) and u = exp(-2 w_i) = c^{y_i} rho_{i+1}, one step is

    rho_i = m(u) = (r + u) / (1 + r*u).

The step is written once, ``_transfer_step``, without a branch on u: as
m(u) = 1/(r + (1 - r^2)/(u + r)) = s + (1 - s^2)/(u + s) with s = 1/r, it is

    t = a + b / (u + a),    rho_i = 1/t where r <= 1, t where r > 1,

with a = min(r, 1/r) and b = 1 - a^2. Every term is positive, so nothing
cancels and no transcendental function is called, and a u overflowed to inf
gives m(inf) = 1/r. The cell picks its form once; the walk, the lanes and
``field_shift`` all take this one step, so they round alike. Readers of
probabilities stay in ratio form; A = -(1/2) log rho is read off, by one log
on a contiguous array, only where a field or a shift is returned.

Long words are scanned in lanes. The cell's decay certificate (C, rho), which
the model module derives with the couplings (and documents), bounds how far
a field scanned from any start lies from the limit field after L symbols:
C rho^L. Two scans of the same symbols, started from any two shifts in
[-|J|, |J|], therefore differ by at most 2 C rho^L after L steps, through the
limit field. With L the smallest length where that is at
most BURN_IN_TOL = 1e-17, a scan started at zero field L symbols to the right
of a position agrees there with the sequential scan to far below the rounding
of a ratio. So the word is cut into lanes of b = max(LANE_WIDTH, L) symbols;
each lane starts L symbols to its right, and all lanes step together in one
vectorized loop of b + L steps. The lanes of a word and of its reverse, the
two sides of every position, run side by side in the same loop. The last
L + ((n - L) mod b) symbols run sequentially from the true start, so the tail
is exact. A step of the lane loop on a word and its reverse makes a fixed 7
numpy calls where r <= 1 and 6 where r > 1 (a multiply by c^y per word, the
step's operations and a copy into the output), so lanes only pay on long
words: words shorter than LANE_CUTOVER (b + L), and cells whose rho rounds to
1 (no certificate), are scanned sequentially.

The sequential scan is one scalar walk on Python floats over the symbols'
``tolist()``; it keeps every ratio only for the scan, and otherwise returns
the last. A query that needs one shift (a two-sided conditional, a limit
field) walks to it alone and takes one log: by the lane layout, entry i < b of
a lane-scanned word is lane 0's, so only the first b + L symbols are walked,
from zero field. Either way the value is the scan's bit for bit.

Given the symbols to its right, X_i has log-odds 2 A(w_{i+1}), so

    Q(y_i | y_{i+1}^n) = (1-eps) sigma(2 y_i A(w_{i+1})) + eps sigma(-2 y_i A(w_{i+1}))
                       = ((1-eps) + eps rho^{y_i}) / (1 + rho^{y_i}),   rho = rho_{i+1},

with sigma the logistic function; the two-sided conditional adds the shifts of
both sides. Cylinder probabilities are the product of these conditionals,
summed as logarithms in (-inf, 0]: by ``math.fsum``, correctly rounded, where
the word is scanned sequentially, and by a cascade of vectorized TwoSum levels
(``_cascade_sum``) where it is scanned in lanes, within u |S| + d n u^2 |S|
of the exact sum S of its n logs, u = 2^-53 and d = ceil(log2 n): one rounding,
widened by under 3e-9 of itself at n = 10^6. They equal the closed form
(cJ / lam^L) * 2 cosh(w_m) * exp( sum_{i>m} B(w_i) ) for a word of length L on
[m, n].
"""

from __future__ import annotations

import math
import numbers

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import OutOfRangeError
from .model import ChannelParams, DecayBound, channel_model, check_count, check_tolerance
from .sequences import FieldTrajectory, as_spin_array, check_spin

__all__ = [
    "log2cosh",
    "field_shift",
    "field_shift_deriv",
    "log_partition_term",
    "log_partition_term_deriv",
    "backward_fields",
    "forward_fields",
    "neighbour_ratios",
    "fixed_point_field",
    "extended_fields",
    "log_cylinder_prob",
    "cylinder_prob",
    "conditional_prob",
    "two_sided_conditional",
    "two_sided_limit_conditional",
    "scan_burn_in",
    "DecayBound",
    "decay_rate_bound",
    "required_context",
]

#: Width b of a lane of the lane scan; lanes widen to L where the burn-in L exceeds it.
LANE_WIDTH = 1024

#: Lanes run on words of at least LANE_CUTOVER (b + L) symbols; the two scans break even near 56 (b + L).
LANE_CUTOVER = 64

#: Bound on 2 C rho^L, the gap left between a lane and the sequential scan after its burn-in.
BURN_IN_TOL = 1e-17


def check_field(w):
    """Refuse a field ``w`` that is neither a real scalar nor a float array; returns it unchanged.

    Booleans, strings, None, lists and arrays of any other dtype raise
    OutOfRangeError. Only the type and the dtype are read, so checking an
    array costs the same as checking a scalar.
    """
    if isinstance(w, float):  # Python and numpy doubles, tested first as the cheapest
        return w
    if isinstance(w, np.ndarray):
        if w.dtype.kind == "f":
            return w
    elif isinstance(w, numbers.Real) and not isinstance(w, bool):
        return w
    raise OutOfRangeError(f"a field must be a real number or an array of floats, got {w!r}")


def log2cosh(x):
    """log(2 cosh(x)), safe against overflow for large |x|."""
    ax = np.abs(check_field(x))
    return ax + np.log1p(np.exp(-2.0 * ax))


def _transfer_step(model: ChannelParams):
    """The cell's transfer map u = exp(-2w) -> m(u) = exp(-2 A(w)), in the branch-free form, on floats or arrays."""
    r = model.r
    a = min(r, 1.0 / r)
    b = 1.0 - a * a
    if r <= 1.0:
        return lambda u: 1.0 / (a + b / (u + a))
    return lambda u: a + b / (u + a)


def _shift_from_ratio(rho, model: ChannelParams):
    """A = -(1/2) log rho, clamped to the interval |A| <= |J| that it obeys exactly."""
    bound = abs(model.J)
    return np.minimum(np.maximum(-0.5 * np.log(rho), -bound), bound)


def field_shift(w, model: ChannelParams):
    """Field A(w) passed to the left neighbor when a spin feeling field w is summed out.

    Evaluates the transfer step at u = exp(-2|w|) <= 1 and uses that A is odd;
    |A(w)| <= |J| for all real w. Accepts scalars or arrays.
    """
    rho = _transfer_step(model)(np.exp(-2.0 * np.abs(check_field(w))))
    return np.sign(w) * _shift_from_ratio(rho, model)


def field_shift_deriv(w, model: ChannelParams):
    """dA/dw = sinh(2J) / (cosh(2J) + cosh(2w)), evaluated overflow-safely."""
    s2j = math.sinh(2.0 * model.J)
    c2j = math.cosh(2.0 * model.J)
    u = 2.0 * np.abs(check_field(w))
    eu = np.exp(-u)
    # sinh(2J) / (cosh(2J) + cosh(u)) multiplied through by 2 e^{-u}
    return 2.0 * s2j * eu / (1.0 + eu * eu + 2.0 * c2j * eu)


def log_partition_term(w, model: ChannelParams):
    """Per-site log-partition contribution B(w) = (1/2) log(4 cosh(w+J) cosh(w-J))."""
    J = model.J
    w = check_field(w)
    return 0.5 * (log2cosh(w + J) + log2cosh(w - J))


def log_partition_term_deriv(w, model: ChannelParams):
    """dB/dw = (tanh(w+J) + tanh(w-J)) / 2."""
    J = model.J
    w = check_field(w)
    return 0.5 * (np.tanh(w + J) + np.tanh(w - J))


def decay_rate_bound(params) -> DecayBound:
    """The decay certificate of the cell: read off a ChannelParams, derived for any other (p, epsilon)."""
    model = params if isinstance(params, ChannelParams) else channel_model(params.p, params.epsilon)
    if model.decay is None:
        raise OutOfRangeError(
            f"no decay certificate at (p, epsilon) = ({model.p!r}, {model.epsilon!r}): "
            "1 - rho is not representable in double precision"
        )
    return model.decay


def required_context(tol: float, model) -> int:
    """Smallest context length L with C * rho^L < tol."""
    tol = check_tolerance(tol)
    bound = decay_rate_bound(model)
    if bound.rho == 0.0 or bound.C < tol:
        return 1
    return max(1, math.floor(math.log(tol / bound.C) / math.log(bound.rho)) + 1)


def _walk(symbols: np.ndarray, model: ChannelParams, shift_init: float, record: list | None = None) -> float:
    """The transfer step run one symbol at a time, right to left, from ``shift_init``, on Python floats.

    Returns the last ratio. ``record``, where given, receives every ratio from
    the start on, in the order the walk takes them.
    """
    c = model.c
    inv_c = 1.0 / c
    step = _transfer_step(model)
    rho = math.exp(-2.0 * shift_init)
    if record is not None:
        record.append(rho)
    for symbol in reversed(symbols.tolist()):
        rho = step((c if symbol == 1 else inv_c) * rho)
        if record is not None:
            record.append(rho)
    return rho


def _sequential_ratios(symbols: np.ndarray, model: ChannelParams, shift_init: float) -> np.ndarray:
    """The ratios of every position, walked one symbol at a time from ``shift_init``."""
    ratios = []
    _walk(symbols, model, shift_init, ratios)
    return np.array(ratios[::-1])


def scan_burn_in(n: int, model) -> int | None:
    """Burn-in L of the lane scan of a word of n symbols, or None where the scan runs sequentially.

    ``model`` is the cell, as ``decay_rate_bound`` takes it. L is the smallest
    length with 2 C rho^L <= BURN_IN_TOL for the decay certificate (C, rho) of
    the cell. The sequential loop runs where the word is shorter than
    LANE_CUTOVER (b + L), with b = max(LANE_WIDTH, L), or where the cell has no
    certificate because rho rounds to 1.
    """
    check_count("n", n)
    if n < LANE_CUTOVER * (LANE_WIDTH + 1):  # too short for any L: skip the certificate
        return None
    try:
        burn_in = required_context(0.5 * BURN_IN_TOL, model)
    except OutOfRangeError:
        return None
    return burn_in if n >= LANE_CUTOVER * (max(LANE_WIDTH, burn_in) + burn_in) else None


def _channel_factors(symbols: np.ndarray, model: ChannelParams) -> np.ndarray:
    """c^{y_i} of every symbol, looked up in a table of two entries (faster than a where)."""
    return np.array([1.0 / model.c, model.c])[(symbols == 1).view(np.uint8)]


def _lane_ratios(words: list[np.ndarray], model: ChannelParams, width: int, burn_in: int) -> list[np.ndarray]:
    """Ratios of the first len(w) - burn_in positions of each of ``words``, scanned in lanes of ``width``.

    The words have one length; each result is a (lanes, width) view whose row j
    is lane j. Lane j of a word covers positions [j*width, (j+1)*width) and
    starts at zero field (rho = 1) ``burn_in`` symbols to its right; the lanes
    of all the words take their steps together, one vectorized step per symbol
    of a lane. Each step reads its factors c^y straight off the factor array
    of each word, through a strided view.
    """
    lanes = (len(words[0]) - burn_in) // width
    span = width + burn_in
    # row s of a word's view holds the factor of the s-th step of each of its lanes, right to left
    rows = [sliding_window_view(_channel_factors(symbols, model), span)[::width][:lanes, ::-1].T for symbols in words]
    step = _transfer_step(model)
    rho, u = np.ones((len(words), lanes)), np.empty((len(words), lanes))
    # out[q] holds position q of every lane
    out = np.empty((width, *rho.shape))
    with np.errstate(all="ignore"):
        for s in range(span):
            for k, row in enumerate(rows):
                np.multiply(row[s], rho[k], out=u[k])
            rho = step(u)
            if s >= burn_in:
                out[width - 1 - (s - burn_in)] = rho
    return [out[:, k].T for k in range(len(words))]


def _scan_ratios(words: list[np.ndarray], model: ChannelParams, shift_init: float = 0.0) -> list[np.ndarray]:
    """Right-to-left transfer scans, in ratio form, of words of one length n.

    Entry i < n of a word's scan is rho_i = exp(-2 A(w_i)), for the shift that
    position i passes to its left neighbor; entry n is exp(-2 ``shift_init``),
    for the shift of the field beyond the word.

    Long words are scanned in lanes (see the module docstring), with burn-in
    L = ``scan_burn_in(n, model)`` and lane width b = max(LANE_WIDTH, L); the
    lanes of every word run in one loop. The last T = L + ((n - L) mod b)
    symbols run sequentially from ``shift_init``, so the tail is exact. Every
    other lane of b symbols starts at zero field L symbols to its right. This
    is sound because two scans of the same symbols from any two shifts in
    [-|J|, |J|] lie within C rho^L of the limit field after L steps, so within
    2 C rho^L <= BURN_IN_TOL of each other.
    """
    n = len(words[0])
    burn_in = scan_burn_in(n, model)
    if burn_in is None:
        return [_sequential_ratios(symbols, model, shift_init) for symbols in words]
    width = max(LANE_WIDTH, burn_in)
    head = n - burn_in - (n - burn_in) % width
    scans = []
    for lanes, symbols in zip(_lane_ratios(words, model, width, burn_in), words):
        ratios = np.empty(n + 1)
        ratios[:head].reshape(lanes.shape)[...] = lanes
        ratios[head:] = _sequential_ratios(symbols[head:], model, shift_init)
        scans.append(ratios)
    return scans


def _scan_shifts(symbols: np.ndarray, model: ChannelParams, shift_init: float = 0.0) -> np.ndarray:
    """The shifts A(w_i) of ``_scan_ratios`` of one word, read off its ratios by one log."""
    (ratios,) = _scan_ratios([symbols], model, shift_init)
    return _shift_from_ratio(ratios, model)


def _leading_shift(symbols: np.ndarray, model: ChannelParams, shift_init: float = 0.0, i: int = 0) -> float:
    """Entry i < LANE_WIDTH of ``_scan_shifts(symbols, model, shift_init)``, bit for bit, alone.

    Where the word is scanned in lanes, entry i lies in lane 0, which starts at
    zero field at symbol b + L - 1: so only symbols i..b+L-1 are walked. The one
    log is numpy's, as on the scan's array, since ``math.log`` rounds
    differently on some ratios.
    """
    burn_in = scan_burn_in(len(symbols), model)
    if burn_in is not None:
        symbols, shift_init = symbols[: max(LANE_WIDTH, burn_in) + burn_in], 0.0
    return float(_shift_from_ratio(np.float64(_walk(symbols[i:], model, shift_init)), model))


def _fixed_point_shift(symbol: int, model: ChannelParams) -> float:
    """A(w) at the limit field w = K*symbol + A(w) of the constant sequence of ``symbol``.

    Its ratio rho is the attracting fixed point of rho -> m(f rho), f = c^symbol:
    the positive root of r f rho^2 + (1 - f) rho - r = 0, taken for f <= 1 in a
    form free of cancellation; f > 1 follows from A being odd.
    """
    f = model.c if symbol == 1 else 1.0 / model.c
    g = min(f, 1.0 / f)
    rho = 2.0 * model.r / ((1.0 - g) + math.hypot(1.0 - g, 2.0 * model.r * math.sqrt(g)))
    shift = float(_shift_from_ratio(rho, model))
    return shift if f <= 1.0 else -shift


def backward_fields(y, model: ChannelParams) -> FieldTrajectory:
    """Fields w_i^{(n)} for i = m..n of the word y on window [m, n], scanned right to left.

    The base case is w_n = K*y_n, i.e. the field beyond the last symbol is zero.
    """
    arr = as_spin_array(y)
    return FieldTrajectory(model.K * arr + _scan_shifts(arr, model)[1:])


def forward_fields(y, model: ChannelParams) -> FieldTrajectory:
    """Mirror of backward_fields for a left context, scanned left to right.

    The recursion w_{j+1} = K*y_{j+1} + A(w_j) starts from w_m = K*y_m, so the
    returned values equal backward_fields of the reversed word, reversed back:
    the scan of the reversed word, read back to front without its last entry.
    """
    arr = as_spin_array(y)
    return FieldTrajectory(model.K * arr + _scan_shifts(arr[::-1], model)[:0:-1])


def neighbour_ratios(y, model: ChannelParams) -> tuple[np.ndarray, np.ndarray]:
    """Ratios exp(-2A) of the shifts A(wf_{i-1}) and A(wb_{i+1}) that the two sides of every position put on it.

    wf are the forward and wb the backward fields of the whole word; an absent
    side (left of the first, right of the last position) contributes zero
    shift, ratio 1. Given y, the hidden spin X_i has odds
    P(X_i = -1) / P(X_i = +1) = c^{y_i} rho_l rho_r. The word and its reverse
    are scanned in one lane loop.
    """
    arr = as_spin_array(y)
    right, left = _scan_ratios([arr, arr[::-1]], model)
    return left[:0:-1], right[1:]


def fixed_point_field(symbol: int, model: ChannelParams) -> float:
    """Limit field of the constant sequence of ``symbol``: solves w = K*symbol + A(w)."""
    symbol = check_spin("symbol", symbol)
    return model.K * symbol + _fixed_point_shift(symbol, model)


def _extended_shift(arr: np.ndarray, model: ChannelParams, i: int = 0) -> float:
    """Entry i of the scan of arr extended to the right by repeating its last symbol."""
    return _leading_shift(arr, model, _fixed_point_shift(int(arr[-1]), model), i)


def extended_fields(y, model: ChannelParams) -> np.ndarray:
    """Limit fields at the positions of y when y is extended by repeating its last symbol.

    Every position at or beyond the last given symbol sees a constant tail, so
    its field is the attracting fixed point; the remaining positions follow by
    the usual right-to-left scan. The result is exact (machine accuracy) for
    the declared extension.
    """
    arr = as_spin_array(y)
    return model.K * arr + _scan_shifts(arr, model, _fixed_point_shift(int(arr[-1]), model))[1:]


def _extended_field(arr: np.ndarray, model: ChannelParams) -> float:
    """``extended_fields(arr, model)[0]`` of a checked word, bit for bit, from one walk."""
    return model.K * float(arr[0]) + _extended_shift(arr, model, 1)


def _symbol_prob(y: float, shift: float, model: ChannelParams) -> float:
    """Q(y | rest) when the rest of the word puts the field ``shift`` on the hidden spin of y.

    On Python floats, with the one exp numpy's, taken on an ``np.float64``.
    """
    x = 2.0 * y * shift
    e = float(np.exp(np.float64(-abs(x))))
    big, small = 1.0 / (1.0 + e), e / (1.0 + e)
    high, low = (big, small) if x >= 0 else (small, big)
    return (1.0 - model.epsilon) * high + model.epsilon * low


def _cascade_sum(terms: np.ndarray) -> float:
    """The sum of ``terms`` by a cascade of vectorized TwoSum levels, after Ogita, Rump & Oishi (2005).

    Each level adds the first half of the terms to the second elementwise,
    s = a + b, and keeps the rounding error of each sum exactly by TwoSum,
    e = (a - (s - z)) + (b - z) with z = s - a; an odd term out is carried.
    So the terms' sum equals the last s plus the carried terms plus every e,
    exactly. Each level's errors are added by numpy's sum, and the last s, the
    carried terms and those level sums are added by ``math.fsum``. With
    u = 2^-53 and d = ceil(log2 n) levels, every error obeys |e| <= u |s| and a
    level's |s| add up to at most (1 + u)^d sum |x_i|, so

        |result - sum x_i| <= u |sum x_i| + d n u^2 sum |x_i|.

    Where the terms share a sign, as logs of probabilities do, that is one
    rounding of the exact sum, widened by a relative d n u, under 3e-9 for
    n <= 10^6.
    """
    parts = []
    while len(terms) > 1:
        if len(terms) % 2:
            parts.append(float(terms[-1]))
            terms = terms[:-1]
        half = len(terms) // 2
        a, b = terms[:half], terms[half:]
        s = a + b
        z = s - a
        e = s - z
        np.subtract(a, e, out=e)
        np.subtract(b, z, out=z)
        e += z
        parts.append(float(e.sum()))
        terms = s
    return math.fsum([*terms.tolist(), *parts])


def log_cylinder_prob(y, model: ChannelParams) -> float:
    """log Q(y_m^n), assembled in log space so long words do not underflow.

    With rho the ratio of the shift the right of position i puts on it,
    Q(y_i | y_{i+1}^n) = ((1 - eps) + eps rho^{y_i}) / (1 + rho^{y_i}). The logs
    are summed by ``math.fsum`` where the word is scanned sequentially, and by
    ``_cascade_sum`` where it is scanned in lanes.
    """
    arr = as_spin_array(y)
    (ratios,) = _scan_ratios([arr], model)
    rho = ratios[1:]
    z = 1.0 / rho
    np.copyto(z, rho, where=arr == 1)
    del ratios, rho
    logs = model.epsilon * z
    logs += 1.0 - model.epsilon
    z += 1.0
    logs /= z
    del z
    np.log(logs, out=logs)
    if scan_burn_in(len(arr), model) is None:
        return math.fsum(logs.tolist())
    return _cascade_sum(logs)


def cylinder_prob(y, model: ChannelParams) -> float:
    """Q(y_m^n) via the transfer recursion; matches the brute-force oracle to 1e-12."""
    return math.exp(log_cylinder_prob(y, model))


def conditional_prob(y0: int, future, model: ChannelParams) -> float:
    """One-sided conditional Q(y0 | y_1^n): the two-sided one with an empty left context, of shift 0."""
    arr = as_spin_array(future)
    return _symbol_prob(check_spin("y0", y0), _leading_shift(arr, model), model)


def two_sided_conditional(y0: int, left, right, model: ChannelParams) -> float:
    """Two-sided conditional Q(y0 | left context, right context).

    Either context may be empty; an absent side contributes field zero, which
    reduces the formula to the one-sided conditional (or to the marginal 1/2
    when both sides are empty).
    """
    y0 = check_spin("y0", y0)
    left_arr = as_spin_array(left, allow_empty=True)
    right_arr = as_spin_array(right, allow_empty=True)
    # the left recursion equals the right recursion run on the reversed context
    shift = _leading_shift(left_arr[::-1], model) + _leading_shift(right_arr, model)
    return _symbol_prob(y0, shift, model)


def two_sided_limit_conditional(y0: int, left, right, tol: float, model: ChannelParams) -> float:
    """Two-sided conditional with both contexts extended to their limits.

    Each nonempty context is treated as the visible part of an infinite context
    obtained by repeating its last symbol; the fields of that extension are
    computed to machine accuracy through the attracting fixed point, so the
    value is exact for that extension. Empty sides keep the field-zero
    convention. The decay certificate bounds the influence of any other unseen
    tail by C * rho^len for each side, but no certificate is consulted here:
    ``tol`` is only checked to be positive, and short contexts are not refused.
    """
    y0 = check_spin("y0", y0)
    check_tolerance(tol)
    shift = 0.0
    for context in (as_spin_array(left, allow_empty=True)[::-1], as_spin_array(right, allow_empty=True)):
        if len(context):
            shift += _extended_shift(context, model)
    return _symbol_prob(y0, shift, model)
