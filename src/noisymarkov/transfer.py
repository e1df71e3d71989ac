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
``field_shift`` all take this one step, so they round alike. Every walk
starts from a ratio, and readers of probabilities stay in ratio form;
A = -(1/2) log rho is read off, by numpy's log, only where a field is returned.

Long words are scanned in lanes of b = LANE_WIDTH symbols, made exact by
coupling (Propp & Wilson 1996). The last n mod b symbols are walked from the
true start. A first round starts every other lane at ratio 1 at its right
edge; each later round restarts it from the value its right neighbour left at
their shared edge, and runs until every lane, at the end of a block of steps,
equals the values it held: the step is deterministic, so from there on it
repeats them. By induction from the exact last lane, every lane then holds the
sequential scan's values: the lanes equal the walk bit for bit. The lanes of
a word and of its reverse, the two sides of every position, step together in
place on one small block of factors copied in from the word, and their ratios
are copied out a tile of lanes at a time. A step of the lane loop makes 5
numpy calls where r <= 1 and 4 where r > 1, whatever the number of lanes, so
lanes pay only where the words scanned together hold LANE_CUTOVER lanes in
all: 40 960 symbols for a word and its reverse, 81 920 for a word alone. The
gate reads the length alone, and no decay certificate: a cell without one
runs in lanes like any other, and the coupling check alone tells whether
they met. The lanes get 2 rounds, and one more per LANE_ROUND_LANES lanes of
a word, past which the words are walked; where lanes never meet, that keeps
the scan under two walks.

The sequential scan is one scalar walk on Python floats over the symbols'
``tolist()``; it keeps every ratio only for the scan, and otherwise returns
the last. A query that needs one ratio (a conditional, a limit field) walks
to it alone: on a word long enough for lanes, two walks over the b symbols
from it on, from ratios 0 and inf, give the scan's value wherever they end
equal, as the step is monotone; otherwise the whole word is walked. Either
way the value is the scan's bit for bit. The scan of a word from a second
start, such as the fixed point of its extension beside ratio 1, is walked
only until it holds the first scan's value at the end of a chunk
(``_rejoined_ratios``): the step is deterministic, so the two agree from
there on.

Given the symbols to its right, X_i has the odds rho_{i+1} = P(X_i = -1) / P(X_i = +1), so

    Q(y_i | y_{i+1}^n) = (P(y_i | +1) + P(y_i | -1) rho) / (1 + rho),   rho = rho_{i+1},

with P(y | x) the channel's emission column. ``_symbol_prob`` computes every
scalar Q(y | context) so: a two-sided conditional multiplies the odds of its
sides, and ``thermo.g_function`` reads those of the limit of a tail. Cylinder
probabilities are the product of these conditionals, summed as logarithms in
(-inf, 0]. They are formed on Python floats from the walk on a word of fewer
than SHORT_WORD_CUTOVER symbols, and in place in the scan array otherwise, in
the same operations, and logged by numpy's log either way, which rounds
apart from ``math.log`` on some inputs. They are summed by ``math.fsum``,
correctly rounded, on a word too short for lanes,
and otherwise by a cascade of vectorized TwoSum levels (``_cascade_sum``),
also where the lanes ran out of rounds and the word was walked, within
u |S| + d n u^2 |S| of the exact sum S of its n logs,
u = 2^-53 and d = ceil(log2 n): one rounding, widened by under 3e-9 of
itself at n = 10^6. They equal the closed form
(cJ / lam^L) * 2 cosh(w_m) * exp( sum_{i>m} B(w_i) ) for a word of length L on
[m, n].
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import OutOfRangeError
from .model import ChannelParams, DecayBound, channel_model, check_tolerance
from .sequences import FieldTrajectory, _by_spin, _made_fields, as_spin_array, check_spin

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
    "DecayBound",
    "decay_rate_bound",
    "required_context",
]

#: Width b of a lane of the lane scan.
LANE_WIDTH = 1024

#: Steps of the lane loop between two checks for coupling (LANE_WIDTH is a multiple), and lanes per tile of its copies.
LANE_BLOCK = 128

#: Lanes run where the words scanned together hold at least LANE_CUTOVER lanes of b symbols in all
#: (lanes that meet beat the walk from about 32; from 80, lanes that never meet cost under two walks).
LANE_CUTOVER = 80

#: Lanes get 2 rounds, and one more per LANE_ROUND_LANES lanes, before the word is walked instead.
LANE_ROUND_LANES = 128

#: ``log_cylinder_prob`` forms the Q of a word of fewer symbols on Python floats, of more in numpy arrays
#: (the two take the same time at 72 to 88 symbols; at 12 symbols the floats take half).
SHORT_WORD_CUTOVER = 80


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


def _transfer_step(model: ChannelParams) -> tuple[float, float, bool]:
    """The cell's transfer map u = exp(-2w) -> m(u) = exp(-2 A(w)) in the branch-free form, as (a, b, invert).

    m(u) = 1/t where ``invert`` (r <= 1) and t otherwise, with t = a + b/(u + a).
    """
    r = model.r
    a = min(r, 1.0 / r)
    return a, 1.0 - a * a, r <= 1.0


def _shift_from_ratio(rho, model: ChannelParams, out=None):
    """A = -(1/2) log rho, clamped to the interval |A| <= |J| that it obeys exactly; in place on ``out`` where given."""
    bound = abs(model.J)
    shift = np.log(rho, out=out)
    shift *= -0.5
    return np.minimum(np.maximum(shift, -bound, out=out), bound, out=out)


def field_shift(w, model: ChannelParams):
    """Field A(w) passed to the left neighbor when a spin feeling field w is summed out.

    Evaluates the transfer step at u = exp(-2|w|) <= 1 and uses that A is odd;
    |A(w)| <= |J| for all real w. Accepts scalars or arrays.
    """
    a, b, invert = _transfer_step(model)
    t = a + b / (np.exp(-2.0 * np.abs(check_field(w))) + a)
    return np.sign(w) * _shift_from_ratio(1.0 / t if invert else t, model)


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


def _walk(symbols: np.ndarray, model: ChannelParams, start: float = 1.0, record: list | None = None) -> float:
    """The transfer step run one symbol at a time, right to left, from the ratio ``start``, on Python floats.

    Returns the last ratio. ``record``, where given, receives every ratio from
    the start on, in the order the walk takes them. The step is written out in
    the loop, in the form ``_transfer_step`` picks, with the operations of the
    lane loop in the same order.
    """
    a, b, invert = _transfer_step(model)
    c, inv_c = model.c, 1.0 / model.c
    rho = start
    if record is not None:
        record.append(rho)
    right_to_left = reversed(symbols.tolist())
    if invert:
        ratios = [rho := 1.0 / (a + b / ((c if y == 1 else inv_c) * rho + a)) for y in right_to_left]
    else:
        ratios = [rho := a + b / ((c if y == 1 else inv_c) * rho + a) for y in right_to_left]
    if record is not None:
        record.extend(ratios)
    return rho


def _sequential_ratios(symbols: np.ndarray, model: ChannelParams, start: float) -> np.ndarray:
    """The ratios of every position, walked one symbol at a time from the ratio ``start``."""
    ratios = []
    _walk(symbols, model, start, ratios)
    return np.array(ratios[::-1])


def _lane_rounds(n: int, words: int = 1) -> int:
    """Rounds the lanes of ``words`` words of n symbols, stepped together, get; 0 where the words are walked."""
    lanes = n // LANE_WIDTH
    return 2 + lanes // LANE_ROUND_LANES if words * lanes >= LANE_CUTOVER else 0


def _lane_ratios(factors: list[np.ndarray], scans: list[np.ndarray], model: ChannelParams, rounds: int) -> bool:
    """Fill entries [0, lanes*b) of each scan, b = LANE_WIDTH, by lanes made exact by coupling, in ``rounds`` at most.

    ``factors[k]`` holds c^y of word k, and ``scans[k]`` its scan, exact from
    lanes*b on. Lane j covers positions [j*b, (j+1)*b); the rounds are those
    of the module docstring, checked every LANE_BLOCK steps. The lanes of all
    the words step together, in place, on one (LANE_BLOCK, words, lanes)
    block, copied in and out LANE_BLOCK lanes at a time. Returns whether the
    last round ended with every lane met.
    """
    width, block = LANE_WIDTH, min(LANE_BLOCK, LANE_WIDTH)
    lanes = (len(scans[0]) - 1) // width
    # row j of a view is lane j, from its left edge to its right
    fv = [f[: lanes * width].reshape(lanes, width) for f in factors]
    rv = [r[: lanes * width].reshape(lanes, width) for r in scans]
    buf = np.empty((block, len(scans), lanes))
    rho = np.ones((len(scans), lanes))
    rho[:, -1] = [r[lanes * width] for r in scans]
    a, b, invert = _transfer_step(model)
    with np.errstate(all="ignore"):
        for round_no in range(rounds):
            if round_no:
                for k, r in enumerate(scans):
                    rho[k] = r[width::width]
            for end in range(width, 0, -block):
                cols = slice(end - block, end)
                for lo in range(0, lanes, block):
                    tile = slice(lo, lo + block)
                    for k, f in enumerate(fv):
                        buf[:, k, tile] = f[tile, cols][:, ::-1].T
                prev = rho
                for row in buf:
                    np.multiply(row, prev, out=row)
                    np.add(row, a, out=row)
                    np.divide(b, row, out=row)
                    np.add(row, a, out=row)
                    if invert:
                        np.divide(1.0, row, out=row)
                    prev = row
                met = round_no > 0 and all(np.array_equal(prev[k], r[:, end - block]) for k, r in enumerate(rv))
                for lo in range(0, lanes, block):
                    tile = slice(lo, lo + block)
                    for k, r in enumerate(rv):
                        r[tile, cols] = buf[::-1, k, tile].T
                if met:
                    return True
                rho[...] = prev
    return False


def _scan_ratios(symbols: np.ndarray, model: ChannelParams, start: float = 1.0,
                 reverse: bool = False) -> list[np.ndarray]:
    """Right-to-left transfer scans, in ratio form, of a word of n symbols and, with ``reverse``, of its reverse.

    Entry i < n of a word's scan is rho_i = exp(-2 A(w_i)), for the shift that
    position i passes to its left neighbor; entry n is ``start``, the ratio of
    the shift of the field beyond the word.

    Where ``_lane_rounds`` gives rounds, the word runs in lanes
    (``_lane_ratios``, in at most that many rounds) and the reverse's factors
    are a view of the word's; the sequential walk is the fallback. Either way
    every entry is the walk's.
    """
    words = [symbols, symbols[::-1]] if reverse else [symbols]
    n = len(symbols)
    rounds = _lane_rounds(n, len(words))
    if rounds:
        head = n - n % LANE_WIDTH
        scans = [np.empty(n + 1) for _ in words]
        for scan, word in zip(scans, words):
            scan[head:] = _sequential_ratios(word[head:], model, start)
        factors = _by_spin(symbols, 1.0 / model.c, model.c)
        sides = [factors, factors[::-1]] if reverse else [factors]
        if _lane_ratios(sides, scans, model, rounds):
            return scans
    return [_sequential_ratios(word, model, start) for word in words]


def _scan_shifts(symbols: np.ndarray, model: ChannelParams, start: float = 1.0) -> np.ndarray:
    """The shifts A(w_i) of ``_scan_ratios`` of one word, read off its ratios by one log."""
    (ratios,) = _scan_ratios(symbols, model, start)
    return _shift_from_ratio(ratios, model, out=ratios)


def _leading_ratio(symbols: np.ndarray, model: ChannelParams, start: float = 1.0, i: int = 0) -> float:
    """Entry i of ``_scan_ratios(symbols, model, start)``, bit for bit, alone.

    On a word long enough for lanes, two walks over the b symbols from i on,
    from ratios 0 and inf, give the entry where they end equal (see the module
    docstring); otherwise the whole word is walked.
    """
    if _lane_rounds(len(symbols)):
        low, high = (_walk(symbols[i : i + LANE_WIDTH], model, bracket) for bracket in (0.0, math.inf))
        if low == high:
            return low
    return _walk(symbols[i:], model, start)


def _fixed_point_ratio(symbol: int, model: ChannelParams) -> float:
    """The ratio exp(-2A(w)) at the limit field w = K*symbol + A(w) of the constant sequence of ``symbol``.

    It is the attracting fixed point of rho -> m(f rho), f = c^symbol: the
    positive root of r f rho^2 + (1 - f) rho - r = 0, taken for f <= 1 in a form
    free of cancellation; f > 1 gives its reciprocal, as A is odd.
    """
    f = model.c if symbol == 1 else 1.0 / model.c
    g = min(f, 1.0 / f)
    rho = 2.0 * model.r / ((1.0 - g) + math.hypot(1.0 - g, 2.0 * model.r * math.sqrt(g)))
    return rho if f <= 1.0 else 1.0 / rho


def _plus_fields(shifts: np.ndarray, arr: np.ndarray, model: ChannelParams) -> np.ndarray:
    """The fields K*y_i + A_i of the word ``arr``, added in place on the shifts its scan put on it."""
    shifts += model.K * arr
    return shifts


def backward_fields(y, model: ChannelParams) -> FieldTrajectory:
    """Fields w_i^{(n)} for i = m..n of the word y on window [m, n], scanned right to left.

    The base case is w_n = K*y_n, i.e. the field beyond the last symbol is zero.
    """
    arr = as_spin_array(y)
    return _made_fields(_plus_fields(_scan_shifts(arr, model)[1:], arr, model))


def forward_fields(y, model: ChannelParams) -> FieldTrajectory:
    """Mirror of backward_fields for a left context, scanned left to right.

    The recursion w_{j+1} = K*y_{j+1} + A(w_j) starts from w_m = K*y_m, so the
    returned values equal backward_fields of the reversed word, reversed back:
    the scan of the reversed word, read back to front without its last entry.
    """
    arr = as_spin_array(y)
    return _made_fields(_plus_fields(_scan_shifts(arr[::-1], model)[:0:-1], arr, model))


def neighbour_ratios(y, model: ChannelParams) -> tuple[np.ndarray, np.ndarray]:
    """Ratios exp(-2A) of the shifts A(wf_{i-1}) and A(wb_{i+1}) that the two sides of every position put on it.

    wf are the forward and wb the backward fields of the whole word; an absent
    side (left of the first, right of the last position) contributes zero
    shift, ratio 1. Given y, the hidden spin X_i has odds
    P(X_i = -1) / P(X_i = +1) = c^{y_i} rho_l rho_r. The word and its reverse
    are scanned in one lane loop.
    """
    arr = as_spin_array(y)
    right, left = _scan_ratios(arr, model, reverse=True)
    return left[:0:-1], right[1:]


def fixed_point_field(symbol: int, model: ChannelParams) -> float:
    """Limit field of the constant sequence of ``symbol``: solves w = K*symbol + A(w)."""
    symbol = check_spin("symbol", symbol)
    return model.K * symbol + float(_shift_from_ratio(_fixed_point_ratio(symbol, model), model))


def _extended_ratio(arr: np.ndarray, model: ChannelParams, i: int = 0) -> float:
    """Entry i of the ratio scan of arr extended to the right by repeating its last symbol."""
    return _leading_ratio(arr, model, _fixed_point_ratio(int(arr[-1]), model), i)


def extended_fields(y, model: ChannelParams) -> np.ndarray:
    """Limit fields at the positions of y when y is extended by repeating its last symbol.

    Every position at or beyond the last given symbol sees a constant tail, so
    its field is the attracting fixed point; the remaining positions follow by
    the usual right-to-left scan. The result is exact (machine accuracy) for
    the declared extension.
    """
    arr = as_spin_array(y)
    return _fields_of_ratios(arr, _scan_ratios(arr, model, _fixed_point_ratio(int(arr[-1]), model))[0], model)


def _fields_of_ratios(arr: np.ndarray, ratios: np.ndarray, model: ChannelParams) -> np.ndarray:
    """The fields K*y_i + A_i of the checked word arr from a ratio scan of it, logged in place on the scan."""
    return _plus_fields(_shift_from_ratio(ratios, model, out=ratios)[1:], arr, model)


def _rejoined_ratios(arr: np.ndarray, model: ChannelParams, start: float, scan: np.ndarray) -> np.ndarray:
    """``_scan_ratios(arr, model, start)[0]``, bit for bit, from ``scan``, the scan of arr from another start.

    The step is deterministic, so once the two scans hold the same ratio at a
    position they hold the same ratios left of it. The word is walked from
    ``start`` leftward in chunks of 16, 32, 64, ... symbols until the
    walk ends a chunk on the value ``scan`` holds there; ``scan``'s entries
    are taken from there on. Where the two never meet, the whole word is
    walked.
    """
    hi, width = len(arr), 16
    walked = [start]  # the ratios of positions n, n-1, ..., hi
    while hi and walked[-1] != scan[hi]:
        lo = max(hi - width, 0)
        _walk(arr[lo:hi], model, walked.pop(), walked)
        hi, width = lo, 2 * width
    return np.concatenate((scan[:hi], walked[::-1]))


def _log_prob_and_extended_fields(arr: np.ndarray, model: ChannelParams) -> tuple[float, np.ndarray]:
    """``log_cylinder_prob`` and ``extended_fields`` of a checked word, bit for bit, from one scan.

    The word is scanned from ratio 1 for log Q, and the scan of its extension,
    from the fixed point, is walked only until it rejoins that scan.
    """
    (ratios,) = _scan_ratios(arr, model)
    extended = _rejoined_ratios(arr, model, _fixed_point_ratio(int(arr[-1]), model), ratios)
    return _log_prob_of_ratios(arr, ratios, model), _fields_of_ratios(arr, extended, model)


def _extended_field(arr: np.ndarray, model: ChannelParams) -> float:
    """``extended_fields(arr, model)[0]`` of a checked word, bit for bit: one walk, then numpy's log (not math's)."""
    return model.K * float(arr[0]) + float(_shift_from_ratio(np.float64(_extended_ratio(arr, model, 1)), model))


def _symbol_prob(y: float, odds: float, model: ChannelParams) -> float:
    """Q(y | rest) when the rest of the word gives the hidden spin of y the odds t = P(X = -1) / P(X = +1).

    Q = (P(y | +1) + P(y | -1) t) / (1 + t), divided through by t past t = 1,
    so that t = inf gives P(y | -1).
    """
    eps = model.epsilon
    plus, minus = (1.0 - eps, eps) if y == 1 else (eps, 1.0 - eps)
    if odds > 1.0:
        plus, minus, odds = minus, plus, 1.0 / odds
    return (plus + minus * odds) / (1.0 + odds)


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


def _short_log_prob(arr: np.ndarray, model: ChannelParams) -> float:
    """``log_cylinder_prob`` of a checked word shorter than SHORT_WORD_CUTOVER, bit for bit, on Python floats.

    The word is walked once, and each Q is formed from its ratio with the
    operations of ``_log_prob_of_ratios`` in their order. One numpy log is
    taken over the list: ``math.log`` rounds apart from it on some inputs.
    """
    eps = model.epsilon
    keep = 1.0 - eps
    record = []
    _walk(arr, model, 1.0, record)
    # record[k] is the ratio right of symbol n-1-k; P(y | -1) rho + P(y | +1), over rho + 1
    qs = [((eps * rho + keep) if y == 1 else (keep * rho + eps)) / (rho + 1.0)
          for y, rho in zip(reversed(arr.tolist()), record)]
    return math.fsum(np.log(qs).tolist())


def _log_prob_of_ratios(arr: np.ndarray, ratios: np.ndarray, model: ChannelParams) -> float:
    """log Q of the checked word arr from its ratio scan from ratio 1, which it consumes.

    ``ratios`` is released before the logs are taken and summed, so a caller
    that keeps no name for it, as ``log_cylinder_prob``, holds no scan then.
    """
    eps = model.epsilon
    rho = ratios[1:]
    logs = _by_spin(arr, 1.0 - eps, eps)
    logs *= rho
    logs += _by_spin(arr, eps, 1.0 - eps)
    rho += 1.0
    logs /= rho
    del ratios, rho
    np.log(logs, out=logs)
    return _cascade_sum(logs) if _lane_rounds(len(arr)) else math.fsum(logs.tolist())


def log_cylinder_prob(y, model: ChannelParams) -> float:
    """log Q(y_m^n), assembled in log space so long words do not underflow.

    With rho the ratio of the shift the right of position i puts on it,
    Q(y_i | y_{i+1}^n) = (P(y_i | +1) + P(y_i | -1) rho) / (1 + rho). A word
    shorter than SHORT_WORD_CUTOVER is walked and its Q formed on Python
    floats (``_short_log_prob``); a longer one is scanned and its Q formed in
    place with the emission column looked up by symbol. Either way the logs
    are numpy's, and they are summed by ``math.fsum`` on words too short for
    lanes, and by ``_cascade_sum`` on the others, also where the lanes ran out
    of rounds and the word was walked.
    """
    arr = as_spin_array(y)
    if len(arr) < SHORT_WORD_CUTOVER:
        return _short_log_prob(arr, model)
    return _log_prob_of_ratios(arr, _scan_ratios(arr, model)[0], model)


def cylinder_prob(y, model: ChannelParams) -> float:
    """Q(y_m^n) via the transfer recursion; matches the brute-force oracle to 1e-12."""
    return math.exp(log_cylinder_prob(y, model))


def conditional_prob(y0: int, future, model: ChannelParams) -> float:
    """One-sided conditional Q(y0 | y_1^n): the two-sided one with an empty left context, of ratio 1."""
    arr = as_spin_array(future)
    return _symbol_prob(check_spin("y0", y0), _leading_ratio(arr, model), model)


def two_sided_conditional(y0: int, left, right, model: ChannelParams) -> float:
    """Two-sided conditional Q(y0 | left context, right context), from the product of the odds of its sides.

    An empty context has odds 1, which reduces the formula to the one-sided
    conditional (or to the marginal 1/2 when both sides are empty).
    """
    y0 = check_spin("y0", y0)
    left_arr = as_spin_array(left, allow_empty=True)
    right_arr = as_spin_array(right, allow_empty=True)
    # the left recursion equals the right recursion run on the reversed context
    return _symbol_prob(y0, _leading_ratio(left_arr[::-1], model) * _leading_ratio(right_arr, model), model)


def two_sided_limit_conditional(y0: int, left, right, tol: float, model: ChannelParams) -> float:
    """Two-sided conditional with each nonempty context extended to its limit by repeating its last symbol.

    The odds of that extension start from the attracting fixed point, so the
    value is exact for it; an empty side has odds 1. The decay certificate
    bounds the influence of any other unseen tail by C * rho^len for each side,
    but none is consulted here: ``tol`` is only checked to be positive, and
    short contexts are not refused.
    """
    y0 = check_spin("y0", y0)
    check_tolerance(tol)
    odds = 1.0
    for context in (as_spin_array(left, allow_empty=True)[::-1], as_spin_array(right, allow_empty=True)):
        if len(context):
            odds *= _extended_ratio(context, model)
    return _symbol_prob(y0, odds, model)
