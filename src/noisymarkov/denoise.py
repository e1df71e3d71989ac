"""Denoisers for the observed process and their zero-one loss.

Four reconstruction rules are provided:

* ``forward_backward`` + ``map_denoise``: exact per-position MAP with known
  (p, eps), from the two neighbour ratios rho = exp(-2A) of the transfer
  recursion, without leaving ratio form.
* ``dude``: the context-count denoiser, decided from two counts; only eps is known.
* ``bfp_denoise``: the backward-forward product surrogate for the two-sided
  conditional, in an exact (field-based) and an empirical (context-count) mode.
* ``gibbs_denoise``: a documented surrogate for two-sided Gibbs modeling:
  moment-matched estimation of p followed by the exact forward-backward pass.

Distributions over the binary state/output space are ordered (-1, +1)
throughout. The emission matrix is Pi[x, y] = P(Y=y | X=x) with index 0 for -1
and 1 for +1; its inverse exists iff eps != 1/2 and equals
(1/(1-2 eps)) [[1-eps, -eps], [-eps, 1-eps]]. The channel inversion identity

    P[X_n = . | all observations] propto pi_{y_n} (.) Pi^{-1} q2

maps any (estimated or exact) two-sided output conditional q2 to a posterior
over the hidden symbol. Empirical BFP and ``posterior_from_two_sided`` apply
it through ``_channel_weights``, elementwise and without BLAS, so their
decisions do not depend on the host; DUDE and exact BFP apply it in closed
form, on a context's two counts and on the two neighbour ratios.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    InsufficientContextError,
    LengthMismatchError,
    MalformedDataError,
    OutOfRangeError,
    SingularChannelError,
)
from .model import ChannelParams, check_count, check_probability, validate_params
from .sequences import SPIN_DTYPE, SpinSequence, _by_spin, _made_word, as_spin_array, check_spin
from .transfer import neighbour_ratios

__all__ = [
    "PosteriorMarginals",
    "emission_matrix",
    "emission_inverse",
    "emission_column",
    "forward_backward",
    "posterior_from_two_sided",
    "default_context_length",
    "dude",
    "dude_detail",
    "DudeResult",
    "bfp_denoise",
    "estimate_p_moment",
    "gibbs_params",
    "gibbs_detail",
    "gibbs_denoise",
    "map_denoise",
    "bit_error_rate",
]

#: Entries of Pi^{-1} q2 below this are flagged before being clamped to zero.
NEGATIVE_FLAG_THRESHOLD = -1e-12

#: Window counts use a direct-address table of 2^width entries while it
#: has at most COUNT_TABLE_MAX entries (32 MiB of int64); past it a sort
#: replaces the table.
COUNT_TABLE_MAX = 1 << 22

#: Largest context length: a (2k+1)-symbol window fits the 57 bits of ``_window_codes``.
MAX_CONTEXT_LENGTH = 28


@dataclass(frozen=True)
class PosteriorMarginals:
    """Per-position distribution of the hidden symbol: columns (q_minus, q_plus)."""

    q_minus: np.ndarray
    q_plus: np.ndarray

    def __post_init__(self) -> None:
        qm = np.asarray(self.q_minus, dtype=np.float64)
        qp = np.asarray(self.q_plus, dtype=np.float64)
        if qm.shape != qp.shape:
            raise LengthMismatchError("q_minus and q_plus must have equal shapes")
        if qm.ndim != 1 or not len(qm):
            raise MalformedDataError(f"posteriors must be one-dimensional and nonempty, got shape {qm.shape}")
        object.__setattr__(self, "q_minus", qm)
        object.__setattr__(self, "q_plus", qp)

    def __len__(self) -> int:
        return len(self.q_plus)


def _check_crossover(epsilon) -> float:
    """An invertible channel's crossover: ``check_probability``, and 1/2 raises SingularChannelError."""
    epsilon = check_probability("epsilon", epsilon)
    if epsilon == 0.5:
        raise SingularChannelError("epsilon = 1/2 makes the emission matrix singular")
    return epsilon


def emission_matrix(epsilon: float) -> np.ndarray:
    """Row-stochastic emission matrix Pi[x, y] = P(Y=y | X=x), indices (-1, +1)."""
    epsilon = check_probability("epsilon", epsilon)
    return np.array([[1.0 - epsilon, epsilon], [epsilon, 1.0 - epsilon]])


def emission_inverse(epsilon: float) -> np.ndarray:
    """Inverse of the emission matrix; requires epsilon != 1/2."""
    epsilon = _check_crossover(epsilon)
    return np.array([[1.0 - epsilon, -epsilon], [-epsilon, 1.0 - epsilon]]) / (1.0 - 2.0 * epsilon)


def emission_column(epsilon: float, y: int) -> np.ndarray:
    """Likelihood vector pi_y over hidden states for a single observed symbol."""
    return emission_matrix(epsilon)[:, (check_spin("y", y) + 1) // 2]


def forward_backward(y, params: ChannelParams) -> PosteriorMarginals:
    """Exact posteriors P[X_i | Y = y].

    The posterior odds of X_i are t = P(X_i = -1) / P(X_i = +1) =
    rho_l rho_r c^{y_i}, with c = eps/(1-eps) and the neighbour ratios
    rho = exp(-2A) of the transfer recursion, so q_plus = 1/(1 + t) and
    q_minus = 1/(1 + 1/t), formed in place in the arrays of the two scans.
    Every factor of t is finite and positive, so t is never NaN. Each ratio
    lies in [a, 1/a], a = min(r, 1/r), so only in cells where g a^2 nears the
    smallest normal double, g = min(c, 1/c), can t or 1/t overflow, flushing a
    posterior to 0. There a flushed posterior is rebuilt as 1/t or t from the
    three factors, the two largest multiplied first, so that only its last
    rounding leaves the normal range.
    """
    word = SpinSequence(y)
    left, right = neighbour_ratios(word, params)
    factors = _by_spin(word.symbols, 1.0 / params.c, params.c)
    a = min(params.r, 1.0 / params.r)
    flush = a * a * min(params.c, 1.0 / params.c) < 4.0 * np.finfo(float).tiny
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        # the odds overwrite the right scan, unless the ratios must outlive them
        odds = np.multiply(left, right, out=None if flush else right)
        odds *= factors
        if flush:
            edge = np.flatnonzero(~(odds >= np.finfo(float).tiny) | (odds == np.inf))
            sides = left[edge], right[edge], factors[edge]
        del factors
        q_minus = np.divide(1.0, odds, out=left[::-1])
        q_minus += 1.0
        np.divide(1.0, q_minus, out=q_minus)
        odds += 1.0
        q_plus = np.divide(1.0, odds, out=odds)
        if flush:
            for q, factor_of in ((q_plus, np.reciprocal), (q_minus, np.positive)):
                lost = q[edge] == 0.0
                low, mid, high = np.sort([factor_of(side[lost]) for side in sides], axis=0)
                q[edge[lost]] = high * mid * low
    return PosteriorMarginals(q_minus=q_minus, q_plus=q_plus)


def _decide(v_minus: np.ndarray, v_plus: np.ndarray) -> np.ndarray:
    """Per-position argmax over (-1, +1) of unnormalized weights, as spins; exact ties go to +1."""
    return 2 * (v_plus >= v_minus).view(SPIN_DTYPE) - 1


def _channel_weights(
    q_minus: np.ndarray, q_plus: np.ndarray, y: np.ndarray, epsilon: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Channel inversion of two-sided conditionals, up to each position's normalization.

    ``q_minus`` and ``q_plus`` hold P(Y_i = -1 | rest) and P(Y_i = +1 | rest);
    ``y`` holds the observed symbols. Returns v = pi_{y_i} (.) max(Pi^{-1} q2, 0)
    as (v_minus, v_plus), with pi_y = (P(y | -1), P(y | +1)) looked up by
    symbol, whose normalization is the posterior of X_i and whose
    argmax, ``_decide``, is the decision of empirical BFP; and the
    mask of the entries with a component of Pi^{-1} q2 below
    NEGATIVE_FLAG_THRESHOLD before the clamp, as empirical estimates need not
    lie in the image of the channel. Pi^{-1} q2 is written out with the two
    coefficients of ``emission_inverse`` rather than as a matrix product, so
    that no BLAS kernel, and no fused multiply-add it may pick, enters the
    rounding: the weights, and every decision, are the same on every host.
    """
    (diag, off), _ = emission_inverse(epsilon)
    u_minus = q_minus * diag
    u_minus += q_plus * off
    u_plus = q_minus * off
    u_plus += q_plus * diag
    flagged = u_minus < NEGATIVE_FLAG_THRESHOLD
    flagged |= u_plus < NEGATIVE_FLAG_THRESHOLD
    np.maximum(u_minus, 0.0, out=u_minus)
    np.maximum(u_plus, 0.0, out=u_plus)
    u_minus *= _by_spin(y, 1.0 - epsilon, epsilon)
    u_plus *= _by_spin(y, epsilon, 1.0 - epsilon)
    return u_minus, u_plus, flagged


def posterior_from_two_sided(q2, y_n: int, params: ChannelParams) -> np.ndarray:
    """Posterior of X_n from a two-sided conditional of Y_n, ordered (-1, +1).

    Negative intermediate entries beyond the flag threshold (a known artifact
    of channel inversion applied to empirical estimates) trigger a warning and
    are clamped to zero before renormalizing.
    """
    epsilon = _check_crossover(params.epsilon)
    y_n = check_spin("y_n", y_n)
    try:
        vec = np.asarray(q2, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise OutOfRangeError(f"q2 must be a pair of real numbers, got {q2!r}") from exc
    if vec.shape != (2,):
        raise OutOfRangeError(f"q2 must have shape (2,), got {vec.shape}")
    if (
        not np.all(np.isfinite(vec))
        or np.any(vec < NEGATIVE_FLAG_THRESHOLD)
        or abs(float(vec.sum()) - 1.0) > 1e-6
    ):
        raise OutOfRangeError(f"q2 must be a probability distribution, got {vec}")
    v_minus, v_plus, flagged = _channel_weights(vec[:1], vec[1:], np.array([y_n]), epsilon)
    if flagged[0]:
        warnings.warn(
            "channel inversion produced a negative intermediate; clamped to zero",
            stacklevel=2,
        )
    v = np.concatenate([v_minus, v_plus])
    return v / v.sum()


def default_context_length(n: int) -> int:
    """Default DUDE context length: ceil(log2(n)/2), at least 1, capped at 12."""
    check_count("n", n, 1)
    return min(12, max(1, math.ceil(0.5 * math.log2(n))))


def _check_context(n: int, k: int | None) -> int:
    """The context length, at most MAX_CONTEXT_LENGTH, for a word of n symbols (default if k is None)."""
    if k is None:
        k = default_context_length(n)
    check_count("k", k, 1)
    if k > MAX_CONTEXT_LENGTH:
        raise OutOfRangeError(f"context length k must be at most {MAX_CONTEXT_LENGTH}, got {k}")
    if n <= 2 * k + 1:
        raise InsufficientContextError(
            f"need n >= {2 * k + 2} symbols for context length k={k}, got {n}"
        )
    return k


def _window_codes(plus: np.ndarray, width: int) -> np.ndarray:
    """Code of every ``width``-symbol window, width <= 57: bit t of entry j is 1 if symbol j + t is +1.

    ``plus`` is true for +1. Packed eight symbols to a byte, low bit first,
    the eight bytes from byte b on, read as one little-endian uint64, hold
    symbols 8b..8b+63; shifted right by s = 0..7 and masked, that is the code
    of window 8b+s, whole while s + width <= 64: two passes over n codes.
    """
    padded = np.append(np.packbits(plus, bitorder="little"), np.zeros(7, dtype=np.uint8))
    words = np.ndarray((len(padded) - 7, 1), dtype="<u8", buffer=padded, strides=(1, 0))
    codes = words >> np.arange(8, dtype=np.uint64)
    codes &= (1 << width) - 1
    return codes.reshape(-1)[: len(plus) - width + 1].view(np.int64)


def _centre_counts(codes: np.ndarray, width: int, bit: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Pair codes of every window, the count table they address, and the centre's bit in them.

    ``codes`` are ``_window_codes`` of ``width`` symbols, and bit ``bit`` of
    each is its centre, the rest its context. While the table of 2^width
    entries has at most COUNT_TABLE_MAX entries, the codes are the pair codes
    and are counted with one bincount, so m(c, -1) and m(c, +1) sit at the
    code with the centre's bit cleared and set. Past it one sort renumbers the
    contexts that occur as 0, 1, 2, ..., each pair is coded as
    ``context << 1 | centre`` and the centre's bit is 0. Each window counts
    itself, so every pair code in ``pairs`` has a nonzero count.
    """
    if 1 << width <= COUNT_TABLE_MAX:
        return codes, np.bincount(codes, minlength=1 << width), bit
    uniq, pairs = np.unique(codes & ~(1 << bit), return_inverse=True)
    pairs <<= 1
    pairs |= (codes >> bit) & 1
    return pairs, np.bincount(pairs, minlength=2 * len(uniq)), 0


def _centre_conditionals(pairs: np.ndarray, table: np.ndarray, bit: int) -> np.ndarray:
    """Rows (m(c, -1), m(c, +1)) / (m(c, -1) + m(c, +1)) at each pair code of ``table``, centre at ``bit``.

    Each row is the empirical P(centre | context) of the pair's context. A
    table shorter than ``pairs`` has its rows computed once per entry and
    gathered; those of contexts that never occur are 0/0 and never read.
    """
    if len(table) < len(pairs):
        with np.errstate(invalid="ignore"):
            return _centre_conditionals(np.arange(len(table)), table, bit).take(pairs, axis=0)
    m_minus = table[pairs & ~(1 << bit)]
    m_plus = table[pairs | 1 << bit]
    total = m_minus + m_plus
    rows = np.empty((len(total), 2))
    np.divide(m_minus, total, out=rows[:, 0])
    np.divide(m_plus, total, out=rows[:, 1])
    return rows


@dataclass(frozen=True)
class DudeResult:
    """Denoised sequence plus diagnostics of the counting/inversion pipeline.

    ``y`` is the read-only observed word that was denoised, kept so that
    ``q2`` can be built when it is read rather than with every call.
    """

    xhat: SpinSequence
    k: int
    n_clamped: int
    y: np.ndarray = field(repr=False)

    @cached_property
    def q2(self) -> np.ndarray:
        """Interior positions' estimates of P(Y_i | contexts), columns (-1, +1).

        Counted again from ``y`` on the first read, then kept; read-only.
        """
        width = 2 * self.k + 1
        q2 = _centre_conditionals(*_centre_counts(_window_codes(self.y == 1, width), width, self.k))
        q2.setflags(write=False)
        return q2


def dude_detail(y, epsilon: float, k: int | None = None) -> DudeResult:
    """Two-pass context-count denoiser with diagnostics.

    Pass one codes the (2k+1)-window of every interior position once, its
    pair code: left context low, centre at bit k, right context high, and
    counts the pairs with one bincount (see _centre_counts for the
    direct-address table and its sort cut-over). Pass two decides once per
    pair code that occurs, from its two counts. With y the centre, e =
    m(c, y) - m(c, -y) and T = m(c, -1) + m(c, +1), the channel inversion of
    q2 = m / T, clamped at zero and weighted by pi_y, keeps y iff
    (1 - 2 eps)(e + (1 - 2 eps)^2 T) > 0, and gives +1 where that is 0 (the
    BSC rule of Weissman et al. 2005; the clamp never changes the sign). The
    sign is read in floats, and again in exact arithmetic on the binary eps
    where it lies within their error bound, so every decision is exact; each
    position then reads its decision off an int8 table at its pair code.
    ``n_clamped`` counts the positions whose pair has an entry of Pi^{-1} q2
    below NEGATIVE_FLAG_THRESHOLD = t, which is |e| > (1 - 2t) |1 - 2 eps| T.
    Every total T is >= 1, as an interior context contains the position
    itself. The first and last k positions are passed through unchanged.
    ``q2`` is left to the result, which builds it when read. k is at most
    MAX_CONTEXT_LENGTH = 28, or OutOfRangeError is raised.
    """
    epsilon = _check_crossover(epsilon)
    arr = as_spin_array(y)
    n = len(arr)
    k = _check_context(n, k)
    pairs, table, bit = _centre_counts(_window_codes(arr == 1, 2 * k + 1), 2 * k + 1, k)
    size = len(table)
    occurring = np.flatnonzero(table != 0)  # a bool mask takes numpy's fast nonzero path
    same = table[occurring]  # m(c, y), y the pair's centre
    excess = same - table[occurring ^ (1 << bit)]  # e = m(c, y) - m(c, -y)
    del table  # freed before the decision table is built
    total, contrast = 2 * same - excess, 1.0 - 2.0 * epsilon
    n_clamped = int(same[np.abs(excess) > (1.0 - 2.0 * NEGATIVE_FLAG_THRESHOLD) * abs(contrast) * total].sum())
    spread = total * (contrast * contrast)
    lean = spread + excess  # e + (1 - 2 eps)^2 T, whose sign is exact where |lean| > 2^-50 spread
    num, den = epsilon.as_integer_ratio()  # eps = num/den, so the sign is that of e den^2 + (den - 2 num)^2 T
    for i in np.flatnonzero(np.abs(lean) <= 2.0**-50 * spread):
        exact = int(excess[i]) * den * den + (den - 2 * num) ** 2 * int(total[i])
        lean[i] = (exact > 0) - (exact < 0)
    lean *= np.where((occurring >> bit) & 1, contrast, -contrast)  # the sign of v(+1) - v(-1)
    decided = np.empty(size, dtype=SPIN_DTYPE)  # entries of codes that do not occur are never read
    decided[occurring] = _decide(0.0, lean)
    xhat = arr.copy()
    xhat[k : n - k] = decided.take(pairs)
    return DudeResult(xhat=_made_word(xhat), k=k, n_clamped=n_clamped, y=arr)


def dude(y, epsilon: float, k: int | None = None) -> SpinSequence:
    """Context-count denoiser; see dude_detail for the two-pass description."""
    return dude_detail(y, epsilon, k).xhat


def bfp_denoise(
    y, params: ChannelParams, mode: str = "exact", k: int | None = None
) -> tuple[SpinSequence, PosteriorMarginals]:
    """Backward-forward product denoiser.

    The two-sided conditional of Y_i is replaced by the normalized product of
    the two one-sided conditionals, which for this model reduces to

        Qtilde(s | rest) propto cosh(K s + A(w_left)) * cosh(K s + A(w_right)).

    ``exact`` mode evaluates the one-sided conditionals from the neighbour
    ratios of the full observed word (valid in both directions because the
    symmetric chain is reversible) and refuses a ``k``; ``empirical`` mode
    estimates them with order-k context counts and passes the first/last k
    positions through. It counts the (k+1)-windows of ``dude_detail``'s encoder
    once, reads the left conditional with the centre at bit k and the right one
    at bit 0, and gathers both rows per position; k <= 28. The surrogate is then
    pushed through the channel inversion and a per-position argmax, in blocks of
    2^16 positions so that the temporaries stay small; exact mode does both in
    closed form on the two ratios, in place on the arrays of the scan, so its
    memory peak is the scan's. It deliberately does not equal the exact
    two-sided conditional in general.
    """
    _check_crossover(params.epsilon)
    word = SpinSequence(y)
    arr = word.symbols
    n = len(arr)
    if mode == "exact":
        if k is not None:
            raise OutOfRangeError(f"exact mode reads no context length, got k={k!r}")
        left, right = neighbour_ratios(word, params)
        # Each side's conditional of Y_i is (1 + s y tanh A)/2 with s = 1 - 2 eps.
        # Inverting their normalized product through the channel gives entries
        # of Pi^{-1} q2 proportional to sigma(+-2 A_l) sigma(+-2 A_r) - eps (1-eps)
        # tanh(A_l) tanh(A_r), sigma the logistic; they are clamped at zero.
        # With rho = exp(-2A), sigma(2A), sigma(-2A) and tanh(A) are 1, rho and
        # 1 - rho over 1 + rho. Multiplied through by 1 + rho_l, the entries are
        # h - x and rho_l rho_r h - x, with h = 1/(1 + rho_r) and the cross
        # term x = eps (1-eps) (1 - rho_l) (1 - rho_r) h. Every factor is finite,
        # and before the clamp the two entries add up to at least 2 eps (1-eps).
        v_plus = right + 1.0
        np.divide(1.0, v_plus, out=v_plus)
        cross = 1.0 - right
        cross *= v_plus
        v_minus = right
        v_minus *= v_plus
        v_minus *= left
        np.subtract(1.0, left, out=left)
        cross *= left
        cross *= params.epsilon * (1.0 - params.epsilon)
        del left
        v_plus -= cross
        v_minus -= cross
        del cross
        np.maximum(v_plus, 0.0, out=v_plus)
        np.maximum(v_minus, 0.0, out=v_minus)
        v_minus *= _by_spin(arr, 1.0 - params.epsilon, params.epsilon)
        v_plus *= _by_spin(arr, params.epsilon, 1.0 - params.epsilon)
        total = v_plus + v_minus
        v_minus /= total
        v_plus /= total
        marg = PosteriorMarginals(q_minus=v_minus, q_plus=v_plus)
        return map_denoise(marg), marg
    if mode != "empirical":
        raise OutOfRangeError(f"mode must be 'exact' or 'empirical', got {mode!r}")
    k = _check_context(n, k)
    codes = _window_codes(arr == 1, k + 1)
    left = _centre_counts(codes, k + 1, k)
    # a direct-address table (its pair codes are the codes) holds both sides' counts
    right = (codes, left[1], 0) if left[0] is codes else _centre_counts(codes, k + 1, 0)
    del codes
    xhat = arr.copy()
    q_minus, q_plus = np.empty(n), np.empty(n)
    for lo in range(0, n, 1 << 16):
        hi = min(lo + (1 << 16), n)
        first = max(lo, k)
        last = max(first, min(hi, n - k))  # the block's interior positions are [first, last)
        inner = slice(first - lo, last - lo)
        q2 = np.full((hi - lo, 2), 0.5)  # boundary positions: passthrough estimate, channel-only posterior
        # window j holds the left context of position j + k and the right context of position j
        prod = _centre_conditionals(left[0][first - k : last - k], *left[1:])
        prod *= _centre_conditionals(right[0][first:last], *right[1:])
        np.divide(prod, (prod[:, 0] + prod[:, 1])[:, None], out=q2[inner])
        v_minus, v_plus, _ = _channel_weights(q2[:, 0], q2[:, 1], arr[lo:hi], params.epsilon)
        xhat[first:last] = _decide(v_minus[inner], v_plus[inner])
        total = v_minus + v_plus
        np.divide(v_minus, total, out=q_minus[lo:hi])
        np.divide(v_plus, total, out=q_plus[lo:hi])
    return _made_word(xhat), PosteriorMarginals(q_minus=q_minus, q_plus=q_plus)


def estimate_p_moment(y, epsilon: float) -> float:
    """Moment-matched estimate of the source flip rate from the observed word.

    E[Y_i Y_{i+1}] = (1-2p)(1-2 eps)^2, so p_hat = (1 - r_hat/(1-2 eps)^2)/2
    with r_hat the empirical neighbor product mean, clamped to [1e-6, 1/2].
    An epsilon of 1/2 or outside (0, 1) is refused.
    """
    epsilon = _check_crossover(epsilon)
    arr = as_spin_array(y)
    if len(arr) < 2:
        raise InsufficientContextError("need at least 2 symbols to estimate p")
    r_hat = float(np.mean(arr[:-1].astype(np.float64) * arr[1:].astype(np.float64)))
    p_hat = 0.5 * (1.0 - r_hat / (1.0 - 2.0 * epsilon) ** 2)
    return float(min(0.5, max(1e-6, p_hat)))


def gibbs_params(y, epsilon: float) -> ChannelParams:
    """The cell gibbs_denoise decodes y at: the moment-matched p_hat and epsilon."""
    return validate_params(estimate_p_moment(y, epsilon), epsilon)


def gibbs_detail(y, epsilon: float) -> tuple[SpinSequence, ChannelParams]:
    """Gibbs-modeling surrogate and the cell it decoded at: moment-matched p, then the exact MAP pass."""
    _check_crossover(epsilon)  # refused before the word, as gibbs_params refuses it
    word = SpinSequence(y)
    params = gibbs_params(word, epsilon)
    return map_denoise(forward_backward(word, params)), params


def gibbs_denoise(y, epsilon: float) -> SpinSequence:
    """Gibbs-modeling surrogate: moment-matched p, then the exact MAP pass."""
    return gibbs_detail(y, epsilon)[0]


def map_denoise(post: PosteriorMarginals) -> SpinSequence:
    """Per-position argmax of the posterior; exact ties break toward +1."""
    return _made_word(_decide(post.q_minus, post.q_plus))


def bit_error_rate(xhat, x) -> float:
    """Fraction of positions where the reconstruction differs from the truth."""
    a = as_spin_array(xhat)
    b = as_spin_array(x)
    if len(a) != len(b):
        raise LengthMismatchError(f"length mismatch: {len(a)} vs {len(b)}")
    return float(np.mean(a != b))
