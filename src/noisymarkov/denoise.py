"""Denoisers for the observed process and their zero-one loss.

Four reconstruction rules are provided:

* ``forward_backward`` + ``map_denoise``: exact per-position MAP with known
  (p, eps), from the two neighbour shifts of the transfer recursion.
* ``dude``: the channel-inverting context-count denoiser; only eps is known.
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
over the hidden symbol.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InsufficientContextError,
    LengthMismatchError,
    OutOfRangeError,
    SingularChannelError,
)
from .model import ChannelParams, derive_couplings, validate_params
from .sequences import SPIN_DTYPE, SpinSequence, as_spin_array
from .transfer import _logistic_pair, _symbol_prob, neighbour_shifts

__all__ = [
    "PosteriorMarginals",
    "BerReport",
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
    "gibbs_denoise",
    "map_denoise",
    "bit_error_rate",
]

#: Entries of Pi^{-1} q2 below this are flagged before being clamped to zero.
NEGATIVE_FLAG_THRESHOLD = -1e-12


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
        object.__setattr__(self, "q_minus", qm)
        object.__setattr__(self, "q_plus", qp)

    def __len__(self) -> int:
        return len(self.q_plus)


@dataclass
class BerReport:
    """One benchmark measurement: algorithm, cell parameters and achieved loss."""

    algorithm: str
    p: float
    epsilon: float
    n: int
    seed: int
    ber: float
    runtime_s: float
    generator: str = "philox4x64"
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": "noisymarkov-ber-v1",
            "algorithm": self.algorithm,
            "p": self.p,
            "epsilon": self.epsilon,
            "n": self.n,
            "seed": self.seed,
            "ber": self.ber,
            "runtime_s": self.runtime_s,
            "generator": self.generator,
            "extra": self.extra,
        }


def _require_invertible(epsilon: float) -> None:
    if epsilon == 0.5:
        raise SingularChannelError("epsilon = 1/2 makes the emission matrix singular")


def emission_matrix(epsilon: float) -> np.ndarray:
    """Row-stochastic emission matrix Pi[x, y] = P(Y=y | X=x), indices (-1, +1)."""
    return np.array([[1.0 - epsilon, epsilon], [epsilon, 1.0 - epsilon]])


def emission_inverse(epsilon: float) -> np.ndarray:
    """Inverse of the emission matrix; requires epsilon != 1/2."""
    _require_invertible(epsilon)
    return np.array([[1.0 - epsilon, -epsilon], [-epsilon, 1.0 - epsilon]]) / (1.0 - 2.0 * epsilon)


def emission_column(epsilon: float, y: int) -> np.ndarray:
    """Likelihood vector pi_y over hidden states for a single observed symbol."""
    if y not in (-1, 1):
        raise ValueError(f"y must be -1 or +1, got {y}")
    return emission_matrix(epsilon)[:, (y + 1) // 2]


def forward_backward(y, params: ChannelParams) -> PosteriorMarginals:
    """Exact posteriors P[X_i | Y = y].

    The posterior log-odds of X_i are 2 (K*y_i + A(wf_{i-1}) + A(wb_{i+1})),
    with the neighbour shifts of the transfer recursion; the logistic of them
    is taken in overflow-safe form.
    """
    arr = as_spin_array(y)
    model = derive_couplings(params)
    left, right = neighbour_shifts(arr, model)
    q_minus, q_plus = _logistic_pair(2.0 * (model.K * arr + left + right))
    return PosteriorMarginals(q_minus=q_minus, q_plus=q_plus)


def _posterior_batch(q2: np.ndarray, y_obs: np.ndarray, epsilon: float) -> tuple[np.ndarray, int]:
    """Channel inversion for a batch of two-sided conditionals.

    q2 rows are distributions of Y_i over (-1, +1); y_obs holds the observed
    symbols. Returns posterior rows over the hidden symbol and the number of
    rows whose intermediate Pi^{-1} q2 had an entry below the flag threshold
    (clamped to zero and renormalized, as the estimates are only approximate).
    """
    pinv = emission_inverse(epsilon)
    u = q2 @ pinv  # Pi^{-1} is symmetric
    n_flagged = int(np.count_nonzero((u < NEGATIVE_FLAG_THRESHOLD).any(axis=1)))
    u = np.clip(u, 0.0, None)
    pi_rows = np.where(
        (y_obs == 1)[:, None],
        np.array([epsilon, 1.0 - epsilon]),
        np.array([1.0 - epsilon, epsilon]),
    )
    v = pi_rows * u
    tot = v.sum(axis=1, keepdims=True)
    return v / tot, n_flagged


def posterior_from_two_sided(q2, y_n: int, params: ChannelParams) -> np.ndarray:
    """Posterior of X_n from a two-sided conditional of Y_n, ordered (-1, +1).

    Negative intermediate entries beyond the flag threshold (a known artifact
    of channel inversion applied to empirical estimates) trigger a warning and
    are clamped to zero before renormalizing.
    """
    _require_invertible(params.epsilon)
    if y_n not in (-1, 1):
        raise ValueError(f"y_n must be -1 or +1, got {y_n}")
    vec = np.asarray(q2, dtype=np.float64)
    if vec.shape != (2,):
        raise ValueError(f"q2 must have shape (2,), got {vec.shape}")
    if np.any(vec < NEGATIVE_FLAG_THRESHOLD) or abs(float(vec.sum()) - 1.0) > 1e-6:
        raise ValueError(f"q2 must be a probability distribution, got {vec}")
    post, n_flagged = _posterior_batch(vec[None, :], np.array([y_n]), params.epsilon)
    if n_flagged:
        warnings.warn(
            "channel inversion produced a negative intermediate; clamped to zero",
            stacklevel=2,
        )
    return post[0]


def default_context_length(n: int) -> int:
    """Default DUDE context length: ceil(log2(n)/2), at least 1, capped at 12."""
    if n < 1:
        raise OutOfRangeError(f"n must be >= 1, got {n}")
    return min(12, max(1, math.ceil(0.5 * math.log2(n))))


def _check_context(n: int, k: int | None) -> int:
    """The context length to use for a word of n symbols (default if k is None)."""
    if k is None:
        k = default_context_length(n)
    if k < 1:
        raise OutOfRangeError(f"k must be >= 1, got {k}")
    if n <= 2 * k + 1:
        raise InsufficientContextError(
            f"need n >= {2 * k + 2} symbols for context length k={k}, got {n}"
        )
    return k


def _context_codes(bits: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Codes of the k-symbol contexts left of positions k..n-1 and right of 0..n-1-k.

    ``bits`` is 1 for +1 and 0 for -1. Bit j-1 of a code holds the symbol at
    distance j from the position; a two-sided code of 2k <= 24 bits fits int64.
    """
    n = len(bits)
    left = np.zeros(n - k, dtype=np.int64)
    right = np.zeros(n - k, dtype=np.int64)
    for j in range(1, k + 1):
        left |= bits[k - j : n - j] << (j - 1)
        right |= bits[j : n - k + j] << (j - 1)
    return left, right


def _centre_conditionals(codes: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """Empirical P(centre | context) at every position, columns (-1, +1).

    One sort groups equal context codes; one bincount over (context, centre)
    then gives m(c, -1) and m(c, +1), where ``centres`` is 1 for +1. Each
    position counts itself, so every row total is >= 1.
    """
    uniq, inverse = np.unique(codes, return_inverse=True)
    counts = np.bincount(2 * inverse + centres, minlength=2 * len(uniq)).astype(np.float64)
    counts = counts.reshape(-1, 2)
    return (counts / counts.sum(axis=1, keepdims=True))[inverse]


@dataclass(frozen=True)
class DudeResult:
    """Denoised sequence plus diagnostics of the counting/inversion pipeline."""

    xhat: SpinSequence
    k: int
    q2: np.ndarray  # interior-position estimates of P(Y_i | contexts), columns (-1, +1)
    n_clamped: int


def dude_detail(y, epsilon: float, k: int | None = None) -> DudeResult:
    """Two-pass context-count denoiser with diagnostics.

    Pass one encodes the (left context, right context) word of every interior
    position once and counts its centres m(c, -1), m(c, +1) in one sort; pass
    two estimates the two-sided conditional of each interior position from
    those counts and inverts the channel. Interior contexts always contain the
    position itself, so every count total is >= 1 and no smoothing is needed.
    The first and last k positions are passed through unchanged.
    """
    _require_invertible(epsilon)
    arr = as_spin_array(y)
    n = len(arr)
    k = _check_context(n, k)
    m = n - 2 * k
    plus = (arr == 1).astype(np.int64)
    left, right = _context_codes(plus, k)
    q2 = _centre_conditionals(left[:m] | right[k : k + m] << k, plus[k : k + m])
    post, n_clamped = _posterior_batch(q2, arr[k : k + m], epsilon)
    xhat = arr.copy()
    xhat[k : k + m] = np.where(post[:, 1] >= post[:, 0], 1, -1).astype(SPIN_DTYPE)
    return DudeResult(xhat=SpinSequence(xhat), k=k, q2=q2, n_clamped=n_clamped)


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
    shifts of the full observed word (valid in both directions because the
    symmetric chain is reversible); ``empirical`` mode estimates them with
    order-k context counts and passes the first/last k positions through. Its
    left and right contexts come from the same encoder as ``dude_detail``, and
    each side is counted in one sort. The surrogate is then pushed through the
    channel inversion and a per-position argmax. It deliberately does not
    equal the exact two-sided conditional in general.
    """
    _require_invertible(params.epsilon)
    arr = as_spin_array(y)
    n = len(arr)
    if mode == "exact":
        model = derive_couplings(params)
        left, right = neighbour_shifts(arr, model)
        # product of the one-sided conditionals of Y_i given each side
        num_plus = _symbol_prob(1, left, model) * _symbol_prob(1, right, model)
        num_minus = _symbol_prob(-1, left, model) * _symbol_prob(-1, right, model)
        tot = num_plus + num_minus
        q2 = np.stack([num_minus / tot, num_plus / tot], axis=1)
        post, _ = _posterior_batch(q2, arr, params.epsilon)
        marg = PosteriorMarginals(q_minus=post[:, 0], q_plus=post[:, 1])
        xhat = np.where(post[:, 1] >= post[:, 0], 1, -1).astype(SPIN_DTYPE)
        return SpinSequence(xhat), marg
    if mode != "empirical":
        raise ValueError(f"mode must be 'exact' or 'empirical', got {mode!r}")
    k = _check_context(n, k)
    m = n - 2 * k
    plus = (arr == 1).astype(np.int64)
    left, right = _context_codes(plus, k)
    # one-sided conditionals counted over every position with a full context
    q_left = _centre_conditionals(left, plus[k:])[:m]
    q_right = _centre_conditionals(right, plus[: n - k])[k : k + m]
    prod = q_left * q_right
    q2 = prod / prod.sum(axis=1, keepdims=True)
    post_interior, _ = _posterior_batch(q2, arr[k : n - k], params.epsilon)
    # boundary positions: passthrough estimate, channel-only posterior
    post = np.empty((n, 2))
    boundary, _ = _posterior_batch(
        np.full((2 * k, 2), 0.5), np.concatenate([arr[:k], arr[n - k :]]), params.epsilon
    )
    post[:k] = boundary[:k]
    post[n - k :] = boundary[k:]
    post[k : n - k] = post_interior
    xhat = arr.copy()
    xhat[k : n - k] = np.where(post_interior[:, 1] >= post_interior[:, 0], 1, -1).astype(SPIN_DTYPE)
    marg = PosteriorMarginals(q_minus=post[:, 0], q_plus=post[:, 1])
    return SpinSequence(xhat), marg


def estimate_p_moment(y, epsilon: float) -> float:
    """Moment-matched estimate of the source flip rate from the observed word.

    E[Y_i Y_{i+1}] = (1-2p)(1-2 eps)^2, so p_hat = (1 - r_hat/(1-2 eps)^2)/2
    with r_hat the empirical neighbor product mean, clamped to [1e-6, 1/2].
    """
    _require_invertible(epsilon)
    arr = as_spin_array(y)
    if len(arr) < 2:
        raise InsufficientContextError("need at least 2 symbols to estimate p")
    r_hat = float(np.mean(arr[:-1].astype(np.float64) * arr[1:].astype(np.float64)))
    p_hat = 0.5 * (1.0 - r_hat / (1.0 - 2.0 * epsilon) ** 2)
    return float(min(0.5, max(1e-6, p_hat)))


def gibbs_denoise(y, epsilon: float) -> SpinSequence:
    """Gibbs-modeling surrogate: moment-matched p, then the exact MAP pass."""
    p_hat = estimate_p_moment(y, epsilon)
    return map_denoise(forward_backward(y, validate_params(p_hat, epsilon)))


def map_denoise(post: PosteriorMarginals) -> SpinSequence:
    """Per-position argmax of the posterior; exact ties break toward +1."""
    return SpinSequence(np.where(post.q_plus >= post.q_minus, 1, -1).astype(SPIN_DTYPE))


def bit_error_rate(xhat, x) -> float:
    """Fraction of positions where the reconstruction differs from the truth."""
    a = as_spin_array(xhat)
    b = as_spin_array(x)
    if len(a) != len(b):
        raise LengthMismatchError(f"length mismatch: {len(a)} vs {len(b)}")
    return float(np.mean(a != b))
