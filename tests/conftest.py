import math
import warnings

import numpy as np
import pytest

from noisymarkov import transfer
from noisymarkov.sequences import _by_spin, as_spin_array
from noisymarkov.transfer import (
    _cascade_sum,
    _lane_ratios,
    _lane_rounds,
    _scan_ratios,
    _scan_shifts,
    _shift_from_ratio,
    _walk,
    extended_fields,
    field_shift,
    field_shift_deriv,
    log_partition_term,
)

#: The (p, epsilon) grid used by cross-checking properties throughout the suite.
PARAM_GRID = [(p, e) for p in (0.1, 0.2, 0.3, 0.45) for e in (0.05, 0.2, 0.35, 0.45)]


def random_word(rng: np.random.Generator, length: int) -> np.ndarray:
    return rng.choice(np.array([-1, 1], dtype=np.int8), size=length)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def lane_calls(monkeypatch) -> list[bool]:
    """Whether the lanes met, one entry per run of the lane loop, while the test runs."""
    calls = []

    def spy(*args):
        calls.append(_lane_ratios(*args))
        return calls[-1]

    monkeypatch.setattr(transfer, "_lane_ratios", spy)
    return calls


def walked_ratios(symbols, model, start: float = 1.0) -> np.ndarray:
    """The ratio exp(-2A) of every position of ``symbols``, from one sequential ``_walk``, in position order."""
    record = []
    _walk(symbols, model, start, record)
    return np.array(record[::-1])


def assert_both_sides_walked(y, model, start: float = 1.0) -> None:
    """Both sides of y, scanned in one loop as neighbour_ratios scans them, with warnings as errors, each equal its own walk."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sides = _scan_ratios(y, model, start, reverse=True)
    for word, lanes in zip((y, y[::-1]), sides):
        assert lanes.shape == (len(y) + 1,) and np.all(np.isfinite(lanes))
        np.testing.assert_array_equal(lanes, walked_ratios(word, model, start))


def walked_shifts(symbols, model, start: float = 1.0) -> np.ndarray:
    """The shifts of ``walked_ratios``, read off by the package's one log on a contiguous array."""
    return _shift_from_ratio(walked_ratios(symbols, model, start), model)


def power_brute_force_cylinder(y, p: float, eps: float) -> float:
    """Q(y) summed over every hidden configuration, its powers taken per configuration by ``np.power``.

    The oracle that ``oracle.brute_force_cylinder`` replaced by powers looked
    up by count, kept as the reference it must equal bit for bit.
    """
    arr = np.asarray(y)
    length = len(arr)
    code = int(np.sum((arr == -1).astype(np.uint64) << np.arange(length, dtype=np.uint64)))
    configs = np.arange(1 << length, dtype=np.uint32)
    mask = np.uint32((1 << (length - 1)) - 1)
    flips = np.bitwise_count((configs ^ (configs >> np.uint32(1))) & mask)
    weights = 0.5 * np.power(p, flips, dtype=np.float64) * np.power(1.0 - p, length - 1 - flips)
    mismatches = np.bitwise_count(configs ^ np.uint32(code))
    emission = np.power(eps, mismatches, dtype=np.float64) * np.power(1.0 - eps, length - mismatches)
    return float(np.sum(weights * emission))


def array_log_cylinder_prob(y, model) -> float:
    """log Q(y) with every Q formed in numpy arrays on the scan from ratio 1, as ``log_cylinder_prob`` formed it on every word.

    The reference the short-word path on Python floats must equal bit for bit.
    """
    arr = as_spin_array(y)
    eps = model.epsilon
    rho = _scan_ratios(arr, model)[0][1:]
    logs = _by_spin(arr, 1.0 - eps, eps)
    logs *= rho
    logs += _by_spin(arr, eps, 1.0 - eps)
    rho += 1.0
    logs /= rho
    np.log(logs, out=logs)
    return _cascade_sum(logs) if _lane_rounds(len(arr)) else math.fsum(logs.tolist())


def two_scan_bowen_gibbs_ratio(y, model) -> float:
    """Q(y) / exp(S phi - n P) with the extension scanned whole by ``extended_fields`` and Q by ``array_log_cylinder_prob``.

    The two scans ``bowen_gibbs_ratio`` took before it shared one; kept as
    the reference it must equal bit for bit.
    """
    arr = as_spin_array(y)
    birkhoff = math.fsum(log_partition_term(extended_fields(arr, model), model))
    return math.exp(array_log_cylinder_prob(arr, model) - (birkhoff - len(arr) * math.log(model.lam)))


def alpha_beta_posteriors(y, p: float, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Posteriors (q_minus, q_plus) of the hidden spins given y, by scaled alpha/beta recursions.

    The textbook two-state smoother, kept here as the reference for
    ``forward_backward``: it imports nothing from the package, so it shares no
    code with the transfer recursion that the package builds its posteriors on.
    """
    arr = np.asarray(y)
    n = len(arr)
    q = 1.0 - p
    ep = np.where(arr == 1, 1.0 - eps, eps).tolist()  # P(y_i | X=+1)
    em = np.where(arr == -1, 1.0 - eps, eps).tolist()  # P(y_i | X=-1)

    alpha_p = [0.0] * n
    alpha_m = [0.0] * n
    cp, cm = 0.5 * ep[0], 0.5 * em[0]
    s = cp + cm
    cp, cm = cp / s, cm / s
    alpha_p[0], alpha_m[0] = cp, cm
    for i in range(1, n):
        npl = (cp * q + cm * p) * ep[i]
        nmi = (cp * p + cm * q) * em[i]
        s = npl + nmi
        cp, cm = npl / s, nmi / s
        alpha_p[i], alpha_m[i] = cp, cm

    beta_p = [0.0] * n
    beta_m = [0.0] * n
    bp = bm = 1.0
    beta_p[n - 1] = beta_m[n - 1] = 1.0
    for i in range(n - 2, -1, -1):
        npl = q * ep[i + 1] * bp + p * em[i + 1] * bm
        nmi = p * ep[i + 1] * bp + q * em[i + 1] * bm
        s = npl + nmi
        bp, bm = npl / s, nmi / s
        beta_p[i], beta_m[i] = bp, bm

    post_p = np.array(alpha_p) * np.array(beta_p)
    post_m = np.array(alpha_m) * np.array(beta_m)
    tot = post_p + post_m
    return post_m / tot, post_p / tot


def logistic_pair(x) -> tuple[np.ndarray, np.ndarray]:
    """(sigma(-x), sigma(x)) for the logistic sigma, overflow-safe for any real x."""
    e = np.exp(-np.abs(x))
    big, small = 1.0 / (1.0 + e), e / (1.0 + e)
    positive = x >= 0
    return np.where(positive, small, big), np.where(positive, big, small)


def neighbour_shifts(y, model) -> tuple[np.ndarray, np.ndarray]:
    """Shifts A(wf_{i-1}) and A(wb_{i+1}) of every position, each side's scan logged on its own."""
    left = _scan_shifts(y[::-1], model)[::-1]
    right = _scan_shifts(y, model)
    return left[:-1], right[1:]


def shift_space_posteriors(y, model) -> tuple[np.ndarray, np.ndarray]:
    """(q_minus, q_plus) as the logistic of the posterior log-odds 2 (K y_i + A_l + A_r).

    The shift-space ``forward_backward`` that the ratio form replaced, kept as
    the oracle its drift is measured against.
    """
    left, right = neighbour_shifts(y, model)
    return logistic_pair(2.0 * (model.K * y + left + right))


def shift_space_bfp(y, model) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(xhat, q_minus, q_plus) of exact BFP by its closed form on the two shifts.

    The shift-space exact ``bfp_denoise`` that the ratio form replaced: the
    entries of Pi^{-1} q2 are sigma(+-2 A_l) sigma(+-2 A_r) - eps (1-eps)
    tanh(A_l) tanh(A_r), clamped at zero, weighted by the channel and
    normalized; ties go to +1.
    """
    left, right = neighbour_shifts(y, model)
    eps = model.epsilon
    l_low, l_high = logistic_pair(2.0 * left)
    r_low, r_high = logistic_pair(2.0 * right)
    cross = (eps * (1.0 - eps)) * (l_high - l_low) * (r_high - r_low)
    v_plus = np.maximum(l_high * r_high - cross, 0.0)
    v_minus = np.maximum(l_low * r_low - cross, 0.0)
    plus = y == 1
    v_plus *= np.where(plus, 1.0 - eps, eps)
    v_minus *= np.where(plus, eps, 1.0 - eps)
    total = v_plus + v_minus
    return np.where(v_plus >= v_minus, 1, -1), v_minus / total, v_plus / total


def shift_space_log_cylinder_prob(y, model) -> float:
    """log Q(y) as the fsum of log((1-eps) sigma(2 y_i A_i) + eps sigma(-2 y_i A_i)), A_i the right shift."""
    low, high = logistic_pair(2.0 * y * _scan_shifts(y, model)[1:])
    return math.fsum(np.log((1.0 - model.epsilon) * high + model.epsilon * low))


def matrix_route_posteriors(q2, y, eps: float) -> tuple[np.ndarray, int]:
    """Posterior rows (-1, +1) of the hidden spins from two-sided conditionals q2 of the observations.

    The channel inversion as a matrix product, kept here as the reference for
    the package's elementwise form: u = q2 Pi^{-1} with Pi^{-1} =
    [[1-eps, -eps], [-eps, 1-eps]] / (1 - 2 eps), clamped at zero, weighted by
    P(y_i | x) and normalized. Also returns the number of rows with an entry
    of u below -1e-12. The argmax with ties toward +1 is
    ``post[:, 1] >= post[:, 0]``. Imports nothing from the package.

    The product is multiplied out by hand, each entry of u a sum of two
    rounded products, because ``q2 @ pinv`` goes to whichever BLAS kernel the
    host picks at run time, and one that fuses the multiply and add rounds
    differently: the reference would then depend on the CPU.
    """
    q = np.asarray(q2, dtype=np.float64)
    pinv = np.array([[1.0 - eps, -eps], [-eps, 1.0 - eps]]) / (1.0 - 2.0 * eps)
    u = np.empty_like(q)
    for j in range(2):
        u[:, j] = q[:, 0] * pinv[0, j] + q[:, 1] * pinv[1, j]
    flagged = int(np.count_nonzero((u < -1e-12).any(axis=1)))
    u = np.clip(u, 0.0, None)
    likelihood = np.where(
        (np.asarray(y) == 1)[:, None], np.array([eps, 1.0 - eps]), np.array([1.0 - eps, eps])
    )
    v = likelihood * u
    return v / v.sum(axis=1, keepdims=True), flagged


def reference_path_csv(sim) -> bytes:
    """A simulated path as CSV bytes, written row by row with f-strings.

    The writer ``save_path_csv`` replaced, kept here as the reference its
    output must equal byte for byte.
    """
    lines = [
        "# schema=noisymarkov-path-v1",
        f"# seed={sim.seed}",
        f"# generator={sim.generator}",
        f"# n={len(sim.y)}",
        "i,x,z,y",
    ]
    rows = zip(sim.x.symbols, sim.z.symbols, sim.y.symbols)
    lines += [f"{i},{xv:+d},{zv:+d},{yv:+d}" for i, (xv, zv, yv) in enumerate(rows)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def second_iterate_product(w, model):
    """|A'(K + A(w)) * A'(w)|, the two-step contraction factor at field w."""
    inner = model.K + field_shift(w, model)
    return np.abs(field_shift_deriv(inner, model) * field_shift_deriv(w, model))


def _golden_max(f, lo: float, hi: float, xtol: float = 1e-12) -> float:
    """Golden-section maximization of a scalar function on [lo, hi]; returns the maximum."""
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
    return f(0.5 * (a + b))


def second_iterate_sup(model) -> float:
    """sup |A'(K + A(w)) A'(w)| over |w| <= C1 = |K| + |J|, found by search.

    A dense grid followed by golden-section refinement around its best point,
    kept as the reference for the closed form of ``decay_rate_bound``. It
    shares only the public ``field_shift`` and ``field_shift_deriv`` with the
    package.
    """
    c1 = abs(model.K) + abs(model.J)
    xs = np.linspace(-c1, c1, 10_001)
    fs = second_iterate_product(xs, model)
    i = int(np.argmax(fs))
    lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
    fmax = _golden_max(lambda w: float(second_iterate_product(w, model)), float(lo), float(hi))
    return max(fmax, float(fs[i]))
