"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 7 compares the benchmark BERs at eps = 0.2 with the model's
Bayes-optimal BER, 7.12 / 11.92 / 15.35 / 17.61 percent for
p = 0.05 / 0.10 / 0.15 / 0.20, computed in this module by density evolution of
the fields, independently of the package's transfer and denoise code: gibbs
must lie within 0.5 pp and the best DUDE within 0.7 pp of it, exact MAP must
not lose to either by more than 3 sigma, and none of the three may beat the
optimum by more than 3 sigma. The reference values it formerly used lay up to
2 pp below that optimum, where no denoiser can reach, and were dropped.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from noisymarkov.denoise import (
    _channel_weights,
    bit_error_rate,
    dude,
    forward_backward,
    gibbs_denoise,
    map_denoise,
)
from noisymarkov.model import channel_model, validate_params
from noisymarkov.oracle import code_to_spins, enumerate_cylinder_table
from noisymarkov.simulate import generate_dataset
from noisymarkov.thermo import (
    bowen_gibbs_certificate,
    bowen_gibbs_ratio,
    decay_rate_bound,
    g_continued_fraction,
    g_function,
    variation_estimate,
)
from noisymarkov.transfer import (
    backward_fields,
    cylinder_prob,
    field_shift,
    forward_fields,
    two_sided_conditional,
)

from conftest import PARAM_GRID, alpha_beta_posteriors, random_word, second_iterate_sup

MAX_WORD_LENGTH = 10


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def cylinder_cross_check():
    """Transfer-recursion tables vs brute-force tables for every word of length <= 10."""
    t0 = time.perf_counter()
    transfer_tables: dict[tuple[float, float], list[np.ndarray]] = {}
    max_rel_err = 0.0
    words_checked = 0
    for p, eps in PARAM_GRID:
        params = validate_params(p, eps)
        model = channel_model(p, eps)
        per_length = []
        for length in range(1, MAX_WORD_LENGTH + 1):
            oracle = enumerate_cylinder_table(length, params)
            transfer = np.array(
                [cylinder_prob(code_to_spins(c, length), model) for c in range(1 << length)]
            )
            max_rel_err = max(max_rel_err, float(np.max(np.abs(transfer - oracle) / oracle)))
            words_checked += 1 << length
            per_length.append(transfer)
        transfer_tables[(p, eps)] = per_length
    return SimpleNamespace(
        tables=transfer_tables,
        max_rel_err=max_rel_err,
        words_checked=words_checked,
        elapsed=time.perf_counter() - t0,
    )


def test_criterion_1_oracle_equivalence(cylinder_cross_check):
    r = cylinder_cross_check
    ok = r.max_rel_err < 1e-12 and r.elapsed < 60.0
    report(
        1,
        ok,
        f"transfer vs brute force on {r.words_checked // len(PARAM_GRID)} words x "
        f"{len(PARAM_GRID)} grid cells: max rel err {r.max_rel_err:.3e} "
        f"(tol 1e-12), runtime {r.elapsed:.1f}s (< 60s)",
    )
    assert r.max_rel_err < 1e-12
    assert r.elapsed < 60.0


def test_criterion_2_normalization_and_consistency(cylinder_cross_check):
    worst_norm = 0.0
    worst_marg = 0.0
    for (p, eps), per_length in cylinder_cross_check.tables.items():
        for length, table in enumerate(per_length, start=1):
            worst_norm = max(worst_norm, abs(float(table.sum()) - 1.0))
            if length < MAX_WORD_LENGTH:
                child = per_length[length]  # tables for length + 1
                codes = np.arange(1 << length)
                # appending a symbol at the right occupies bit `length`
                right = child[codes] + child[codes | (1 << length)]
                # prepending at the left shifts every bit up by one
                left = child[codes << 1] + child[(codes << 1) | 1]
                worst_marg = max(
                    worst_marg,
                    float(np.max(np.abs(right - table) / table)),
                    float(np.max(np.abs(left - table) / table)),
                )
    ok = worst_norm < 1e-10 and worst_marg < 1e-12
    report(
        2,
        ok,
        f"normalization defect {worst_norm:.3e} (tol 1e-10), one-step "
        f"marginalization rel defect {worst_marg:.3e} (tol 1e-12)",
    )
    assert worst_norm < 1e-10
    assert worst_marg < 1e-12


def _two_sided_all_positions(y: np.ndarray, model) -> np.ndarray:
    """Exact two-sided conditionals of every position, columns (-1, +1)."""
    n = len(y)
    shift_r = np.zeros(n)
    shift_l = np.zeros(n)
    if n > 1:
        shift_r[: n - 1] = field_shift(backward_fields(y, model).values[1:], model)
        shift_l[1:] = field_shift(forward_fields(y, model).values[: n - 1], model)
    s = shift_l + shift_r
    num_plus = np.cosh(model.K + s)
    num_minus = np.cosh(-model.K + s)
    tot = num_plus + num_minus
    return np.stack([num_minus / tot, num_plus / tot], axis=1)


def test_criterion_3_two_sided_identity():
    t0 = time.perf_counter()
    worst = 0.0
    worst_oracle = 0.0
    for p, eps in [(0.2, 0.1), (0.3, 0.25)]:
        params = validate_params(p, eps)
        model = channel_model(p, eps)
        for n in range(1, 13):
            for code in range(1 << n):
                y = code_to_spins(code, n)
                post = forward_backward(y, params)
                q2 = _two_sided_all_positions(y, model)
                v_minus, v_plus, _ = _channel_weights(q2[:, 0], q2[:, 1], y, eps)
                total = v_minus + v_plus
                worst = max(
                    worst,
                    float(np.max(np.abs(v_minus / total - post.q_minus))),
                    float(np.max(np.abs(v_plus / total - post.q_plus))),
                )
                # both sides of the identity come from the transfer recursion;
                # the alpha/beta oracle shares no code with it
                oracle_minus, oracle_plus = alpha_beta_posteriors(y, p, eps)
                worst_oracle = max(
                    worst_oracle,
                    float(np.max(np.abs(post.q_minus - oracle_minus))),
                    float(np.max(np.abs(post.q_plus - oracle_plus))),
                )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and worst_oracle < 1e-10 and elapsed < 120.0
    report(
        3,
        ok,
        f"channel-inversion identity, exhaustive n <= 12 at (0.2,0.1) and (0.3,0.25): "
        f"max abs defect {worst:.3e} (tol 1e-10), forward-backward vs alpha/beta oracle "
        f"{worst_oracle:.3e} (tol 1e-10), runtime {elapsed:.1f}s (< 120s)",
    )
    assert worst < 1e-10
    assert worst_oracle < 1e-10
    assert elapsed < 120.0


def test_criterion_4_decay_bounds():
    # closed-form improved rate at the reference point
    bound_ref = decay_rate_bound(validate_params(0.2, 0.05))
    closed_form_ok = abs(bound_ref.rho - 0.407142857142857) < 1e-9

    # second-iterate supremum strictly below (1-2p)^2 wherever eps >= p on the grid
    sup_ok = True
    for p, eps in PARAM_GRID:
        if eps < p:
            continue
        sup2 = second_iterate_sup(channel_model(p, eps))
        sup_ok = sup_ok and sup2 < (1.0 - 2.0 * p) ** 2 - 1e-9

    # empirical variation never exceeds C rho^n (1e-15 floor = double resolution of g)
    model = channel_model(0.2, 0.05)
    var_ok = True
    worst_margin = math.inf
    for n in range(1, 61):
        estimate = variation_estimate(n, 64, model, seed=2024)
        limit = bound_ref.C * bound_ref.rho**n + 1e-15
        var_ok = var_ok and estimate <= limit
        if estimate > 0:
            worst_margin = min(worst_margin, limit / estimate)
    ok = closed_form_ok and sup_ok and var_ok
    report(
        4,
        ok,
        f"rho(0.2,0.05)={bound_ref.rho:.9f} (target 0.407142857); second-iterate "
        f"supremum strict on all eps>=p cells: {sup_ok}; variation bound n<=60 "
        f"holds: {var_ok} (min bound/estimate ratio {worst_margin:.2f})",
    )
    assert closed_form_ok
    assert sup_ok
    assert var_ok


def test_criterion_5_continued_fraction():
    model = channel_model(0.2, 0.1)
    g_ones_target = (1.6 + math.sqrt(1.6**2 - 4 * 0.216)) / 4.0  # positive quadratic root / 2
    g_ones = g_continued_fraction(np.ones(250, dtype=np.int8), 200, model)
    ones_ok = abs(g_ones - g_ones_target) < 1e-10 and abs(g_ones - 0.72558) < 1e-5

    rng = np.random.default_rng(515151)
    worst = 0.0
    for _ in range(1000):
        y = random_word(rng, 230)
        worst = max(worst, abs(g_function(y, 1e-13, model) - g_continued_fraction(y, 200, model)))
    ok = ones_ok and worst < 1e-10
    report(
        5,
        ok,
        f"all-ones g={g_ones:.8f} (target ~0.72558); max |recursion - continued "
        f"fraction| over 1000 seeded sequences at depth 200: {worst:.3e} (tol 1e-10)",
    )
    assert ones_ok
    assert worst < 1e-10


def test_criterion_6_bowen_gibbs_certificate():
    model = channel_model(0.2, 0.1)
    cert = bowen_gibbs_certificate(model)
    rng = np.random.default_rng(606060)
    lo, hi = math.inf, -math.inf
    inside = True
    for _ in range(10_000):
        y = random_word(rng, int(rng.integers(1, 101)))
        ratio = bowen_gibbs_ratio(y, model)
        lo, hi = min(lo, ratio), max(hi, ratio)
        inside = inside and cert.C_lower <= ratio <= cert.C_upper
    report(
        6,
        inside,
        f"10^4 sandwich ratios in [{lo:.4f}, {hi:.4f}] within certificate "
        f"[{cert.C_lower:.3e}, {cert.C_upper:.3e}]",
    )
    assert inside


def bayes_optimal_ber(p: float, eps: float, points: int = 2001) -> float:
    """Bayes-optimal bit error rate of Y = X*Z by density evolution of the fields.

    Independent of the package's transfer and denoise code. The half log-odds
    w_i of X_i given y_1..y_i follows the Markov chain
    (x, w) -> (x', K*y' + A(w)) with A(w) = atanh(tanh J * tanh w) on
    [-(K+|J|), K+|J|]; its stationary law is found by power iteration on a
    grid, each mass deposited by linear interpolation. Given X_i = x the left
    and right neighbour fields are i.i.d., and the MAP rule decides
    sign(K*y_i + A(w_left) + A(w_right)); ties count half an error.
    """
    K = 0.5 * math.log((1.0 - eps) / eps)
    J = 0.5 * math.log((1.0 - p) / p)
    c = K + abs(J)
    grid = np.linspace(-c, c, points)
    shift = np.arctanh(math.tanh(J) * np.tanh(grid))
    spins = (-1, 1)
    trans = {(a, b): 1.0 - p if a == b else p for a in spins for b in spins}
    chan = {(x, y): 1.0 - eps if x == y else eps for x in spins for y in spins}
    moves = {}
    for y in spins:
        pos = np.clip((K * y + shift + c) / (grid[1] - grid[0]), 0.0, points - 1.0)
        lo = np.minimum(pos.astype(np.int64), points - 2)
        moves[y] = (lo, pos - lo)

    def prior(law, x):  # joint mass of (field at i-1, X_i = x)
        return trans[(-1, x)] * law[-1] + trans[(1, x)] * law[1]

    law = {x: np.full(points, 0.5 / points) for x in spins}
    for _ in range(10_000):
        new = {}
        for x in spins:
            new[x] = np.zeros(points)
            for y in spins:
                lo, frac = moves[y]
                mass = chan[(x, y)] * prior(law, x)
                new[x] += np.bincount(lo, mass * (1.0 - frac), points)
                new[x] += np.bincount(lo + 1, mass * frac, points)
        delta = sum(float(np.abs(new[x] - law[x]).sum()) for x in spins)
        law = new
        if delta < 1e-14:
            break
    else:
        raise AssertionError(f"density evolution did not converge at p={p}, eps={eps}")

    risk = 0.0
    for x in spins:
        # x*A(w) of one neighbour field given X_i = x, sorted, with its cdf
        order = np.argsort(x * shift)
        values = (x * shift)[order]
        weights = 2.0 * prior(law, x)[order]
        cdf = np.concatenate(([0.0], np.cumsum(weights)))
        for y in spins:
            # error iff x*(K*y + A1 + A2) < 0, i.e. x*A2 < -x*K*y - x*A1
            limit = -x * K * y - values
            below = cdf[np.searchsorted(values, limit, "left")]
            ties = cdf[np.searchsorted(values, limit, "right")] - below
            risk += 0.5 * chan[(x, y)] * float(weights @ (below + 0.5 * ties))
    return risk


BENCH_P = (0.05, 0.10, 0.15, 0.20)
BENCH_N = 1_000_000
BENCH_SEEDS = (0, 1, 2)


def test_criterion_7_ber_table_reproduction():
    t0 = time.perf_counter()
    eps = 0.2
    # pin the reference before any clause relies on it
    optimum = {p: bayes_optimal_ber(p, eps) for p in BENCH_P}
    refine = max(abs(bayes_optimal_ber(p, eps, points=4001) - optimum[p]) for p in BENCH_P)
    flat = bayes_optimal_ber(0.45, eps)
    print(f"  criterion 7 oracle: optima "
          f"{' / '.join(f'{100 * optimum[p]:.3f}' for p in BENCH_P)}%; grid refinement "
          f"2001 -> 4001 moves them by {100 * refine:.1e}pp (< 1e-3pp); "
          f"p=0.45 gives {100 * flat:.6f}% (= eps)")
    assert 100.0 * refine < 1e-3
    assert abs(flat - eps) < 1e-9

    failures: list[str] = []
    for p in BENCH_P:
        params = validate_params(p, eps)
        bf_runs, gibbs_runs = [], []
        dude_runs: dict[int, list[float]] = {k: [] for k in range(1, 9)}
        for seed in BENCH_SEEDS:
            path = generate_dataset(params, BENCH_N, seed)
            bf_runs.append(
                bit_error_rate(map_denoise(forward_backward(path.y, params)), path.x)
            )
            gibbs_runs.append(bit_error_rate(gibbs_denoise(path.y, eps), path.x))
            for k in range(1, 9):
                dude_runs[k].append(bit_error_rate(dude(path.y, eps, k), path.x))
        bf = float(np.mean(bf_runs))
        gibbs = float(np.mean(gibbs_runs))
        dude_means = {k: float(np.mean(v)) for k, v in dude_runs.items()}
        best_k = min(dude_means, key=dude_means.get)
        dude_best = dude_means[best_k]
        sigma = math.sqrt(bf * (1.0 - bf) / (BENCH_N * len(BENCH_SEEDS)))
        opt = optimum[p]

        gibbs_gap = 100.0 * abs(gibbs - opt)
        dude_gap = 100.0 * abs(dude_best - opt)
        clauses = [
            (gibbs_gap <= 0.5, f"gibbs {100 * gibbs:.3f}% vs optimum {100 * opt:.3f}% "
                               f"(gap {gibbs_gap:.2f}pp, tol 0.5pp)"),
            (dude_gap <= 0.7, f"dude best k={best_k} {100 * dude_best:.3f}% vs optimum "
                              f"{100 * opt:.3f}% (gap {dude_gap:.2f}pp, tol 0.7pp)"),
            (bf <= gibbs + 3 * sigma, f"bf {100 * bf:.3f}% <= gibbs + 3sigma"),
            (bf <= dude_best + 3 * sigma, f"bf {100 * bf:.3f}% <= dude + 3sigma"),
        ]
        for name, ber in (("bf", bf), ("gibbs", gibbs), ("dude best", dude_best)):
            clauses.append((ber >= opt - 3 * sigma,
                            f"{name} {100 * ber:.3f}% >= optimum {100 * opt:.3f}% - 3sigma"))
        for ok, text in clauses:
            line = f"p={p}: {text}"
            print(f"  criterion 7 clause {'PASS' if ok else 'FAIL'}: {line}")
            if not ok:
                failures.append(line)
    elapsed = time.perf_counter() - t0
    runtime_ok = elapsed < 600.0
    print(f"  criterion 7 runtime: {elapsed:.0f}s (< 600s): {'PASS' if runtime_ok else 'FAIL'}")
    report(7, runtime_ok and not failures,
           f"{len(failures)} clause(s) outside tolerance; runtime {elapsed:.0f}s")
    assert runtime_ok
    assert not failures, "benchmark clauses outside tolerance:\n  " + "\n  ".join(failures)


def test_criterion_8_bfp_non_coincidence():
    model = channel_model(0.2, 0.1)
    worst = 0.0
    for code in range(1 << 9):
        w = code_to_spins(code, 9)
        exact = two_sided_conditional(int(w[4]), w[:4], w[5:], model)
        a_l = float(field_shift(forward_fields(w[:4], model).values[-1], model))
        a_r = float(field_shift(backward_fields(w[5:], model).values[0], model))
        y0 = float(w[4])
        num = math.cosh(model.K * y0 + a_l) * math.cosh(model.K * y0 + a_r)
        den = num + math.cosh(-model.K * y0 + a_l) * math.cosh(-model.K * y0 + a_r)
        worst = max(worst, abs(num / den - exact))
    ok = worst > 1e-3
    report(
        8,
        ok,
        f"max |product surrogate - exact two-sided| over all 512 length-9 windows: "
        f"{worst:.4f} (> 1e-3 required)",
    )
    assert ok
