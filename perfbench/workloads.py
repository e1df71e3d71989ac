"""The four workloads. Each is a closed loop: one client, one thread, one process.

A workload is built from its seed (that is its set-up), ``run`` makes one
pass through the package's public functions and returns what the checks need,
and ``check`` verifies the first pass's outputs against the package's own
arbiters outside the timed section. ``check`` returns the workload's detail
figures: the BERs, query latencies and exact counts it reports.
"""

from __future__ import annotations

import csv
import inspect
import json
import math
import statistics
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

import numpy as np

import noisymarkov.cli as cli
from noisymarkov import (
    DivisionNearZeroError,
    bfp_denoise,
    bit_error_rate,
    bowen_gibbs_certificate,
    bowen_gibbs_ratio,
    brute_force_cylinder,
    backward_fields,
    channel_model,
    cylinder_prob,
    decay_rate_bound,
    dude_detail,
    estimate_p_moment,
    forward_backward,
    forward_fields,
    g_continued_fraction,
    g_function,
    generate_dataset,
    gibbs_denoise,
    load_path_csv,
    load_spins,
    log_cylinder_prob,
    map_denoise,
    posterior_from_two_sided,
    required_context,
    save_path_csv,
    save_spins,
    two_sided_conditional,
    two_sided_limit_conditional,
    validate_params,
    variation_estimate,
)

from perfbench.harness import LAYERS, Session
from perfbench.spans import patched

#: Context tolerance of the long-memory checks and queries.
TOL = 1e-12


def derive_seed(seed: int, *tags: int) -> int:
    """A dataset seed for one input of the workload, fixed by the workload seed."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def spin_words(rng: np.random.Generator, count: int, length: int) -> list[np.ndarray]:
    return list(np.where(rng.random((count, length)) < 0.5, -1, 1).astype(np.int8))


def sigma(ber: float, n: int) -> float:
    return math.sqrt(ber * (1.0 - ber) / n)


class LongWordExact:
    """Field scans on 10^6-symbol words at a short- and a long-memory cell."""

    CELLS = ((0.1, 0.2), (0.02, 0.3))
    N = 1_000_000
    IDENTITY_POSITIONS = 100  # per cell

    def __init__(self, seed: int, tmp: Path) -> None:
        self.cells = [
            (validate_params(p, eps), channel_model(p, eps), derive_seed(seed, i))
            for i, (p, eps) in enumerate(self.CELLS)
        ]
        self.rng = np.random.default_rng(derive_seed(seed, 99))
        self.sizes = {"n": self.N, "cells": [list(c) for c in self.CELLS],
                      "y_bytes": self.N, "field_bytes": 8 * self.N}

    def run(self, s: Session) -> list[dict]:
        out = []
        for params, model, seed in self.cells:
            path = s.call("simulate.generate_dataset", generate_dataset, params, self.N, seed)
            if path is None:
                continue
            y, eps = path.y, params.epsilon
            post = s.call("denoise.forward_backward", forward_backward, y, params)
            x_map = s.call("denoise.map_denoise", map_denoise, post)
            bfp = s.call("denoise.bfp_exact", bfp_denoise, y, params, mode="exact")
            x_gibbs = s.call("denoise.gibbs_denoise", gibbs_denoise, y, eps)
            log_q = s.call("transfer.log_cylinder_prob", log_cylinder_prob, y, model)
            wb = s.call("transfer.backward_fields", backward_fields, y, model)
            wf = s.call("transfer.forward_fields", forward_fields, y, model)
            x_bfp = bfp and bfp[0]
            bers = {name: s.call("denoise.bit_error_rate", bit_error_rate, xhat, path.x)
                    for name, xhat in (("map", x_map), ("gibbs", x_gibbs), ("bfp", x_bfp))}
            out.append(dict(params=params, model=model, path=path, post=post, x_map=x_map,
                            bfp=bfp, log_q=log_q, wb=wb, wf=wf, bers=bers))
        return out

    def check(self, s: Session, out: list[dict]) -> dict:
        # outputs of failed calls are None; those failures are already booked
        complete = [c for c in out if all(v is not None for v in (*c.values(), *c["bers"].values()))]
        s.check("simulate.generate_dataset", len(out) == len(self.cells), "a cell produced no path")
        worst = 0.0
        for cell in complete:
            params, model, y = cell["params"], cell["model"], cell["path"].y.symbols
            post, bers = cell["post"], cell["bers"]
            s.check_finite("denoise.forward_backward", post.q_minus, post.q_plus)
            s.check_finite("denoise.bfp_exact", cell["bfp"][1].q_minus, cell["bfp"][1].q_plus)
            s.check_finite("transfer.log_cylinder_prob", cell["log_q"])
            s.check_finite("transfer.backward_fields", cell["wb"].values)
            s.check_finite("transfer.forward_fields", cell["wf"].values)
            s.check("denoise.map_denoise", np.array_equal(
                cell["x_map"].symbols, np.where(post.q_plus >= post.q_minus, 1, -1)),
                "MAP decisions are not the posterior argmax")
            # the channel-inversion identity on windows the decay certificate covers
            L = required_context(TOL, model)
            for i in self.rng.integers(L, self.N - L, size=self.IDENTITY_POSITIONS):
                q_plus = s.call("transfer.two_sided_conditional", two_sided_conditional,
                                1, y[i - L:i], y[i + 1:i + 1 + L], model)
                if q_plus is None:
                    continue
                mapped = s.call("denoise.posterior_from_two_sided", posterior_from_two_sided,
                                [1.0 - q_plus, q_plus], int(y[i]), params)
                if mapped is not None:
                    worst = max(worst, abs(mapped[0] - post.q_minus[i]),
                                abs(mapped[1] - post.q_plus[i]))
            s.check("denoise.forward_backward", worst < 1e-9,
                    f"posterior differs from the channel-inversion identity by {worst:.3e}")
            for name in ("gibbs", "bfp"):
                s.check("denoise.bit_error_rate",
                        bers["map"] <= bers[name] + 3 * sigma(bers[name], self.N),
                        f"exact MAP BER {bers['map']} above {name} BER {bers[name]} + 3 sigma")
        if not complete:
            return {}
        return {
            "ber_map": statistics.fmean(c["bers"]["map"] for c in complete),
            "ber_gibbs": statistics.fmean(c["bers"]["gibbs"] for c in complete),
            "ber_bfp": statistics.fmean(c["bers"]["bfp"] for c in complete),
            "identity_max_defect": worst,
        }


class UniversalDude:
    """Known channel, unknown source: the path goes through files, then DUDE over k."""

    P, EPS = 0.1, 0.2
    N = 1_000_000
    K_LIST = (1, 2, 3, 4, 5, 6, 7, 8, 10)
    RECOUNT_POSITIONS = 50  # per k

    def __init__(self, seed: int, tmp: Path) -> None:
        self.params = validate_params(self.P, self.EPS)
        self.seed = derive_seed(seed, 0)
        self.csv_path = tmp / "path.csv"
        self.bin_path = tmp / "y.bin"
        self.rng = np.random.default_rng(derive_seed(seed, 99))
        self.sizes = {"n": self.N, "cell": [self.P, self.EPS], "k": list(self.K_LIST),
                      "y_bytes": self.N}

    def run(self, s: Session) -> dict | None:
        path = s.call("simulate.generate_dataset", generate_dataset, self.params, self.N, self.seed)
        if path is None:
            return None
        s.call("simulate.save_path_csv", save_path_csv, self.csv_path, path)
        s.call("simulate.save_spins", save_spins, self.bin_path, path.y)
        y = s.call("simulate.load_spins", load_spins, self.bin_path)
        loaded = s.call("simulate.load_path_csv", load_path_csv, self.csv_path)
        if y is None or loaded is None:
            return None
        with s.group("denoise.dude", self.N):
            dude = {k: s.call(f"denoise.dude_k{k}", dude_detail, y, self.EPS, k=k)
                    for k in self.K_LIST}
        emp = s.call("denoise.bfp_empirical", bfp_denoise, y, self.params, mode="empirical")
        p_hat = s.call("denoise.estimate_p_moment", estimate_p_moment, y, self.EPS)
        bers = {f"dude_k{k}": s.call("denoise.bit_error_rate", bit_error_rate,
                                     r and r.xhat, loaded.x) for k, r in dude.items()}
        bers["bfp_emp"] = s.call("denoise.bit_error_rate", bit_error_rate, emp and emp[0], loaded.x)
        return dict(path=path, y=y, loaded=loaded, dude=dude, emp=emp, p_hat=p_hat, bers=bers)

    def check(self, s: Session, out: dict | None) -> dict:
        if not s.check("simulate.load_path_csv", out is not None, "no path made it through the files"):
            return {}
        path, loaded = out["path"], out["loaded"]
        s.check("simulate.load_spins", np.array_equal(out["y"].symbols, path.y.symbols),
                "packed round trip changed y")
        s.check("simulate.load_path_csv",
                all(np.array_equal(getattr(loaded, a).symbols, getattr(path, a).symbols)
                    for a in "xzy") and loaded.seed == path.seed,
                "CSV round trip changed the path")
        emp, p_hat = out["emp"], out["p_hat"]
        if emp is not None:
            s.check_finite("denoise.bfp_empirical", emp[1].q_minus, emp[1].q_plus)
        s.check("denoise.estimate_p_moment", p_hat is None or 0.0 < p_hat <= 0.5, f"p_hat = {p_hat}")
        y = path.y.symbols
        bits = (y == -1).astype(np.int64)
        ties = 0
        for k, result in out["dude"].items():
            if result is not None:
                ties += self._recount(s, k, bits, y, result)
        bers = {name: ber for name, ber in out["bers"].items() if ber is not None}
        s.check_finite("denoise.bit_error_rate", list(bers.values()))
        dude_bers = {k: bers[f"dude_k{k}"] for k in self.K_LIST if f"dude_k{k}" in bers}
        best_k = min(dude_bers, key=dude_bers.get, default=None)
        figures = {
            "denoise.dude_n_clamped": sum(r.n_clamped for r in out["dude"].values() if r is not None),
            "simulate.csv_bytes": self.csv_path.stat().st_size,
            "simulate.packed_bytes": self.bin_path.stat().st_size,
            "recount_ties": ties,
        }
        if best_k is not None:
            figures.update(ber_dude_best=dude_bers[best_k], ber_dude_best_k=best_k)
        if "bfp_emp" in bers:
            figures["ber_bfp_emp"] = bers["bfp_emp"]
        return figures

    def _recount(self, s: Session, k: int, bits: np.ndarray, y: np.ndarray, result) -> int:
        """Recount sampled contexts with a separate encoding and decide in exact arithmetic.

        Windows y[i-k..i+k] are read as binary numbers, bit j for offset j, and
        counted with bincount; DUDE itself packs left and right contexts and
        counts with a sort. The decision keeps +1 iff pi_{y}(+1) u_+ >= pi_{y}(-1) u_-
        with u = Pi^{-1} q2 clamped at zero, as dude_detail documents.
        Returns the number of sampled positions left out as numerical ties.
        """
        width = 2 * k + 1
        codes = np.lib.stride_tricks.sliding_window_view(bits, width) @ (1 << np.arange(width))
        counts = np.bincount(codes, minlength=1 << width)
        centre = 1 << k
        eps = Fraction(self.EPS)
        ties = 0
        for j in self.rng.integers(0, len(codes), size=self.RECOUNT_POSITIONS):
            code = int(codes[j])
            m_minus, m_plus = int(counts[code | centre]), int(counts[code & ~centre])
            total = m_minus + m_plus
            q2_ok = (result.q2[j, 0] == m_minus / total and result.q2[j, 1] == m_plus / total)
            s.check(f"denoise.dude_k{k}", q2_ok, f"context counts differ at position {j + k}")
            u_minus = max(Fraction(0), (1 - eps) * m_minus - eps * m_plus)
            u_plus = max(Fraction(0), (1 - eps) * m_plus - eps * m_minus)
            obs = int(y[j + k])
            v_plus = (1 - eps if obs == 1 else eps) * u_plus
            v_minus = (eps if obs == 1 else 1 - eps) * u_minus
            if abs(v_plus - v_minus) <= Fraction(1, 10**12) * (v_plus + v_minus):
                ties += 1
                continue
            decision = 1 if v_plus >= v_minus else -1
            s.check(f"denoise.dude_k{k}", int(result.xhat.symbols[j + k]) == decision,
                    f"decision differs from the recount at position {j + k}")
        return ties


class GibbsQueries:
    """Thousands of short Gibbs-structure queries at three cells of both decay regimes."""

    CELLS = ((0.1, 0.2), (0.02, 0.3), (0.2, 0.1))
    # queries per cell and pass
    G_WINDOWS, TWO_SIDED, SHORT_WORDS, LONG_WORDS = 200, 500, 1500, 80
    CERTIFICATES, VARIATIONS = 4, 4
    SHORT_MAX, LONG_LEN, CONTEXT = 12, 1000, 64
    VARIATION_N, VARIATION_SAMPLES = 20, 32
    COLD_CELLS = 40  # fresh decay_rate_bound cells per pass
    #: Known defect: bowen_gibbs_certificate raises a bare OverflowError at this
    #: cell, as exp(C sup|B'| / (1 - rho)) overflows at rho = 0.956. The calls
    #: are counted as failed; the cell stays for its long memory.
    CERTIFICATE_OVERFLOW_CELL = (0.02, 0.3)

    def __init__(self, seed: int, tmp: Path) -> None:
        rng = np.random.default_rng(derive_seed(seed, 0))
        self.cells = []
        for p, eps in self.CELLS:
            model = channel_model(p, eps)
            width = required_context(TOL, model) + 1
            self.cells.append(dict(
                cell=(p, eps),
                params=validate_params(p, eps),
                model=model,
                windows=spin_words(rng, self.G_WINDOWS, width),
                contexts=[(int(c), left, right) for c, left, right in zip(
                    np.where(rng.random(self.TWO_SIDED) < 0.5, -1, 1),
                    spin_words(rng, self.TWO_SIDED, self.CONTEXT),
                    spin_words(rng, self.TWO_SIDED, self.CONTEXT))],
                short=[w for n in rng.integers(1, self.SHORT_MAX + 1, size=self.SHORT_WORDS)
                       for w in spin_words(rng, 1, int(n))],
                long=spin_words(rng, self.LONG_WORDS, self.LONG_LEN),
                variation_seeds=[derive_seed(seed, 1, v) for v in range(self.VARIATIONS)],
            ))
        self.cold_rng = np.random.default_rng(derive_seed(seed, 2))
        self.sizes = {"cells": [list(c) for c in self.CELLS],
                      "queries_per_pass": self.queries_per_pass()}

    def queries_per_pass(self) -> int:
        per_cell = (2 * self.G_WINDOWS + 2 * self.TWO_SIDED + 2 * self.SHORT_WORDS
                    + 2 * self.LONG_WORDS + self.CERTIFICATES + self.VARIATIONS)
        return per_cell * len(self.CELLS) + self.COLD_CELLS

    def run(self, s: Session) -> dict:
        call = s.call
        out = []
        for cell in self.cells:
            model, params = cell["model"], cell["params"]
            r = dict(cell=cell)
            r["g"] = [call("thermo.g_function", g_function, w, TOL, model) for w in cell["windows"]]
            with s.expect(DivisionNearZeroError):  # documented refusal, counted as cf_near_zero
                r["cf"] = [call("thermo.g_continued_fraction", g_continued_fraction, w, len(w) - 1,
                                model) for w in cell["windows"]]
            r["two"] = [call("transfer.two_sided_conditional", two_sided_conditional, c, a, b, model)
                        for c, a, b in cell["contexts"]]
            r["lim"] = [call("transfer.two_sided_limit_conditional", two_sided_limit_conditional,
                             c, a, b, TOL, model) for c, a, b in cell["contexts"]]
            r["q"] = [call("transfer.cylinder_prob", cylinder_prob, w, model) for w in cell["short"]]
            r["brute"] = [call("oracle.brute_force_cylinder", brute_force_cylinder, w, params)
                          for w in cell["short"]]
            r["ratio"] = [call("thermo.bowen_gibbs_ratio", bowen_gibbs_ratio, w, model)
                          for w in cell["long"]]
            r["log_q"] = [call("transfer.log_cylinder_prob", log_cylinder_prob, w, model)
                          for w in cell["long"]]
            with (s.expect(OverflowError) if cell["cell"] == self.CERTIFICATE_OVERFLOW_CELL
                  else nullcontext()):
                r["cert"] = [call("thermo.bowen_gibbs_certificate", bowen_gibbs_certificate, model)
                             for _ in range(self.CERTIFICATES)]
            r["var"] = [call("thermo.variation_estimate", variation_estimate, self.VARIATION_N,
                             self.VARIATION_SAMPLES, model, v) for v in cell["variation_seeds"]]
            out.append(r)
        # drawn afresh every pass so that the bound's cache never holds them
        cold = [validate_params(float(p), float(e))
                for p, e in self.cold_rng.uniform(0.01, 0.49, size=(self.COLD_CELLS, 2))]
        bounds = [call("thermo.decay_rate_bound_cold", decay_rate_bound, c) for c in cold]
        return dict(cells=out, bounds=bounds, latencies=list(s.latencies))

    def check(self, s: Session, out: dict) -> dict:
        for r in out["cells"]:
            cell, model = r["cell"], r["cell"]["model"]
            for name, key in (
                ("thermo.g_function", "g"), ("thermo.g_continued_fraction", "cf"),
                ("transfer.two_sided_conditional", "two"),
                ("transfer.two_sided_limit_conditional", "lim"),
                ("transfer.cylinder_prob", "q"), ("oracle.brute_force_cylinder", "brute"),
                ("thermo.bowen_gibbs_ratio", "ratio"), ("transfer.log_cylinder_prob", "log_q"),
                ("thermo.variation_estimate", "var"),
            ):
                s.check_finite(name, [v for v in r[key] if v is not None])
            for q, b in zip(r["q"], r["brute"]):
                if q is not None and b is not None:
                    s.check("transfer.cylinder_prob", abs(q - b) <= 1e-12 * b,
                            f"cylinder {q} vs brute force {b}")
            for g, cf in zip(r["g"], r["cf"]):
                if g is not None and cf is not None:
                    s.check("thermo.g_continued_fraction", abs(g - cf) <= 1e-10,
                            f"g {g} vs continued fraction {cf}")
            certs = [c for c in r["cert"] if c is not None]
            for cert in certs:
                s.check("thermo.bowen_gibbs_certificate", 0 < cert.C_lower <= cert.C_upper < math.inf,
                        f"certificate [{cert.C_lower}, {cert.C_upper}]")
                for ratio in r["ratio"]:
                    s.check("thermo.bowen_gibbs_ratio",
                            ratio is None or cert.C_lower <= ratio <= cert.C_upper,
                            f"ratio {ratio} outside [{cert.C_lower}, {cert.C_upper}]")
            bound = decay_rate_bound(cell["params"])
            limit = bound.C * bound.rho ** self.VARIATION_N + 1e-15
            for v in r["var"]:
                s.check("thermo.variation_estimate", v is None or v <= limit,
                        f"variation {v} above the certified {limit}")
            # stability of the limit conditional under longer windows
            for (c, left, right), value in zip(cell["contexts"], r["lim"]):
                longer = s.call("transfer.two_sided_limit_conditional", two_sided_limit_conditional,
                                c, np.concatenate([np.full(self.CONTEXT, left[0]), left]),
                                np.concatenate([right, np.full(self.CONTEXT, right[-1])]), TOL, model)
                s.check("transfer.two_sided_limit_conditional",
                        value is None or longer is None or abs(value - longer) <= TOL,
                        f"limit conditional {value} moved to {longer} on a longer window")
        for b in out["bounds"]:
            s.check("thermo.decay_rate_bound_cold",
                    b is not None and 0.0 <= b.rho < 1.0 and math.isfinite(b.C),
                    f"decay bound {b}")
        lat = out["latencies"]
        p50, p99 = (statistics.quantiles(lat, n=100)[i] for i in (49, 98))
        return {
            "query_p50_us": p50 * 1e6,
            "query_p99_us": p99 * 1e6,
            "query_samples": len(lat),
            "thermo.cf_near_zero": s.refused["thermo.g_continued_fraction"],
        }


def _cli_span(module: str, name: str):
    """Span name of a function cli imported, by layer; DUDE calls are named by k."""
    layer = module.rpartition(".")[2]
    if name == "dude_detail":
        return lambda args, kwargs: f"denoise.dude_k{args[2] if len(args) > 2 else kwargs.get('k')}"
    if name == "bfp_denoise":
        return lambda args, kwargs: f"denoise.bfp_{kwargs.get('mode', 'exact')}"
    return f"{layer}.{name}"


class CliBench:
    """``noisymarkov bench`` in-process at N = 2*10^5 with its default grid and algorithms."""

    N = 200_000

    def __init__(self, seed: int, tmp: Path) -> None:
        self.out_dir = tmp / "bench-out"
        self.argv = ["bench", "--n", str(self.N), "--seed", str(seed), "--out", str(self.out_dir)]
        self.sizes = {"n": self.N, "grid": [list(c) for c in cli.DEFAULT_BENCH_GRID], "seeds": [seed]}

    def run(self, s: Session) -> int | None:
        wrappers = {}
        if s.tracer is not None:
            # the functions cli imported by name, and its per-cell helper
            for name, fn in vars(cli).items():
                module = getattr(fn, "__module__", "")
                layer = module.rpartition(".")[2]
                if inspect.isfunction(fn) and layer in LAYERS and layer != "cli":
                    wrappers[name] = s.tracer.wrap(fn, _cli_span(module, name))
            if hasattr(cli, "_bench_cell"):
                wrappers["_bench_cell"] = s.tracer.wrap(cli._bench_cell, "cli.bench_cell")
        with patched(cli, wrappers):
            return s.call("cli.main", cli.main, self.argv)

    def check(self, s: Session, code: int | None) -> dict:
        if not s.check("cli.main", code == 0, f"exit code {code}"):
            return {}
        with open(self.out_dir / "ber_table.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        records = [json.loads(line) for line in (self.out_dir / "ber.jsonl").read_text().splitlines()]
        s.check("cli.main", rows and not any("error" in r for r in records), "bench reported errors")
        for row in rows:
            bf, dude_best = float(row["bf"]), float(row["dude_best"])
            s.check_finite("cli.main", [bf, float(row["gibbs"]), dude_best])
            s.check("cli.main", bf <= dude_best + 3 * sigma(dude_best, self.N),
                    f"exact MAP BER {bf} above DUDE-best {dude_best} + 3 sigma at p={row['p']}")
        return {
            "ber_map": statistics.fmean(float(r["bf"]) for r in rows),
            "ber_gibbs": statistics.fmean(float(r["gibbs"]) for r in rows),
            "ber_dude_best": statistics.fmean(float(r["dude_best"]) for r in rows),
            "denoise.dude_n_clamped": sum(r.get("extra", {}).get("n_clamped", 0) for r in records),
        }


WORKLOADS = {
    "long_word_exact": LongWordExact,
    "universal_dude": UniversalDude,
    "gibbs_queries": GibbsQueries,
    "cli_bench": CliBench,
}
