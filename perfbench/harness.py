"""Failure accounting, the pass loop and the per-layer summary of traced passes.

Every call the benchmark makes into a layer goes through ``Session.call``.
That one place counts the attempt, times it, records a span when the pass is
traced, and books a failure when the call raises anything other than a
``NoisyMarkovError``. A ``NoisyMarkovError`` is a documented refusal and is
counted per span name instead (for example ``thermo.cf_near_zero``).
Either way the call leaves no output to check, so it also makes the pass
incorrect, unless the workload declared that exception expected there with
``Session.expect``: a documented refusal, or a known defect.
"""

from __future__ import annotations

import resource
import statistics
import time
from collections import Counter
from contextlib import contextmanager, nullcontext

import numpy as np

from noisymarkov import NoisyMarkovError

from perfbench.spans import Tracer, self_times, symbol_count

#: The modules of the package that do measurable work of their own.
LAYERS = ("simulate", "transfer", "denoise", "thermo", "oracle", "cli")

#: Printed by untraced runs; each applies to every workload.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

#: The workload-level figures of the summary line; a workload reports those that apply.
FIGURES = {**END_TO_END, "query_p50_us": "us", "query_p99_us": "us", "ber_map": "share",
           "ber_gibbs": "share", "ber_bfp": "share", "ber_dude_best": "share",
           "ber_bfp_emp": "share"}

#: Printed by traced runs. A name ending in _s, _us or _ms that is not in
#: DERIVED is the span of that name without the suffix: _s is the median over
#: the run's calls of seconds per 10^6 symbols, _us and _ms the median per call.
#: A metric whose calls a workload does not make reads 0.
PER_LAYER = {
    "transfer.backward_fields_s": "s",
    "transfer.forward_fields_s": "s",
    "transfer.log_cylinder_prob_s": "s",
    "transfer.scan_symbols": "count",
    "transfer.cylinder_prob_us": "us",
    "transfer.two_sided_conditional_us": "us",
    "transfer.two_sided_limit_conditional_us": "us",
    "denoise.forward_backward_s": "s",
    "denoise.map_denoise_s": "s",
    "denoise.bfp_exact_s": "s",
    "denoise.gibbs_denoise_s": "s",
    "denoise.estimate_p_moment_s": "s",
    "denoise.bit_error_rate_s": "s",
    "denoise.dude_s": "s",
    "denoise.dude_k1_s": "s",
    "denoise.dude_k4_s": "s",
    "denoise.dude_k8_s": "s",
    "denoise.dude_k10_s": "s",
    "denoise.bfp_empirical_s": "s",
    "denoise.dude_n_clamped": "count",
    "denoise.ber_map": "share",
    "denoise.ber_gibbs": "share",
    "denoise.ber_bfp": "share",
    "denoise.ber_dude_best": "share",
    "denoise.ber_bfp_emp": "share",
    "simulate.generate_dataset_s": "s",
    "simulate.save_path_csv_s": "s",
    "simulate.load_path_csv_s": "s",
    "simulate.save_spins_s": "s",
    "simulate.load_spins_s": "s",
    "simulate.csv_bytes": "bytes",
    "simulate.packed_bytes": "bytes",
    "thermo.g_function_us": "us",
    "thermo.g_continued_fraction_us": "us",
    "thermo.bowen_gibbs_ratio_us": "us",
    "thermo.cf_near_zero": "count",
    "thermo.decay_rate_bound_cold_us": "us",
    "thermo.bowen_gibbs_certificate_us": "us",
    "thermo.variation_estimate_ms": "ms",
    "oracle.brute_force_cylinder_us": "us",
    "cli.self_s": "s",
    **{f"{layer}.failed": "count" for layer in LAYERS},
    "trace.overhead_s": "s",
    "trace.coverage_pct": "%",
}

#: Per-layer metrics computed otherwise than from one span name.
DERIVED = {"transfer.scan_symbols", "denoise.dude_s", "cli.self_s", "trace.overhead_s"}

_SCALE = {"us": 1e6, "ms": 1e3}


class Session:
    """One pass of a workload: its calls, their latencies, refusals and failures."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.latencies: list[float] = []
        self.refused: Counter[str] = Counter()
        self.failed: Counter[str] = Counter()
        self.failed_checks = 0
        self.problems: list[str] = []
        self.expected: tuple[type[Exception], ...] = ()

    @contextmanager
    def expect(self, *exceptions: type[Exception]):
        """Within the block, a call raising one of ``exceptions`` is still counted as
        refused or failed, but its missing output does not make the pass incorrect."""
        saved, self.expected = self.expected, exceptions
        try:
            yield
        finally:
            self.expected = saved

    def call(self, span: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, or None when it raised."""
        tracer = self.tracer
        if tracer is not None:
            index = tracer.open(span)
        self.attempted += 1
        out = None
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except NoisyMarkovError as exc:
            self.refused[span] += 1
            if not isinstance(exc, self.expected):
                self.check(span, False, f"unexpected refusal {type(exc).__name__}: {exc}")
        except Exception as exc:  # the benchmark keeps going and books it
            self.fail(span, f"{type(exc).__name__}: {exc}")
            if not isinstance(exc, self.expected):
                self.failed_checks += 1  # its output is missing, so no check of it can pass
        self.latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.close(index, symbol_count(args, out))
        return out

    def group(self, span: str, symbols: int = 0):
        """A span around several calls; does nothing when the pass is not traced."""
        return nullcontext() if self.tracer is None else self.tracer.span(span, symbols)

    def fail(self, span: str, detail: str) -> None:
        self.failed[span.partition(".")[0]] += 1
        self.problems.append(f"{span}: {detail}")

    def check(self, span: str, ok: bool, detail: str) -> bool:
        """Book a failed output check against the layer of ``span``."""
        if not ok:
            self.failed_checks += 1
            self.fail(span, f"check failed: {detail}")
        return bool(ok)

    def check_finite(self, span: str, *values) -> bool:
        """Check that every given value is finite; outputs of failed calls (None) are skipped,
        as ``call`` already booked them."""
        ok = all(np.all(np.isfinite(np.asarray(v, dtype=np.float64)))
                 for v in values if v is not None)
        return self.check(span, ok, "non-finite result")


def measure(workload, seconds: float, trace: bool):
    """Run passes until ``seconds`` have elapsed; with ``trace``, alternate untraced and traced.

    The first pass is untraced. Its outputs are checked, outside the timed
    section, before the next pass starts, and then dropped, so the memory
    high-water mark is taken after it. Every pass repeats the first one's
    inputs, so all passes must attempt and fail the same operations.
    Returns (first session, check figures, peak RSS in MiB, untraced pass
    times, traced pass times, traced sessions).
    """
    deadline = time.perf_counter() + seconds
    plain, traced, traced_sessions = [], [], []
    first = None
    while True:
        tracing = trace and len(plain) > len(traced)
        session = Session(Tracer() if tracing else None)
        t0 = time.perf_counter()
        out = workload.run(session)
        (traced if tracing else plain).append(time.perf_counter() - t0)
        if first is None:
            first = session
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            first_counts = (session.attempted, Counter(session.failed))
            figures = workload.check(session, out)
        elif (session.attempted, session.failed) != first_counts:
            first.check("bench.repeat", False, "a repeated pass attempted or failed other operations")
        del out
        if tracing:
            traced_sessions.append(session)
        if time.perf_counter() >= deadline and (not trace or traced):
            return first, figures, peak_rss_mb, plain, traced, traced_sessions


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(sessions: list[Session], plain: list[float], traced: list[float],
                  counts: dict) -> dict[str, float]:
    """Every per-layer metric, from the spans of the traced passes and the workload's counts."""
    durations: dict[str, list[float]] = {}
    per_mega: dict[str, list[float]] = {}
    dude_sweeps: list[float] = []
    cli_self: list[float] = []
    scan_symbols: list[int] = []
    covered = 0.0
    for session in sessions:
        spans = session.tracer.spans
        sweeps: Counter[int] = Counter()
        cli_by_op: Counter[int] = Counter()
        scanned = 0
        for span, self_time in zip(spans, self_times(spans)):
            durations.setdefault(span.name, []).append(span.duration)
            if span.symbols:
                per_mega.setdefault(span.name, []).append(span.duration * 1e6 / span.symbols)
            if span.parent < 0:
                covered += span.duration
            if span.layer == "cli":
                cli_by_op[span.op] += self_time
            elif span.layer == "transfer":
                scanned += span.symbols
            if span.name.startswith("denoise.dude_k") and span.symbols:
                # one sweep over k is the set of DUDE calls under one parent span
                sweeps[span.parent] += span.duration * 1e6 / span.symbols
        dude_sweeps += sweeps.values()
        cli_self += cli_by_op.values()
        scan_symbols.append(scanned)

    out = dict.fromkeys(PER_LAYER, 0)
    for name in PER_LAYER:
        base, _, suffix = name.rpartition("_")
        if name in DERIVED:
            continue
        if suffix == "s":
            out[name] = _median(per_mega.get(base, ()))
        elif suffix in _SCALE:
            out[name] = _median(durations.get(base, ())) * _SCALE[suffix]
    out["transfer.scan_symbols"] = int(_median(scan_symbols))
    out["denoise.dude_s"] = _median(dude_sweeps)
    out["cli.self_s"] = _median(cli_self)
    out["trace.overhead_s"] = _median(traced) - _median(plain)
    out["trace.coverage_pct"] = 100.0 * covered / sum(traced)
    unknown = set(counts) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"counts for undeclared metrics: {sorted(unknown)}")
    out.update(counts)
    return out
