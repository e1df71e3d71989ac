"""Tests of the benchmark's own machinery: spans, failure accounting, metric names."""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from noisymarkov import DivisionNearZeroError

from perfbench.harness import END_TO_END, LAYERS, PER_LAYER, Session, layer_metrics
from perfbench.spans import Span, Tracer, self_times
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class FakeClock:
    """A clock that reads the values it is given, one per call."""

    def __init__(self, *ticks: float) -> None:
        self.ticks = iter(ticks)

    def __call__(self) -> float:
        return next(self.ticks)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9]
    tracer = Tracer(clock=FakeClock(0, 1, 2, 3, 4, 5, 9, 10))
    with tracer.span("cli.main"):
        with tracer.span("denoise.a"):
            with tracer.span("transfer.c"):
                pass
        with tracer.span("denoise.b"):
            pass
    names = [s.name for s in tracer.spans]
    assert names == ["cli.main", "denoise.a", "transfer.c", "denoise.b"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]
    assert self_times(tracer.spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(tracer.spans)) == tracer.spans[0].duration
    assert {s.op for s in tracer.spans} == {0}


def test_top_level_spans_start_new_operations():
    tracer = Tracer(clock=FakeClock(0, 1, 2, 3))
    for name in ("thermo.g_function", "transfer.cylinder_prob"):
        with tracer.span(name):
            pass
    assert [s.op for s in tracer.spans] == [0, 1]
    assert [s.parent for s in tracer.spans] == [-1, -1]


def test_self_time_clips_children_to_the_parent_and_merges_overlaps():
    tracer = Tracer(clock=FakeClock(0, 10))
    with tracer.span("cli.main"):
        pass
    tracer.spans += [
        Span("a.x", 2.0, 6.0, 0, 0),
        Span("a.y", 4.0, 12.0, 0, 0),
    ]
    assert self_times(tracer.spans)[0] == 2.0


def test_wrapped_function_records_span_name_and_symbols():
    tracer = Tracer(clock=FakeClock(0, 2))
    traced = tracer.wrap(lambda y, eps, k: sum(y), lambda args, kwargs: f"denoise.dude_k{args[2]}")
    assert traced(np.ones(5), 0.2, 3) == 5
    (span,) = tracer.spans
    assert (span.name, span.symbols, span.duration) == ("denoise.dude_k3", 5, 2)


def _raise(exc):
    raise exc


def test_failures_are_counted_by_layer_and_refusals_apart():
    s = Session()
    assert s.call("denoise.forward_backward", _raise, ValueError("bad shape")) is None
    with s.expect(DivisionNearZeroError):
        assert s.call("thermo.g_continued_fraction", _raise, DivisionNearZeroError("tiny")) is None
    assert s.call("transfer.cylinder_prob", lambda: 0.25) == 0.25
    assert s.attempted == 3
    assert s.failed == {"denoise": 1}
    assert s.refused == {"thermo.g_continued_fraction": 1}
    # the crashed call left no output to check, so the pass is not correct
    assert s.failed_checks == 1
    assert len(s.latencies) == 3


def test_only_declared_exceptions_leave_a_pass_correct():
    s = Session()
    with s.expect(OverflowError):
        assert s.call("thermo.bowen_gibbs_certificate", _raise, OverflowError("math range")) is None
        assert s.call("thermo.bowen_gibbs_certificate", _raise, ZeroDivisionError("other")) is None
    assert s.call("thermo.bowen_gibbs_certificate", _raise, OverflowError("math range")) is None
    assert s.failed == {"thermo": 3}
    assert s.failed_checks == 2
    # a refusal where none is declared is a missing output too
    assert s.call("denoise.forward_backward", _raise, DivisionNearZeroError("tiny")) is None
    assert s.refused == {"denoise.forward_backward": 1}
    assert s.failed == {"thermo": 3, "denoise": 1}
    assert s.failed_checks == 3


def test_failed_checks_and_non_finite_results_are_failures():
    s = Session()
    assert s.check("oracle.brute_force_cylinder", True, "fine")
    assert not s.check("transfer.cylinder_prob", False, "cylinder 0.3 vs brute force 0.2")
    assert not s.check_finite("denoise.forward_backward", [0.5, math.nan])
    assert s.check_finite("denoise.map_denoise", None, [1.0])
    assert s.failed == {"transfer": 1, "denoise": 1}
    assert s.failed_checks == 2
    assert any("cylinder 0.3" in p for p in s.problems)


def test_traced_session_feeds_layer_metrics():
    s = Session(Tracer())
    y = np.ones(1000, dtype=np.int8)
    with s.group("denoise.dude", len(y)):
        for k in (1, 4):
            s.call(f"denoise.dude_k{k}", lambda y, k: y, y, k)
    s.call("thermo.g_function", lambda: 0.5)
    s.call("transfer.backward_fields", lambda y: y, y[:300])
    metrics = layer_metrics([s], [1.0], [1.0], {"thermo.failed": 0})
    assert set(metrics) == set(PER_LAYER)
    assert metrics["denoise.dude_k1_s"] > 0 and metrics["denoise.dude_k10_s"] == 0
    assert metrics["denoise.dude_s"] == pytest.approx(
        metrics["denoise.dude_k1_s"] + metrics["denoise.dude_k4_s"])
    assert metrics["thermo.g_function_us"] > 0
    assert metrics["transfer.scan_symbols"] == 300
    with pytest.raises(KeyError):
        layer_metrics([s], [1.0], [1.0], {"thermo.typo": 1})


def test_metric_names_and_units_are_valid_and_match_the_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in declared] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert all(UNIT.fullmatch(m["unit"]) for m in declared)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {f"{layer}.failed" for layer in LAYERS} <= set(PER_LAYER)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_bench", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
