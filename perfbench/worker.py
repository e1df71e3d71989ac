"""One workload in one fresh process; started by run.py, prints one JSON line.

With --setup-only it stops where the first timed call would start and reports
that moment, so run.py can sample set-up time in several fresh processes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench.harness import (  # noqa: E402
    END_TO_END, FIGURES, LAYERS, PER_LAYER, layer_metrics, measure)
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Thread-count variables of the BLAS and OpenMP runtimes numpy may load.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def git_head(root: Path) -> str:
    """The checked-out commit, read from .git without running git; "unknown" outside a clone."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = root / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, sizes: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "git_head": git_head(ROOT),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "seed": seed,
        "sizes": sizes,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            workload = WORKLOADS[args.workload](args.seed, Path(tmp))
            ready = time.time()
            if args.setup_only:
                print(json.dumps({"ready": ready}))
                return 0
            first, details, peak_rss_mb, plain, traced, sessions = measure(
                workload, args.seconds, bool(args.trace))
    finally:
        try:
            scratch.rmdir()
        except OSError:  # another run still uses it
            pass

    figures = dict(details, wall_s=statistics.median(plain), peak_rss_mb=peak_rss_mb)
    result = {
        "ready": ready,
        "correct": first.failed_checks == 0,
        "attempted": first.attempted,
        "failed": sum(first.failed.values()),
        "figures": {k: {"value": v, "unit": FIGURES[k]} for k, v in figures.items() if k in FIGURES},
        "details": {k: v for k, v in details.items() if k not in FIGURES and k not in PER_LAYER},
        "pass_walls_s": {"untraced": plain, "traced": traced},
        "refused": dict(first.refused),
        "problems": first.problems[:20],
        "environment": environment(args.seed, workload.sizes),
    }
    if args.trace:
        counts = {k: v for k, v in details.items() if k in PER_LAYER}
        counts.update({f"denoise.{k}": v for k, v in details.items() if k.startswith("ber_")
                       and f"denoise.{k}" in PER_LAYER})
        counts.update({f"{layer}.failed": first.failed[layer] for layer in LAYERS})
        layers = layer_metrics(sessions, plain, traced, counts)
        result["metrics"] = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        result["metrics"] = {k: result["figures"][k] for k in END_TO_END if k != "setup_s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
