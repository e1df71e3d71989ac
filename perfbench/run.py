"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/.
Set-up is sampled in SETUP_SAMPLES fresh worker processes, the middle one of
which also measures for S seconds and checks its outputs. The last line of standard
output is the result: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics when --trace is 0 and the per-layer metrics when it is 1.
The line before it carries the environment and every detail figure.
``--workload all`` runs each workload in turn, for reading rather than parsing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("long_word_exact", "universal_dude", "gibbs_queries", "cli_bench")

#: Fresh processes per run that time set-up; the middle one also measures, so
#: the samples before and after it span the run's changes in machine speed.
SETUP_SAMPLES = 9

#: A run must end within 180 s; this leaves room for start-up and printing.
RUN_BUDGET_S = 170.0


def spawn(args: list[str], deadline: float) -> dict:
    """Run the worker to completion; its JSON line plus the set-up time seen from here."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    started = time.time()
    proc = subprocess.run([sys.executable, str(WORKER), *args], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {args} exited with {proc.returncode}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready"] - started
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int) -> None:
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    before = SETUP_SAMPLES // 2
    setups = [spawn(common + ["--setup-only"], deadline)["setup_s"] for _ in range(before)]
    out = spawn(common + ["--trace", str(trace)], deadline)
    setups.append(out["setup_s"])
    setups += [spawn(common + ["--setup-only"], deadline)["setup_s"]
               for _ in range(SETUP_SAMPLES - 1 - before)]

    setup = {"value": statistics.median(setups), "unit": "s"}
    summary = {
        "workload": name,
        "trace": trace,
        "figures": dict(out["figures"], setup_s=setup),
        "setup_samples_s": setups,
        **{k: out[k] for k in ("details", "pass_walls_s", "refused", "problems",
                               "environment")},
    }
    metrics = out["metrics"]
    if not trace:
        metrics["setup_s"] = setup
    print(json.dumps(summary))
    print(json.dumps({k: out[k] for k in ("correct", "attempted", "failed")} | {"metrics": metrics}),
          flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run so that it kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "noisymarkov" / "__init__.py").is_file():
        print(f"run.py: no package source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        for name in WORKLOADS if args.workload == "all" else (args.workload,):
            run_workload(name, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
