"""Pinned outputs of ``noisymarkov bench``: SHA-256 of every file it writes.

Two runs at the default grid and algorithms, one on words short enough to be
scanned sequentially (N = 20 000, seeds 0 and 1) and one on words scanned in
lanes (N = 200 000, seed 0), are compared with the digests in
``tests/data/bench_digests.json``. ``runtime_s`` is dropped from every JSONL
record before hashing, as it is the only field that moves between runs; each
run writes into a directory of one fixed relative name, which the tables'
``# out=`` line records.

numpy picks its ``exp`` and ``log`` kernels by CPU feature, so another host or
numpy version may round some float differently; the data file records the
numpy version the digests were written with. A change that moves an output
writes the file again, by running this module as a script
(``PYTHONPATH=src python tests/test_bench_digests.py RUN_DIR``), and
states the drift in its change notes.
"""

import contextlib
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from noisymarkov import cli

DIGESTS = Path(__file__).resolve().parent / "data" / "bench_digests.json"

#: Name of each pinned run, and its arguments to ``noisymarkov bench``.
RUNS = {
    "sequential": ["--n", "20000", "--seed", "0,1"],
    "lanes": ["--n", "200000", "--seed", "0"],
}

OUT_NAME = "bench-out"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def bench_digests(args: list[str]) -> dict[str, str]:
    """Run bench with ``args`` into ``OUT_NAME`` under the working directory; digests of its files."""
    assert cli.main(["bench", *args, "--out", OUT_NAME]) == 0
    out = Path(OUT_NAME)
    records = [json.loads(line) for line in (out / "ber.jsonl").read_text(encoding="utf-8").splitlines()]
    for record in records:
        record.pop("runtime_s")
    jsonl = "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)
    return {
        "ber.jsonl": _sha256(jsonl.encode()),
        "ber_table.csv": _sha256((out / "ber_table.csv").read_bytes()),
        "ber_table.md": _sha256((out / "ber_table.md").read_bytes()),
    }


@pytest.mark.parametrize("run", sorted(RUNS))
def test_bench_outputs_are_pinned(run, tmp_path, monkeypatch):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    got = bench_digests(RUNS[run])
    assert got == pinned["runs"][run], (
        f"bench {' '.join(RUNS[run])} moved; digests written with numpy {pinned['numpy']}, "
        f"running numpy {np.__version__}"
    )


def write_digests(workdir: Path) -> None:
    """Write ``DIGESTS`` from runs in the directory ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    with contextlib.chdir(workdir):
        runs = {name: bench_digests(args) for name, args in RUNS.items()}
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps({"numpy": np.__version__, "runs": runs}, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_digests(Path(sys.argv[1]))
