"""Pinned outputs of ``noisymarkov probs``, ``decay``, ``gfun`` and ``simulate``: SHA-256 of the file each writes.

Each run writes into a file of one fixed relative name, which the CSV headers'
``# out=`` line records, and the ``decay`` run with a configuration file reads
it from one fixed relative name too. The digests are compared with
``tests/data/cli_digests.json``; the ``bench`` files are pinned apart, in
``test_bench_digests.py``.

numpy picks its ``exp`` and ``log`` kernels by CPU feature, so another host or
numpy version may round some float differently; the data file records the
numpy version the digests were written with. A change that moves an output
writes the file again, by running this module as a script
(``PYTHONPATH=src python tests/test_cli_digests.py RUN_DIR``), and states the
drift in its change notes.
"""

import contextlib
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from noisymarkov import cli

DIGESTS = Path(__file__).resolve().parent / "data" / "cli_digests.json"

#: Name of each pinned run: its arguments, the file it writes, and the text of its configuration file or None.
RUNS = {
    "probs": (["probs", "--p", "0.2", "--eps", "0.1", "--n", "10"], "probs.csv", None),
    "decay": (["decay"], "decay.csv", None),
    "decay samples=8": (["decay", "--grid-file", "cfg.txt"], "decay.csv", "samples=8\n"),
    "gfun": (["gfun", "--p", "0.2", "--eps", "0.1"], "gfun.csv", None),
    "simulate csv": (["simulate", "--p", "0.2", "--eps", "0.1", "--n", "1000", "--seed", "7"], "path.csv", None),
    "simulate bin": (["simulate", "--p", "0.2", "--eps", "0.1", "--n", "1000", "--seed", "7"], "path.bin", None),
}


def run_digest(run: str) -> str:
    """Run ``run`` in the working directory; the SHA-256 of the file it wrote."""
    args, out, config = RUNS[run]
    if config is not None:
        Path("cfg.txt").write_text(config, encoding="utf-8")
    assert cli.main([*args, "--out", out]) == 0
    return hashlib.sha256(Path(out).read_bytes()).hexdigest()


@pytest.mark.parametrize("run", sorted(RUNS))
def test_cli_outputs_are_pinned(run, tmp_path, monkeypatch):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    assert run_digest(run) == pinned["runs"][run], (
        f"{' '.join(RUNS[run][0])} moved; digests written with numpy {pinned['numpy']}, "
        f"running numpy {np.__version__}"
    )


def write_digests(workdir: Path) -> None:
    """Write ``DIGESTS`` from runs in the directory ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    with contextlib.chdir(workdir):
        runs = {run: run_digest(run) for run in RUNS}
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps({"numpy": np.__version__, "runs": runs}, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_digests(Path(sys.argv[1]))
