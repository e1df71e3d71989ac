"""Pinned outputs of the empirical denoisers: SHA-256 of every array they return.

DUDE runs at k = 1..12 and eps = 0.2 and 0.7, and empirical BFP at
k = None, 1, 3 and 10, on seeded words of 30, 5 000 and 200 000 symbols. The
digests of DUDE's ``xhat`` and ``q2`` and of BFP's ``xhat``, ``q_minus`` and
``q_plus``, and DUDE's ``n_clamped`` as it is, are compared with
``tests/data/denoise_digests.json``. The k = 11 and 12 tables are past
``COUNT_TABLE_MAX``, so the sort path of the counts is pinned as well.

These outputs are counts, quotients and products of counts, and the
elementwise channel inversion of BFP; numpy's ``exp`` and ``log`` do not
enter them. DUDE's ``xhat`` is its count threshold, exact on the binary eps
(``tests/test_denoise.py::TestDude::test_every_decision_is_exact`` holds
every decision on these words to exact arithmetic), so it moves only if the
rule does; ``n_clamped`` is its flag in counts, and ``q2`` the quotients.
A change that moves an output writes the file again, by running this module
as a script (``PYTHONPATH=src python tests/test_denoise_digests.py``), and
states the drift in its change notes.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from noisymarkov.denoise import bfp_denoise, dude_detail
from noisymarkov.model import validate_params
from noisymarkov.simulate import generate_dataset

DIGESTS = Path(__file__).resolve().parent / "data" / "denoise_digests.json"

CELL = validate_params(0.1, 0.2)

#: Length of each pinned word, and the seed it is simulated from.
WORDS = {30: 30, 5_000: 5, 200_000: 2}

DUDE_KS = range(1, 13)
DUDE_EPSILONS = (0.2, 0.7)
BFP_KS = (None, 1, 3, 10)


def _sha256(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    return hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()


def denoise_digests(n: int) -> dict[str, dict]:
    """Digests of every pinned denoiser call on the word of ``n`` symbols."""
    y = generate_dataset(CELL, n, WORDS[n]).y
    out = {}
    for eps in DUDE_EPSILONS:
        for k in DUDE_KS:
            result = dude_detail(y, eps, k)
            out[f"dude eps={eps} k={k}"] = {
                "xhat": _sha256(result.xhat.symbols),
                "n_clamped": result.n_clamped,
                "q2": _sha256(result.q2),
            }
    for k in BFP_KS:
        xhat, marg = bfp_denoise(y, CELL, mode="empirical", k=k)
        out[f"bfp k={k}"] = {
            "xhat": _sha256(xhat.symbols),
            "q_minus": _sha256(marg.q_minus),
            "q_plus": _sha256(marg.q_plus),
        }
    return out


@pytest.mark.parametrize("n", sorted(WORDS))
def test_denoiser_outputs_are_pinned(n):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    want = pinned["words"][str(n)]
    got = denoise_digests(n)
    assert got.keys() == want.keys()
    moved = sorted(f"{call}: {key}" for call in want for key in want[call] if got[call][key] != want[call][key])
    assert not moved, f"outputs moved on the {n}-symbol word (digests written with numpy {pinned['numpy']}): {moved}"


def write_digests() -> None:
    """Write ``DIGESTS`` from the current code."""
    words = {str(n): denoise_digests(n) for n in sorted(WORDS)}
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps({"numpy": np.__version__, "words": words}, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_digests()
