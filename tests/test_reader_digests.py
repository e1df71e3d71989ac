"""Pinned outputs of the readers of the transfer scan's ratios.

``forward_backward`` (SHA-256 of q_minus and q_plus), exact ``bfp_denoise``
(SHA-256 of xhat, q_minus and q_plus), ``log_cylinder_prob`` (its float hex)
and ``backward_fields``, ``forward_fields`` and ``extended_fields`` (SHA-256
plus the float hex of a sparse sample, which shows where and by how much a
field moved) run at five cells on two seeded words each: a walked word of
5 000 symbols and a lane word of 200 000 symbols. The one-shift readers
``conditional_prob``, ``two_sided_conditional``, ``two_sided_limit_conditional``
and ``thermo.limit_field`` are pinned by float hex at a few positions of each
word, a refusal by its exception class. The cells (1e-17, 0.2) and
(1e-300, 0.2) have no decay certificate. The results are compared with
``tests/data/reader_digests.json``.

numpy picks its ``exp`` and ``log`` kernels by CPU feature, so another host or
numpy version may round some float differently; the data file records the
numpy version the digests were written with. A change that moves an output
writes the file again, by running this module as a script
(``PYTHONPATH=src python tests/test_reader_digests.py``), and states the
drift in its change notes.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from noisymarkov.denoise import bfp_denoise, forward_backward
from noisymarkov.errors import NoisyMarkovError
from noisymarkov.model import validate_params
from noisymarkov.simulate import generate_dataset
from noisymarkov.thermo import limit_field
from noisymarkov.transfer import (
    backward_fields,
    conditional_prob,
    extended_fields,
    forward_fields,
    log_cylinder_prob,
    two_sided_conditional,
    two_sided_limit_conditional,
)

DIGESTS = Path(__file__).resolve().parent / "data" / "reader_digests.json"

CELLS = ((0.1, 0.2), (0.02, 0.3), (0.1, 0.45), (1e-17, 0.2), (1e-300, 0.2))

#: Name of each pinned word, and its length and seed.
WORDS = {"walked": (5_000, 3), "lanes": (200_000, 4)}

#: Tolerance given to the limit readers.
TOL = 1e-9

#: Number of evenly spaced entries, first and last included, in a field's float-hex sample.
SAMPLE = 9


def _sha256(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    return hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()


def _ulps(a: float, b: float) -> int:
    """Distance between two doubles of one sign in units in the last place."""
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


def _sample(a: np.ndarray) -> list[str]:
    return [float(v).hex() for v in a[np.linspace(0, len(a) - 1, SAMPLE).astype(np.intp)]]


def _positions(n: int) -> tuple[int, ...]:
    """Positions of a word of n symbols at which the one-shift readers are pinned."""
    return (0, 1, n // 2, n - 2)


def _hex_or_refusal(query) -> str:
    """query()'s float hex, or the class name of the package error it raised."""
    try:
        return float(query()).hex()
    except NoisyMarkovError as exc:
        return type(exc).__name__


def reader_digests(cell: tuple[float, float], word: str) -> dict[str, str | list[str]]:
    """Digests of every pinned reader on the word named ``word`` at ``cell``."""
    params = validate_params(*cell)
    y = generate_dataset(params, *WORDS[word]).y
    post = forward_backward(y, params)
    xhat, marg = bfp_denoise(y, params, mode="exact")
    out = {
        "forward_backward q_minus": _sha256(post.q_minus),
        "forward_backward q_plus": _sha256(post.q_plus),
        "bfp xhat": _sha256(xhat.symbols),
        "bfp q_minus": _sha256(marg.q_minus),
        "bfp q_plus": _sha256(marg.q_plus),
        "log_cylinder_prob": float(log_cylinder_prob(y, params)).hex(),
    }
    fields = {
        "backward_fields": backward_fields(y, params).values,
        "forward_fields": forward_fields(y, params).values,
        "extended_fields": extended_fields(y, params),
    }
    for name, values in fields.items():
        out[name] = _sha256(values)
        out[f"{name} sample"] = _sample(values)
    s = y.symbols
    one_shift = {
        "conditional_prob": lambda i: conditional_prob(int(s[i]), s[i + 1 :], params),
        "two_sided_conditional": lambda i: two_sided_conditional(int(s[i]), s[:i], s[i + 1 :], params),
        "two_sided_limit_conditional":
            lambda i: two_sided_limit_conditional(int(s[i]), s[:i], s[i + 1 :], TOL, params),
        "limit_field": lambda i: limit_field(s[i:], TOL, params),
    }
    for name, reader in one_shift.items():
        out[name] = [_hex_or_refusal(lambda: reader(i)) for i in _positions(len(s))]
    return out


def _key(cell: tuple[float, float]) -> str:
    return f"{cell[0]!r}:{cell[1]!r}"


@pytest.mark.parametrize("word", sorted(WORDS))
@pytest.mark.parametrize("cell", CELLS, ids=_key)
def test_reader_outputs_are_pinned(cell, word):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    want = pinned["cells"][_key(cell)][word]
    got = reader_digests(cell, word)
    assert got.keys() == want.keys()
    moved = sorted(name for name in want if got[name] != want[name])
    log_q = "log_cylinder_prob"
    drift = _ulps(float.fromhex(got[log_q]), float.fromhex(want[log_q]))
    assert not moved, (
        f"outputs moved on the {word} word at {cell} (log Q by {drift} ulp; "
        f"digests written with numpy {pinned['numpy']}, running numpy {np.__version__}): {moved}"
    )


def write_digests() -> None:
    """Write ``DIGESTS`` from the current code."""
    cells = {_key(cell): {word: reader_digests(cell, word) for word in sorted(WORDS)} for cell in CELLS}
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps({"numpy": np.__version__, "cells": cells}, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_digests()
