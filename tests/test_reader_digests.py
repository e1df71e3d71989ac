"""Pinned outputs of the readers of the transfer scan's ratios.

``forward_backward`` (SHA-256 of q_minus and q_plus), exact ``bfp_denoise``
(SHA-256 of xhat, q_minus and q_plus), ``log_cylinder_prob`` (its float hex)
and ``backward_fields``, ``forward_fields`` and ``extended_fields`` (SHA-256
plus the float hex of a sparse sample, which shows where and by how much a
field moved) run at seven cells on two seeded words each: a walked word of
5 000 symbols and a lane word of 200 000 symbols. The one-shift readers
``conditional_prob``, ``two_sided_conditional``, ``two_sided_limit_conditional``
and ``thermo.limit_field`` are pinned by float hex at a few positions of each
word, a refusal by its exception class; so are the readers of the limit of a
tail, ``g_function``, ``gibbs_potential``, ``coboundary`` and
``g_continued_fraction_detail``, ``cylinder_prob`` on short words from those
positions, and ``bowen_gibbs_ratio`` on the short words and on the whole word.
The field maps ``field_shift``, ``field_shift_deriv``, ``log2cosh``,
``log_partition_term`` and ``log_partition_term_deriv`` are pinned at the
backward fields of those positions.
The readers that depend on the cell alone, ``fixed_point_field``,
``bowen_gibbs_certificate``, ``decay_rate_bound``, ``required_context`` and
``variation_estimate``, are pinned once per cell. The cells (1e-17, 0.2),
(1e-300, 0.2) and (1e-300, 1e-300) have no decay certificate; the last two
cells put the channel factor eps/(1-eps) at the edge of the double range. The
results are compared with ``tests/data/reader_digests.json``, and a failure
names each reader that moved with the largest distance, in units in the last
place, of its pinned floats.

numpy picks its ``exp`` and ``log`` kernels by CPU feature, so another host or
numpy version may round some float differently; the data file records the
numpy version the digests were written with. A change that moves an output
writes the file again, by running this module as a script
(``PYTHONPATH=src python tests/test_reader_digests.py``), and states the
drift in its change notes.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from noisymarkov.denoise import bfp_denoise, forward_backward
from noisymarkov.errors import NoisyMarkovError
from noisymarkov.model import validate_params
from noisymarkov.simulate import generate_dataset
from noisymarkov.thermo import (
    bowen_gibbs_certificate,
    bowen_gibbs_ratio,
    coboundary,
    g_continued_fraction_detail,
    g_function,
    gibbs_potential,
    limit_field,
    variation_estimate,
)
from noisymarkov.transfer import (
    backward_fields,
    conditional_prob,
    cylinder_prob,
    decay_rate_bound,
    extended_fields,
    field_shift,
    field_shift_deriv,
    fixed_point_field,
    forward_fields,
    log2cosh,
    log_cylinder_prob,
    log_partition_term,
    log_partition_term_deriv,
    required_context,
    two_sided_conditional,
    two_sided_limit_conditional,
)

DIGESTS = Path(__file__).resolve().parent / "data" / "reader_digests.json"

CELLS = ((0.1, 0.2), (0.02, 0.3), (0.1, 0.45), (1e-17, 0.2), (1e-300, 0.2), (1e-300, 1e-300), (0.45, 1e-300))

#: Name of each pinned word, and its length and seed.
WORDS = {"walked": (5_000, 3), "lanes": (200_000, 4)}

#: Tolerance given to the limit readers.
TOL = 1e-9

#: Lengths of the short words, from each pinned position on, read by ``cylinder_prob``.
SHORT = (1, 2, 7, 20)

#: Depth of the pinned continued fractions of g.
CF_DEPTH = 30

#: Prefix lengths, number of samples and seed of the pinned ``variation_estimate`` calls.
VARIATION = ((1, 4, 12), 6, 5)

#: Number of evenly spaced entries, first and last included, in a field's float-hex sample.
SAMPLE = 9


def _sha256(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    return hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()


def _ulps(a: float, b: float) -> int:
    """Distance between two doubles in units in the last place: the number of doubles between them, plus one."""
    def ordered(x: float) -> int:
        i = int(np.float64(x).view(np.int64))
        return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)

    return abs(ordered(a) - ordered(b))


def _flat(entry) -> list:
    return [x for item in entry for x in _flat(item)] if isinstance(entry, list) else [entry]


def _as_float(entry) -> float | None:
    """A float-hex entry's float; None for a SHA-256 digest, a name or a count.

    Only ``0x...``, ``inf`` and ``nan`` entries, signed or not, are floats:
    ``float.fromhex`` would also read the 64 hex digits of a SHA-256 digest.
    """
    if not isinstance(entry, str) or not entry.lstrip("-").startswith(("0x", "inf", "nan")):
        return None
    return float.fromhex(entry)


def _drift(got, want) -> str:
    """How far a moved entry moved: the largest ulp distance of its floats, unless something other than a float moved."""
    a, b = _flat(got), _flat(want)
    floats = [(_as_float(x), _as_float(y)) for x, y in zip(a, b)]
    if len(a) != len(b) or any(x != y and None in pair for x, y, pair in zip(a, b, floats)):
        return "moved"
    return f"{max(_ulps(*pair) for pair in floats if None not in pair)} ulp"


def _sample(a: np.ndarray) -> list[str]:
    return [float(v).hex() for v in a[np.linspace(0, len(a) - 1, SAMPLE).astype(np.intp)]]


def _positions(n: int) -> tuple[int, ...]:
    """Positions of a word of n symbols at which the one-shift readers are pinned."""
    return (0, 1, n // 2, n - 2)


def _plain(value):
    """A reader's value as JSON: a float by its hex, a dataclass or a sequence entry by entry."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.astuple(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return float(value).hex() if isinstance(value, float) else value


def _hex_or_refusal(query):
    """query()'s value by ``_plain``, or the class name of the package error it raised."""
    try:
        return _plain(query())
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
        "g_function": lambda i: g_function(s[i:], TOL, params),
        "gibbs_potential": lambda i: gibbs_potential(s[i:], TOL, params),
        "coboundary": lambda i: coboundary(s[i:], TOL, params),
        "g_continued_fraction_detail": lambda i: g_continued_fraction_detail(s[i:], CF_DEPTH, params),
        "cylinder_prob": lambda i: [cylinder_prob(s[i : i + n], params) for n in SHORT],
        "bowen_gibbs_ratio": lambda i: bowen_gibbs_ratio(s[i : i + SHORT[-1]], params),
    }
    for name, reader in one_shift.items():
        out[name] = [_hex_or_refusal(lambda: reader(i)) for i in _positions(len(s))]
    out["bowen_gibbs_ratio whole word"] = _hex_or_refusal(lambda: bowen_gibbs_ratio(y, params))
    w = fields["backward_fields"][list(_positions(len(s)))]
    field_maps = {
        "field_shift": lambda: field_shift(w, params),
        "field_shift_deriv": lambda: field_shift_deriv(w, params),
        "log2cosh": lambda: log2cosh(w),
        "log_partition_term": lambda: log_partition_term(w, params),
        "log_partition_term_deriv": lambda: log_partition_term_deriv(w, params),
    }
    for name, field_map in field_maps.items():
        out[name] = _hex_or_refusal(lambda: field_map().tolist())
    return out


def cell_digests(cell: tuple[float, float]) -> dict[str, str | list]:
    """Digests of the readers that depend on ``cell`` alone."""
    params = validate_params(*cell)
    lengths, samples, seed = VARIATION
    return {
        "fixed_point_field": [_hex_or_refusal(lambda: fixed_point_field(s, params)) for s in (1, -1)],
        "bowen_gibbs_certificate": _hex_or_refusal(lambda: bowen_gibbs_certificate(params)),
        "decay_rate_bound": _hex_or_refusal(lambda: decay_rate_bound(params)),
        "required_context": [_hex_or_refusal(lambda: required_context(tol, params)) for tol in (TOL, 1e-17)],
        "variation_estimate":
            [_hex_or_refusal(lambda: variation_estimate(n, samples, params, seed)) for n in lengths],
    }


def _key(cell: tuple[float, float]) -> str:
    return f"{cell[0]!r}:{cell[1]!r}"


def _assert_pinned(got: dict, want: dict, where: str, note: str = "") -> None:
    """Fail, naming each reader that moved with its drift, unless ``got`` equals ``want``."""
    assert got.keys() == want.keys()
    moved = {name: _drift(got[name], want[name]) for name in want if got[name] != want[name]}
    numpy = json.loads(DIGESTS.read_text(encoding="utf-8"))["numpy"]
    assert not moved, (
        f"outputs moved {where}{note} (digests written with numpy {numpy}, running numpy {np.__version__}): {moved}"
    )


@pytest.mark.parametrize("word", sorted(WORDS))
@pytest.mark.parametrize("cell", CELLS, ids=_key)
def test_reader_outputs_are_pinned(cell, word):
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))["cells"][_key(cell)][word]
    got = reader_digests(cell, word)
    log_q = "log_cylinder_prob"
    drift = _ulps(float.fromhex(got[log_q]), float.fromhex(want[log_q]))
    _assert_pinned(got, want, f"on the {word} word at {cell}", f" (log Q by {drift} ulp)")


@pytest.mark.parametrize("cell", CELLS, ids=_key)
def test_cell_readers_are_pinned(cell):
    _assert_pinned(cell_digests(cell), json.loads(DIGESTS.read_text(encoding="utf-8"))["cells"][_key(cell)]["cell"],
                   f"at {cell}")


def test_drift_names_a_moved_digest_moved_and_a_moved_float_by_its_ulps():
    a, b = (hashlib.sha256(word).hexdigest() for word in (b"one", b"two"))
    assert _drift(a, b) == "moved"
    assert _drift([a, "0x1.0000000000000p+0"], [a, "0x1.0000000000004p+0"]) == "4 ulp"
    assert _drift(["-inf", "nan", "-0x1.8p-3"], ["-inf", "nan", "-0x1.8000000000001p-3"]) == "1 ulp"


def write_digests() -> None:
    """Write ``DIGESTS`` from the current code."""
    cells = {
        _key(cell): {"cell": cell_digests(cell), **{word: reader_digests(cell, word) for word in sorted(WORDS)}}
        for cell in CELLS
    }
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps({"numpy": np.__version__, "cells": cells}, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_digests()
