"""Spin-valued sequences over {-1, +1} and auxiliary field trajectories.

This module decides what a spin is, for the whole package: ``as_spin_array``
checks a word of symbols and ``check_spin`` a single symbol. A ``SpinSequence``
is a checked word, which it and ``as_spin_array`` take without a scan; words the
package makes itself are wrapped by ``_made_word``, also without one, and fields
it makes by ``_made_fields``, without the copy a FieldTrajectory otherwise takes.
``_by_spin`` reads a per-symbol quantity, such as the channel's c^y or its
emission column P(y | x), off a table of its two values.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import MalformedDataError, OutOfRangeError

SPIN_DTYPE = np.int8

#: dtype kinds of the numpy numbers: integers, floats, complex and timedelta (a signed integer).
NUMERIC_KINDS = frozenset("iufcm")

#: Symbols per block of the table lookup of ``_by_spin``.
FACTOR_BLOCK = 1 << 16


def as_spin_array(y, *, allow_empty: bool = False) -> np.ndarray:
    """Coerce ``y`` (SpinSequence, array or iterable) to a validated int8 array of +-1.

    The returned array is read-only so callers may hold onto it safely.
    """
    if isinstance(y, SpinSequence):
        return y.symbols
    arr = np.asarray(y)
    if arr.ndim != 1:
        raise MalformedDataError(f"spin sequence must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        if allow_empty:
            out = np.empty(0, dtype=SPIN_DTYPE)
            out.setflags(write=False)
            return out
        raise MalformedDataError("spin sequence must contain at least one symbol")
    if arr.dtype.kind not in NUMERIC_KINDS:
        raise MalformedDataError(f"spin symbols must be numeric, got dtype {arr.dtype}")
    # checked before the cast, which warns on values int8 cannot hold
    if not ((arr == 1) | (arr == -1)).all():
        raise MalformedDataError("spin symbols must all be -1 or +1")
    out = arr.astype(SPIN_DTYPE)
    out.setflags(write=False)
    return out


def check_spin(name: str, value) -> int:
    """Refuse a symbol ``value`` that is not a real scalar equal to -1 or +1; returns it as an int.

    Arrays, strings and booleans raise OutOfRangeError, as does any other value.
    """
    if not isinstance(value, numbers.Real) or isinstance(value, bool) or value not in (-1, 1):
        raise OutOfRangeError(f"{name} must be -1 or +1, got {value!r}")
    return int(value)


def _by_spin(symbols: np.ndarray, at_minus: float, at_plus: float) -> np.ndarray:
    """``at_minus`` at every -1 and ``at_plus`` at every +1 of ``symbols``, as a float array.

    Looked up by ``take`` in a table of the two values, FACTOR_BLOCK symbols
    at a time: faster than a where or a fancy index, and its index array
    stays small.
    """
    table = np.array([at_minus, at_plus])
    values = np.empty(len(symbols))
    for lo in range(0, len(symbols), FACTOR_BLOCK):
        block = slice(lo, lo + FACTOR_BLOCK)
        table.take((symbols[block] == 1).astype(np.intp), out=values[block], mode="clip")
    return values


@dataclass(frozen=True, eq=False)
class SpinSequence:
    """A finite word over {-1, +1}, checked once when it is built; a SpinSequence is taken as it is."""

    symbols: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", as_spin_array(self.symbols))

    def __len__(self) -> int:
        return len(self.symbols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpinSequence):
            return NotImplemented
        return np.array_equal(self.symbols, other.symbols)


def _made_word(symbols: np.ndarray) -> SpinSequence:
    """A SpinSequence of an int8 array of +-1 that the package built, frozen in place and not scanned."""
    symbols.setflags(write=False)
    word = object.__new__(SpinSequence)
    object.__setattr__(word, "symbols", symbols)
    return word


@dataclass(frozen=True, eq=False)
class FieldTrajectory:
    """Auxiliary fields w_i of a word, one per symbol: ``values[j]`` is the field at symbol j."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.float64)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)


def _made_fields(values: np.ndarray) -> FieldTrajectory:
    """A FieldTrajectory of a float64 array that the package built, frozen in place and not copied."""
    values.setflags(write=False)
    fields = object.__new__(FieldTrajectory)
    object.__setattr__(fields, "values", values)
    return fields
