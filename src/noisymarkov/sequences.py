"""Spin-valued sequences over {-1, +1} and auxiliary field trajectories."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MalformedDataError

SPIN_DTYPE = np.int8


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
    if not np.issubdtype(arr.dtype, np.number):
        raise MalformedDataError(f"spin symbols must be numeric, got dtype {arr.dtype}")
    # checked before the cast, which warns on values int8 cannot hold
    if not np.all((arr == 1) | (arr == -1)):
        raise MalformedDataError("spin symbols must all be -1 or +1")
    out = arr.astype(SPIN_DTYPE)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class SpinSequence:
    """A finite word over {-1, +1} occupying index window [start, start + len - 1]."""

    symbols: np.ndarray
    start: int = 0

    def __post_init__(self) -> None:
        arr = as_spin_array(np.asarray(self.symbols))
        object.__setattr__(self, "symbols", arr)
        object.__setattr__(self, "start", int(self.start))

    @property
    def end(self) -> int:
        """Index of the last symbol."""
        return self.start + len(self.symbols) - 1

    def __len__(self) -> int:
        return len(self.symbols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpinSequence):
            return NotImplemented
        return self.start == other.start and np.array_equal(self.symbols, other.symbols)


@dataclass(frozen=True, eq=False)
class FieldTrajectory:
    """Auxiliary fields w_i attached to positions start..start+len-1, horizon n.

    ``values[j]`` is the field at absolute position ``start + j``; fields beyond
    ``horizon`` are zero by convention.
    """

    values: np.ndarray
    start: int
    horizon: int

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)
