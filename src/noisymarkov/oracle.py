"""Brute-force enumeration oracles for the output law.

These sum the defining expression for a cylinder probability directly over all
hidden configurations,

    Q(y_m^n) = sum_x (1/2) prod_i p_{x_i, x_{i+1}} * eps^{#mismatch} (1-eps)^{#match},

and are kept independent of the transfer recursion so the two routes can be
checked against each other. Words and hidden configurations are encoded as
integers with bit i = 1 iff the symbol at offset i is -1 (offset 0 = lowest
bit), which turns mismatch counting into a popcount of an XOR. A weight
depends on a configuration only through such a count, of flips or of
mismatches, so its powers x^m (1-x)^(L-m) are taken once per count, m = 0..L,
and looked up by it (``_powers_by_count``).
"""

from __future__ import annotations

import numpy as np

from .errors import OutOfRangeError, TooLongError
from .model import ChannelParams, check_count
from .sequences import SpinSequence, as_spin_array

#: Hard budget on the hidden-configuration enumeration, 2^22 configurations.
MAX_BRUTE_FORCE_LENGTH = 22

#: Budget for the all-words table (memory bound: 4^L matrix entries).
MAX_TABLE_LENGTH = 12


def spin_word_code(y) -> int:
    """Integer code of a spin word: bit i set iff symbol i is -1."""
    return int.from_bytes(np.packbits(as_spin_array(y) == -1, bitorder="little"), "little")


def code_to_spins(code: int, length: int) -> np.ndarray:
    """Inverse of spin_word_code."""
    check_count("length", length)
    check_count("code", code)
    if code >= 1 << length:
        raise OutOfRangeError(f"code {code} out of range for length {length}")
    bits = (code >> np.arange(length, dtype=np.uint64)) & 1
    return np.where(bits == 1, -1, 1).astype(np.int8)


def _powers_by_count(x: float, length: int, scale: float = 1.0) -> np.ndarray:
    """``scale * x^m * (1-x)^(length-m)`` for m = 0..length, multiplied in that order, indexed by m."""
    counts = np.arange(length + 1, dtype=np.float64)
    return scale * np.power(x, counts) * np.power(1.0 - x, length - counts)


def _config_weights(configs: np.ndarray, length: int, p: float) -> np.ndarray:
    """(1/2) * prod of transition probabilities for each of the hidden configurations ``configs``, looked up by its flips."""
    mask = np.uint32((1 << (length - 1)) - 1)
    flips = np.bitwise_count((configs ^ (configs >> np.uint32(1))) & mask)
    return _powers_by_count(p, length - 1, 0.5).take(flips)


def brute_force_cylinder(y, params: ChannelParams) -> float:
    """Cylinder probability by direct enumeration of all hidden configurations."""
    word = SpinSequence(y)
    length = len(word)
    if length > MAX_BRUTE_FORCE_LENGTH:
        raise TooLongError(
            f"word of length {length} exceeds the enumeration budget of {MAX_BRUTE_FORCE_LENGTH}"
        )
    configs = np.arange(1 << length, dtype=np.uint32)
    mismatches = np.bitwise_count(configs ^ np.uint32(spin_word_code(word)))
    emission = _powers_by_count(params.epsilon, length).take(mismatches)
    return float(np.sum(_config_weights(configs, length, params.p) * emission))


def enumerate_cylinder_table(length: int, params: ChannelParams) -> np.ndarray:
    """Brute-force Q for every word of the given length, indexed by spin_word_code.

    Still pure enumeration: a (2^L, 2^L) mismatch-count matrix is contracted
    against the per-configuration transition weights.
    """
    check_count("length", length, 1)
    if length > MAX_TABLE_LENGTH:
        raise TooLongError(f"table length must be in 1..{MAX_TABLE_LENGTH}, got {length}")
    configs = np.arange(1 << length, dtype=np.uint32)
    mismatches = np.bitwise_count(configs[:, None] ^ configs[None, :])
    emission = _powers_by_count(params.epsilon, length).take(mismatches)
    return _config_weights(configs, length, params.p) @ emission
