"""Brute-force enumeration oracles for the output law.

These sum the defining expression for a cylinder probability directly over all
hidden configurations,

    Q(y_m^n) = sum_x (1/2) prod_i p_{x_i, x_{i+1}} * eps^{#mismatch} (1-eps)^{#match},

and are kept independent of the transfer recursion so the two routes can be
checked against each other. Words and hidden configurations are encoded as
integers with bit i = 1 iff the symbol at offset i is -1 (offset 0 = lowest
bit), which turns mismatch counting into a popcount of an XOR.
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
    arr = as_spin_array(y)
    bits = (arr == -1).astype(np.uint64)
    return int(np.sum(bits << np.arange(len(arr), dtype=np.uint64)))


def code_to_spins(code: int, length: int) -> np.ndarray:
    """Inverse of spin_word_code."""
    check_count("length", length)
    check_count("code", code)
    if code >= 1 << length:
        raise OutOfRangeError(f"code {code} out of range for length {length}")
    bits = (code >> np.arange(length, dtype=np.uint64)) & 1
    return np.where(bits == 1, -1, 1).astype(np.int8)


def _config_weights(length: int, p: float) -> np.ndarray:
    """(1/2) * prod of transition probabilities for every hidden configuration."""
    configs = np.arange(1 << length, dtype=np.uint32)
    if length == 1:
        flips = np.zeros(1 << length, dtype=np.uint32)
    else:
        mask = np.uint32((1 << (length - 1)) - 1)
        flips = np.bitwise_count((configs ^ (configs >> np.uint32(1))) & mask)
    return 0.5 * np.power(p, flips, dtype=np.float64) * np.power(1.0 - p, length - 1 - flips)


def brute_force_cylinder(y, params: ChannelParams) -> float:
    """Cylinder probability by direct enumeration of all hidden configurations."""
    word = SpinSequence(y)
    length = len(word)
    if length > MAX_BRUTE_FORCE_LENGTH:
        raise TooLongError(
            f"word of length {length} exceeds the enumeration budget of {MAX_BRUTE_FORCE_LENGTH}"
        )
    p, eps = params.p, params.epsilon
    configs = np.arange(1 << length, dtype=np.uint32)
    mismatches = np.bitwise_count(configs ^ np.uint32(spin_word_code(word)))
    emission = np.power(eps, mismatches, dtype=np.float64) * np.power(1.0 - eps, length - mismatches)
    return float(np.sum(_config_weights(length, p) * emission))


def enumerate_cylinder_table(length: int, params: ChannelParams) -> np.ndarray:
    """Brute-force Q for every word of the given length, indexed by spin_word_code.

    Still pure enumeration: a (2^L, 2^L) mismatch-count matrix is contracted
    against the per-configuration transition weights.
    """
    check_count("length", length, 1)
    if length > MAX_TABLE_LENGTH:
        raise TooLongError(f"table length must be in 1..{MAX_TABLE_LENGTH}, got {length}")
    p, eps = params.p, params.epsilon
    configs = np.arange(1 << length, dtype=np.uint32)
    mismatches = np.bitwise_count(configs[:, None] ^ configs[None, :])
    # emission weight depends only on the mismatch count m: eps^m (1-eps)^(L-m)
    weight_by_count = np.power(eps, np.arange(length + 1), dtype=np.float64) * np.power(
        1.0 - eps, length - np.arange(length + 1)
    )
    emission = weight_by_count[mismatches]
    return _config_weights(length, p) @ emission
