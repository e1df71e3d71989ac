"""Seeded sampling of the source chain, the channel noise and the observed path.

Streams are derived with numpy's SeedSequence spawning and drawn from Philox,
a counter-based generator, so the source and noise substreams of a dataset are
independent and bit-reproducible across platforms. The generator name travels
with every path so runs are self-describing.

File formats
------------
Packed binary (``save_spins``/``load_spins``): an 8-byte header
``magic b"SPN" | version u8 | length u32 little-endian`` (N >= 1) followed by
``ceil(N/8)`` bytes from ``numpy.packbits`` with the mapping +1 -> 0,
-1 -> 1 and the first symbol in the most significant bit of the first byte.

CSV (``save_path_csv``/``load_path_csv``): ASCII with LF line endings.
``# key=value`` lines (schema, seed, generator, n) come first and only there,
then the header row ``i,x,z,y``, then one row ``{i},{x:+d},{z:+d},{y:+d}`` per
symbol: i runs 0..n-1 in decimal without leading zeros, x and z are written
``+1`` or ``-1``, y = x * z, and n >= 1 equals the ``# n=`` line. The loader refuses
any other form (a blank line, CRLF, an unsigned ``1``, a missing header row)
with ``MalformedDataError`` naming the file and the offending line.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import LengthMismatchError, MalformedDataError, OutOfRangeError
from .model import ChannelParams, check_count, check_probability
from .sequences import SPIN_DTYPE, SpinSequence, _made_word, as_spin_array

GENERATOR_NAME = "philox4x64"

_MAGIC = b"SPN"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<3sBI")


@dataclass(frozen=True)
class SimulatedPath:
    """Hidden chain x, channel noise z and observation y = x * z, plus provenance."""

    x: SpinSequence
    z: SpinSequence
    y: SpinSequence
    seed: int
    generator: str = GENERATOR_NAME

    def __post_init__(self) -> None:
        if not (len(self.x) == len(self.z) == len(self.y)):
            raise LengthMismatchError(
                f"x, z, y must have equal lengths, got {len(self.x)}, {len(self.z)}, {len(self.y)}"
            )
        if not np.array_equal(self.y.symbols, self.x.symbols * self.z.symbols):
            raise MalformedDataError("observation must satisfy y = x * z at every position")


def _philox(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed_seq))


def _sample_markov_with(rng: np.random.Generator, p: float, n: int) -> np.ndarray:
    # the words are allocated before the draws' temporaries, so they do not pin the heap above them
    out = np.empty(n, dtype=SPIN_DTYPE)
    out[0] = x0 = 1 if rng.random() < 0.5 else -1
    steps = np.where(rng.random(n - 1) < p, -1, 1).astype(SPIN_DTYPE)
    np.cumprod(steps, out=out[1:], dtype=SPIN_DTYPE)
    out[1:] *= x0
    return out


def sample_markov(p: float, n: int, seed: int) -> SpinSequence:
    """Stationary symmetric two-state chain: x_0 uniform, P(x_{i+1} != x_i) = p."""
    check_count("n", n, 1)
    check_count("seed", seed)
    p = check_probability("p", p)
    rng = _philox(np.random.SeedSequence(seed))
    return _made_word(_sample_markov_with(rng, p, n))


def _transmit_with(rng: np.random.Generator, x: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    z = np.empty(len(x), dtype=SPIN_DTYPE)
    y = np.empty(len(x), dtype=SPIN_DTYPE)
    z[:] = np.where(rng.random(len(x)) < epsilon, -1, 1)
    np.multiply(x, z, out=y)
    return z, y


def transmit(x, epsilon: float, seed: int) -> SimulatedPath:
    """Push a hidden sequence through the memoryless channel: P(z = -1) = epsilon."""
    epsilon = check_probability("epsilon", epsilon)
    check_count("seed", seed)
    word = SpinSequence(x)
    rng = _philox(np.random.SeedSequence(seed))
    z, y = _transmit_with(rng, word.symbols, epsilon)
    return SimulatedPath(x=word, z=_made_word(z), y=_made_word(y), seed=seed)


def generate_dataset(params: ChannelParams, n: int, seed: int) -> SimulatedPath:
    """Sample a full path with independent spawned substreams for source and noise."""
    check_count("n", n, 1)
    check_count("seed", seed)
    source_seq, noise_seq = np.random.SeedSequence(seed).spawn(2)
    x = _sample_markov_with(_philox(source_seq), params.p, n)
    z, y = _transmit_with(_philox(noise_seq), x, params.epsilon)
    return SimulatedPath(x=_made_word(x), z=_made_word(z), y=_made_word(y), seed=seed)


def save_spins(path: str | Path, y) -> None:
    """Write a spin sequence in the packed binary format described above."""
    arr = as_spin_array(y)
    if len(arr) > 0xFFFFFFFF:
        raise OutOfRangeError("packed format stores the length as u32")
    bits = (arr == -1).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _FORMAT_VERSION, len(arr)))
        fh.write(np.packbits(bits).tobytes())


def load_spins(path: str | Path) -> SpinSequence:
    """Read a spin sequence written by save_spins."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise MalformedDataError(f"truncated header in {path}")
        magic, version, n = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise MalformedDataError(f"bad magic {magic!r} in {path}")
        if version != _FORMAT_VERSION:
            raise MalformedDataError(f"unsupported format version {version} in {path}")
        payload = fh.read()
    if n == 0:
        raise MalformedDataError(f"empty spin sequence in {path}: the header gives n=0")
    expected = (n + 7) // 8
    if len(payload) < expected:
        raise MalformedDataError(f"truncated payload in {path}: {len(payload)} < {expected} bytes")
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=n)
    return _made_word(1 - 2 * bits.view(SPIN_DTYPE))


#: The four row tails ``,x,z,y\n`` with y = x * z, indexed by 2 * (x > 0) + (z > 0).
_ROW_TAILS = np.frombuffer(b",-1,-1,+1\n,-1,+1,-1\n,+1,-1,-1\n,+1,+1,+1\n", dtype=np.uint8).reshape(4, 10)

_CSV_HEADER_ROW = b"i,x,z,y"


def _encode_rows(x_plus: np.ndarray, z_plus: np.ndarray) -> np.ndarray:
    """The CSV rows ``{i},{x:+d},{z:+d},{y:+d}``, i = 0..n-1, each ending in LF, as one uint8 array.

    ``x_plus`` and ``z_plus`` are boolean arrays, true where the spin is +1.
    Rows whose index has d digits all have width d + 10, so each such group is
    filled as one (rows, d + 10) block: digit columns by division, the tail
    from ``_ROW_TAILS``.
    """
    codes = 2 * x_plus.view(np.uint8) + z_plus.view(np.uint8)
    n = len(codes)
    groups = []  # (first index, end index, digits)
    lo, d = 0, 1
    while lo < n:
        groups.append((lo, min(n, 10**d), d))
        lo, d = 10**d, d + 1
    out = np.empty(sum((hi - lo) * (d + 10) for lo, hi, d in groups), dtype=np.uint8)
    at = 0
    for lo, hi, d in groups:
        rows = out[at:at + (hi - lo) * (d + 10)].reshape(hi - lo, d + 10)
        at += rows.size
        q = np.arange(lo, hi)
        for j in range(d - 1, -1, -1):
            q, digit = np.divmod(q, 10)
            rows[:, j] = digit + 48
        rows[:, d:] = _ROW_TAILS[codes[lo:hi]]
    return out


def save_path_csv(path: str | Path, sim: SimulatedPath) -> None:
    """Write a simulated path as self-describing CSV, one line per symbol."""
    meta = f"# schema=noisymarkov-path-v1\n# seed={sim.seed}\n# generator={sim.generator}\n# n={len(sim.y)}\n"
    with open(path, "wb") as fh:
        fh.write(meta.encode() + _CSV_HEADER_ROW + b"\n")
        fh.write(_encode_rows(sim.x.symbols > 0, sim.z.symbols > 0))


def _meta_int(path: str | Path, meta: dict[str, tuple[str, int]], key: str) -> int:
    value, lineno = meta[key]
    try:
        return int(value)
    except ValueError:
        raise MalformedDataError(f"{path}, line {lineno}: {key} must be an integer; got {value!r}") from None


def load_path_csv(path: str | Path) -> SimulatedPath:
    """Read a path written by save_path_csv; any other form raises MalformedDataError naming its line.

    The rows are checked by encoding the signs read off them again: the file
    loads only if that reproduces its body byte for byte.
    """
    data = Path(path).read_bytes()
    meta: dict[str, tuple[str, int]] = {}  # key -> (value, line number)
    pos = lineno = 0
    while True:
        lineno += 1
        end = data.find(b"\n", pos)
        if end < 0:
            end = len(data)
        line, pos = data[pos:end], end + 1
        if line == _CSV_HEADER_ROW:
            break
        key, sep, value = line.decode("ascii", "replace").lstrip("# ").partition("=")
        if not (line.startswith(b"#") and line.isascii() and sep):
            raise MalformedDataError(
                f"{path}, line {lineno}: expected a '# key=value' line or the header row i,x,z,y; got {line[:80]!r}"
            )
        meta[key] = (value, lineno)
    if "n" not in meta:
        raise MalformedDataError(f"{path}: no '# n=' line before the header row")
    n = _meta_int(path, meta, "n")
    if n < 1:
        raise MalformedDataError(f"{path}, line {meta['n'][1]}: a path holds at least one row; got n={n}")
    seed = _meta_int(path, meta, "seed") if "seed" in meta else 0

    body = np.frombuffer(data, dtype=np.uint8)[pos:]
    ends = np.flatnonzero(body == ord("\n"))
    # A row's x and z signs sit 8 and 5 bytes before its newline. On a short
    # line this reads some other byte, and the comparison below refuses it.
    x_plus = body[np.maximum(ends - 8, 0)] == ord("+")
    z_plus = body[np.maximum(ends - 5, 0)] == ord("+")
    expected = _encode_rows(x_plus, z_plus)
    common = min(len(expected), len(body))
    differs = np.flatnonzero(expected[:common] != body[:common])
    if differs.size or len(expected) != len(body):
        first = int(differs[0]) if differs.size else common
        row = int(np.searchsorted(ends, first))
        start = int(ends[row - 1]) + 1 if row else 0
        got = bytes(body[start:start + 80]).partition(b"\n")[0]
        raise MalformedDataError(
            f"{path}, line {lineno + 1 + row}: expected the row '{row},x,z,y' with x, z, y = x * z "
            f"each written +1 or -1; got {got!r}"
        )
    if len(ends) != n:
        raise MalformedDataError(f"{path}, line {meta['n'][1]}: n={n}, but the file holds {len(ends)} rows")
    x, z = 2 * x_plus.view(SPIN_DTYPE) - 1, 2 * z_plus.view(SPIN_DTYPE) - 1
    generator = meta.get("generator", (GENERATOR_NAME, 0))[0]
    return SimulatedPath(x=_made_word(x), z=_made_word(z), y=_made_word(x * z), seed=seed, generator=generator)
