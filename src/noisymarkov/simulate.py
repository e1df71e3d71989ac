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
The loader refuses a payload of any other length.

CSV (``save_path_csv``/``load_path_csv``): ASCII with LF line endings.
``# key=value`` lines (schema, seed, generator, n) come first and only there,
then the header row ``i,x,z,y``, then one row ``{i},{x:+d},{z:+d},{y:+d}`` per
symbol: i runs 0..n-1 in decimal without leading zeros, x and z are written
``+1`` or ``-1``, y = x * z, and n >= 1 equals the ``# n=`` line. The loader refuses
any other form (a blank line, CRLF, an unsigned ``1``, a missing header row)
with ``MalformedDataError`` naming the file and the offending line.

Rows whose index has d digits are all d + 10 bytes wide, so ``_encode_rows``
fills each run of them by broadcasting, and ``load_path_csv`` reads the signs
off the same layout and loads the file only if encoding them again gives its
rows byte for byte.

Every file the package writes, these two and the command line's outputs, goes
through ``_overwrite``, which says how and why.
"""

from __future__ import annotations

import os
import stat
import struct
from collections.abc import Iterable
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
    steps = 1 - 2 * (rng.random(n - 1) < p).view(SPIN_DTYPE)
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
    np.subtract(1, 2 * (rng.random(len(x)) < epsilon).view(SPIN_DTYPE), out=z)
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


#: ``O_BINARY`` keeps Windows from translating newlines; elsewhere it is 0.
_BINARY = getattr(os, "O_BINARY", 0)
#: How ``_overwrite`` creates a file: a new inode, never an existing one.
_NEW = os.O_WRONLY | os.O_CREAT | os.O_EXCL | _BINARY


def _overwrite(path: str | Path, chunks: Iterable) -> None:
    """Write the bytes-like ``chunks`` to ``path`` as a new file, each taken from the iterable as it is written.

    A symlink is resolved and its target written. An existing regular file is
    opened for writing first, so a file the caller may not write is refused as
    ``open(path, "wb")`` would refuse it; it is then unlinked, and the new file
    is created with ``O_EXCL`` and given the old file's permission bits (a new
    path gets 0o666 less the umask). A device such as ``/dev/null`` or a FIFO
    is written as it is. Nothing is fsynced.

    Why not truncate on open: on ext4 (``auto_da_alloc``, on by default),
    closing a file that was truncated to zero starts the writeback of its new
    contents, and the next truncation of that file waits for the writeback,
    0.1-0.5 s for a 16 MB path CSV on a virtio disk; ``os.replace`` of a
    temporary file waits as long. Writing over the old bytes in place does not
    wait, but a reader, or the disk after a crash, could then see new rows
    mixed with old ones that still parse. With a new inode, a reader that has
    the old file open keeps the old bytes, and one that opens the path while it
    is written sees a short file, which the loaders refuse. What is lost: a
    hard link to the old file keeps the old bytes, and the new file belongs to
    the writer.
    """
    target = os.path.realpath(path)
    keep = None
    try:
        fd = os.open(target, os.O_WRONLY | _BINARY)
    except FileNotFoundError:
        fd = os.open(target, _NEW, 0o666)
    else:
        mode = os.fstat(fd).st_mode
        if stat.S_ISREG(mode):
            keep = stat.S_IMODE(mode) & 0o777
            os.close(fd)
            os.unlink(target)
            fd = os.open(target, _NEW, keep)
    with open(fd, "wb") as fh:
        if keep is not None:
            os.chmod(target, keep)  # the umask cut the mode given at creation
        for chunk in chunks:
            fh.write(chunk)


def save_spins(path: str | Path, y) -> None:
    """Write a spin sequence in the packed binary format described above."""
    arr = as_spin_array(y)
    if len(arr) > 0xFFFFFFFF:
        raise OutOfRangeError("packed format stores the length as u32")
    _overwrite(path, (_HEADER.pack(_MAGIC, _FORMAT_VERSION, len(arr)), np.packbits(arr == -1)))


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
    if len(payload) != expected:
        kind = "truncated" if len(payload) < expected else "overlong"
        raise MalformedDataError(f"{kind} payload in {path}: {len(payload)} bytes where n={n} needs {expected}")
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=n)
    return _made_word(1 - 2 * bits.view(SPIN_DTYPE))


_CSV_HEADER_ROW = b"i,x,z,y"


def _row_views(buf: np.ndarray, n: int):
    """Yield (first row, d, rows) for each run of the rows i < n whose index has d digits:
    ``rows`` is the run's (count, d + 10) view on ``buf``, cut short where ``buf`` ends."""
    lo, d, at = 0, 1, 0
    while lo < n:
        hi, width = min(n, 10**d), d + 10
        rows = min(hi - lo, max(len(buf) - at, 0) // width)
        yield lo, d, buf[at : at + rows * width].reshape(rows, width)
        lo, d, at = hi, d + 1, at + (hi - lo) * width


def _digits(lo: int, hi: int, d: int) -> np.ndarray:
    """The ASCII decimal digits of lo..hi-1, zero-padded to d columns."""
    return ((np.arange(lo, hi)[:, None] // 10 ** np.arange(d - 1, -1, -1)) % 10 + 48).astype(np.uint8)


def _rows_length(n: int) -> int:
    """Bytes of the CSV rows i = 0..n-1: 11 a row, and one more for each digit of its index past the first."""
    return 11 * n + sum(n - 10**d for d in range(1, len(str(n))))


def _encode_rows(x_plus: np.ndarray, z_plus: np.ndarray) -> bytearray:
    """The CSV rows ``{i},{x:+d},{z:+d},{y:+d}``, i = 0..n-1, each ending in LF.

    ``x_plus`` and ``z_plus`` are boolean arrays, true where the spin is +1.
    A row whose index has d digits ends in its low s = min(3, d - 1) digits
    and the tail ``,+1,+1,+1``, which repeat every 10^s rows: one template of
    10^s rows is broadcast over each run of d-digit rows, seen as blocks of
    10^s rows, and the high d - s digits, one per block, over the blocks.
    Then the three sign columns are written: ``-`` (45) or ``+`` (43) as
    45 - 2 x_plus, 45 - 2 z_plus and 43 + 2 (x_plus ^ z_plus).
    """
    n = len(x_plus)
    x8, z8 = x_plus.view(np.uint8), z_plus.view(np.uint8)
    out = bytearray(_rows_length(n))
    for lo, d, rows in _row_views(np.frombuffer(out, dtype=np.uint8), n):
        s, hi = min(3, d - 1), lo + len(rows)
        template = np.empty((10**s, d + 10), dtype=np.uint8)
        template[:, d - s : d] = _digits(0, 10**s, s)
        template[:, d:] = np.frombuffer(b",+1,+1,+1\n", dtype=np.uint8)
        full = len(rows) // 10**s * 10**s
        blocks = rows[:full].reshape(-1, 10**s, d + 10)
        blocks[:] = template
        rows[full:] = template[: hi - lo - full]
        high = _digits(lo // 10**s, -(-hi // 10**s), d - s)  # one row per block, the partial one last
        for j in range(d - s):  # a column at a time, so that numpy's inner loop runs along a block
            blocks[:, :, j] = high[: len(blocks), j, None]
            rows[full:, j] = high[len(blocks) :, j]
        rows[:, d + 1] = 45 - 2 * x8[lo:hi]
        rows[:, d + 4] = 45 - 2 * z8[lo:hi]
        rows[:, d + 7] = 43 + 2 * (x8[lo:hi] ^ z8[lo:hi])
    return out


def save_path_csv(path: str | Path, sim: SimulatedPath) -> None:
    """Write a simulated path as self-describing CSV, one line per symbol."""
    meta = f"# schema=noisymarkov-path-v1\n# seed={sim.seed}\n# generator={sim.generator}\n# n={len(sim.y)}\n"
    head = meta.encode() + _CSV_HEADER_ROW + b"\n"
    # the 16 MB body of 10^6 rows is its own chunk, not joined to the header in a new buffer
    _overwrite(path, (head, _encode_rows(sim.x.symbols > 0, sim.z.symbols > 0)))


def _meta_int(path: str | Path, meta: dict[str, tuple[str, int]], key: str) -> int:
    value, lineno = meta[key]
    try:
        return int(value)
    except ValueError:
        raise MalformedDataError(f"{path}, line {lineno}: {key} must be an integer; got {value!r}") from None


def load_path_csv(path: str | Path) -> SimulatedPath:
    """Read a path written by save_path_csv; any other form raises MalformedDataError naming its line.

    The rows are checked by encoding the signs read off them again: the file
    loads only if that reproduces its body byte for byte. A body of the
    length of the header's n rows is read as n rows; any other body has its
    rows counted by its newlines.
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
    # a body of the length of n rows is read as n rows, uncounted; if it holds some other number, its
    # re-encoding differs first at the byte where that of its counted rows would, so the message is the same
    m = n if len(body) == _rows_length(n) else data.count(b"\n", pos)
    # read the signs where m well-formed rows hold them; on a malformed row the comparison below refuses what it reads
    x_plus, z_plus = np.zeros(m, dtype=bool), np.zeros(m, dtype=bool)
    for lo, d, rows in _row_views(body, m):
        np.equal(rows[:, d + 1], 43, out=x_plus[lo : lo + len(rows)])
        np.equal(rows[:, d + 4], 43, out=z_plus[lo : lo + len(rows)])
    expected = _encode_rows(x_plus, z_plus)
    if expected != memoryview(data)[pos:]:
        # the rows before the first differing byte are well formed, so counting them gives its row
        common = min(len(expected), len(body))
        differs = np.frombuffer(expected, dtype=np.uint8)[:common] != body[:common]
        first = pos + (int(differs.argmax()) if differs.any() else common)
        row = data.count(b"\n", pos, first)
        start = data.rfind(b"\n", pos - 1, first) + 1
        got = data[start : start + 80].partition(b"\n")[0]
        raise MalformedDataError(
            f"{path}, line {lineno + 1 + row}: expected the row '{row},x,z,y' with x, z, y = x * z "
            f"each written +1 or -1; got {got!r}"
        )
    if m != n:
        raise MalformedDataError(f"{path}, line {meta['n'][1]}: n={n}, but the file holds {m} rows")
    x, z = 2 * x_plus.view(SPIN_DTYPE) - 1, 2 * z_plus.view(SPIN_DTYPE) - 1
    generator = meta.get("generator", (GENERATOR_NAME, 0))[0]
    return SimulatedPath(x=_made_word(x), z=_made_word(z), y=_made_word(x * z), seed=seed, generator=generator)
