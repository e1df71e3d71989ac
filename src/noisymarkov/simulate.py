"""Seeded sampling of the source chain, the channel noise and the observed path.

Streams are derived with numpy's SeedSequence spawning and drawn from Philox,
a counter-based generator, so the source and noise substreams of a dataset are
independent and bit-reproducible across platforms. The generator name travels
with every path so runs are self-describing.

File formats
------------
Packed binary (``save_spins``/``load_spins``): an 8-byte header
``magic b"SPN" | version u8 | length u32 little-endian`` followed by
``ceil(N/8)`` bytes from ``numpy.packbits`` with the mapping +1 -> 0,
-1 -> 1 and the first symbol in the most significant bit of the first byte.

CSV (``save_path_csv``/``load_path_csv``): ``# key=value`` comment lines
(seed, generator, N), a header row ``i,x,z,y`` and one line per symbol.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import LengthMismatchError, MalformedDataError, OutOfRangeError
from .model import ChannelParams
from .sequences import SPIN_DTYPE, SpinSequence, as_spin_array

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
    x0 = 1 if rng.random() < 0.5 else -1
    if n == 1:
        return np.array([x0], dtype=SPIN_DTYPE)
    steps = np.where(rng.random(n - 1) < p, -1, 1).astype(SPIN_DTYPE)
    out = np.empty(n, dtype=SPIN_DTYPE)
    out[0] = x0
    np.cumprod(steps, out=out[1:], dtype=SPIN_DTYPE)
    out[1:] *= x0
    return out


def sample_markov(p: float, n: int, seed: int) -> SpinSequence:
    """Stationary symmetric two-state chain: x_0 uniform, P(x_{i+1} != x_i) = p."""
    if n < 1:
        raise OutOfRangeError(f"n must be >= 1, got {n}")
    if not 0.0 < p < 1.0:
        raise OutOfRangeError(f"p must lie strictly inside (0, 1), got {p}")
    rng = _philox(np.random.SeedSequence(seed))
    return SpinSequence(_sample_markov_with(rng, p, n))


def _transmit_with(rng: np.random.Generator, x: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    z = np.where(rng.random(len(x)) < epsilon, -1, 1).astype(SPIN_DTYPE)
    return z, (x * z).astype(SPIN_DTYPE)


def transmit(x, epsilon: float, seed: int) -> SimulatedPath:
    """Push a hidden sequence through the memoryless channel: P(z = -1) = epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise OutOfRangeError(f"epsilon must lie strictly inside (0, 1), got {epsilon}")
    arr = as_spin_array(x)
    rng = _philox(np.random.SeedSequence(seed))
    z, y = _transmit_with(rng, arr, epsilon)
    return SimulatedPath(
        x=SpinSequence(arr), z=SpinSequence(z), y=SpinSequence(y), seed=seed
    )


def generate_dataset(params: ChannelParams, n: int, seed: int) -> SimulatedPath:
    """Sample a full path with independent spawned substreams for source and noise."""
    if n < 1:
        raise OutOfRangeError(f"n must be >= 1, got {n}")
    source_seq, noise_seq = np.random.SeedSequence(seed).spawn(2)
    x = _sample_markov_with(_philox(source_seq), params.p, n)
    z, y = _transmit_with(_philox(noise_seq), x, params.epsilon)
    return SimulatedPath(
        x=SpinSequence(x), z=SpinSequence(z), y=SpinSequence(y), seed=seed
    )


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
    expected = (n + 7) // 8
    if len(payload) < expected:
        raise MalformedDataError(f"truncated payload in {path}: {len(payload)} < {expected} bytes")
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=n)
    return SpinSequence(np.where(bits == 1, -1, 1).astype(SPIN_DTYPE))


def save_path_csv(path: str | Path, sim: SimulatedPath) -> None:
    """Write a simulated path as self-describing CSV, one line per symbol."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# schema=noisymarkov-path-v1\n")
        fh.write(f"# seed={sim.seed}\n")
        fh.write(f"# generator={sim.generator}\n")
        fh.write(f"# n={len(sim.y)}\n")
        fh.write("i,x,z,y\n")
        for i, (xv, zv, yv) in enumerate(zip(sim.x.symbols, sim.z.symbols, sim.y.symbols)):
            fh.write(f"{i},{xv:+d},{zv:+d},{yv:+d}\n")


def load_path_csv(path: str | Path) -> SimulatedPath:
    """Read a path written by save_path_csv."""
    meta: dict[str, str] = {}
    xs: list[int] = []
    zs: list[int] = []
    ys: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line.lstrip("# ").partition("=")
                meta[key] = value
                continue
            if line.startswith("i,"):
                continue
            try:
                _, xv, zv, yv = line.split(",")
                xs.append(int(xv))
                zs.append(int(zv))
                ys.append(int(yv))
            except ValueError:
                raise MalformedDataError(
                    f"{path}, line {lineno}: expected a row i,x,z,y with integer x, z, y; got {line!r}"
                ) from None
    return SimulatedPath(
        x=SpinSequence(np.array(xs, dtype=SPIN_DTYPE)),
        z=SpinSequence(np.array(zs, dtype=SPIN_DTYPE)),
        y=SpinSequence(np.array(ys, dtype=SPIN_DTYPE)),
        seed=int(meta.get("seed", "0")),
        generator=meta.get("generator", GENERATOR_NAME),
    )
