import hashlib
import math
import os
import re
import stat
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisymarkov.errors import LengthMismatchError, MalformedDataError, NoisyMarkovError, OutOfRangeError
from noisymarkov.model import channel_model, validate_params
from noisymarkov.sequences import SpinSequence
from noisymarkov.simulate import (
    GENERATOR_NAME,
    SimulatedPath,
    _overwrite,
    generate_dataset,
    load_path_csv,
    load_spins,
    sample_markov,
    save_path_csv,
    save_spins,
    transmit,
)
from noisymarkov.transfer import cylinder_prob
from noisymarkov.oracle import code_to_spins

from conftest import reference_path_csv

P_REF = validate_params(0.2, 0.1)

# regression digests of the packed symbols at (p=0.2, eps=0.1, n=100, seed=7)
DATASET_DIGEST_X = "948b32461519bcda8c1bcdb1c574a32e961f4bb864016bce8f92c7c67ac551f6"
DATASET_DIGEST_Y = "34f2564d3f7f7e41e5a689c96409135fde3dbb3edad6a7da80eb6a9e9aa43427"
# the same digests of x, z and y at (p=0.2, eps=0.1, n=10^6, seed=19)
LONG_DATASET_DIGESTS = {
    "x": "c5dd73946caa616b435b52aa54ab49e05380bdcc4a3dda03af8f4f90ef24ee98",
    "z": "2e5f7e583758eedb956a7d955104ffb23e2b1f49226cd7349f9a2acfd24326e1",
    "y": "710a15f041f975adf4cee958a3b06173c86d63597a2d74677b574cd94f683994",
}
# SHA-256 of save_path_csv's file for (p=0.2, eps=0.1, n=10^6, seed=8), equal to reference_path_csv's bytes
LONG_CSV_DIGEST = "44d64a53ef1a9df6e327e9d5b60a9ad5911b065a68f1fe119dab842a6444dd5e"


def packed_digest(seq) -> str:
    bits = np.packbits((seq.symbols == -1).astype(np.uint8)).tobytes()
    return hashlib.sha256(bits).hexdigest()


class TestSampleMarkov:
    def test_deterministic(self):
        a = sample_markov(0.2, 500, seed=11)
        b = sample_markov(0.2, 500, seed=11)
        assert np.array_equal(a.symbols, b.symbols)
        assert not np.array_equal(a.symbols, sample_markov(0.2, 500, seed=12).symbols)

    def test_flip_rate(self):
        n = 1_000_000
        x = sample_markov(0.2, n, seed=3).symbols
        flips = np.mean(x[:-1] != x[1:])
        sigma = math.sqrt(0.2 * 0.8 / (n - 1))
        assert abs(flips - 0.2) < 3 * sigma

    def test_initial_symbol_uniform(self):
        # chi-square style check over many independent seeds
        n_seeds = 100_000
        plus = sum(1 for s in range(n_seeds) if sample_markov(0.2, 1, seed=s).symbols[0] == 1)
        sigma = math.sqrt(n_seeds * 0.25)
        assert abs(plus - n_seeds / 2) < 4 * sigma

    def test_validation(self):
        with pytest.raises(OutOfRangeError):
            sample_markov(0.2, 0, seed=1)
        with pytest.raises(OutOfRangeError):
            sample_markov(0.0, 10, seed=1)


class TestTransmit:
    def test_noise_rate(self):
        n = 1_000_000
        x = sample_markov(0.2, n, seed=5)
        path = transmit(x, 0.001, seed=6)
        mismatch = np.mean(path.y.symbols != x.symbols)
        assert abs(mismatch - 0.001) < 1e-4

    def test_neighbor_product_moment(self):
        # E[Y_i Y_{i+1}] = (1-2p)(1-2eps)^2
        n = 1_000_000
        p, eps = 0.2, 0.1
        path = transmit(sample_markov(p, n, seed=8), eps, seed=9)
        y = path.y.symbols.astype(np.float64)
        m_hat = float(np.mean(y[:-1] * y[1:]))
        m_true = (1 - 2 * p) * (1 - 2 * eps) ** 2
        sigma = math.sqrt((1 - m_true**2) / (n - 1))
        assert abs(m_hat - m_true) < 3 * sigma

    def test_noise_is_spin_valued(self):
        path = transmit(sample_markov(0.2, 100, seed=1), 0.3, seed=2)
        assert set(np.unique(path.y.symbols // path.x.symbols)) <= {-1, 1}
        assert np.array_equal(path.y.symbols, path.x.symbols * path.z.symbols)

    def test_validation(self):
        with pytest.raises(OutOfRangeError):
            transmit(sample_markov(0.2, 10, seed=1), 0.0, seed=2)


class TestGenerateDataset:
    def test_regression_digest(self):
        sim = generate_dataset(P_REF, 100, seed=7)
        assert packed_digest(sim.x) == DATASET_DIGEST_X
        assert packed_digest(sim.y) == DATASET_DIGEST_Y
        assert sim.generator == GENERATOR_NAME
        assert sim.seed == 7

    def test_long_regression_digest(self):
        sim = generate_dataset(P_REF, 1_000_000, seed=19)
        assert {name: packed_digest(getattr(sim, name)) for name in "xzy"} == LONG_DATASET_DIGESTS

    def test_substreams_differ(self):
        # source and noise must come from distinct spawned streams
        sim = generate_dataset(P_REF, 2000, seed=0)
        assert not np.array_equal(sim.x.symbols, sim.z.symbols)
        # a fresh run reproduces both streams exactly
        again = generate_dataset(P_REF, 2000, seed=0)
        assert np.array_equal(sim.x.symbols, again.x.symbols)
        assert np.array_equal(sim.z.symbols, again.z.symbols)

    def test_symbol_frequency(self):
        n = 1_000_000
        sim = generate_dataset(P_REF, n, seed=14)
        plus = np.mean(sim.y.symbols == 1)
        assert abs(plus - 0.5) < 3 * math.sqrt(0.25 / n)

    def test_word_frequencies_match_cylinder_probabilities(self):
        n = 1_000_000
        model = channel_model(0.2, 0.1)
        sim = generate_dataset(P_REF, n, seed=21)
        y = sim.y.symbols
        # encode each length-3 window as an integer 0..7 (bit i set iff symbol -1)
        b = (y == -1).astype(np.int64)
        codes = b[:-2] + 2 * b[1:-1] + 4 * b[2:]
        counts = np.bincount(codes, minlength=8)
        total = len(codes)
        for code in range(8):
            q = cylinder_prob(code_to_spins(code, 3), model)
            sigma = math.sqrt(q * (1 - q) * total)
            assert abs(counts[code] - q * total) < 4 * sigma

    def test_path_invariant_enforced(self):
        sim = generate_dataset(P_REF, 50, seed=2)
        with pytest.raises(MalformedDataError):
            SimulatedPath(x=sim.x, z=sim.z, y=sim.x, seed=2)
        with pytest.raises(LengthMismatchError):
            SimulatedPath(x=sim.x, z=sim.z, y=SpinSequence(sim.y.symbols[:-1]), seed=2)


class TestPathFiles:
    @pytest.mark.parametrize("n", [1, 7, 8, 100, 1001])
    def test_packed_roundtrip(self, tmp_path, n):
        sim = generate_dataset(P_REF, n, seed=n)
        target = tmp_path / "y.bin"
        save_spins(target, sim.y)
        assert target.stat().st_size == 8 + (n + 7) // 8
        loaded = load_spins(target)
        assert np.array_equal(loaded.symbols, sim.y.symbols)

    def test_packed_header(self, tmp_path):
        target = tmp_path / "y.bin"
        save_spins(target, [1, -1, 1])
        raw = target.read_bytes()
        assert raw[:3] == b"SPN"
        assert raw[3] == 1
        assert int.from_bytes(raw[4:8], "little") == 3
        # first symbol +1 -> bit 0 in the MSB of the first payload byte
        assert raw[8] == 0b01000000

    def test_packed_rejects_garbage(self, tmp_path):
        target = tmp_path / "bad.bin"
        target.write_bytes(b"XXX" + bytes(5))
        with pytest.raises(ValueError):
            load_spins(target)
        target.write_bytes(b"SPN\x01" + (100).to_bytes(4, "little") + bytes(2))
        with pytest.raises(ValueError):
            load_spins(target)

    @pytest.mark.parametrize(
        "raw",
        [
            b"SPN\x01",
            b"XXX" + bytes(5),
            b"SPN\x02" + bytes(4),
            b"SPN\x01" + (100).to_bytes(4, "little") + bytes(2),
            b"SPN\x01" + bytes(4),
            b"SPN\x01" + (8).to_bytes(4, "little") + bytes(2),
        ],
        ids=["truncated-header", "bad-magic", "bad-version", "truncated-payload", "empty", "overlong-payload"],
    )
    def test_malformed_packed_file_is_package_error(self, tmp_path, raw):
        target = tmp_path / "bad.bin"
        target.write_bytes(raw)
        with pytest.raises(MalformedDataError):
            load_spins(target)

    @pytest.mark.parametrize(
        "edit, line",
        [
            (lambda ls: [*ls[:6], b"1,+1,oops", *ls[7:]], 7),
            (lambda ls: [*ls[:6], b"1,+1,x,+1", *ls[7:]], 7),
            (lambda ls: [ls[0], b"# seed=abc", *ls[2:]], 2),
            (lambda ls: [*ls[:6], b"1,+1,\xff1,+1", *ls[7:]], 7),
            (lambda ls: [*ls[:6], b"1,255,+1,+1", *ls[7:]], 7),
            (lambda ls: [*ls[:3], b"# n=7", *ls[4:]], 4),
            (lambda ls: [*ls[:4], *ls[5:]], 5),
            (lambda ls: [*ls[:5], *(i + row[1:] for i, row in zip([b"0", b"x", b"9", b"3"], ls[5:]))], 7),
            (lambda ls: [*ls[:6], b"01" + ls[6][1:], *ls[7:]], 7),
            (lambda ls: [*ls[:6], b"", *ls[6:]], 7),
            (lambda ls: [*ls[:6], ls[6] + b"\r", *ls[7:]], 7),
            (lambda ls: [*ls[:6], ls[6].replace(b"+", b""), *ls[7:]], 7),
            (lambda ls: [*ls[:6], ls[6][:-2] + (b"+1" if ls[6].endswith(b"-1") else b"-1"), *ls[7:]], 7),
            (lambda ls: [*ls[:9], b"4" + ls[8][1:]], 4),
            (lambda ls: [*ls[:3], b"# n=0", ls[4]], 4),
            (lambda ls: [*ls[:3], b"# n=-1", ls[4]], 4),
        ],
        ids=[
            "three-fields", "non-integer", "seed-not-integer", "non-ascii-byte", "x-out-of-int8",
            "n-above-row-count", "no-header-row", "index-not-counting", "index-leading-zero",
            "blank-line", "crlf", "unsigned", "y-not-x-times-z", "row-past-n", "empty", "n-negative",
        ],
    )
    def test_malformed_csv_row_is_package_error(self, tmp_path, edit, line):
        target = tmp_path / "path.csv"
        save_path_csv(target, generate_dataset(P_REF, 4, seed=1))
        lines = target.read_bytes().splitlines()
        assert lines[6].startswith(b"1,")  # the second data row, line 7 of the file
        target.write_bytes(b"\n".join(edit(lines)) + b"\n")
        with pytest.raises(MalformedDataError, match=re.escape(f"{target}, line {line}:")):
            load_path_csv(target)

    @pytest.mark.parametrize("n", [3, 5, 10**12])
    def test_lying_n_on_a_short_file_names_its_line(self, tmp_path, n):
        target = tmp_path / "path.csv"
        save_path_csv(target, generate_dataset(P_REF, 4, seed=1))
        lines = target.read_bytes().splitlines()
        assert lines[3] == b"# n=4"
        lines[3] = b"# n=%d" % n
        target.write_bytes(b"\n".join(lines) + b"\n")
        tracemalloc.start()
        try:
            with pytest.raises(MalformedDataError, match=re.escape(f"{target}, line 4: n={n}, but the file holds 4 rows")):
                load_path_csv(target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16  # the rows the header claims are never allocated

    def test_body_of_n_rows_length_in_other_rows_names_its_line(self, tmp_path):
        # 22 bytes, the length of two rows, in three lines: read as two rows, refused at the line a newline count names
        target = tmp_path / "path.csv"
        save_path_csv(target, generate_dataset(P_REF, 2, seed=1))
        head = target.read_bytes().splitlines()[:5]
        target.write_bytes(b"\n".join([*head, b"0,+1,+1,+1", b"1,+1", b"-1,+1"]) + b"\n")
        with pytest.raises(MalformedDataError, match=re.escape(f"{target}, line 7: expected the row '1,x,z,y'")):
            load_path_csv(target)

    def test_truncated_csv_names_its_last_line(self, tmp_path):
        target = tmp_path / "path.csv"
        save_path_csv(target, generate_dataset(P_REF, 4, seed=1))
        target.write_bytes(target.read_bytes()[:-1])
        with pytest.raises(MalformedDataError, match=re.escape(f"{target}, line 9:")):
            load_path_csv(target)

    @pytest.mark.parametrize(
        "row, edit",
        [
            (999, lambda row: row.replace(b"+1", b"1", 1)),
            (1000, lambda row: b"1001" + row[4:]),
            (1234, lambda row: row[:-2] + (b"+1" if row.endswith(b"-1") else b"-1")),
        ],
        ids=["unsigned", "index-not-counting", "y-not-x-times-z"],
    )
    def test_malformed_row_deep_in_the_file_names_its_line(self, tmp_path, row, edit):
        target = tmp_path / "path.csv"
        save_path_csv(target, generate_dataset(P_REF, 1500, seed=3))
        lines = target.read_bytes().splitlines()
        line = row + 6  # four '# key=value' lines and the header row come first
        assert lines[line - 1].startswith(b"%d," % row)
        lines[line - 1] = edit(lines[line - 1])
        target.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(MalformedDataError, match=re.escape(f"{target}, line {line}:")):
            load_path_csv(target)

    def test_long_csv_digest(self, tmp_path):
        target = tmp_path / "path.csv"
        save_path_csv(target, generate_dataset(P_REF, 1_000_000, seed=8))
        assert hashlib.sha256(target.read_bytes()).hexdigest() == LONG_CSV_DIGEST

    @pytest.mark.parametrize("seed", [5, 2024])
    @pytest.mark.parametrize(
        "n", [1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 1999, 10_000, 10_001, 12_345, 100_003]
    )
    def test_csv_writer_matches_reference_and_reads_back(self, tmp_path, n, seed):
        sim = generate_dataset(P_REF, n, seed=seed)
        target = tmp_path / "path.csv"
        save_path_csv(target, sim)
        assert target.read_bytes() == reference_path_csv(sim)
        loaded = load_path_csv(target)
        for name in "xzy":
            assert np.array_equal(getattr(loaded, name).symbols, getattr(sim, name).symbols)
        assert (loaded.seed, loaded.generator) == (seed, GENERATOR_NAME)

    def test_csv_roundtrip(self, tmp_path):
        sim = generate_dataset(P_REF, 64, seed=33)
        target = tmp_path / "path.csv"
        save_path_csv(target, sim)
        loaded = load_path_csv(target)
        assert np.array_equal(loaded.x.symbols, sim.x.symbols)
        assert np.array_equal(loaded.z.symbols, sim.z.symbols)
        assert np.array_equal(loaded.y.symbols, sim.y.symbols)
        assert loaded.seed == 33
        assert loaded.generator == GENERATOR_NAME
        header = target.read_text().splitlines()[0]
        assert header.startswith("# schema=")


#: The module's two file writers, each with what it writes of a path.
WRITERS = {"packed": (save_spins, lambda sim: sim.y), "csv": (save_path_csv, lambda sim: sim)}


class TestRewrite:
    """A writer leaves exactly its new bytes in the file it writes, whatever the file held before."""

    SIM = generate_dataset(P_REF, 300, seed=7)

    def fresh_bytes(self, tmp_path, kind) -> tuple[bytes, int]:
        """The bytes ``kind`` writes to a new file, and that file's mode."""
        save, arg = WRITERS[kind]
        fresh = tmp_path / f"fresh-{kind}"
        save(fresh, arg(self.SIM))
        return fresh.read_bytes(), stat.S_IMODE(fresh.stat().st_mode)

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_a_longer_file_keeps_no_tail_and_its_mode(self, tmp_path, kind):
        want, mode = self.fresh_bytes(tmp_path, kind)
        made = tmp_path / "made"
        made.write_bytes(b"")
        assert mode == stat.S_IMODE(made.stat().st_mode)  # a new file gets the mode open() gives it
        save, arg = WRITERS[kind]
        target = tmp_path / "target"
        target.write_bytes(b"\xff" * (len(want) + 5000))
        target.chmod(0o666)  # wider than the usual umask lets a new file be
        save(target, arg(self.SIM))
        assert target.read_bytes() == want
        assert stat.S_IMODE(target.stat().st_mode) == 0o666

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_a_symlink_is_written_through_and_a_hard_link_kept(self, tmp_path, kind):
        want, _ = self.fresh_bytes(tmp_path, kind)
        old = b"\xff" * (len(want) + 5000)
        target, link, hard = tmp_path / "target", tmp_path / "link", tmp_path / "hard"
        target.write_bytes(old)
        link.symlink_to(target)
        os.link(target, hard)
        save, arg = WRITERS[kind]
        save(link, arg(self.SIM))
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == want
        assert hard.read_bytes() == old  # the new bytes went to a new inode

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_an_open_reader_keeps_the_old_bytes(self, tmp_path, kind):
        save, arg = WRITERS[kind]
        path = tmp_path / kind
        save(path, arg(generate_dataset(P_REF, 300, seed=8)))
        old = path.read_bytes()
        with open(path, "rb", buffering=0) as reader:
            head = reader.read(len(old) // 2)
            save(path, arg(self.SIM))  # the same length: rows that would still parse if mixed in
            assert head + reader.read() == old
        assert path.read_bytes() == self.fresh_bytes(tmp_path, kind)[0] != old

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_a_rewrite_cut_short_is_refused_by_the_loader(self, tmp_path, kind):
        want, _ = self.fresh_bytes(tmp_path, kind)
        save, arg = WRITERS[kind]
        path = tmp_path / kind
        save(path, arg(generate_dataset(P_REF, 300, seed=8)))

        def cut():
            yield want[: len(want) // 2]
            raise OSError("disk gone")

        with pytest.raises(OSError, match="disk gone"):
            _overwrite(path, cut())
        assert path.read_bytes() == want[: len(want) // 2]
        with pytest.raises(MalformedDataError):
            (load_spins if kind == "packed" else load_path_csv)(path)

    def test_writers_open_without_truncation(self, tmp_path, monkeypatch):
        opened, real_open = {}, os.open

        def recording_open(path, flags, *args, **kwargs):
            opened[os.fspath(path)] = flags
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording_open)
        for kind, (save, arg) in WRITERS.items():
            save(tmp_path / kind, arg(self.SIM))
        assert set(opened) == {str(tmp_path / kind) for kind in WRITERS}
        assert not [path for path, flags in opened.items() if flags & os.O_TRUNC]


#: Bytes that move a path file between valid and malformed forms, tried more often than the rest.
FORMAT_BYTES = st.sampled_from(b"+-0129,#=\n\r i")
byte_edit = st.tuples(
    st.sampled_from(["replace", "insert", "delete"]),
    st.floats(0.0, 1.0, exclude_max=True),
    st.one_of(FORMAT_BYTES, st.integers(0, 255)),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["csv", "bin"]),
    edits=st.lists(byte_edit, max_size=4),
    keep=st.none() | st.floats(0.0, 1.0),
    tail=st.binary(max_size=12) | st.lists(FORMAT_BYTES, max_size=12).map(bytes),
)
def test_edited_path_file_loads_or_raises_package_error(tmp_path_factory, kind, edits, keep, tail):
    """A path file after byte edits, truncation or appended bytes loads to a valid path or raises a package error."""
    sim = generate_dataset(P_REF, 23, seed=4)
    target = tmp_path_factory.mktemp("fuzz") / f"path.{kind}"
    if kind == "csv":
        save_path_csv(target, sim)
    else:
        save_spins(target, sim.y)
    raw = bytearray(target.read_bytes())
    for op, where, byte in edits:
        at = int(where * len(raw))
        if op == "insert":
            raw.insert(at, byte)
        elif raw:
            if op == "replace":
                raw[at] = byte
            else:
                del raw[at]
    if keep is not None:
        raw = raw[:int(keep * len(raw))]
    target.write_bytes(bytes(raw) + tail)
    load = load_path_csv if kind == "csv" else load_spins
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            loaded = load(target)
        except NoisyMarkovError:
            return
    # what loads is a checked word: read-only int8 spins of +-1, at least one, and y = x * z
    assert isinstance(loaded, SimulatedPath if kind == "csv" else SpinSequence)
    words = [loaded.x, loaded.z, loaded.y] if kind == "csv" else [loaded]
    for word in words:
        arr = word.symbols
        assert len(arr) >= 1 and arr.dtype == np.int8 and not arr.flags.writeable
        assert np.all((arr == 1) | (arr == -1))
    if kind == "csv":
        assert np.array_equal(loaded.y.symbols, loaded.x.symbols * loaded.z.symbols)
