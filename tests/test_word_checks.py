"""Each spin word is checked once per public call, and the words the package makes are sound.

``sequences.as_spin_array`` decides what a spin word is. A counting wrapper
over it, patched into every module of the package that imports it, counts the
scans of input that is not yet a ``SpinSequence``. A public function runs one
scan per word argument given as a list or an ndarray, none for a
``SpinSequence`` argument, and none on a word it builds itself.

The words the package builds are wrapped without a scan, so a second test
checks that each of them is a read-only int8 array of +-1, on short words and
on words long enough to be scanned in lanes.
"""

import importlib
import inspect
import pkgutil
from types import SimpleNamespace

import numpy as np
import pytest

import noisymarkov
from noisymarkov import denoise, oracle, sequences, simulate, thermo, transfer
from noisymarkov.errors import MalformedDataError
from noisymarkov.model import validate_params
from noisymarkov.sequences import SpinSequence

M = validate_params(0.1, 0.2)
WORD = simulate.generate_dataset(M, 64, 3).y.symbols
OTHER = simulate.generate_dataset(M, 64, 4).y.symbols
#: Short enough for the brute-force oracle.
SHORT = WORD[:12]
POSTERIOR = denoise.forward_backward(WORD, M)

#: How a caller may hand a word over: the scans each form costs per word argument.
FORMS = {"list": (lambda w: w.tolist(), 1), "ndarray": (np.array, 1), "SpinSequence": (SpinSequence, 0)}

#: Public functions that take words, by name: a call on the words ``w.word``, ``w.other`` and
#: ``w.short`` in some form, with a temporary directory ``d``, and the number of words it passes.
WORD_CALLS = {
    "transfer.backward_fields": (lambda w, d: transfer.backward_fields(w.word, M), 1),
    "transfer.forward_fields": (lambda w, d: transfer.forward_fields(w.word, M), 1),
    "transfer.neighbour_ratios": (lambda w, d: transfer.neighbour_ratios(w.word, M), 1),
    "transfer.extended_fields": (lambda w, d: transfer.extended_fields(w.word, M), 1),
    "transfer.log_cylinder_prob": (lambda w, d: transfer.log_cylinder_prob(w.word, M), 1),
    "transfer.cylinder_prob": (lambda w, d: transfer.cylinder_prob(w.word, M), 1),
    "transfer.conditional_prob": (lambda w, d: transfer.conditional_prob(1, w.word, M), 1),
    "transfer.two_sided_conditional": (lambda w, d: transfer.two_sided_conditional(-1, w.word, w.other, M), 2),
    "transfer.two_sided_limit_conditional": (
        lambda w, d: transfer.two_sided_limit_conditional(1, w.word, w.other, 1e-3, M), 2
    ),
    "thermo.limit_field": (lambda w, d: thermo.limit_field(w.word, 1e-3, M), 1),
    "thermo.g_function": (lambda w, d: thermo.g_function(w.word, 1e-3, M), 1),
    "thermo.g_continued_fraction": (lambda w, d: thermo.g_continued_fraction(w.word, 20, M), 1),
    "thermo.g_continued_fraction_detail": (lambda w, d: thermo.g_continued_fraction_detail(w.word, 20, M), 1),
    "thermo.gibbs_potential": (lambda w, d: thermo.gibbs_potential(w.word, 1e-3, M), 1),
    "thermo.coboundary": (lambda w, d: thermo.coboundary(w.word, 1e-3, M), 1),
    "thermo.bowen_gibbs_ratio": (lambda w, d: thermo.bowen_gibbs_ratio(w.word, M), 1),
    "denoise.forward_backward": (lambda w, d: denoise.forward_backward(w.word, M), 1),
    "denoise.dude": (lambda w, d: denoise.dude(w.word, 0.2, 2), 1),
    "denoise.dude_detail": (lambda w, d: denoise.dude_detail(w.word, 0.2, 2), 1),
    "denoise.bfp_denoise": (lambda w, d: denoise.bfp_denoise(w.word, M), 1),
    "denoise.bfp_denoise[empirical]": (lambda w, d: denoise.bfp_denoise(w.word, M, "empirical", 2), 1),
    "denoise.estimate_p_moment": (lambda w, d: denoise.estimate_p_moment(w.word, 0.2), 1),
    "denoise.gibbs_params": (lambda w, d: denoise.gibbs_params(w.word, 0.2), 1),
    "denoise.gibbs_detail": (lambda w, d: denoise.gibbs_detail(w.word, 0.2), 1),
    "denoise.gibbs_denoise": (lambda w, d: denoise.gibbs_denoise(w.word, 0.2), 1),
    "denoise.bit_error_rate": (lambda w, d: denoise.bit_error_rate(w.word, w.other), 2),
    "oracle.spin_word_code": (lambda w, d: oracle.spin_word_code(w.short), 1),
    "oracle.brute_force_cylinder": (lambda w, d: oracle.brute_force_cylinder(w.short, M), 1),
    "simulate.transmit": (lambda w, d: simulate.transmit(w.word, 0.2, 5), 1),
    "simulate.save_spins": (lambda w, d: simulate.save_spins(d / "y.bin", w.word), 1),
}


def _saved(directory):
    """``directory``, holding a packed word and a CSV path the package wrote."""
    path = simulate.generate_dataset(M, 64, 6)
    simulate.save_spins(directory / "y.bin", path.y)
    simulate.save_path_csv(directory / "path.csv", path)
    return directory


#: Public functions that take no word but make one.
MAKING_CALLS = {
    "simulate.sample_markov": lambda d: simulate.sample_markov(0.1, 64, 1),
    "simulate.generate_dataset": lambda d: simulate.generate_dataset(M, 64, 1),
    "simulate.load_spins": lambda d: simulate.load_spins(_saved(d) / "y.bin"),
    "simulate.load_path_csv": lambda d: simulate.load_path_csv(_saved(d) / "path.csv"),
    "denoise.map_denoise": lambda d: denoise.map_denoise(POSTERIOR),
}

#: Parameters that hold a word; ``log2cosh``'s x is a field and ``emission_column``'s y a symbol.
WORD_PARAMETERS = {"y", "future", "left", "right", "x", "xhat"}
NOT_WORDS = {"transfer.log2cosh", "denoise.emission_column"}


@pytest.fixture
def scans(monkeypatch):
    """The number of scans of words that are not yet SpinSequences, since the fixture was set up."""
    real = sequences.as_spin_array
    count = [0]

    def counting(y, **kwargs):
        if not isinstance(y, SpinSequence):
            count[0] += 1
        return real(y, **kwargs)

    for info in pkgutil.iter_modules(noisymarkov.__path__):
        module = importlib.import_module(f"noisymarkov.{info.name}")
        if getattr(module, "as_spin_array", None) is real:
            monkeypatch.setattr(module, "as_spin_array", counting)
    return count


def test_every_function_that_takes_a_word_is_counted():
    taking = {
        f"{module.__name__.split('.')[-1]}.{name}"
        for module in (transfer, thermo, denoise, oracle, simulate)
        for name, func in vars(module).items()
        if inspect.isfunction(func) and func.__module__ == module.__name__ and not name.startswith("_")
        and WORD_PARAMETERS & set(inspect.signature(func).parameters)
    }
    assert taking - NOT_WORDS == {name.partition("[")[0] for name in WORD_CALLS}


@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("name", sorted(WORD_CALLS))
def test_one_scan_per_word_argument(name, form, scans, tmp_path):
    call, words = WORD_CALLS[name]
    convert, per_word = FORMS[form]
    w = SimpleNamespace(word=convert(WORD), other=convert(OTHER), short=convert(SHORT))
    scans[0] = 0
    call(w, tmp_path)
    assert scans[0] == per_word * words


@pytest.mark.parametrize("name", sorted(MAKING_CALLS))
def test_made_words_are_not_scanned(name, scans, tmp_path):
    MAKING_CALLS[name](tmp_path)
    assert scans[0] == 0


def test_words_the_package_made_are_not_scanned_again(scans):
    path = simulate.generate_dataset(M, 64, 2)
    xhat = denoise.dude(path.y, 0.2, 2)
    denoise.bit_error_rate(xhat, path.x)
    denoise.gibbs_detail(denoise.map_denoise(denoise.forward_backward(path.y, M)), 0.2)
    assert scans[0] == 0


def test_spin_sequence_takes_a_spin_sequence_as_it_is(scans):
    word = SpinSequence([1, -1])
    assert scans[0] == 1
    SpinSequence(word)
    assert scans[0] == 1


#: A word long enough for its two sides to be scanned in lanes, and one short enough for the sequential walk.
LENGTHS = {"short": 40, "lanes": 80_000}


def _made_words(n: int, directory) -> dict[str, SpinSequence]:
    """Every kind of word the package makes from its own arrays, on words of n symbols."""
    path = simulate.generate_dataset(M, n, 8)
    sent = simulate.transmit(path.x, 0.2, 9)
    simulate.save_spins(directory / "y.bin", path.y)
    simulate.save_path_csv(directory / "path.csv", path)
    loaded = simulate.load_path_csv(directory / "path.csv")
    return {
        "generate_dataset.x": path.x, "generate_dataset.z": path.z, "generate_dataset.y": path.y,
        "sample_markov": simulate.sample_markov(0.1, n, 8),
        "transmit.x": sent.x, "transmit.z": sent.z, "transmit.y": sent.y,
        "load_spins": simulate.load_spins(directory / "y.bin"),
        "load_path_csv.x": loaded.x, "load_path_csv.z": loaded.z, "load_path_csv.y": loaded.y,
        "map_denoise": denoise.map_denoise(denoise.forward_backward(path.y, M)),
        "dude": denoise.dude(path.y, 0.2, 3),
        "bfp_denoise[exact]": denoise.bfp_denoise(path.y, M)[0],
        "bfp_denoise[empirical]": denoise.bfp_denoise(path.y, M, "empirical", 3)[0],
    }


@pytest.mark.parametrize("length", sorted(LENGTHS))
def test_made_words_are_read_only_int8_spins(length, tmp_path):
    n = LENGTHS[length]
    assert bool(transfer._lane_rounds(n, 2)) == (length == "lanes")
    for name, word in _made_words(n, tmp_path).items():
        symbols = word.symbols
        assert isinstance(word, SpinSequence), name
        assert symbols.dtype == np.int8 and symbols.shape == (n,), name
        assert not symbols.flags.writeable, name
        assert np.all((symbols == 1) | (symbols == -1)), name


def test_input_keeps_its_full_check():
    with pytest.raises(MalformedDataError):
        transfer.conditional_prob(1, [], M)
    with pytest.raises(MalformedDataError):
        SpinSequence([1, 0])
    with pytest.raises(MalformedDataError):
        denoise.map_denoise(denoise.PosteriorMarginals(q_minus=np.array([]), q_plus=np.array([])))
