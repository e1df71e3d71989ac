"""The error contract and the layering, checked on the source.

Every raise in the package raises a package error. A builtin exception class
raised by name (``raise ValueError(...)``, ``raise TypeError``) would escape
callers that catch ``NoisyMarkovError``; the package's own classes subclass the
builtin where one fits, so nothing is lost by raising them instead. Re-raises
(a bare ``raise``) are allowed.

One helper, ``simulate._overwrite``, writes every file the package writes:
no other code opens a file for writing, and nothing truncates a file on open
(``O_TRUNC``); the helper's docstring says why.

Every import sits at module level, where the import order shows it, and the
modules' imports of each other form no cycle. ``import noisymarkov`` loads
neither ``fractions`` nor ``decimal``, which cost milliseconds of every command
start. Every name a module lists in
``__all__`` exists once it is imported, so deleting a function cannot leave its
export behind.
"""

import ast
import builtins
import importlib
import os
import subprocess
import sys
from functools import cache
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "noisymarkov").glob("*.py"))
MODULES = {path.stem for path in SOURCES}
BUILTIN_EXCEPTIONS = {
    name for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, BaseException)
}


@cache
def _tree(source: Path) -> ast.Module:
    return ast.parse(source.read_text(encoding="utf-8"), filename=str(source))


def _package_imports(source: Path) -> set[str]:
    """The package's modules that ``source`` imports, anywhere in it, by ``from .x import``.

    ``from . import name`` imports the module ``name`` if there is one, else
    the package's ``__init__``.
    """
    found = set()
    for node in ast.walk(_tree(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found |= {a.name if a.name in MODULES else "__init__" for a in node.names}
    return found


def _raised_name(node: ast.Raise) -> str | None:
    """The name a raise statement raises by, if it names a class directly."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_no_builtin_exception_is_raised(source):
    offenders = [
        f"{source.name}:{node.lineno} raises {name}"
        for node in ast.walk(_tree(source))
        if isinstance(node, ast.Raise) and node.exc is not None
        and (name := _raised_name(node)) in BUILTIN_EXCEPTIONS
    ]
    assert not offenders, offenders


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_no_import_inside_a_function(source):
    offenders = {
        f"{source.name}:{node.lineno} imports inside {func.name}"
        for func in ast.walk(_tree(source))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    assert not offenders, sorted(offenders)


def test_package_imports_form_no_cycle():
    graph = {source.stem: _package_imports(source) for source in SOURCES}
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")
    assert "thermo" not in graph["transfer"]  # the scan kernel sits under the Gibbs layer


def test_import_loads_no_rational_arithmetic():
    # DUDE decides its near-ties in Python integers, on the binary eps's integer ratio
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SOURCES[0].parent.parent),
                                                                    os.environ.get("PYTHONPATH")])))
    probe = "import sys, noisymarkov; print(*sorted({'fractions', 'decimal'} & set(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []


def _callee(call: ast.Call) -> str | None:
    """The name of the function or class that ``call`` calls, by name or as an attribute."""
    return call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)


def _calls_to(node: ast.AST, name: str) -> set[int]:
    """Lines of the calls under ``node`` of a function or class named ``name``."""
    return {call.lineno for call in ast.walk(node) if isinstance(call, ast.Call) and _callee(call) == name}


def test_one_decay_certificate_per_cell():
    homes = [
        f"{source.name}:{node.lineno}" for source in SOURCES for node in ast.walk(_tree(source))
        if isinstance(node, ast.ClassDef) and node.name == "DecayBound"
    ]
    assert len(homes) == 1, homes
    # ChannelParams builds the certificate with the cell, so it alone derives one
    calls = {source.name: _calls_to(_tree(source), "_decay_bound") for source in SOURCES}
    model = next(source for source in SOURCES if source.name == "model.py")
    cell = next(
        node for node in ast.walk(_tree(model))
        if isinstance(node, ast.ClassDef) and node.name == "ChannelParams"
    )
    builder = next(
        func for func in cell.body
        if isinstance(func, ast.FunctionDef) and func.name == "__post_init__"
    )
    assert _calls_to(builder, "_decay_bound")
    assert {name: lines for name, lines in calls.items() if lines} == {
        "model.py": _calls_to(builder, "_decay_bound")
    }


#: The one function that opens files for writing, by module.
WRITER = ("simulate.py", "_overwrite")

#: Characters of an ``open`` mode, and ``os.open`` flags, that let a call write.
WRITE_MODE_CHARS = set("wax+")
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}


def _mode_args(call: ast.Call) -> list[ast.AST]:
    """The argument that gives an ``open`` call its mode or flags, if the call passes one.

    It follows the path for ``open``, ``os.open`` and ``io.open``; ``Path.open`` takes it first.
    """
    on_path = isinstance(call.func, ast.Attribute) and not (
        isinstance(call.func.value, ast.Name) and call.func.value.id in ("os", "io")
    )
    first = 0 if on_path else 1
    return call.args[first : first + 1] + [kw.value for kw in call.keywords if kw.arg in ("mode", "flags")]


def _identifier(node: ast.AST) -> str:
    """The identifier of a name or an attribute, else the empty string."""
    return getattr(node, "id", None) or getattr(node, "attr", None) or ""


def _flag_names(node: ast.AST) -> set[str]:
    return {name for sub in ast.walk(node) if (name := _identifier(sub)).startswith("O_")}


def _opens_for_writing(call: ast.Call) -> bool:
    name = _callee(call)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    for arg in _mode_args(call):
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            if WRITE_MODE_CHARS & set(arg.value):
                return True
        elif flags := _flag_names(arg):
            if flags & WRITE_FLAGS:
                return True
        else:
            return True  # a mode the source does not spell out may write
    return False


def _writes(node: ast.AST) -> set[int]:
    """Lines under ``node`` that open a file for writing or name ``O_TRUNC``."""
    return {
        sub.lineno for sub in ast.walk(node)
        if (isinstance(sub, ast.Call) and _opens_for_writing(sub))
        or (isinstance(sub, (ast.Name, ast.Attribute)) and _identifier(sub) == "O_TRUNC")
    }


def test_one_writer_opens_files():
    module, name = WRITER
    helper = next(
        (node for source in SOURCES if source.name == module for node in ast.walk(_tree(source))
         if isinstance(node, ast.FunctionDef) and node.name == name),
        None,
    )
    assert helper is not None and _writes(helper), f"{module} has no {name} that opens a file for writing"
    offenders = {
        f"{source.name}:{line}" for source in SOURCES
        for line in _writes(_tree(source)) - (_writes(helper) if source.name == module else set())
    }
    assert not offenders, sorted(offenders)


#: Scans that compute the shift or field of every position of a word.
WHOLE_SCANS = {"_scan_shifts", "_sequential_ratios", "extended_fields"}


def test_one_field_per_limit():
    # a query that needs one entry walks to it alone (transfer._leading_ratio)
    defined = {node.name for source in SOURCES for node in ast.walk(_tree(source)) if isinstance(node, ast.FunctionDef)}
    assert WHOLE_SCANS <= defined, WHOLE_SCANS - defined
    offenders = [
        f"{source.name}:{node.lineno} takes entry {_literal(node.slice)} of {_callee(node.value)}"
        for source in SOURCES for node in ast.walk(_tree(source))
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Call)
        and _callee(node.value) in WHOLE_SCANS and isinstance(_literal(node.slice), int)
    ]
    assert not offenders, offenders


def _literal(node: ast.AST):
    try:
        return ast.literal_eval(node)
    except (TypeError, ValueError):
        return None


def _spin_tests(tree: ast.Module) -> set[int]:
    """Lines of the ``in`` and ``not in (-1, 1)`` comparisons under ``tree``."""
    return {
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.In, ast.NotIn)) and _literal(right) in ((-1, 1), (1, -1))
                for op, right in zip(node.ops, node.comparators))
    }


def _unit_interval_tests(tree: ast.Module) -> set[int]:
    """Lines of the chained comparisons ``0.0 < x < 1.0`` (or with ``<=``) under ``tree``."""
    return {
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and len(node.ops) == 2
        and _literal(node.left) == 0.0 and _literal(node.comparators[-1]) == 1.0
    }


def test_one_check_per_kind_of_scalar():
    # a spin symbol is decided beside the spin word, a probability beside the cell
    spin = {source.name: lines for source in SOURCES if (lines := _spin_tests(_tree(source)))}
    unit = {source.name: lines for source in SOURCES if (lines := _unit_interval_tests(_tree(source)))}
    assert set(spin) == {"sequences.py"}, spin
    assert set(unit) == {"model.py"}, unit


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_every_exported_name_resolves(source):
    name = "noisymarkov" if source.stem == "__init__" else f"noisymarkov.{source.stem}"
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, missing


def test_sources_found():
    assert {"denoise.py", "errors.py", "simulate.py"} <= {path.name for path in SOURCES}
