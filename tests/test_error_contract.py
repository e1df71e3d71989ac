"""The error contract, checked on the source: every raise in the package raises a package error.

A builtin exception class raised by name (``raise ValueError(...)``,
``raise TypeError``) would escape callers that catch ``NoisyMarkovError``; the
package's own classes subclass the builtin where one fits, so nothing is lost
by raising them instead. Re-raises (a bare ``raise``) are allowed.
"""

import ast
import builtins
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "noisymarkov").glob("*.py"))
BUILTIN_EXCEPTIONS = {
    name for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, BaseException)
}


def _raised_name(node: ast.Raise) -> str | None:
    """The name a raise statement raises by, if it names a class directly."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_no_builtin_exception_is_raised(source):
    tree = ast.parse(source.read_text(encoding="utf-8"), filename=str(source))
    offenders = [
        f"{source.name}:{node.lineno} raises {name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
        and (name := _raised_name(node)) in BUILTIN_EXCEPTIONS
    ]
    assert not offenders, offenders


def test_sources_found():
    assert {"denoise.py", "errors.py", "simulate.py"} <= {path.name for path in SOURCES}
