"""The error taxonomy, read statically with `ast`: every error type the
package defines is one that some code path raises."""

import ast
from pathlib import Path

import hellycert
from hellycert import errors
from hellycert.errors import HellyError

SRC = Path(hellycert.__file__).resolve().parent


def raised_names() -> set[str]:
    """The names in `raise X` and `raise X(...)` statements across the package."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_error_class_has_a_raiser():
    defined = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, HellyError) and obj is not HellyError
    }
    assert defined
    assert not defined - raised_names()
