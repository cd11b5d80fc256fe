"""The package's import structure, read statically with `ast`.

`check_certificate` is what a user trusts, so its import closure is held to
the closed forms: the certificate, the closed-form bodies, the bounds, the
caps and the error types. No LP, solver or selection module may enter it.
"""

import ast
from pathlib import Path

import hellycert

SRC = Path(hellycert.__file__).resolve().parent


def relative_imports(module: str) -> list[tuple[str, str]]:
    """(imported module, imported name) for each `from .x import y` in a
    module of the package."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def closure(module: str) -> set[str]:
    """The package modules `module` loads, itself included."""
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += [target for target, _ in relative_imports(name)]
    return seen


def test_checker_trusts_only_closed_forms():
    trusted = closure("checker")
    assert trusted == {"checker", "certificate", "bodies", "bounds", "config", "errors"}
    lines = sum(len((SRC / f"{name}.py").read_text().splitlines()) for name in trusted)
    assert lines < 1100
    assert closure("documents") - trusted == {"documents"}


def test_no_module_imports_a_private_name_of_another():
    private = [
        f"{path.stem} imports {target}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for target, name in relative_imports(path.stem)
        if name.startswith("_")
    ]
    assert not private
