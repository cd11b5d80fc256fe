"""The shared constants."""

import ast
from pathlib import Path

import hellycert

SRC = Path(hellycert.__file__).resolve().parent


def config_constants() -> set[str]:
    """The names `config.py` assigns at module level."""
    tree = ast.parse((SRC / "config.py").read_text())
    return {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }


def config_reads() -> set[str]:
    """The names every package module but `config.py` imports from `config`
    and then reads; an import only re-exported does not count."""
    names = set()
    for path in SRC.glob("*.py"):
        if path.name == "config.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "config"
            for alias in node.names
        }
        names |= {
            imported[node.id]
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in imported
        }
    return names


def test_every_tolerance_has_a_reader():
    # a constant nothing reads is a knob that moves nothing
    assert config_constants() >= {"CONTACT", "DECOMPOSITION", "DIM_CAP", "FACET_CAP"}
    assert not config_constants() - config_reads()
