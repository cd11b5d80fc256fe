"""The tolerance record."""

import ast
import math
from dataclasses import fields
from pathlib import Path

import pytest

import hellycert
from hellycert.config import DEFAULT, Tolerances

SRC = Path(hellycert.__file__).resolve().parent
SCALED = ("contact", "decomposition", "solver_gap")
KEPT = ("newton_cap",)


def test_scaled_field_by_field():
    base = Tolerances(newton_cap=77)
    out = base.scaled(8.0)
    for name in SCALED:
        assert getattr(out, name) == getattr(base, name) * 8.0, name
    assert out.newton_cap == 77 and isinstance(out.newton_cap, int)
    # a new field has to be sorted into one of the two lists above
    assert {f.name for f in fields(Tolerances)} == set(SCALED) | set(KEPT)


def test_scaled_rejects_nonpositive_factor():
    for factor in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            DEFAULT.scaled(factor)


def tolerance_reads() -> set[str]:
    """The attributes read off `tolerances` or `DEFAULT`, the two names the
    record goes by, in every package module but `config.py`."""
    names = set()
    for path in SRC.glob("*.py"):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("tolerances", "DEFAULT")
            ):
                names.add(node.attr)
    return names


def test_every_tolerance_has_a_reader():
    # a field nothing reads is a knob that moves nothing
    assert not {f.name for f in fields(Tolerances)} - tolerance_reads()
