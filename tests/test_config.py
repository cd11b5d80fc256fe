"""The tolerance record."""

import math
from dataclasses import fields

import pytest

from hellycert.config import DEFAULT, Tolerances

SCALED = ("feasibility", "contact", "decomposition", "solver_gap")
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
