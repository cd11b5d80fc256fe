"""The tolerance record."""

from dataclasses import fields

import pytest

from hellycert.config import DEFAULT, Tolerances

SCALED = (
    "incidence",
    "dedupe",
    "spd_floor",
    "unit_norm",
    "feasibility",
    "contact",
    "decomposition",
    "solver_gap",
    "degenerate_ray",
)
KEPT = ("newton_cap", "checker_scale")


def test_scaled_field_by_field():
    base = Tolerances(newton_cap=77, checker_scale=3.0)
    out = base.scaled(8.0)
    for name in SCALED:
        assert getattr(out, name) == getattr(base, name) * 8.0, name
    assert out.newton_cap == 77 and isinstance(out.newton_cap, int)
    assert out.checker_scale == 3.0
    # a new field has to be sorted into one of the two lists above
    assert {f.name for f in fields(Tolerances)} == set(SCALED) | set(KEPT)


def test_scaled_rejects_nonpositive_factor():
    for factor in (0.0, -1.0):
        with pytest.raises(ValueError):
            DEFAULT.scaled(factor)
