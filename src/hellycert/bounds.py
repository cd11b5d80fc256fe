"""Closed-form constants of the volume-ratio guarantee.

The selection pipeline promises vol of the reduced intersection at most
explicit_bound(d) times the original. The headline statement uses the looser
form C * e^d * d^(2d); theorem_constant_scan recovers the smallest C that
covers a dimension range, which the explicit form attains at d = 1. The
greedy selection's window floors and the base simplex's volume floor are
closed forms too, as are the windows themselves, which the checker reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .bodies import freeze, unit_ball_volume

WINDOW_TOL = 1e-9  # how far a window may dip below its floor at zero residual


def log_explicit_bound(d: int) -> float:
    """log of d^d (d+1)^((3d+1)/2) / sqrt(d!)."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    return (
        d * math.log(d)
        + 0.5 * (3 * d + 1) * math.log(d + 1)
        - 0.5 * math.lgamma(d + 1)
    )


def explicit_bound(d: int) -> float:
    """Volume-ratio guarantee for the 2d-member subfamily in dimension d.

    Evaluated in log space; overflows double precision near d = 170.
    """
    return math.exp(log_explicit_bound(d))


def theorem_form_ratio(d: int) -> float:
    """explicit_bound(d) / (e^d d^(2d)): the constant the headline form needs
    to cover dimension d."""
    return math.exp(log_explicit_bound(d) - d - 2 * d * math.log(d))


def theorem_constant_scan(d_max: int) -> float:
    """Smallest constant C with explicit_bound(d) <= C e^d d^(2d) for all
    d <= d_max. The sequence decreases from d = 2 on, so the scan is a sanity
    pass more than a search; the maximum sits at d = 1."""
    if d_max < 1:
        raise ValueError(f"scan range must be positive, got {d_max}")
    logs = [log_explicit_bound(d) - d - 2 * d * math.log(d) for d in range(1, d_max + 1)]
    tail = logs[1:]
    if any(b > a + 1e-12 for a, b in zip(tail, tail[1:])):
        raise AssertionError("constant sequence failed to decrease beyond d = 2")
    return math.exp(max(logs))


def simplex_ellipsoid_ratio(d: int) -> float:
    """vol(largest inscribed ellipsoid) / vol(simplex), the same for every
    d-simplex: d! kappa_d / (d^(d/2) (d+1)^((d+1)/2))."""
    log_val = (
        math.lgamma(d + 1)
        + math.log(unit_ball_volume(d))
        - 0.5 * d * math.log(d)
        - 0.5 * (d + 1) * math.log(d + 1)
    )
    return math.exp(log_val)


def simplex_volume_floor(d: int) -> float:
    """Guaranteed volume of the selected base simplex: 1/(sqrt(d!) d^(d/2))."""
    return math.exp(-0.5 * math.lgamma(d + 1) - 0.5 * d * math.log(d))


@cache
def eq3_lower_bounds(d: int) -> np.ndarray:
    """Guaranteed floor of <v_i, z_i> for i = 1..d: sqrt((d-i+1)/d), read-only."""
    return freeze(np.sqrt((d - np.arange(d)) / d))


def selection_windows(points: np.ndarray) -> np.ndarray:
    """The windows <v_i, z_i> of d rows v_i in order, where z_i is the unit
    part of v_i orthogonal to v_1..v_{i-1}: the diagonal of the Cholesky
    factor of their Gram matrix. np.linalg.LinAlgError when the rows are
    linearly dependent."""
    return np.linalg.cholesky(points @ points.T).diagonal()


def window_allowance(d: int, residual: float) -> float:
    """How far a window <v_i, z_i> may dip below its floor when the points
    decompose the identity only up to `residual` (max-abs entry error)."""
    return WINDOW_TOL + 2.0 * math.sqrt(d) * residual


@dataclass(frozen=True)
class BoundReport:
    """explicit_bound and its headline-form counterpart for one dimension."""

    d: int
    log_explicit: float
    explicit: float
    theorem_form: float


def bound_report(d: int) -> BoundReport:
    log_val = log_explicit_bound(d)
    return BoundReport(
        d=d,
        log_explicit=log_val,
        explicit=math.exp(log_val),
        theorem_form=theorem_form_ratio(d),
    )
