"""Exhaustive minimal-subfamily search, independent of the pipeline.

The oracle tries every subfamily up to a size cap and reports the smallest
bounded intersection volume it finds. It shares nothing with the selection
machinery beyond the geometry primitives, which makes it a ground-truth
reference: the pipeline's ratio can be compared against the true optimum,
and "no bounded subfamily of size k" statements become checkable facts.
Everything here is exponential in m, so the caps are strict.
"""

from __future__ import annotations

import itertools
import math

from .errors import CapExceeded, HellyError
from .bodies import HPolytope
from .geometry import volume

__all__ = ["ORACLE_DIM_CAP", "ORACLE_FACET_CAP", "oracle_min_subfamily"]

ORACLE_DIM_CAP = 3
ORACLE_FACET_CAP = 12


def _subfamily(poly: HPolytope, rows: tuple[int, ...]) -> HPolytope:
    idx = list(rows)
    return HPolytope(poly.normals[idx], poly.offsets[idx])


def oracle_min_subfamily(
    poly: HPolytope, k: int
) -> tuple[tuple[int, ...] | None, float]:
    """Smallest bounded-intersection volume over subfamilies of size <= k.

    Returns (row indices, volume) for the best subfamily, or (None, inf)
    when no subfamily of admissible size has a bounded intersection. Sizes
    below d+1 are never bounded and are skipped.
    """
    m, d = poly.normals.shape
    if d > ORACLE_DIM_CAP:
        raise CapExceeded(f"oracle handles dimension <= {ORACLE_DIM_CAP}, got {d}")
    if m > ORACLE_FACET_CAP:
        raise CapExceeded(f"oracle handles <= {ORACLE_FACET_CAP} half-spaces, got {m}")
    if k > 2 * d:
        raise CapExceeded(f"oracle subfamily size cap is 2d = {2 * d}, got {k}")

    best_rows: tuple[int, ...] | None = None
    best_vol = math.inf
    for size in range(d + 1, min(k, m) + 1):
        for rows in itertools.combinations(range(m), size):
            sub = _subfamily(poly, rows)
            try:
                vol = volume(sub)
            except HellyError:
                continue  # unbounded, empty, or too flat to measure
            if vol < best_vol:
                best_rows, best_vol = rows, vol
    return best_rows, best_vol
