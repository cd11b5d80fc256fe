"""Greedy selection of d well-spread contact points.

From a decomposition of the identity, picks one point per step: project the
candidates onto the orthocomplement of what is already chosen and take the
one whose projected square length is largest. The weighted average of those
square lengths equals tr(T)/d, so the maximum is at least that, which keeps
the running inner products above sqrt((d-i+1)/d) and the selected simplex
volume bounded below.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import WINDOW_TOL, eq3_lower_bounds, selection_windows, window_allowance
from .certificate import verify_decomposition
from .errors import NumericalBreakdown
from .john import ContactDecomposition

_ORTHO_TOL = 1e-10


def trace_pick(
    projector: np.ndarray, dec: ContactDecomposition, slack: float = WINDOW_TOL
) -> int:
    """Index maximizing <w_i, T w_i>; ties resolve to the smallest index.

    The weighted mean of the values is tr(T)/d (up to the decomposition
    residual), so the winner is at least tr(T)/d - slack.
    """
    values = np.einsum("ip,pq,iq->i", dec.points, projector, dec.points)
    pick = int(np.argmax(values))  # first occurrence wins ties
    guarantee = float(np.trace(projector)) / dec.dim - slack
    if values[pick] < guarantee:
        raise NumericalBreakdown(
            f"best projected length {values[pick]:.3e} below guarantee {guarantee:.3e}"
        )
    return pick


def dr_select(dec: ContactDecomposition) -> np.ndarray:
    """The d contact rows the greedy pass picks, in pick order.

    The first pick is the first point; afterwards each step projects away
    the chosen span and takes the trace-pick winner. Needs only the identity
    condition, so unbalanced decompositions work too. The picks' windows
    must clear their floors, less the allowance the decomposition residual
    earns, and stay at most 1, or NumericalBreakdown: trace_pick bounds only
    the squared windows, which lets the last one dip by sqrt(d)/2 times that
    allowance.
    """
    d = dec.dim
    pts = dec.points
    slack = window_allowance(d, verify_decomposition(pts, dec.weights).identity_residual)
    basis = np.zeros((d, d))
    rows = np.zeros(d, dtype=int)
    projector = np.eye(d)
    for k in range(d):
        pick = 0 if k == 0 else trace_pick(projector, dec, slack=slack)
        tv = projector @ pts[pick]
        z = tv / math.sqrt(float(tv @ tv))
        if k > 0:
            # second projection pass keeps the basis orthonormal to working
            # precision even when tv is small
            z = z - basis[:k].T @ (basis[:k] @ z)
            z = z / np.linalg.norm(z)
        basis[k] = z
        rows[k] = pick
        projector = projector - np.outer(z, z)
    windows = selection_windows(pts[rows])
    if (windows < eq3_lower_bounds(d) - slack).any() or (windows > 1.0 + _ORTHO_TOL).any():
        raise NumericalBreakdown("a selection window left [floor - allowance, 1]")
    return rows
