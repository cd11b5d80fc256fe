"""Greedy selection of d well-spread contact points.

From a decomposition of the identity, picks one point per step: project the
candidates onto the orthocomplement of what is already chosen and take the
one whose projected square length is largest, the lowest index among those
within a relative 1e-12 of the largest. The weighted average of those
square lengths equals tr(T)/d, so the maximum is at least that, which keeps
the running inner products above sqrt((d-i+1)/d) and the selected simplex
volume bounded below. `check_certificate` measures those windows; the
selection itself measures nothing.
"""

from __future__ import annotations

import math

import numpy as np

from .john import ContactDecomposition

_TIE_BAND = 1e-12  # trace values this close to the maximum, relatively, are ties


def trace_pick(projector: np.ndarray, dec: ContactDecomposition) -> int:
    """Index maximizing <w_i, T w_i>, ties to the smallest index: the first
    value within _TIE_BAND of the maximum, relatively, wins, so that moves of
    the points in their last bits cannot flip an exact tie.

    The weighted mean of the values is tr(T)/d (up to the decomposition
    residual), so the maximum is at least that, and the winner at least that
    less the band, far inside the checker's window tolerance.
    """
    values = ((dec.points @ projector) * dec.points).sum(axis=1)
    return int(np.argmax(values >= values.max() * (1.0 - _TIE_BAND)))


def dr_select(dec: ContactDecomposition) -> np.ndarray:
    """The d contact rows the greedy pass picks, in pick order.

    The first pick is the first point; afterwards each step projects away
    the chosen span and takes the trace-pick winner. Needs only the identity
    condition, so unbalanced decompositions work too.
    """
    return spanning_rows(dec, lambda k, projector: 0 if k == 0 else trace_pick(projector, dec))


def spanning_rows(dec: ContactDecomposition, pick) -> np.ndarray:
    """d contact rows, the k-th being pick(k, projector), where projector
    projects off the span of the rows picked before it; in pick order."""
    d = dec.dim
    pts = dec.points
    basis = np.zeros((d, d))
    rows = np.zeros(d, dtype=int)
    projector = np.eye(d)
    for k in range(d):
        row = pick(k, projector)
        tv = projector @ pts[row]
        z = tv / math.sqrt(float(tv @ tv))
        if k > 0:
            # second projection pass keeps the basis orthonormal to working
            # precision even when tv is small
            z = z - basis[:k].T @ (basis[:k] @ z)
            z = z / math.sqrt(float(z @ z))
        basis[k] = z
        rows[k] = row
        projector = projector - z[:, None] * z
    return rows
