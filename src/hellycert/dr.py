"""Greedy selection of d well-spread contact points.

From a decomposition of the identity, picks one point per step: project the
candidates onto the orthocomplement of what is already chosen and take the
one whose projected square length is largest. The weighted average of those
square lengths equals tr(T)/d, so the maximum is at least that, which keeps
the running inner products above sqrt((d-i+1)/d) and the selected simplex
volume bounded below. `check_certificate` measures those windows; the
selection itself measures nothing.
"""

from __future__ import annotations

import math

import numpy as np

from .john import ContactDecomposition


def trace_pick(projector: np.ndarray, dec: ContactDecomposition) -> int:
    """Index maximizing <w_i, T w_i>; ties resolve to the smallest index.

    The weighted mean of the values is tr(T)/d (up to the decomposition
    residual), so the winner is at least that.
    """
    values = np.einsum("ip,pq,iq->i", dec.points, projector, dec.points)
    return int(np.argmax(values))  # first occurrence wins ties


def dr_select(dec: ContactDecomposition) -> np.ndarray:
    """The d contact rows the greedy pass picks, in pick order.

    The first pick is the first point; afterwards each step projects away
    the chosen span and takes the trace-pick winner. Needs only the identity
    condition, so unbalanced decompositions work too.
    """
    d = dec.dim
    pts = dec.points
    basis = np.zeros((d, d))
    rows = np.zeros(d, dtype=int)
    projector = np.eye(d)
    for k in range(d):
        pick = 0 if k == 0 else trace_pick(projector, dec)
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
    return rows
