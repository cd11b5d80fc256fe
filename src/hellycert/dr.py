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
from dataclasses import dataclass, field

import numpy as np

from .bounds import WINDOW_TOL, eq3_lower_bounds, window_allowance
from .errors import NumericalBreakdown
from .john import ContactDecomposition, verify_decomposition

_ORTHO_TOL = 1e-10
_SPAN_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class DRBasis:
    """Orthonormal basis rows z_i with the selected contact rows v_i.

    v_i lies in span{z_1..z_i}, and <v_i, z_i> sits inside the window
    [sqrt((d-i+1)/d), 1]. slack widens the lower window edge; selections
    built from decompositions with nonzero residual inherit a proportional
    allowance.
    """

    basis: np.ndarray
    selected: np.ndarray
    indices: np.ndarray
    slack: float = WINDOW_TOL
    validate: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "basis", np.asarray(self.basis, dtype=float))
        object.__setattr__(self, "selected", np.asarray(self.selected, dtype=float))
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=int).ravel())
        if not self.validate:
            return
        d = self.basis.shape[0]
        if self.basis.shape != (d, d) or self.selected.shape != (d, d):
            raise NumericalBreakdown("basis/selected must be d x d")
        gram = self.basis @ self.basis.T
        if np.abs(gram - np.eye(d)).max() > _ORTHO_TOL:
            raise NumericalBreakdown("basis rows are not orthonormal")
        coords = self.selected @ self.basis.T  # v_i in z coordinates
        strict_upper = np.triu(coords, k=1)
        if np.abs(strict_upper).max(initial=0.0) > _SPAN_TOL:
            raise NumericalBreakdown("v_i leaves span{z_1..z_i}")
        diag = np.diag(coords)
        floor = eq3_lower_bounds(d) - self.slack
        if (diag < floor).any() or (diag > 1.0 + _ORTHO_TOL).any():
            raise NumericalBreakdown("an inner product <v_i, z_i> left its window")
        if len(set(self.indices.tolist())) != d:
            raise NumericalBreakdown("selected indices repeat")

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def inner_products(self) -> np.ndarray:
        return np.einsum("ij,ij->i", self.selected, self.basis)


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


def dr_select(dec: ContactDecomposition) -> DRBasis:
    """Greedy orthonormal selection over the decomposition's points.

    The first pick is the first point; afterwards each step projects away
    the chosen span and takes the trace-pick winner. Needs only the identity
    condition, so unbalanced decompositions work too.
    """
    d = dec.dim
    pts = dec.points
    slack = window_allowance(d, verify_decomposition(dec).identity_residual)
    basis = np.zeros((d, d))
    selected = np.zeros((d, d))
    indices = np.zeros(d, dtype=int)
    projector = np.eye(d)
    for k in range(d):
        pick = 0 if k == 0 else trace_pick(projector, dec, slack=slack)
        v = pts[pick]
        tv = projector @ v
        sq = float(tv @ tv)
        if sq < (d - k) / d - max(1e-6, slack):
            raise NumericalBreakdown(
                f"projected square length {sq:.3e} below {(d - k) / d:.3e} at step {k + 1}"
            )
        z = tv / math.sqrt(sq)
        if k > 0:
            # second projection pass keeps the basis orthonormal to working
            # precision even when tv is small
            z = z - basis[:k].T @ (basis[:k] @ z)
            z = z / np.linalg.norm(z)
        basis[k] = z
        selected[k] = v
        indices[k] = pick
        projector = projector - np.outer(z, z)
    return DRBasis(basis=basis, selected=selected, indices=indices, slack=slack)


def sampled_basis(points: np.ndarray) -> np.ndarray:
    """Orthonormalize d independent rows in order: z_i spans grow with i
    and <v_i, z_i> > 0. Used by the sampling selector, which offers no
    window guarantee."""
    q, r = np.linalg.qr(points.T)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return (q * signs).T
