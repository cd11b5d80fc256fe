"""Dense two-phase primal simplex with Bland's rule.

Small and deterministic by design: every LP in this library has at most a few
dozen variables, so a dense tableau with anti-cycling pivoting beats anything
clever. Infeasible and unbounded are answers (statuses), not exceptions.

The start is the slack basis wherever it is feasible: an inequality row with
b >= 0 starts with its slack basic at value b and gets no artificial column.
Only equality rows and inequality rows with b < 0 get an artificial, and
phase 1 drives those out. When no row needs one, as for a Chebyshev LP over a
body that contains the origin, the slack basis is a feasible vertex and
phase 1 does not run. That LP runs only when a least-squares witness ball
misses the flatness floor (`geometry.interior_point`); the one LP every
`select` solves is the ray's exit LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NoConvergence

# a reduced cost below -_PIVOT_TOL may enter, a column entry above it may pivot
_PIVOT_TOL = 1e-9
# ratio-test values within _RATIO_TIE of the minimum count as tied
_RATIO_TIE = 1e-12


class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    status: LPStatus
    value: float | None
    x: np.ndarray | None


def lp_solve(
    cost,
    a_ub=None,
    b_ub=None,
    a_eq=None,
    b_eq=None,
    *,
    nonneg=None,
    maximize: bool = False,
) -> LPResult:
    """Solve min/max cost.x subject to a_ub x <= b_ub, a_eq x = b_eq.

    nonneg is a boolean mask marking variables constrained to x_j >= 0;
    unmarked variables are free (internally split into differences).
    """
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    if nonneg is None:
        nonneg = np.zeros(n, dtype=bool)
    else:
        nonneg = np.asarray(nonneg, dtype=bool)

    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float).reshape(-1, n)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).ravel()
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float).reshape(-1, n)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).ravel()

    obj = -cost if maximize else cost

    # Column layout: one column per variable, an extra negated column per free
    # variable, then one slack per inequality row, then one artificial per row
    # whose slack cannot start basic (equality rows and rows with b < 0).
    free = ~nonneg
    minus_col = np.full(n, -1, dtype=int)
    minus_col[free] = n + np.arange(int(free.sum()))
    n_split = n + int(free.sum())

    r_ub, r_eq = a_ub.shape[0], a_eq.shape[0]
    rows = r_ub + r_eq
    n_slack = r_ub
    n_struct = n_split + n_slack
    rhs = np.concatenate([b_ub, b_eq])
    neg = rhs < 0
    art_rows = np.flatnonzero(neg | (np.arange(rows) >= r_ub))
    n_art = art_rows.size
    n_total = n_struct + n_art

    tab = np.zeros((rows, n_total))
    tab[:r_ub, :n] = a_ub
    tab[r_ub:, :n] = a_eq
    if free.any():
        tab[:r_ub, n:n_split] = -a_ub[:, free]
        tab[r_ub:, n:n_split] = -a_eq[:, free]
    tab[:r_ub, n_split:n_struct] = np.eye(r_ub)

    tab[neg] *= -1.0
    rhs[neg] *= -1.0
    tab[art_rows, n_struct + np.arange(n_art)] = 1.0
    tab0, rhs0 = tab.copy(), rhs.copy()
    keep = np.ones(rows, dtype=bool)

    basis = np.empty(rows, dtype=int)
    basis[:r_ub] = n_split + np.arange(r_ub)
    basis[art_rows] = n_struct + np.arange(n_art)
    scale = 1.0 + (abs(rhs).max() if rows else 0.0)
    cap = 2000 + 200 * (rows + n_total)

    def pivot(r: int, c: int) -> None:
        nonlocal tab, rhs
        piv = tab[r, c]
        tab[r] /= piv
        rhs[r] /= piv
        col = tab[:, c].copy()
        col[r] = 0.0
        tab -= np.outer(col, tab[r])
        rhs -= col * rhs[r]
        tab[:, c] = 0.0
        tab[r, c] = 1.0
        np.maximum(rhs, 0.0, out=rhs)
        basis[r] = c

    def run(c_vec: np.ndarray, allowed: np.ndarray) -> LPStatus:
        for _ in range(cap):
            red = c_vec - c_vec[basis] @ tab
            candidates = np.where(allowed & (red < -_PIVOT_TOL))[0]
            if candidates.size == 0:
                return LPStatus.OPTIMAL
            e = candidates[0]  # Bland: lowest eligible index enters
            col = tab[:, e]
            pos = np.where(col > _PIVOT_TOL)[0]
            if pos.size == 0:
                return LPStatus.UNBOUNDED
            ratios = rhs[pos] / col[pos]
            best = ratios.min()
            near = pos[ratios <= best + _RATIO_TIE]
            r = near[np.argmin(basis[near])]  # Bland: lowest basic index leaves
            pivot(r, e)
        raise NoConvergence("simplex iteration cap exceeded")

    if n_art:
        # Phase 1: drive artificials to zero.
        c1 = np.zeros(n_total)
        c1[n_struct:] = 1.0
        allowed1 = np.ones(n_total, dtype=bool)
        status = run(c1, allowed1)
        assert status == LPStatus.OPTIMAL  # bounded below by zero
        if c1[basis] @ rhs > _PIVOT_TOL * scale:
            return LPResult(LPStatus.INFEASIBLE, None, None)

        # Remove artificials from the basis; an all-zero row is redundant.
        for r in range(rows):
            if basis[r] >= n_struct:
                entries = np.where(np.abs(tab[r, :n_struct]) > _PIVOT_TOL)[0]
                if entries.size:
                    pivot(r, entries[0])
                else:
                    keep[r] = False
        if not keep.all():
            tab = tab[keep]
            rhs = rhs[keep]
            basis = basis[keep]
            rows = int(keep.sum())

    # Phase 2 over structural columns only.
    c2 = np.zeros(n_total)
    c2[:n] = obj
    if free.any():
        c2[n:n_split] = -obj[free]
    allowed2 = np.ones(n_total, dtype=bool)
    allowed2[n_struct:] = False
    status = run(c2, allowed2)
    if status == LPStatus.UNBOUNDED:
        return LPResult(LPStatus.UNBOUNDED, None, None)

    # the tableau's rhs carries rounding from every pivot (and the clip at
    # 0); solve the final basis against the original rows instead
    x_split = np.zeros(n_total)
    x_split[basis] = np.linalg.solve(tab0[keep][:, basis], rhs0[keep])
    x = x_split[:n].copy()
    x[free] -= x_split[minus_col[free]]
    return LPResult(LPStatus.OPTIMAL, float(cost @ x), x)
