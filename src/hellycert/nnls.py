"""Nonnegative least squares by the classic active-set method.

min |A x - b|_2 over x >= 0. Used to recover contact weights; kept in-house
so the certificate pipeline has no solver dependencies. The test suite cross
-checks against an independent implementation.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence


def nnls(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Return (x, residual_norm) minimizing |a x - b| with x >= 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    m, n = a.shape
    if b.shape[0] != m:
        raise ValueError("incompatible shapes")
    max_iter = 10 * n + 50

    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    resid = b.copy()
    w = a.T @ resid
    tol = 10.0 * np.finfo(float).eps * max(1.0, float(np.abs(w).max(initial=0.0)))

    last_entry, last_resid = -1, np.inf
    for _ in range(max_iter):
        candidates = np.where(~passive & (w > tol))[0]
        if candidates.size == 0:
            break
        j = candidates[np.argmax(w[candidates])]
        rnorm = float(np.linalg.norm(resid))
        if j == last_entry and rnorm >= last_resid - 1e-14:
            break  # numerically dependent column cycling in and out
        last_entry, last_resid = j, rnorm
        passive[j] = True

        for _ in range(max_iter):
            cols = np.where(passive)[0]
            z = np.zeros(n)
            z[cols], *_ = np.linalg.lstsq(a[:, cols], b, rcond=None)
            if z[cols].min() > 0.0:
                x = z
                break
            # step back to the boundary, drop what lands at zero
            neg = cols[z[cols] <= 0.0]
            denom = x[neg] - z[neg]
            ratios = np.where(denom > 1e-300, x[neg] / np.where(denom > 0, denom, 1.0), 0.0)
            alpha = float(ratios.min())
            x = x + alpha * (z - x)
            x[neg[ratios <= alpha]] = 0.0
            passive[x <= 1e-14] = False
            x[~passive] = 0.0
        else:
            raise NoConvergence("active-set inner loop did not settle")

        resid = b - a @ x
        w = a.T @ resid
        w[passive] = -np.inf  # only inactive coordinates may enter
    else:
        raise NoConvergence("active-set outer loop hit its budget")

    return x, float(np.linalg.norm(b - a @ x))
