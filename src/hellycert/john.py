"""Largest inscribed ellipsoid, position normalization, contact weights.

The solver maximizes log det A over symmetric A and center c subject to
|A a_i| + a_i.c <= b_i, by damped Newton steps on the log-barrier along the
standard path t -> mu t. It is self-contained (dense numpy linear algebra)
and stops when the duality-gap proxy m/t reaches the configured target, so
the log-volume suboptimality at exit is below that target.

Normalizing an instance maps the solved ellipsoid to the unit ball; the
half-spaces then have unit normals and offsets >= 1, the near-tangent ones
are the contacts, and nonnegative least squares recovers weights that make
the contacts resolve the identity with zero barycenter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (
    Degenerate,
    GenerationFailed,
    NoConvergence,
    NoDecomposition,
    TooFewContacts,
)
from .geometry import Ellipsoid, HPolytope, _interior_point, hpolytope_from_arrays
from .nnls import nnls

_CENTER_DECREMENT = 1e-11  # half squared Newton decrement (in 1/t-scaled units,
# so this is a log-volume accuracy) below which a stage counts as centered
_PATH_MU = 10.0
_CONTACT_LADDER = (1e-6, 1e-5, 1e-4)  # escalation above the configured tolerance
_GAP_LADDER = (1.0, 1e-2)  # solver gap tightening factors, in order


def _sym_basis(d: int):
    """Basis U_k of symmetric d x d matrices indexed by upper-triangle pairs."""
    pairs = [(p, q) for p in range(d) for q in range(p, d)]
    basis = np.zeros((len(pairs), d, d))
    for k, (p, q) in enumerate(pairs):
        basis[k, p, q] = 1.0
        basis[k, q, p] = 1.0
    return pairs, basis


def _coeffs_of(mat: np.ndarray, pairs) -> np.ndarray:
    return np.array([mat[p, q] for p, q in pairs])


class _Barrier:
    """Feasibility, value, gradient and Hessian of the barrier at (A, c)."""

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.a = a
        self.b = b
        self.m, self.d = a.shape
        self.pairs, self.basis = _sym_basis(self.d)
        self.n_sym = len(self.pairs)
        # m_tens[i, :, k] = U_k a_i ; c_tens[i] = m_tens[i]^T m_tens[i]
        self.m_tens = np.einsum("kpq,iq->ipk", self.basis, a)
        self.c_tens = np.einsum("ipk,ipl->ikl", self.m_tens, self.m_tens)

    def split(self, x: np.ndarray):
        coeffs, c = x[: self.n_sym], x[self.n_sym :]
        return np.einsum("k,kpq->pq", coeffs, self.basis), c

    def state(self, x: np.ndarray):
        """None when (A, c) is outside the domain (A not PD or some slack <= 0)."""
        mat, c = self.split(x)
        try:
            chol = np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            return None
        y = self.a @ mat
        norms = np.linalg.norm(y, axis=1)
        slack = self.b - self.a @ c - norms
        if slack.min() <= 0.0 or norms.min() <= 1e-300:
            return None
        logdet = 2.0 * float(np.log(np.diag(chol)).sum())
        return mat, chol, y, norms, slack, logdet

    def value(self, t: float, state) -> float:
        # stage objective scaled by 1/t: -logdet A - (1/t) sum log s_i.
        # Same minimizer and Newton direction as the unscaled barrier, but
        # values stay O(1) at large t, so line-search comparisons do not
        # drown in floating-point cancellation.
        _, _, _, _, slack, logdet = state
        return -logdet - float(np.log(slack).sum()) / t

    def grad_hess(self, t: float, state):
        mat, chol, y, norms, slack, _ = state
        n_sym, d = self.n_sym, self.d
        linv = np.linalg.solve(chol, np.eye(d))
        w_inv = linv.T @ linv  # A^{-1}
        g_logdet = -np.einsum("kpq,qp->k", self.basis, w_inv)
        u_dir = y / norms[:, None]
        mvec = np.einsum("ipk,ip->ik", self.m_tens, u_dir)  # d|Aa_i|/dA coeffs
        inv_s = 1.0 / slack
        g_rows = np.hstack([mvec, self.a])  # gradient of -s_i in (A, c)
        grad = np.concatenate([g_logdet, np.zeros(d)]) + (inv_s @ g_rows) / t
        p_tens = np.einsum("ab,kbc->kac", w_inv, self.basis)
        h_logdet = np.einsum("kab,lba->kl", p_tens, p_tens)
        hess = np.einsum("i,ik,il->kl", inv_s**2, g_rows, g_rows) / t
        w2 = inv_s / (norms * t)
        h_norm = np.einsum("i,ikl->kl", w2, self.c_tens) - np.einsum(
            "i,ik,il->kl", w2, mvec, mvec
        )
        hess[:n_sym, :n_sym] += h_logdet + h_norm
        return grad, hess


def _newton_direction(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    n = hess.shape[0]
    ridge = 0.0
    for _ in range(8):
        try:
            chol = np.linalg.cholesky(hess + ridge * np.eye(n))
        except np.linalg.LinAlgError:
            ridge = max(ridge * 100.0, 1e-12 * abs(np.trace(hess)) / n + 1e-300)
            continue
        z = np.linalg.solve(chol, -grad)
        return np.linalg.solve(chol.T, z)
    raise NoConvergence("Newton system stayed indefinite under regularization")


def inscribed_ellipsoid(
    poly: HPolytope,
    tolerances: Tolerances = DEFAULT,
    gap: float | None = None,
    newton_cap: int | None = None,
) -> Ellipsoid:
    """Maximum-volume ellipsoid inscribed in a bounded full-dimensional polytope.

    Raises Empty / Unbounded / Degenerate from the LP pre-checks and
    NoConvergence when the Newton budget runs out.
    """
    gap = tolerances.solver_gap if gap is None else gap
    cap = tolerances.newton_cap if newton_cap is None else newton_cap
    center, radius = _interior_point(poly)

    barrier = _Barrier(poly.normals, poly.offsets)
    x = np.concatenate([_coeffs_of(0.9 * radius * np.eye(poly.dim), barrier.pairs), center])
    t = 1.0
    steps = 0
    while True:
        for _ in range(200):
            state = barrier.state(x)
            assert state is not None  # iterates stay strictly feasible
            grad, hess = barrier.grad_hess(t, state)
            delta = _newton_direction(hess, grad)
            decrement2 = max(float(-grad @ delta), 0.0)
            if decrement2 / 2.0 <= _CENTER_DECREMENT:
                break
            f_here = barrier.value(t, state)
            step, moved = 1.0, False
            while step >= 1e-13:
                trial = x + step * delta
                trial_state = barrier.state(trial)
                if trial_state is not None and barrier.value(t, trial_state) <= (
                    f_here + 0.25 * step * float(grad @ delta)
                ):
                    x, moved = trial, True
                    break
                step *= 0.5
            if not moved:
                break  # stalled this close to the center; gap check governs
            steps += 1
            if steps > cap:
                raise NoConvergence(f"Newton budget {cap} exhausted at t={t:.3e}")
        if barrier.m / t <= gap:
            break
        t *= _PATH_MU

    mat, c = barrier.split(x)
    worst = float((np.linalg.norm(poly.normals @ mat, axis=1) + poly.normals @ c - poly.offsets).max())
    if worst > tolerances.feasibility:
        raise NoConvergence(f"returned ellipsoid violates a half-space by {worst:.3e}")
    return Ellipsoid(c, mat)


# ------------------------------------------------------------- decompositions


@dataclass(frozen=True, eq=False)
class ContactDecomposition:
    """Unit vectors w_i with weights c_i resolving the identity.

    sum c_i w_i w_i^T = I (so sum c_i = d), and when balanced also
    sum c_i w_i = 0. source_indices point into the half-space list of the
    normalized instance the contacts came from, when there is one.
    """

    points: np.ndarray
    weights: np.ndarray
    source_indices: np.ndarray | None = None
    balanced: bool = True
    validate: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        wts = np.asarray(self.weights, dtype=float).ravel()
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)
        if self.source_indices is not None:
            object.__setattr__(
                self, "source_indices", np.asarray(self.source_indices, dtype=int).ravel()
            )
        if not self.validate:
            return
        if pts.shape[0] != wts.shape[0]:
            raise NoDecomposition("points/weights length mismatch")
        report = verify_decomposition(pts, wts)
        tol = DEFAULT.decomposition
        if report.max_unit_deviation > 1e-8:
            raise NoDecomposition("decomposition points are not unit vectors")
        if wts.min() <= 0.0:
            raise NoDecomposition("weights must be strictly positive")
        if report.identity_residual > tol:
            raise NoDecomposition(
                f"identity residual {report.identity_residual:.3e} above {tol:.1e}"
            )
        if self.balanced and report.barycenter_norm > tol:
            raise NoDecomposition(
                f"barycenter norm {report.barycenter_norm:.3e} above {tol:.1e}"
            )

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def size(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class DecompositionReport:
    identity_residual: float  # max abs entry of sum c w w^T - I
    barycenter_norm: float  # |sum c w|
    weight_sum: float  # sum c (should be the dimension)
    min_weight: float
    max_unit_deviation: float  # max | |w_i| - 1 |


def verify_decomposition(points, weights=None) -> DecompositionReport:
    """Residuals of the identity and barycenter conditions, no thresholds."""
    if weights is None:
        points, weights = points.points, points.weights
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    wts = np.asarray(weights, dtype=float).ravel()
    outer = np.einsum("i,ip,iq->pq", wts, pts, pts)
    identity_residual = float(np.abs(outer - np.eye(pts.shape[1])).max())
    barycenter = wts @ pts
    return DecompositionReport(
        identity_residual=identity_residual,
        barycenter_norm=float(np.linalg.norm(barycenter)),
        weight_sum=float(wts.sum()),
        min_weight=float(wts.min()) if wts.size else math.nan,
        max_unit_deviation=float(np.abs(np.linalg.norm(pts, axis=1) - 1.0).max()),
    )


def john_weights(
    points: np.ndarray,
    residual_tol: float = DEFAULT.decomposition,
    drop_tol: float = 1e-10,
    balanced: bool = True,
) -> np.ndarray:
    """Nonnegative weights making unit vectors resolve the identity.

    Returns a weight per input point (zeros where the point is unused;
    weights at or below drop_tol are zeroed). Raises NoDecomposition when
    the best nonnegative fit leaves a residual above residual_tol.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    k, d = pts.shape
    pairs = [(p, q) for p in range(d) for q in range(p, d)]
    rows = []
    target = []
    for p, q in pairs:
        scale = 1.0 if p == q else math.sqrt(2.0)  # least-squares = Frobenius
        rows.append(scale * pts[:, p] * pts[:, q])
        target.append(scale if p == q else 0.0)
    if balanced:
        for p in range(d):
            rows.append(pts[:, p])
            target.append(0.0)
    system = np.array(rows)
    weights, _ = nnls(system, np.array(target))
    weights[weights <= drop_tol] = 0.0

    report = verify_decomposition(pts, weights)
    if report.identity_residual > residual_tol:
        raise NoDecomposition(
            f"identity residual {report.identity_residual:.3e} above {residual_tol:.1e}"
        )
    if balanced and report.barycenter_norm > residual_tol:
        raise NoDecomposition(
            f"barycenter norm {report.barycenter_norm:.3e} above {residual_tol:.1e}"
        )
    return weights


def contact_points(
    poly: HPolytope, tol: float = DEFAULT.contact
) -> tuple[np.ndarray, np.ndarray]:
    """Normals of the half-spaces within tol of tangency to the unit ball.

    Expects a normalized instance (unit normals, offsets >= 1). The tangency
    point of such a half-space is its own normal vector. Returns
    (points, indices).
    """
    offsets = poly.offsets
    idx = np.where(offsets <= 1.0 + tol)[0]
    return poly.normals[idx], idx


# --------------------------------------------------------------- normalization


@dataclass(frozen=True, eq=False)
class NormalizedInstance:
    """An instance moved so its largest inscribed ellipsoid is the unit ball.

    x_original = map_matrix @ x_normalized + map_offset. The contact
    decomposition lives in the normalized frame; contact_tol records the
    tangency tolerance that admitted the contacts.
    """

    original: HPolytope
    map_matrix: np.ndarray
    map_offset: np.ndarray
    normalized: HPolytope
    decomposition: ContactDecomposition
    contact_tol: float
    validate: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        if not self.validate:
            return
        if abs(np.linalg.det(self.map_matrix)) <= 1e-12:
            raise Degenerate("normalization map is singular")
        offsets = self.normalized.offsets
        if offsets.min() < 1.0 - DEFAULT.feasibility:
            raise Degenerate("a normalized offset is below 1: ball not inscribed")
        src = self.decomposition.source_indices
        if src is None:
            raise NoDecomposition("normalized decomposition must track sources")
        slack_cap = 1.0 + max(1e-8, self.contact_tol)
        if offsets[src].max() > slack_cap:
            raise NoDecomposition("a recorded contact is not near-tangent")

    @property
    def dim(self) -> int:
        return self.original.dim


def normalize_position(poly: HPolytope, tolerances: Tolerances = DEFAULT) -> NormalizedInstance:
    """Solve for the inscribed ellipsoid, map it to the unit ball, and
    recover the contact decomposition.

    Contact admission escalates through a small tolerance ladder when the
    weight fit fails (tiny-weight contacts sit at complementarity slack
    above the base tolerance); the tolerance that succeeded is recorded.
    If no ladder level works the solver gap is tightened and the whole
    extraction retried.
    """
    d = poly.dim
    ladder = [tolerances.contact] + [c for c in _CONTACT_LADDER if c > tolerances.contact]
    failure: Exception = TooFewContacts(f"fewer than {d + 1} near-tangent half-spaces")
    for gap_factor in _GAP_LADDER:
        ell = inscribed_ellipsoid(poly, tolerances, gap=tolerances.solver_gap * gap_factor)
        raw = poly.normals @ ell.shape
        scale = np.linalg.norm(raw, axis=1)
        new_a = raw / scale[:, None]
        new_b = (poly.offsets - poly.normals @ ell.center) / scale
        normalized = hpolytope_from_arrays(new_a, new_b, normalize=False)
        for ctol in ladder:
            points, idx = contact_points(normalized, ctol)
            if idx.size < d + 1:
                continue
            try:
                weights = john_weights(points, residual_tol=tolerances.decomposition)
            except NoDecomposition as exc:
                failure = exc
                continue
            keep = weights > 0.0
            if keep.sum() < d + 1:
                failure = TooFewContacts(
                    f"only {int(keep.sum())} contacts carry weight, need {d + 1}"
                )
                continue
            dec = ContactDecomposition(
                points=points[keep],
                weights=weights[keep],
                source_indices=idx[keep],
                balanced=True,
            )
            return NormalizedInstance(
                original=poly,
                map_matrix=ell.shape,
                map_offset=ell.center,
                normalized=normalized,
                decomposition=dec,
                contact_tol=ctol,
            )
    raise failure


# ------------------------------------------------------------------ generators


def random_decomposition(
    d: int,
    m: int | None = None,
    seed: int | None = None,
    balanced: bool = True,
    residual_tol: float = 1e-10,
    max_tries: int = 200,
) -> ContactDecomposition:
    """Random unit vectors with recovered weights, retried until the
    residual is at most residual_tol.

    balanced=False drops the barycenter condition from the fit, producing
    decompositions that resolve the identity but have a nonzero barycenter.
    """
    if m is None:
        m = min(d * (d + 3), 64)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    for _ in range(max_tries):
        pts = rng.normal(size=(m, d))
        norms = np.linalg.norm(pts, axis=1)
        if norms.min() <= 1e-12:
            continue
        pts /= norms[:, None]
        try:
            weights = john_weights(pts, residual_tol=residual_tol, balanced=balanced)
        except NoDecomposition:
            continue
        keep = weights > 0.0
        if keep.sum() < d + 1:
            continue
        if not balanced:
            report = verify_decomposition(pts[keep], weights[keep])
            if report.barycenter_norm < 1e-3:
                continue  # want a genuinely unbalanced sample
        return ContactDecomposition(
            points=pts[keep],
            weights=weights[keep],
            source_indices=None,
            balanced=balanced,
        )
    raise GenerationFailed(f"no decomposition with residual {residual_tol:.1e} in {max_tries} tries")
