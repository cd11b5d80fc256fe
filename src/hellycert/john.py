"""Largest inscribed ellipsoid, position normalization, contact weights.

The solver maximizes log det E over symmetric E and center x subject to
|E a_i| + a_i.x <= b_i by a primal-dual interior-point method on the
optimality conditions, after Zhang and Gao, "On numerical solution of the
maximum volume ellipsoid problem" (SIAM J. Optim. 14, 2003). Row weights
y > 0 define the ellipsoid, E = (A^T Y A)^(-1/2) and h_i = |E a_i|, and
slacks z > 0 close the constraints; Newton steps drive A^T (y h) = 0,
b - A x - h - z = 0 and y z toward a shrinking centering target. The
target is set adaptively by Mehrotra's rule (SIAM J. Optim. 2, 1992) from
an affine step taken out of the same factorization, and the step goes ever
closer to the boundary of y, z > 0 as the gap closes. Each step is taken in
the frame where the current ellipsoid is the unit ball, so the linear
algebra stays well conditioned however elongated the body is. The
iteration stops when the log-volume duality gap sum y_i h_i z_i reaches the
configured target and the residuals vanish; the ellipsoid is then shrunk
about its center until every half-space holds exactly.

The start is a point with a ball of radius at least the flatness floor
about it, and normals of full rank (`geometry._interior_point`): the
least-squares solution of A x + t 1 = b when its smallest slack clears the
floor, and otherwise the Chebyshev LP, which rules out an empty or flat
body. The first ellipsoid is that point's Dikin ellipsoid, row weights
1 / slack^2, shrunk into the body. Boundedness is not tested up front: an
exit iterate is itself Stiemke's certificate of it (y > 0 with sum y_i a_i
vanishing and sum y_i a_i a_i^T = I), so the boundedness LP runs only when
the iteration fails or is still open after _BOUNDEDNESS_PROBE steps, to tell
an unbounded body from a numerical failure. A cone whose inscribed radius
is unbounded passes the least-squares start and is typed there.

Normalizing an instance maps the solved ellipsoid to the unit ball; the
half-spaces then have unit normals and offsets >= 1. The solver's final
weights are already John's decomposition over those normals: in the last
unit-ball frame sum y_i a_i a_i^T = I holds by construction and sum y_i a_i
vanishes by the exit test, and the normalized normals are the a_i up to a
rotation. The contacts are the rows the solver leaves tangent, weighted by
y_i; it runs past its target gap until the other rows carry no weight.
Nonnegative least squares (`john_weights`) fits weights to arbitrary unit
vectors for the random decompositions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import Degenerate, GenerationFailed, NoConvergence, NoDecomposition
from .geometry import Ellipsoid, HPolytope, _interior_point, ensure_bounded
from .nnls import nnls

_START_REACH = 0.9  # the start ellipsoid goes this share of the way to the nearest facet
_CENTERING = 0.1  # each step aims y z at most at this share of its current mean
_CENTERING_MIN = 1e-4  # ... and at least at this share, whatever the affine step predicts
_CENTERING_FLOOR = 1e-3  # ... but never below this share of the target gap / m
_STEP_FRACTION = 0.99  # share of the step to the boundary of y, z > 0 taken
_RESIDUAL_STOP = 1e-12  # stationarity and slack residuals at exit, unit-ball frame
_SETTLE_SHARE = 0.5  # share of the contact / decomposition tolerances a settled split uses
_GAP_SHRINK = 0.01  # an unsettled split goes on toward this share of the gap reached
_WEIGHT_FLOOR = 1e-10  # fitted contact weights at or below this are zeroed
# a solve still open after this many steps runs the boundedness LP once:
# bounded bodies converge in at most about 20, while a cone that passes the
# start's checks runs hundreds of steps before it fails
_BOUNDEDNESS_PROBE = 50


def _newton_step(a, y, z, r1, r2, floor):
    """One damped primal-dual Newton step in the frame where the current
    ellipsoid is the unit ball (so h = 1, A^T Y A = I and Q = A A^T);
    returns (dx, y, z) after it.

    Solves for v = dy / y, so the weights of inactive rows, which fall
    toward zero, stay well scaled: G v = g0 + P dx with
    G = Y (Q o Q) Y + diag(2 y z), then the d x d stationarity block for
    dx. Each row's dz comes from the equation that is well conditioned
    there: complementarity where y >= z, the linearized slack equation
    elsewhere.

    The centering target c enters only the right-hand side, through
    y z + z dy + y dz = c, so the direction is an affine part (c = 0) plus
    c times a second part, both from one factorization of G. Mehrotra's
    rule (SIAM J. Optim. 2, 1992) sets sigma = (mu_aff / mu)^3 from the
    mean y z after the longest affine step that keeps y, z >= 0, clipped to
    [_CENTERING_MIN, _CENTERING], and c = max(sigma mu, floor). The lower
    clip matters where more rows are tangent than G has rank: G is then
    singular but for diag(2 y z), which one step to a tiny target would
    push below rounding. The step goes to eta = max(_STEP_FRACTION, 1 - mu)
    of the boundary of y, z > 0.
    """
    m, d = a.shape
    yz = y * z
    mu = yz.sum() / m
    qq = a @ a.T
    qq *= qq
    g_mat = qq * np.outer(y, y)
    g_mat.flat[:: m + 1] += 2.0 * yz
    rhs = np.empty((m, d + 2))  # [g0 at c = 0, g0 per unit of c, P]
    rhs[:, 0] = -2.0 * (yz + y * r2)
    rhs[:, 1] = 2.0
    rhs[:, 2:] = (2.0 * y)[:, None] * a
    sol = np.linalg.solve(g_mat, rhs)
    v0, v_dx = sol[:, :2], sol[:, 2:]
    rows = (y * (1.0 + z))[:, None] * a
    lhs = rows.T @ v_dx
    lhs.flat[:: d + 1] -= 1.0
    dx_rhs = a.T @ (0.5 * rhs[:, :2]) - rows.T @ v0
    dx_rhs[:, 0] -= r1
    dx = np.linalg.solve(lhs, dx_rhs)  # columns: affine part, part per unit of c
    v = v0 + v_dx @ dx
    v_aff = v[:, 0]
    # with c = 0, y z + z dy + y dz = 0 gives dz = -z (1 + v) in every row
    alpha = 1.0 / max(1.0, np.maximum(-v_aff, 1.0 + v_aff).max())
    t = alpha * v_aff
    mu_aff = yz @ ((1.0 + t) * (1.0 - alpha - t)) / m
    sigma = min(_CENTERING, max((mu_aff / mu) ** 3, _CENTERING_MIN))
    c = max(sigma * mu, floor)
    dx = dx[:, 0] + c * dx[:, 1]
    v = v_aff + c * v[:, 1]
    dz = np.where(y >= z, (c - yz) / y - z * v, r2 - a @ dx + 0.5 * (qq @ (y * v)))
    eta = max(_STEP_FRACTION, 1.0 - mu)
    alpha = eta / max(eta, -np.minimum(v, dz / z).min())
    return alpha * dx, y * (1.0 + alpha * v), z + alpha * dz


def inscribed_ellipsoid(poly: HPolytope, tolerances: Tolerances = DEFAULT) -> Ellipsoid:
    """Maximum-volume ellipsoid inscribed in a bounded full-dimensional polytope.

    The log volume of the result is within `tolerances.solver_gap` of the
    optimum, by the duality gap sum y_i h_i z_i. `tolerances.newton_cap`
    bounds the number of primal-dual iterations.

    Raises, in this order, all before any Newton step: when the
    least-squares start point misses the flatness floor, Empty or Unbounded
    from the Chebyshev LP and Degenerate when the inscribed radius is below
    the floor; then Unbounded when the normals do not span R^d. Then
    Unbounded from the Stiemke LP of `ensure_bounded` when the iteration is
    still open after _BOUNDEDNESS_PROBE steps or fails (its budget runs out,
    an iterate leaves the finite range or a system is singular), and
    otherwise NoConvergence on that failure; and NoConvergence when the
    result fails the feasibility re-check.
    """
    return _john_solve(poly, tolerances)[0]


def _john_solve(
    poly: HPolytope, tolerances: Tolerances
) -> tuple[Ellipsoid, np.ndarray, np.ndarray]:
    """`inscribed_ellipsoid`, also returning the row weights y of the final
    unit-ball frame (a John decomposition, see the module) and the mask of
    the tangent rows, whose slack z is at most _SETTLE_SHARE of the contact
    tolerance. y z ends near each row's share of the gap, so a contact of
    weight 5e-6 can still have a slack of 1e-5 there; the iteration goes on
    at smaller gaps until the other rows carry at most _SETTLE_SHARE of the
    caller's decomposition tolerance in total.

    Typed errors come in the order `inscribed_ellipsoid` gives. The
    boundedness LP runs only on a long or failing solve: a converged
    iterate has y > 0, sum y_i a_i a_i^T = I and |sum y_i a_i| <=
    _RESIDUAL_STOP in its last frame, which is Stiemke's certificate that
    the body is bounded.
    """
    gap = tolerances.solver_gap
    cap = tolerances.newton_cap
    dropped_cap = _SETTLE_SHARE * tolerances.decomposition
    center, radius = _interior_point(poly)

    # Iterates live in the start's frame (shifted to the interior point,
    # scaled by its radius, so b0 >= 1); y0 and z0 are scaled to its unit
    # normals.
    a0 = poly.normals
    b0 = (poly.offsets - a0 @ center) / radius
    m, d = a0.shape
    x = np.zeros(d)
    floor = _CENTERING_FLOOR * gap / m
    try:
        # the current ellipsoid is {x + frame u : |u| <= 1}; start from the
        # Dikin ellipsoid of the interior point, weights 1 / b0^2 (uniform
        # where every row is tangent to the start ball), scaled by _START_REACH
        w0 = b0**-2
        frame = np.linalg.inv(np.linalg.cholesky((a0.T * w0) @ a0)).T
        reach = np.linalg.norm(a0 @ frame, axis=1)
        scale = _START_REACH * float((b0 / reach).min())
        frame *= scale
        y0 = w0 / scale**2
        z0 = b0 - scale * reach
        for step in range(cap + 1):
            # move to the frame where the current ellipsoid is the unit ball
            raw = a0 @ frame
            n = np.sqrt(np.einsum("ij,ij->i", raw, raw))
            if not np.isfinite(n).all():
                # an unbounded body's ellipsoid outgrows the floats, while
                # the weights y0 of its far rows underflow to zero
                raise NoConvergence("the primal-dual ellipsoid left the finite range")
            a, b, y, z = raw / n[:, None], (b0 - a0 @ x) / n, y0 * n * n, z0 / n
            if not (np.isfinite(y).all() and np.isfinite(z).all()):
                raise NoConvergence("the primal-dual iterate left the finite range")
            r1 = a.T @ y
            r2 = b - 1.0 - z
            if y @ z <= gap and max(np.abs(r1).max(), np.abs(r2).max()) <= _RESIDUAL_STOP:
                tangent = z <= _SETTLE_SHARE * tolerances.contact
                if y[~tangent].sum() <= dropped_cap:
                    break
                # a row is neither tangent nor weightless yet: go on at a smaller gap
                gap = _GAP_SHRINK * float(y @ z)
                floor = _CENTERING_FLOOR * gap / m
            if step == cap:
                raise NoConvergence(f"primal-dual budget {cap} exhausted")
            if step == _BOUNDEDNESS_PROBE:
                ensure_bounded(poly)
            dx, y, z = _newton_step(a, y, z, r1, r2, floor)
            y0, z0 = y / (n * n), z * n
            x = x + frame @ dx
            frame = frame @ np.linalg.inv(np.linalg.cholesky((a.T * y) @ a)).T
    except np.linalg.LinAlgError as exc:
        ensure_bounded(poly)  # an unbounded body fails here as Unbounded
        raise NoConvergence(f"primal-dual system broke down: {exc}") from exc
    except NoConvergence:
        ensure_bounded(poly)
        raise

    # the symmetric shape with the same image as frame, from its SVD so that
    # its condition number is not squared as in sqrtm(frame @ frame.T)
    u, s, _ = np.linalg.svd(frame)
    mat = radius * (u * s) @ u.T
    c = center + radius * x
    # shrink about the center until every half-space holds exactly
    reach = np.linalg.norm(poly.normals @ mat, axis=1)
    mat *= min(1.0, max(float(((poly.offsets - poly.normals @ c) / reach).min()), 0.0))
    worst = float((np.linalg.norm(poly.normals @ mat, axis=1) + poly.normals @ c - poly.offsets).max())
    if worst > tolerances.feasibility:
        raise NoConvergence(f"returned ellipsoid violates a half-space by {worst:.3e}")
    return Ellipsoid(c, mat), y, tangent


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
    balanced: bool = True,
) -> np.ndarray:
    """Nonnegative weights making unit vectors resolve the identity.

    Returns a weight per input point (zeros where the point is unused;
    weights at or below _WEIGHT_FLOOR are zeroed). Raises NoDecomposition
    when the best nonnegative fit leaves a residual above residual_tol.
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
    weights[weights <= _WEIGHT_FLOOR] = 0.0

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


def normalized_rows(normals, offsets, map_matrix, map_offset) -> tuple[np.ndarray, np.ndarray]:
    """The half-spaces a.x <= b seen from the frame x = map_matrix @ y +
    map_offset, with every row scaled to a unit normal: (normals, offsets).
    A row that the map sends to zero comes out non-finite."""
    raw = normals @ map_matrix
    scale = np.linalg.norm(raw, axis=1)
    return raw / scale[:, None], (offsets - normals @ map_offset) / scale


@dataclass(frozen=True, eq=False)
class NormalizedInstance:
    """An instance moved so its largest inscribed ellipsoid is the unit ball.

    x_original = map_matrix @ x_normalized + map_offset, and norm_normals,
    norm_offsets are the original rows in the normalized frame. The contact
    decomposition lives in that frame; contact_tol records the tangency
    tolerance that admitted the contacts.
    """

    original: HPolytope
    map_matrix: np.ndarray
    map_offset: np.ndarray
    norm_normals: np.ndarray
    norm_offsets: np.ndarray
    decomposition: ContactDecomposition
    contact_tol: float

    def __post_init__(self):
        if abs(np.linalg.det(self.map_matrix)) <= 1e-12:
            raise Degenerate("normalization map is singular")
        offsets = self.norm_offsets
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
    """Solve for the inscribed ellipsoid, map it to the unit ball, and read
    the contact decomposition off the solver's final weights.

    The contacts are the rows the solver leaves tangent, weighted by y (by
    slack, not y >= z: a tangent row of zero weight has y and z shrinking
    together). contact_tol is `tolerances.contact`; NoDecomposition is
    raised if an admitted offset exceeds 1 + contact_tol (by
    `NormalizedInstance`) or the dropped weight leaves a residual above
    `tolerances.decomposition`. That is the one residual check: the
    decomposition is built unvalidated, since its points are unit by
    construction and its weights positive.
    """
    ell, y, tangent = _john_solve(poly, tolerances)
    new_a, new_b = normalized_rows(poly.normals, poly.offsets, ell.shape, ell.center)
    idx = np.flatnonzero(tangent)
    report = verify_decomposition(new_a[idx], y[idx])
    worst = max(report.identity_residual, report.barycenter_norm)
    if worst > tolerances.decomposition:
        raise NoDecomposition(
            f"dropped weight leaves a residual {worst:.3e} above {tolerances.decomposition:.1e}"
        )
    return NormalizedInstance(
        original=poly,
        map_matrix=ell.shape,
        map_offset=ell.center,
        norm_normals=new_a,
        norm_offsets=new_b,
        decomposition=ContactDecomposition(new_a[idx], y[idx], source_indices=idx, validate=False),
        contact_tol=tolerances.contact,
    )


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
