"""Largest inscribed ellipsoid, position normalization, contact weights.

The solver maximizes log det E over symmetric E and center x subject to
|E a_i| + a_i.x <= b_i by a primal-dual interior-point method on the
optimality conditions, after Zhang and Gao, "On numerical solution of the
maximum volume ellipsoid problem" (SIAM J. Optim. 14, 2003). Row weights
y > 0 define the ellipsoid, E = (A^T Y A)^(-1/2) and h_i = |E a_i|, and
slacks z > 0 close the constraints; Newton steps drive A^T (y h) = 0,
b - A x - h - z = 0 and y z toward a shrinking centering target. Each step
solves one bordered system of order m + d for the weights' and the
center's moves (`_newton_step`). The target is set adaptively by
Mehrotra's rule (SIAM J. Optim. 2, 1992) from an affine step taken out of
the same solve, and while the gap is well above its target his
second-order corrector costs one more solve with the same matrix and saves
about a quarter of the steps. The step goes ever closer to the boundary of
y, z > 0 as the gap closes. Each step is taken in the frame where the
current ellipsoid is the unit ball, so the linear algebra stays well
conditioned however elongated the body is; the frame moves by the
symmetric root of the new A^T Y A, and the rows are read off the body
through it afresh each step, so the exit test measures the body itself.
The iteration stops when the log-volume duality gap sum y_i h_i z_i
reaches _SOLVER_GAP and the residuals vanish; the ellipsoid is then shrunk
about its center until every half-space holds as evaluated in floats.

The start is a point with a ball of radius at least the flatness floor
about it, and normals of full rank (`geometry.interior_point`): the
least-squares solution of A x + t 1 = b when its smallest slack clears the
floor, and otherwise the Chebyshev LP, which rules out an empty or flat
body. The first ellipsoid is that point's Dikin ellipsoid, row weights
1 / slack^2, shrunk into the body. Boundedness is not tested up front: an
exit iterate is itself Stiemke's certificate of it (y > 0 with sum y_i a_i
vanishing and sum y_i a_i a_i^T = I), so the boundedness LP runs only when
the iteration fails or is still open after _BOUNDEDNESS_PROBE steps, to tell
an unbounded body from a numerical failure. A cone whose inscribed radius
is unbounded passes the least-squares start and is typed there, and a
slack at the start point that is not positive, which only offsets that have
lost their digits give (about 1e16 inradii out), as Degenerate.

Normalizing an instance maps the solved ellipsoid to the unit ball; the
half-spaces then have unit normals and offsets >= 1. The solver's final
weights are already John's decomposition over those normals: in the last
unit-ball frame sum y_i a_i a_i^T = I holds by construction and sum y_i a_i
vanishes by the exit test, and the normalized normals are the a_i up to a
rotation. The contacts are the rows the solver leaves tangent, weighted by
y_i; it runs past its target gap until the other rows carry no weight.
The recorded contact tolerance is `certificate.contact_allowance`, which
grows with the rounding of a far body's offsets up to CONTACT_CAP; beyond
it the body is Degenerate. The checker replays the rest in the
normalized frame, where it does not depend on the body's size. Nonnegative
least squares (`john_weights`) fits weights to arbitrary unit vectors for
the random decompositions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import Ellipsoid, HPolytope
from .certificate import CONTACT_CAP, contact_allowance, normalized_rows, verify_decomposition
from .config import CONTACT, DECOMPOSITION
from .errors import Degenerate, GenerationFailed, NoConvergence, NoDecomposition
from .geometry import ensure_bounded, interior_point
from .nnls import nnls

_START_REACH = 0.9  # the start ellipsoid goes this share of the way to the nearest facet
_CENTERING = 0.1  # each step aims y z at most at this share of its current mean
_CENTERING_MIN = 1e-4  # ... and at least at this share, whatever the affine step predicts
_CENTERING_FLOOR = 1e-3  # ... but never below this share of the target gap / m
_STEP_FRACTION = 0.99  # share of the step to the boundary of y, z > 0 taken
_RESIDUAL_STOP = 1e-12  # stationarity and slack residuals at exit, unit-ball frame
_SETTLE_SHARE = 0.5  # share of CONTACT and DECOMPOSITION a settled split uses
_GAP_SHRINK = 0.01  # an unsettled split goes on toward this share of the gap reached
_WEIGHT_FLOOR = 1e-10  # fitted contact weights at or below this are zeroed
_SOLVER_GAP = 1e-9  # log-volume duality gap the solve stops at
_NEWTON_CAP = 500  # primal-dual step budget
_CORRECTOR_SPAN = 10.0  # Mehrotra's corrector applies while mu > this times the target gap / m
# a solve still open after this many steps runs the boundedness LP once:
# bounded bodies converge in at most about 20, while a cone that passes the
# start's checks runs hundreds of steps before it fails
_BOUNDEDNESS_PROBE = 50
_EPS = float(np.finfo(float).eps)


def _newton_step(a, b, y, z, mu, gap, work):
    """One damped primal-dual Newton step in the frame where the current
    ellipsoid is the unit ball (so h = 1, A^T Y A = I and Q = A A^T);
    returns (dx, y, z) after it. b holds the offsets, mu the mean y z, gap
    the solve's current target gap and work the arrays of `_workspace`.

    Solves for v = dy / y, so the weights of inactive rows, which fall
    toward zero, stay well scaled, and for dx, together, from one bordered
    system of order m + d:

        [[G / 2, -Y A], [R^T, -I]] [v; dx] = [g / 2; h]

    with G = Y (Q o Q) Y + diag(2 y z), R = Y (1 + Z) A and
    h = A^T g / 2 - r1, r1 = A^T y. Its first block row is the slack and
    complementarity equations with dz eliminated, halved; its second is the
    stationarity equation. Each row's dz comes from the equation that is
    well conditioned there: complementarity where y >= z, the linearized
    slack equation elsewhere.

    The centering target c enters only the right-hand side, through
    y z + z dy + y dz = c, which puts 2 c in g, so the direction is an
    affine part (c = 0) plus c times a second part, two columns of one
    solve. Mehrotra's rule (SIAM J. Optim. 2, 1992) sets
    sigma = (mu_aff / mu)^3 from the mean y z after the longest affine step
    that keeps y, z >= 0, clipped to [_CENTERING_MIN, _CENTERING], and
    c = max(sigma mu, _CENTERING_FLOOR gap / m). The lower clip matters
    where more rows are tangent than G has rank: G is then singular but for
    diag(2 y z), which one step to a tiny target would push below rounding.

    While mu > _CORRECTOR_SPAN gap / m, Mehrotra's second-order corrector
    adds corr = -dy_aff dz_aff = y z v_aff (1 + v_aff) to the
    complementarity target, so 2 corr to g: one more solve with the same
    matrix takes c + corr at once, in place of the centering column. Near
    the target gap it is left out: there it moves the weights of light
    contacts, which the exit test does not measure (a contact of weight
    5e-6 came out 3% off with it). The step goes to
    eta = max(_STEP_FRACTION, 1 - mu) of the boundary of y, z > 0.
    """
    m, d = a.shape
    top, diag, p_blk, r_blk, mat, rhs, h_rhs = work
    yz = y * z
    qq = a @ a.T
    qq *= 0.5 * qq  # half of Q o Q
    np.multiply(qq, y[:, None] * y, top)
    diag += yz
    ya = y[:, None] * a
    np.negative(ya, p_blk)
    np.multiply(a.T, y + yz, r_blk)
    yb = y * b
    np.subtract(y, yb, rhs[:m, 0])  # g / 2 = -y (b - 1) at c = 0; column 1 holds 1 per unit of c
    np.negative(yb, h_rhs[:, 0])
    np.matmul(a.T, h_rhs, rhs[m:])  # h = A^T g / 2 - r1 = -A^T (y b) at c = 0, A^T 1 per unit of c
    sol = np.linalg.solve(mat, rhs)
    v_aff = sol[:m, 0]
    # with c = 0, y z + z dy + y dz = 0 gives dz = -z (1 + v) in every row;
    # the longest step keeping both >= 0 is 1 / max(1, -v, 1 + v)
    alpha = 1.0 / (max(0.5, np.abs(v_aff + 0.5).max()) + 0.5)
    corr = yz * v_aff * (1.0 + v_aff)
    # mean y z after that step: (1 - alpha) mu - alpha^2 mean(corr)
    mu_aff = (1.0 - alpha) * mu - alpha * alpha * corr.sum() / m
    sigma = min(_CENTERING, max((mu_aff / mu) ** 3, _CENTERING_MIN))
    c = max(sigma * mu, _CENTERING_FLOOR * gap / m)
    if mu > _CORRECTOR_SPAN * gap / m:
        # one more solve, for the centering and corrector parts together
        shift = np.add(corr, c, rhs[:m, 0])  # c + corr, written where the solve reads it
        np.matmul(a.T, shift, rhs[m:, 0])
        step = sol[:, 0] + np.linalg.solve(mat, rhs[:, 0])
    else:
        shift = c
        step = sol[:, 0] + c * sol[:, 1]
    v, dx = step[:m], step[m:]
    dy = y * v
    # complementarity: y z + z dy + y dz = c + corr
    dz = np.where(y >= z, shift / y - z * (1.0 + v), b - 1.0 - z - a @ dx + qq @ dy)
    eta = max(_STEP_FRACTION, 1.0 - mu)
    alpha = eta / max(eta, -np.minimum(v, dz / z).min())
    return alpha * dx, y + alpha * dy, z + alpha * dz


def _workspace(m, d):
    """The bordered matrix of `_newton_step` with its -I block set; views
    of its G / 2 block, that block's diagonal and its -Y A and R^T blocks;
    the right-hand sides with the centering column's g / 2 set; and a
    scratch whose column 1 of ones gives that column's h."""
    mat = np.zeros((m + d, m + d))
    flat = mat.reshape(-1)
    flat[m * (m + d + 1) :: m + d + 1] = -1.0
    rhs = np.empty((m + d, 2))
    rhs[:m, 1] = 1.0
    h_rhs = np.ones((m, 2))
    diag = flat[: m * (m + d + 1) : m + d + 1]
    return mat[:m, :m], diag, mat[:m, m:], mat[m:, :m], mat, rhs, h_rhs


def _unit_frame(mat):
    """The symmetric T = mat^(-1/2) of a positive definite mat, so that
    T^T mat T = I, from one eigendecomposition. Raises NoConvergence when
    mat is not positive definite in floats (or not finite)."""
    lam, vec = np.linalg.eigh(mat)
    if not lam[0] > 0.0:
        raise NoConvergence("the primal-dual weights lost their rank")
    return (vec / np.sqrt(lam)) @ vec.T


def inscribed_ellipsoid(poly: HPolytope) -> Ellipsoid:
    """Maximum-volume ellipsoid inscribed in a bounded full-dimensional polytope.

    The log volume of the result is within _SOLVER_GAP of the optimum, by
    the duality gap sum y_i h_i z_i. _NEWTON_CAP bounds the number of
    primal-dual iterations.

    Raises, in this order, all before any Newton step: when the
    least-squares start point misses the flatness floor, Empty or Unbounded
    from the Chebyshev LP and Degenerate when the inscribed radius is below
    the floor; then Unbounded when the normals do not span R^d; then
    Degenerate when a slack at the start point is not positive. Then
    Unbounded from the Stiemke LP of `ensure_bounded` when the iteration is
    still open after _BOUNDEDNESS_PROBE steps or fails (its budget runs out,
    an iterate leaves the finite range or a system is singular), and
    otherwise NoConvergence on that failure. Last, Degenerate when the
    solved center is not inside every half-space, which only offsets that
    have lost their digits give. The result is not re-measured: the final
    shrink makes every half-space hold as evaluated in floats, which the
    checker's `instance_map` item replays in the normalized frame.
    """
    return Ellipsoid(*_john_solve(poly)[0])


def _john_solve(poly: HPolytope) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray, np.ndarray]:
    """`inscribed_ellipsoid` as its (center, symmetric shape), unchecked,
    also returning the row weights y of the final unit-ball frame (a John
    decomposition, see the module) and the mask of the tangent rows, whose
    slack z is at most _SETTLE_SHARE of CONTACT.
    y z ends near each row's share of the gap, so a contact of weight 5e-6
    can still have a slack of 1e-5 there; the iteration goes on at smaller
    gaps until the other rows carry at most _SETTLE_SHARE of DECOMPOSITION
    in total.

    Typed errors come in the order `inscribed_ellipsoid` gives. The
    boundedness LP runs only on a long or failing solve: a converged
    iterate has y > 0, sum y_i a_i a_i^T = I and |sum y_i a_i| <=
    _RESIDUAL_STOP in its last frame, which is Stiemke's certificate that
    the body is bounded.
    """
    gap = _SOLVER_GAP
    center, radius = interior_point(poly)

    # Iterates live in the start's frame (shifted to the interior point,
    # scaled by its radius, so b0 >= 1); y0 and z0 are scaled to its unit
    # normals.
    a0 = poly.normals
    b0 = (poly.offsets - a0 @ center) / radius
    if not (b0 > 0.0).all():
        # the Chebyshev LP's center, read off offsets with fewer digits than the body's width
        raise Degenerate(
            f"a slack at the start point is {radius * b0.min():.2e}, not positive: offsets of magnitude "
            f"{np.abs(poly.offsets).max():.1e} have lost the digits of a body of inradius {radius:.1e}"
        )
    m, d = a0.shape
    work = _workspace(m, d)
    try:
        # the current ellipsoid is {x + frame u : |u| <= 1}; start from the
        # Dikin ellipsoid of the interior point, weights 1 / b0^2 (uniform
        # where every row is tangent to the start ball), scaled by _START_REACH
        w0 = b0**-2
        frame = _unit_frame((a0.T * w0) @ a0)
        raw = a0 @ frame
        reach = np.sqrt(np.einsum("ij,ij->i", raw, raw))
        scale = _START_REACH * float((b0 / reach).min())
        y0 = w0 / scale**2
        z0 = b0 - scale * reach
        frame *= scale
        x = np.zeros(d)
        for step in range(_NEWTON_CAP + 1):
            # move to the frame where the current ellipsoid is the unit ball
            raw = a0 @ frame
            nn = np.einsum("ij,ij->i", raw, raw)  # overflows to inf without a warning
            if not nn.max() < math.inf:
                # an unbounded body's ellipsoid outgrows the floats, while
                # the weights y0 of its far rows underflow to zero
                raise NoConvergence("the primal-dual ellipsoid left the finite range")
            n = np.sqrt(nn)
            a, b, y, z = raw / n[:, None], (b0 - a0 @ x) / n, y0 * nn, z0 / n
            total = float(y @ z)
            if total <= gap and max(np.abs(a.T @ y).max(), np.abs(b - 1.0 - z).max()) <= _RESIDUAL_STOP:
                tangent = z <= _SETTLE_SHARE * CONTACT
                if y[~tangent].sum() <= _SETTLE_SHARE * DECOMPOSITION:
                    break
                # a row is neither tangent nor weightless yet: go on at a smaller gap
                gap = _GAP_SHRINK * total
            if step == _NEWTON_CAP:
                raise NoConvergence(f"primal-dual budget {_NEWTON_CAP} exhausted")
            if step == _BOUNDEDNESS_PROBE:
                ensure_bounded(poly)
            dx, y, z = _newton_step(a, b, y, z, total / m, gap, work)
            y0, z0 = y / nn, z * n
            x += frame @ dx
            frame = frame @ _unit_frame((a.T * y) @ a)
    except np.linalg.LinAlgError as exc:
        ensure_bounded(poly)  # an unbounded body fails here as Unbounded
        raise NoConvergence(f"primal-dual system broke down: {exc}") from exc
    except NoConvergence:
        ensure_bounded(poly)
        raise

    # the symmetric shape with the same image as the frame, from its SVD so
    # that its condition number is not squared as in sqrtm(frame @ frame.T)
    u, s, _ = np.linalg.svd(frame)
    mat = radius * (u * s) @ u.T
    c = center + radius * x
    # shrink about the center until every half-space holds as evaluated in
    # floats: clear of the rounding of |mat a_i|, at most about
    # (d + 2) eps |mat|_F for a unit a_i (the dot-product bound); without
    # that margin about one body in a hundred is left over by an ulp
    reach = np.linalg.norm(poly.normals @ mat, axis=1) + 4.0 * (d + 2) * _EPS * radius * math.hypot(*s)
    shrink = float(((poly.offsets - poly.normals @ c) / reach).min())
    if not shrink > 0.0:
        raise Degenerate(
            f"the solved center is not inside every half-space, read off offsets of magnitude "
            f"{np.abs(poly.offsets).max():.1e}"
        )
    mat *= min(1.0, shrink)
    return (c, 0.5 * (mat + mat.T)), y, tangent


# ------------------------------------------------------------- decompositions


@dataclass(frozen=True, eq=False)
class ContactDecomposition:
    """Unit vectors w_i with weights c_i resolving the identity.

    sum c_i w_i w_i^T = I (so sum c_i = d), and for a John decomposition
    also sum c_i w_i = 0. source_indices point into the half-space list of
    the normalized instance the contacts came from, when there is one. A
    plain record: the checker's `decomposition` item measures the residuals.
    """

    points: np.ndarray
    weights: np.ndarray
    source_indices: np.ndarray | None = None

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        wts = np.asarray(self.weights, dtype=float).ravel()
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)
        if self.source_indices is not None:
            object.__setattr__(
                self, "source_indices", np.asarray(self.source_indices, dtype=int).ravel()
            )

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def size(self) -> int:
        return self.points.shape[0]


def john_weights(
    points: np.ndarray,
    residual_tol: float = DECOMPOSITION,
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
    poly: HPolytope, tol: float = CONTACT
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

    x_original = map_matrix @ x_normalized + map_offset, and norm_normals,
    norm_offsets are the original rows in the normalized frame. The contact
    decomposition lives in that frame; contact_tol records the tangency
    tolerance that admitted the contacts. A plain record: the checker's
    `instance_map` and `decomposition` items replay its inequalities.
    """

    original: HPolytope
    map_matrix: np.ndarray
    map_offset: np.ndarray
    norm_normals: np.ndarray
    norm_offsets: np.ndarray
    decomposition: ContactDecomposition
    contact_tol: float

    @property
    def dim(self) -> int:
        return self.original.dim


def normalize_position(poly: HPolytope) -> NormalizedInstance:
    """Solve for the inscribed ellipsoid, map it to the unit ball, and read
    the contact decomposition off the solver's final weights.

    The contacts are the rows the solver leaves tangent, weighted by y (by
    slack, not y >= z: a tangent row of zero weight has y and z shrinking
    together). The solver leaves them within half of CONTACT of tangency in
    its start's frame and drops at most half of DECOMPOSITION in weight.
    contact_tol is `contact_allowance`; beyond the solver's errors it raises
    only Degenerate, when that is inf. The checker's `decomposition` item
    replays all three.
    """
    (center, shape), y, tangent = _john_solve(poly)
    new_a, new_b = normalized_rows(poly.normals, poly.offsets, shape, center)
    idx = np.flatnonzero(tangent)
    contact_tol = contact_allowance(poly.normals, poly.offsets, center, idx)
    if math.isinf(contact_tol):
        raise Degenerate(
            f"offsets of magnitude {np.abs(poly.offsets).max():.1e} have lost the digits of the "
            f"body: their rounding passes the contact cap {CONTACT_CAP:.0e}"
        )
    return NormalizedInstance(
        original=poly,
        map_matrix=shape,
        map_offset=center,
        norm_normals=new_a,
        norm_offsets=new_b,
        decomposition=ContactDecomposition(new_a[idx], y[idx], source_indices=idx),
        contact_tol=contact_tol,
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
        return ContactDecomposition(points=pts[keep], weights=weights[keep])
    raise GenerationFailed(f"no decomposition with residual {residual_tol:.1e} in {max_tries} tries")
