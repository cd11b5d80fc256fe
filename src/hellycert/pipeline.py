"""End-to-end subfamily selection with a replayable certificate.

The run moves the instance so its largest inscribed ellipsoid is the unit
ball, picks d well-spread contact points, builds the base simplex over the
origin and its largest inscribed ellipsoid, shoots a ray opposite that
ellipsoid's center to the boundary of the contact hull, rewrites the hit
point over at most d hull points, and contracts the ellipsoid to the origin.
The contact points touched along the way name at most 2d input half-spaces
whose intersection is provably small relative to the input's.

The Certificate stores each fact of the run once and derives the rest by
the producer's own formulas, so an independent checker can replay each
inequality from the serialized data alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bounds import explicit_bound, simplex_volume_floor
from .config import DEFAULT, DIM_CAP, VERSION, Tolerances
from .dr import DRBasis, dr_select, sampled_basis
from .errors import (
    DegenerateSimplex,
    HellyError,
    MalformedCertificate,
    Misaligned,
    NumericalBreakdown,
    PipelineError,
    ReductionFailed,
)
from .geometry import Ellipsoid, HPolytope, Simplex, max_ellipsoid_in_simplex
from .john import NormalizedInstance, normalize_position, normalized_rows
from .lp import LPStatus, lp_solve
from .pivovarov import _index_probabilities

_SAMPLE_CAP = 200
_DROP_TOL = 1e-12  # combination weights below this count as zero

_ARRAY_FIELDS = {
    "normals": 2,
    "offsets": 1,
    "map_matrix": 2,
    "map_offset": 1,
    "contact_weights": 1,
    "contact_indices": 1,
    "basis": 2,
    "selected_rows": 1,
    "w": 1,
    "cara_rows": 1,
    "cara_coeffs": 1,
}
_INT_FIELDS = {"contact_indices", "selected_rows", "cara_rows"}


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def subfamily_rows(selected_rows, cara_rows) -> np.ndarray:
    """The contact rows of X: the selected rows, then the hull rows, each
    once, in the order first seen."""
    rows = dict.fromkeys(np.concatenate([selected_rows, cara_rows]).tolist())
    return np.array(list(rows), dtype=int)


def contraction_ratio(u, w, tolerances: Tolerances = DEFAULT) -> float:
    """|w| / (|u| + |w|), which carries the center u of E1 to the origin when
    w lies opposite u; 1 when |u| is at most tolerances.degenerate_ray."""
    nu = float(np.linalg.norm(u))
    if nu <= tolerances.degenerate_ray:
        return 1.0
    nw = float(np.linalg.norm(w))
    return nw / (nu + nw)


@dataclass(frozen=True, eq=False)
class Certificate:
    """Full transcript of one selection run: each fact stored once.

    Index conventions: contact_indices maps contact rows to rows of the
    original family; selected_rows and cara_rows index contact rows. All
    geometry except (normals, offsets) lives in the normalized frame, and
    x_original = map_matrix @ x_normalized + map_offset converts back.

    The properties below derive everything else from these fields, by the
    same formulas the producer uses: the normalized rows, the contact
    points, the subfamily X and its rows G, the simplex ellipsoid E1 with
    center u, the contraction ratio lam and E2 = lam E1. They are computed on
    first use, so a certificate whose base simplex is flat still constructs;
    reading E1 from it raises a HellyError (DegenerateSimplex).
    """

    dim: int
    selector: str
    normals: np.ndarray
    offsets: np.ndarray
    map_matrix: np.ndarray
    map_offset: np.ndarray
    contact_tol: float
    contact_weights: np.ndarray
    contact_indices: np.ndarray
    basis: np.ndarray
    selected_rows: np.ndarray
    window_slack: float
    w: np.ndarray
    cara_rows: np.ndarray
    cara_coeffs: np.ndarray
    ratio: float
    bound: float
    tolerances: Tolerances = DEFAULT
    library: str = "hellycert " + VERSION

    def __post_init__(self):
        for name, ndim in _ARRAY_FIELDS.items():
            dtype = int if name in _INT_FIELDS else float
            arr = np.asarray(getattr(self, name), dtype=dtype)
            if arr.ndim != ndim:
                raise MalformedCertificate(f"{name} must have {ndim} axes")
            if not np.isfinite(arr).all():
                raise MalformedCertificate(f"{name} has non-finite entries")
            object.__setattr__(self, name, _frozen(arr))
        d = int(self.dim)
        if not 1 <= d <= DIM_CAP:
            raise MalformedCertificate(f"dimension {d} outside [1, {DIM_CAP}]")
        m = self.normals.shape[0]
        n = self.contact_indices.shape[0]
        shapes = {
            "normals": (m, d),
            "offsets": (m,),
            "map_matrix": (d, d),
            "map_offset": (d,),
            "contact_weights": (n,),
            "basis": (d, d),
            "selected_rows": (d,),
            "w": (d,),
            "cara_rows": (self.cara_coeffs.shape[0],),
        }
        for name, want in shapes.items():
            if getattr(self, name).shape != want:
                raise MalformedCertificate(f"{name} has shape {getattr(self, name).shape}, want {want}")
        if self.selector not in ("dr", "pivovarov"):
            raise MalformedCertificate(f"unknown selector {self.selector!r}")
        for idx, limit in (
            (self.contact_indices, m),
            (self.selected_rows, n),
            (self.cara_rows, n),
        ):
            if idx.size and (idx.min() < 0 or idx.max() >= limit):
                raise MalformedCertificate("an index field points outside its table")
        for name in ("contact_tol", "window_slack", "ratio", "bound"):
            if not math.isfinite(float(getattr(self, name))):
                raise MalformedCertificate(f"{name} is not finite")
        if not all(np.isfinite(arr).all() for arr in self._normalized):
            raise MalformedCertificate("the map sends a normal to zero or out of range")

    @cached_property
    def _normalized(self) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            rows = normalized_rows(self.normals, self.offsets, self.map_matrix, self.map_offset)
        return tuple(_frozen(arr) for arr in rows)

    @property
    def norm_normals(self) -> np.ndarray:
        return self._normalized[0]

    @property
    def norm_offsets(self) -> np.ndarray:
        return self._normalized[1]

    @cached_property
    def contact_points(self) -> np.ndarray:
        return _frozen(self.norm_normals[self.contact_indices])

    @cached_property
    def x_rows(self) -> np.ndarray:
        return _frozen(subfamily_rows(self.selected_rows, self.cara_rows))

    @property
    def x_points(self) -> np.ndarray:
        return self.contact_points[self.x_rows]

    @property
    def g_indices(self) -> np.ndarray:
        return self.contact_indices[self.x_rows]

    @property
    def selected_points(self) -> np.ndarray:
        return self.contact_points[self.selected_rows]

    @property
    def s1_vertices(self) -> np.ndarray:
        return np.vstack([np.zeros(self.dim), self.selected_points])

    @property
    def s2_vertices(self) -> np.ndarray:
        return np.vstack([self.w, self.selected_points])

    @cached_property
    def s1(self) -> Simplex:
        return Simplex(self.s1_vertices)

    @cached_property
    def e1(self) -> Ellipsoid:
        return max_ellipsoid_in_simplex(self.s1)

    @property
    def u(self) -> np.ndarray:
        return self.e1.center

    @property
    def e1_shape(self) -> np.ndarray:
        return self.e1.shape

    @cached_property
    def lam(self) -> float:
        return contraction_ratio(self.u, self.w, self.tolerances)

    @cached_property
    def e2_shape(self) -> np.ndarray:
        return _frozen(self.lam * self.e1_shape)

    @property
    def e2(self) -> Ellipsoid:
        return Ellipsoid(np.zeros(self.dim), self.e2_shape)

    @property
    def subfamily_size(self) -> int:
        return self.x_rows.shape[0]

    def subfamily(self) -> HPolytope:
        """The selected half-spaces, verbatim rows of the original family."""
        from .geometry import hpolytope_from_arrays

        return hpolytope_from_arrays(
            self.normals[self.g_indices], self.offsets[self.g_indices], normalize=False
        )


def build_S1(basis: DRBasis, enforce_floor: bool = True):
    """Simplex over the origin and the selected points, with its largest
    inscribed ellipsoid and that ellipsoid's center.

    The greedy windows force vol >= 1/(sqrt(d!) d^(d/2)); the volume also
    factors as the product of the window inner products over d! because the
    selected points are triangular in the basis coordinates. Both facts are
    certified here (the floor only when requested; sampled selections offer
    no floor).
    """
    d = basis.dim
    simplex = Simplex(np.vstack([np.zeros(d), basis.selected]))
    vol = simplex.volume()
    prod = float(np.prod(basis.inner_products()))
    if abs(vol * math.factorial(d) - prod) > 1e-9 * max(1.0, abs(prod)):
        raise NumericalBreakdown(
            f"volume {vol:.6e} disagrees with the triangular product {prod:.6e}"
        )
    if enforce_floor and vol < simplex_volume_floor(d) - 1e-9:
        raise DegenerateSimplex(
            f"selected simplex volume {vol:.6e} below the guaranteed floor"
        )
    ell = max_ellipsoid_in_simplex(simplex)
    return simplex, ell, ell.center


def ray_hit_boundary(points: np.ndarray, direction: np.ndarray):
    """Farthest point of conv(points) along a unit ray from the origin.

    Maximizes t with t*direction a convex combination of the points;
    the simplex method's basic solution spends one basic variable on t, so
    at most d combination weights are nonzero, which hands the follow-up
    hull rewrite its starting point for free.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = pts.shape
    direction = np.asarray(direction, dtype=float).ravel()
    if abs(np.linalg.norm(direction) - 1.0) > 1e-8:
        raise ValueError("ray direction must be a unit vector")
    a_eq = np.zeros((d + 1, n + 1))
    a_eq[:d, 0] = direction
    a_eq[:d, 1:] = -pts.T
    a_eq[d, 1:] = 1.0
    b_eq = np.zeros(d + 1)
    b_eq[d] = 1.0
    cost = np.zeros(n + 1)
    cost[0] = 1.0
    res = lp_solve(
        cost,
        a_eq=a_eq,
        b_eq=b_eq,
        nonneg=np.ones(n + 1, dtype=bool),
        maximize=True,
    )
    if res.status is not LPStatus.OPTIMAL:
        raise NumericalBreakdown(f"boundary ray LP ended {res.status.value}")
    t = float(res.x[0])
    if t < 1.0 / d - 1e-8:
        raise NumericalBreakdown(
            f"ray exits the contact hull at {t:.6e}, below the 1/d floor"
        )
    return t * direction, res.x[1:].copy()


def caratheodory_reduce(point, vertices, coeffs):
    """Rewrite a convex combination over at most d of its points.

    Repeatedly finds an affine dependence among the supported points (the
    point sits on a boundary face, so its supports are affinely dependent
    once more than d are active) and walks coefficients along it until one
    hits zero.
    """
    vertices = np.atleast_2d(np.asarray(vertices, dtype=float))
    point = np.asarray(point, dtype=float).ravel()
    coeffs = np.asarray(coeffs, dtype=float).copy()
    d = vertices.shape[1]
    if coeffs.min() < -1e-9 or abs(coeffs.sum() - 1.0) > 1e-9:
        raise ReductionFailed("input coefficients are not a convex combination")
    if np.linalg.norm(vertices.T @ coeffs - point) > 1e-8:
        raise ReductionFailed("input combination does not reproduce the point")
    coeffs[coeffs < _DROP_TOL] = 0.0
    support = np.flatnonzero(coeffs)
    while support.size > d:
        pts = vertices[support]
        system = np.vstack([pts.T, np.ones(support.size)])
        _, svals, vh = np.linalg.svd(system)
        if svals[-1] > 1e-8:
            raise ReductionFailed(
                "supported points are affinely independent; the point is not "
                "on a boundary face"
            )
        gamma = vh[-1]
        if gamma.max() <= 0.0:
            gamma = -gamma
        movable = gamma > 1e-14
        theta = float((coeffs[support][movable] / gamma[movable]).min())
        shifted = coeffs[support] - theta * gamma
        shifted[shifted < _DROP_TOL] = 0.0
        coeffs[support] = shifted
        support = np.flatnonzero(coeffs)
    out = coeffs[support]
    out = out / out.sum()
    if np.linalg.norm(vertices[support].T @ out - point) > 1e-8:
        raise ReductionFailed("reduced combination no longer reproduces the point")
    return support, out


def contract_E1(
    e1: Ellipsoid, u: np.ndarray, w: np.ndarray, tolerances: Tolerances = DEFAULT
):
    """Contract the simplex ellipsoid toward the boundary point so its
    center lands on the origin.

    The ratio |w|/(|u|+|w|) does exactly that when w lies opposite u through
    the origin, and it never drops below 1/(d+1). A centered ellipsoid
    (|u| at most tolerances.degenerate_ray) needs no contraction; see the
    pipeline notes for why that branch cannot fire on selected simplices.
    """
    u = np.asarray(u, dtype=float).ravel()
    w = np.asarray(w, dtype=float).ravel()
    d = u.shape[0]
    if np.linalg.norm(u - e1.center) > 1e-10:
        raise Misaligned("u must be the center of the ellipsoid being contracted")
    nu = float(np.linalg.norm(u))
    nw = float(np.linalg.norm(w))
    if nu <= tolerances.degenerate_ray:
        return Ellipsoid(np.zeros(d), e1.shape), 1.0
    if nw <= 1e-14:
        raise Misaligned("contraction center sits at the origin")
    cosine = float(u @ w) / (nu * nw)
    if cosine > -1.0 + 1e-8:
        raise Misaligned(f"w is not opposite u through the origin (cosine {cosine:.2e})")
    lam = contraction_ratio(u, w, tolerances)
    center = w + lam * (u - w)
    if np.linalg.norm(center) > 1e-10:
        raise NumericalBreakdown(
            f"contraction center missed the origin by {np.linalg.norm(center):.2e}"
        )
    if lam < 1.0 / (d + 1) - 1e-9:
        raise NumericalBreakdown(f"contraction ratio {lam:.6e} below 1/(d+1)")
    return Ellipsoid(np.zeros(d), lam * e1.shape), lam


def _certified_ratio(norm_offsets, g_indices, e2_shape) -> float:
    """Upper bound on vol(G)/vol(K) from one determinant.

    In the normalized frame K holds the ball of radius beta = min b_i. The
    hull chain E2 in S2 in conv(X) puts X* inside the polar of E2, and
    G = {y : a_g.y <= b_g} lies in (max_g b_g) X*. So
    vol(G)/vol(K) <= (max_g b_g / beta)^d / |det E2|. It is computed as
    1 / |det((beta / max_g b_g) E2)|, so no power can overflow; a certificate
    whose offsets or E2 admit no bound reads inf.
    """
    beta = float(norm_offsets.min())
    if beta <= 0.0:
        return math.inf
    scale = beta / float(norm_offsets[g_indices].max())
    det = abs(float(np.linalg.det(scale * e2_shape)))
    return 1.0 / det if det > 0.0 else math.inf


def assemble_subfamily(
    inst: NormalizedInstance,
    selector: str,
    basis: DRBasis,
    w: np.ndarray,
    e2: Ellipsoid,
    cara_rows: np.ndarray,
    cara_coeffs: np.ndarray,
    tolerances: Tolerances = DEFAULT,
) -> Certificate:
    """Merge the touched contact points into X, name the half-spaces they
    came from, certify their volume ratio, and fill the certificate.

    Re-checks the one containment the ratio rests on: the contracted
    ellipsoid inside the apex simplex. The apex simplex lies in conv(X), up
    to the 1e-8 by which caratheodory_reduce lets its hull combination miss
    the apex, so polarity puts X* inside the contracted ellipsoid's polar.
    """
    dec = inst.decomposition
    d = inst.dim
    x_rows = subfamily_rows(basis.indices, cara_rows)
    if x_rows.size > 2 * d:
        raise NumericalBreakdown(f"{x_rows.size} selected points exceed 2d = {2 * d}")

    s2 = np.vstack([w, dec.points[basis.indices]])
    facet_a, facet_b = Simplex(s2).facets()
    support = np.linalg.norm(facet_a @ e2.shape, axis=1)
    worst = float((support - facet_b).max())
    if worst > 1e-8:
        raise NumericalBreakdown(
            f"contracted ellipsoid leaves the apex simplex by {worst:.2e}"
        )

    ratio = _certified_ratio(inst.norm_offsets, dec.source_indices[x_rows], e2.shape)
    bound = explicit_bound(d)
    if selector == "dr" and ratio > bound * (1.0 + 1e-9):
        raise NumericalBreakdown(
            f"certified ratio {ratio:.6e} exceeds the guaranteed bound {bound:.6e}"
        )

    return Certificate(
        dim=d,
        selector=selector,
        normals=inst.original.normals,
        offsets=inst.original.offsets,
        map_matrix=inst.map_matrix,
        map_offset=inst.map_offset,
        contact_tol=inst.contact_tol,
        contact_weights=dec.weights,
        contact_indices=dec.source_indices,
        basis=basis.basis,
        selected_rows=basis.indices,
        window_slack=basis.slack,
        w=w,
        cara_rows=cara_rows,
        cara_coeffs=cara_coeffs,
        ratio=ratio,
        bound=bound,
        tolerances=tolerances,
    )


def _sample_selection(dec, seed) -> DRBasis:
    """Random alternative to the greedy pick: d contact points drawn
    i.i.d. with probabilities c_i/d, as `pivovarov_sample` draws them. Draws
    whose simplex is numerically flat are rejected, since the downstream
    ellipsoid needs interior to live in; no window guarantee travels with
    the result."""
    rng = np.random.default_rng(seed)
    prob = _index_probabilities(dec)
    for _ in range(_SAMPLE_CAP):
        idx = rng.choice(dec.size, size=dec.dim, replace=True, p=prob)
        pts = dec.points[idx]
        if abs(np.linalg.det(pts)) > 1e-9:
            return DRBasis(
                basis=sampled_basis(pts),
                selected=pts,
                indices=idx,
                slack=0.0,
                validate=False,
            )
    raise DegenerateSimplex(f"no full-dimensional sample in {_SAMPLE_CAP} draws")


def select(
    poly: HPolytope,
    selector: str = "dr",
    seed: int | None = None,
    tolerances: Tolerances = DEFAULT,
) -> Certificate:
    """Run the whole construction on a bounded full-dimensional instance.

    Deterministic for the default greedy selector (input order decides
    ties); the sampling selector takes its randomness from seed. Errors are
    wrapped with the stage that raised them.
    """
    if selector not in ("dr", "pivovarov"):
        raise ValueError(f"unknown selector {selector!r}")

    def stage(name, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except PipelineError:
            raise
        except HellyError as exc:
            raise PipelineError(name, str(exc)) from exc

    inst = stage("normalize", normalize_position, poly, tolerances)
    dec = inst.decomposition
    d = poly.dim
    if selector == "dr":
        basis = stage("select", dr_select, dec)
        _, e1, u = stage("simplex", build_S1, basis)
    else:
        basis = stage("select", _sample_selection, dec, seed)
        _, e1, u = stage("simplex", build_S1, basis, enforce_floor=False)
    nu = np.linalg.norm(u)
    direction = -u / nu if nu > tolerances.degenerate_ray else basis.basis[-1]
    w, coeffs = stage("ray", ray_hit_boundary, dec.points, direction)
    cara_rows, cara_coeffs = stage("reduce", caratheodory_reduce, w, dec.points, coeffs)
    e2, _ = stage("contract", contract_E1, e1, u, w, tolerances)
    return stage(
        "assemble",
        assemble_subfamily,
        inst,
        selector,
        basis,
        w,
        e2,
        cara_rows,
        cara_coeffs,
        tolerances,
    )
