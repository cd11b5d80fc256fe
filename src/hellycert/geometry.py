"""Exact-arithmetic-free convex geometry at desk scale.

Polytopes in half-space form, brute-force vertex enumeration, triangulated
volume, polar bodies, and ellipsoid primitives. Everything here is
deterministic and dimension-capped; the combinatorial routines are
exponential on purpose (they are the trusted ground truth the rest of the
library is checked against).

Volume comes from a pulling triangulation of the vertex-facet incidence
(Bueler, Enge and Fukuda, "Exact volume computation for polytopes: a
practical study", 2000): each face is a vertex bitmask, triangulated once
by coning its lowest vertex over its facets that miss it, and one batched
determinant sums the simplices. Polar bodies such as X* are built in
H-form. Certificates take no polytope volume and enumerate no vertex;
`volume` and `vertex_enumeration` serve the oracle, the experiment rows and
the tests.

Boundedness is one rank check and one small LP (Stiemke's theorem of the
alternative): the normals must span R^d and some strictly positive
combination of them must vanish. It does not test feasibility. An empty or
flat body is ruled out by a witness ball of radius at least
`_INTERIOR_FLOOR`: vertex enumeration takes the origin when every
half-space keeps it that far inside (as in a normalized instance or the
polar of unit contact points), and `_interior_point` takes the
least-squares solution of A x + t 1 = b; only when the witness misses the
floor does the Chebyshev-center LP run, which raises Empty. Vertex
enumeration then runs `ensure_bounded`. The John solver starts from
`_interior_point` alone and needs the boundedness LP only when its
iteration fails or runs long.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .config import DEFAULT, DIM_CAP, FACET_CAP, Tolerances
from .errors import (
    CapExceeded,
    Degenerate,
    DegenerateSimplex,
    Empty,
    Unbounded,
    ZeroNormal,
)
from .lp import LPStatus, lp_solve

_COMBO_CHUNK = 200_000
_DEDUPE_BLOCK = 256
_INTERIOR_FLOOR = 1e-10  # inscribed radius below which a body counts as flat
_ZERO_NORMAL = 1e-12  # normal length at or below which a half-space is refused
# d-subsets the brute-force vertex walk may try. At d=8 a volume costs about
# 10 us per subset, walk and triangulation together (C(24, 8) = 735,471
# subsets in about 8 s), so this is about 10 s there, and less below d=8.
_SUBSET_BUDGET = 1_000_000
# smallest singular value of the normals, and smallest Stiemke weight, that
# count as nonzero in the boundedness test
_BOUNDED_FLOOR = 1e-9


def unit_ball_volume(d: int) -> float:
    """Volume of the d-dimensional Euclidean unit ball."""
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class HalfSpace:
    """{x : normal.x <= offset} with a unit normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", _freeze(self.normal))
        object.__setattr__(self, "offset", float(self.offset))
        if not np.isfinite(self.normal).all() or not math.isfinite(self.offset):
            raise ZeroNormal("half-space has non-finite entries")
        if abs(np.linalg.norm(self.normal) - 1.0) > DEFAULT.unit_norm:
            raise ZeroNormal("half-space normal is not unit length")


def normalize_halfspace(a, b) -> HalfSpace:
    """Scale (a, b) so the normal has unit length."""
    a = np.asarray(a, dtype=float)
    nrm = float(np.linalg.norm(a))
    if nrm <= _ZERO_NORMAL:
        raise ZeroNormal(f"normal has length {nrm:.3e}")
    return HalfSpace(a / nrm, float(b) / nrm)


@dataclass(frozen=True, eq=False)
class HPolytope:
    """Intersection of finitely many half-spaces."""

    dim: int
    halfspaces: tuple[HalfSpace, ...]

    def __post_init__(self):
        object.__setattr__(self, "halfspaces", tuple(self.halfspaces))
        m = len(self.halfspaces)
        if not (1 <= self.dim <= DIM_CAP):
            raise CapExceeded(f"dimension {self.dim} outside [1, {DIM_CAP}]")
        if not (1 <= m <= FACET_CAP):
            raise CapExceeded(f"{m} half-spaces outside [1, {FACET_CAP}]")
        for h in self.halfspaces:
            if h.normal.shape != (self.dim,):
                raise ZeroNormal("half-space dimension mismatch")

    @cached_property
    def normals(self) -> np.ndarray:
        return _freeze(np.stack([h.normal for h in self.halfspaces]))

    @cached_property
    def offsets(self) -> np.ndarray:
        return _freeze(np.array([h.offset for h in self.halfspaces]))


def hpolytope_from_arrays(a, b, *, normalize: bool = True) -> HPolytope:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if a.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ZeroNormal("half-space arrays have mismatched shapes")
    if normalize:
        hs = tuple(normalize_halfspace(a[i], b[i]) for i in range(a.shape[0]))
    else:
        hs = tuple(HalfSpace(a[i], float(b[i])) for i in range(a.shape[0]))
    return HPolytope(a.shape[1], hs)


@dataclass(frozen=True, eq=False)
class VPolytope:
    """The vertices of a polytope, as a frozen (n, d) array."""

    vertices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vertices", _freeze(np.atleast_2d(self.vertices)))
        d = self.vertices.shape[1]
        if not (1 <= d <= DIM_CAP):
            raise CapExceeded(f"dimension {d} outside [1, {DIM_CAP}]")
        if not np.isfinite(self.vertices).all():
            raise ValueError("non-finite vertex")

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]


@dataclass(frozen=True, eq=False)
class Simplex:
    """d+1 affinely independent points in dimension d."""

    vertices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vertices", _freeze(np.atleast_2d(self.vertices)))
        n, d = self.vertices.shape
        if n != d + 1:
            raise DegenerateSimplex(f"{n} vertices in dimension {d}")
        edges = self.vertices[1:] - self.vertices[0]
        if abs(np.linalg.det(edges)) <= 1e-12:
            raise DegenerateSimplex("vertices are affinely dependent")

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def volume(self) -> float:
        edges = self.vertices[1:] - self.vertices[0]
        return abs(float(np.linalg.det(edges))) / math.factorial(self.dim)

    def facets(self) -> tuple[np.ndarray, np.ndarray]:
        """Unit normals and offsets of the facets; row i is opposite vertex i.

        With C the inverse of the barycentric matrix [[v_i, 1]], the
        barycentric coordinates of x are [x, 1] @ C, so facet i is
        -C[:d, i].x <= C[d, i].
        """
        inv = np.linalg.inv(np.hstack([self.vertices, np.ones((self.dim + 1, 1))]))
        a = -inv[:-1].T
        norms = np.linalg.norm(a, axis=1)
        return a / norms[:, None], inv[-1] / norms


@dataclass(frozen=True, eq=False)
class Ellipsoid:
    """{center + shape @ u : |u| <= 1} with a symmetric positive definite shape."""

    center: np.ndarray
    shape: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float).ravel()
        s = np.asarray(self.shape, dtype=float)
        if s.shape != (c.shape[0], c.shape[0]):
            raise Degenerate("ellipsoid shape matrix has wrong dimensions")
        if not (np.isfinite(c).all() and np.isfinite(s).all()):
            raise Degenerate("ellipsoid has non-finite entries")
        s = 0.5 * (s + s.T)
        if np.linalg.eigvalsh(s).min() < DEFAULT.spd_floor:
            raise Degenerate("ellipsoid shape matrix is not positive definite")
        object.__setattr__(self, "center", _freeze(c))
        object.__setattr__(self, "shape", _freeze(s))

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def support(self, direction: np.ndarray) -> float:
        """sup of direction.x over the ellipsoid."""
        return float(direction @ self.center + np.linalg.norm(self.shape @ direction))

    def contains(self, point: np.ndarray, tol: float = 1e-9) -> bool:
        y = np.linalg.solve(self.shape, np.asarray(point, dtype=float) - self.center)
        return bool(np.linalg.norm(y) <= 1.0 + tol)


def chebyshev_center(poly: HPolytope) -> tuple[np.ndarray, float]:
    """Center and radius of a largest inscribed ball.

    Raises Empty when the polytope is infeasible and Unbounded when the
    inscribed radius is unbounded.
    """
    d = poly.dim
    a, b = poly.normals, poly.offsets
    cost = np.zeros(d + 1)
    cost[d] = 1.0
    a_ub = np.hstack([a, np.ones((a.shape[0], 1))])
    nonneg = np.zeros(d + 1, dtype=bool)
    nonneg[d] = True
    res = lp_solve(cost, a_ub=a_ub, b_ub=b, nonneg=nonneg, maximize=True)
    if res.status == LPStatus.INFEASIBLE:
        raise Empty("intersection is empty")
    if res.status == LPStatus.UNBOUNDED:
        raise Unbounded("inscribed radius is unbounded")
    return res.x[:d], float(res.value)


def _ensure_full_rank(a: np.ndarray) -> None:
    """Raise Unbounded unless the normals span R^d, by one SVD."""
    m, d = a.shape
    if m < d or np.linalg.svd(a, compute_uv=False)[-1] <= _BOUNDED_FLOOR:
        raise Unbounded("normals have rank below the dimension: the body holds a line")


def ensure_bounded(poly: HPolytope) -> None:
    """Raise Unbounded unless the polytope is bounded, assuming it is nonempty.

    A nonempty {x : Ax <= b} is bounded exactly when A has rank d and some
    y > 0 has A^T y = 0 (Stiemke's theorem of the alternative). The rank
    comes from one SVD. The weights come from one LP in m + 1 nonnegative
    variables: with y = z + t*1, maximize t subject to A^T z + t*A^T 1 = 0
    and 1.z + m*t = 1, which has d + 1 equality rows.

    Feasibility is not tested: an empty intersection can pass. Callers that
    need it either know an interior point or run `_interior_point` first,
    which raises Empty. The John solver calls this only when its iteration
    fails or runs long: a converged iterate already carries the weights y.
    """
    a = poly.normals
    m, d = a.shape
    _ensure_full_rank(a)
    a_eq = np.zeros((d + 1, m + 1))
    a_eq[:d, :m] = a.T
    a_eq[:d, m] = a.sum(axis=0)
    a_eq[d, :m] = 1.0
    a_eq[d, m] = m
    b_eq = np.zeros(d + 1)
    b_eq[d] = 1.0
    cost = np.zeros(m + 1)
    cost[m] = 1.0
    res = lp_solve(cost, a_eq=a_eq, b_eq=b_eq, nonneg=np.ones(m + 1, dtype=bool), maximize=True)
    if res.status != LPStatus.OPTIMAL or res.value <= _BOUNDED_FLOOR:
        raise Unbounded("no strictly positive combination of the normals vanishes")


def _interior_point(poly: HPolytope) -> tuple[np.ndarray, float]:
    """A point x and radius r, the smallest slack min_i (b_i - a_i.x), of a
    full-dimensional polytope whose normals span R^d: the ball of radius r
    about x lies inside.

    The witness is the least-squares solution of A x + t 1 = b, one
    m x (d+1) solve (for a simplex, its incenter). When its smallest slack
    is at least _INTERIOR_FLOOR the body is nonempty and not flat, and no
    LP runs. Otherwise the Chebyshev LP decides: it raises Empty or
    Unbounded, then Degenerate when the inscribed radius is below
    _INTERIOR_FLOOR, and its center and radius are returned. Either way
    Unbounded follows when the normals have rank below d (one SVD, so a
    body holding a line is typed before any iteration starts from this
    point). The witness's radius is at most the Chebyshev radius, so it
    never passes a body the LP would type Empty or Degenerate; a cone whose
    inscribed radius is unbounded can pass it, and boundedness beyond the
    rank is left to `ensure_bounded`.
    """
    a, b = poly.normals, poly.offsets
    m, d = a.shape
    fit = np.linalg.lstsq(np.hstack([a, np.ones((m, 1))]), b, rcond=None)[0]
    center = fit[:d]
    radius = float((b - a @ center).min())
    if radius < _INTERIOR_FLOOR:
        center, radius = chebyshev_center(poly)
        if radius < _INTERIOR_FLOOR:
            raise Degenerate(f"inscribed radius {radius:.3e} below {_INTERIOR_FLOOR:.0e}")
    _ensure_full_rank(a)
    return center, radius


def _dedupe_points(
    points: np.ndarray, tol: float, kept: np.ndarray | None = None
) -> np.ndarray:
    """`kept` followed by each point farther than tol from every point kept
    before it, in input order.

    Distances are taken a block of rows at a time, so memory stays bounded
    when a degenerate vertex is found from very many d-subsets.
    """
    if kept is None:
        kept = points[:0]
    for start in range(0, points.shape[0], _DEDUPE_BLOCK):
        block = points[start : start + _DEDUPE_BLOCK]
        if kept.shape[0]:
            diff = block[:, None, :] - kept[None, :, :]
            block = block[((diff * diff).sum(axis=2) > tol * tol).all(axis=1)]
        diff = block[:, None, :] - block[None, :, :]
        close = (diff * diff).sum(axis=2) <= tol * tol
        keep = close.sum(axis=1) == 1  # a point with no near neighbour stays
        seen = np.zeros(block.shape[0], dtype=bool)
        for i in np.flatnonzero(~keep):
            if not seen[i]:
                keep[i] = True
                seen |= close[i]
        kept = np.vstack([kept, block[keep]])
    return kept


def check_subset_budget(m: int, d: int) -> None:
    """Raise CapExceeded when the vertex walk over m half-spaces in
    dimension d would try more than `_SUBSET_BUDGET` d-subsets."""
    subsets = math.comb(m, d)
    if subsets > _SUBSET_BUDGET:
        raise CapExceeded(
            f"vertex enumeration would try C({m}, {d}) = {subsets} d-subsets, "
            f"above the budget of {_SUBSET_BUDGET}"
        )


def vertex_enumeration(poly: HPolytope, tolerances: Tolerances = DEFAULT) -> VPolytope:
    """All vertices of a bounded full-dimensional polytope, by brute force.

    Every d-subset of facets is solved; feasible solutions are deduplicated.
    First an interior point rules out an empty or flat body: the origin,
    when every half-space keeps it at least `_INTERIOR_FLOOR` inside, and
    the Chebyshev center otherwise; then `ensure_bounded` runs. Raises
    Empty / Unbounded / Degenerate from these checks, and CapExceeded,
    before any subset is solved, when C(m, d) exceeds `_SUBSET_BUDGET`.
    """
    verts = _vertex_array(poly, tolerances)
    return VPolytope(verts)


def _vertex_array(poly: HPolytope, tolerances: Tolerances = DEFAULT) -> np.ndarray:
    a, b = poly.normals, poly.offsets
    m, d = a.shape
    if (b / np.linalg.norm(a, axis=1)).min() < _INTERIOR_FLOOR:
        # no ball of the floor's radius about the origin: the Chebyshev LP
        # rules out an empty or flat body
        _interior_point(poly)
    ensure_bounded(poly)
    check_subset_budget(m, d)
    verts = np.empty((0, d))
    combos = itertools.combinations(range(m), d)
    while True:
        chunk = np.array(list(itertools.islice(combos, _COMBO_CHUNK)), dtype=int)
        if chunk.size == 0:
            break
        sub_a = a[chunk]
        sub_b = b[chunk]
        dets = np.abs(np.linalg.det(sub_a))
        good = dets > 1e-12
        if not good.any():
            continue
        pts = np.linalg.solve(sub_a[good], sub_b[good][..., None])[..., 0]
        feas = np.all(pts @ a.T <= b[None, :] + tolerances.incidence, axis=1)
        verts = _dedupe_points(pts[feas], tolerances.dedupe, verts)
    if not verts.shape[0]:
        raise Degenerate("no vertices found")
    return verts


def facets_from_vertices(verts: np.ndarray, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Outer description (unit normals, offsets) of conv(verts).

    Brute force over d-subsets; assumes the hull is full-dimensional.
    """
    verts = np.asarray(verts, dtype=float)
    n, d = verts.shape
    if d == 1:
        return np.array([[1.0], [-1.0]]), np.array([verts.max(), -verts.min()])
    rows_a, rows_b = [], []
    for idx in itertools.combinations(range(n), d):
        pts = verts[list(idx)]
        edges = pts[1:] - pts[0]
        sv = np.linalg.svd(edges, compute_uv=False)
        if sv[-1] <= 1e-10:
            continue  # affinely dependent subset spans no hyperplane
        _, _, vh = np.linalg.svd(edges)
        normal = vh[-1]
        offset = float(normal @ pts[0])
        sides = verts @ normal - offset
        if sides.max() <= tol:
            rows_a.append(normal)
            rows_b.append(offset)
        elif sides.min() >= -tol:
            rows_a.append(-normal)
            rows_b.append(-offset)
    if not rows_a:
        raise Degenerate("vertex set spans no full-dimensional hull")
    kept = _dedupe_points(np.column_stack([rows_a, rows_b]), tol)
    return kept[:, :-1], kept[:, -1]


def _pull_face(face: int, dim: int, facet_masks: list[int], memo: dict) -> list[tuple]:
    """Simplices of a pulling triangulation of one face, as vertex-index tuples.

    `face` is the face's vertex set as a bitmask and `facet_masks` holds the
    vertex set of every input half-space's hyperplane, in row order. The
    facets of the face are the inclusion-maximal proper nonempty sets
    face & mask; the face's lowest vertex is coned over the triangulation of
    every facet that misses it. `memo` maps the vertex sets of faces already
    triangulated to their simplices, so each face is triangulated once.
    """
    size = face.bit_count()
    if size <= dim:
        return []  # lower-dimensional than its place in the lattice
    apex_bit = face & -face
    apex = (apex_bit.bit_length() - 1,)
    if size == 2:
        return [apex + (face.bit_length() - 1,)]  # an edge
    candidates = dict.fromkeys(map(face.__and__, facet_masks))
    candidates.pop(face, None)
    candidates.pop(0, None)
    simplices = []
    for sub in candidates:
        if sub & apex_bit or any(sub & other == sub != other for other in candidates):
            continue
        tri = memo.get(sub)
        if tri is None:
            tri = memo[sub] = _pull_face(sub, dim - 1, facet_masks, memo)
        simplices += [apex + s for s in tri]
    return simplices


def _polytope_volume(
    verts: np.ndarray, a: np.ndarray, b: np.ndarray, tolerances: Tolerances
) -> float:
    """Volume of the polytope with vertices `verts` and outer description
    a x <= b, from a pulling triangulation of the vertex-facet incidence.

    Duplicate and redundant rows need no cleaning: they give repeated or
    non-maximal vertex sets, which the triangulation skips. The summation
    order is fixed by the input: facet candidates in row order, each face
    pulled at its lowest vertex index.
    """
    n, d = verts.shape
    on = verts @ a.T - b[None, :] >= -tolerances.incidence  # (n, m)
    facet_masks = [
        int.from_bytes(np.packbits(col, bitorder="little").tobytes(), "little") for col in on.T
    ]
    simplices = _pull_face((1 << n) - 1, d, facet_masks, {})
    idx = np.array(simplices, dtype=np.intp).reshape(-1, d + 1)
    edges = verts[idx[:, 1:]] - verts[idx[:, :1]]
    return float(np.abs(np.linalg.det(edges)).sum()) / math.factorial(d)


def volume(body, tolerances: Tolerances = DEFAULT) -> float:
    """Euclidean volume of an ellipsoid, a simplex or a bounded H-polytope.

    For a polytope the vertices are enumerated (see `vertex_enumeration`
    for the interior-point checks and the subset budget that run first),
    and the volume is the sum of the simplices of a pulling triangulation
    of the vertex-facet incidence, each face triangulated once.
    """
    if isinstance(body, Ellipsoid):
        return ellipsoid_volume(body)
    if isinstance(body, Simplex):
        return body.volume()
    if isinstance(body, HPolytope):
        return _polytope_volume(_vertex_array(body, tolerances), body.normals, body.offsets, tolerances)
    raise TypeError(f"cannot take the volume of {type(body).__name__}")


def polar_of_points(points: np.ndarray) -> HPolytope:
    """Polar body {y : x.y <= 1 for every x in points}, as half-spaces."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    norms = np.linalg.norm(points, axis=1)
    if norms.min() <= 1e-14:
        raise Unbounded("polar of a set containing the origin is unbounded")
    return hpolytope_from_arrays(points, np.ones(points.shape[0]))


def ellipsoid_volume(ell: Ellipsoid) -> float:
    return unit_ball_volume(ell.dim) * float(np.linalg.det(ell.shape))


def _sqrtm_spd(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (mat + mat.T))
    w = np.clip(w, 0.0, None)
    out = (v * np.sqrt(w)) @ v.T
    return 0.5 * (out + out.T)


def ellipsoid_affine_image(ell: Ellipsoid, mat: np.ndarray, shift: np.ndarray) -> Ellipsoid:
    """Image of an ellipsoid under x -> mat @ x + shift."""
    gen = mat @ ell.shape
    return Ellipsoid(mat @ ell.center + shift, _sqrtm_spd(gen @ gen.T))


@lru_cache(maxsize=None)
def reference_simplex(d: int) -> np.ndarray:
    """Regular simplex: d+1 unit vectors in R^d summing to zero, as rows
    (read-only: one array per d serves every call)."""
    ones = np.ones((d + 1, 1))
    q_full, _ = np.linalg.qr(ones, mode="complete")
    basis = q_full[:, 1:]  # orthonormal basis of the sum-zero hyperplane
    centered = np.eye(d + 1) - np.full((d + 1, d + 1), 1.0 / (d + 1))
    return _freeze(math.sqrt((d + 1) / d) * centered @ basis)


def max_ellipsoid_in_simplex(simplex: Simplex) -> Ellipsoid:
    """Largest-volume ellipsoid inscribed in a simplex, in closed form.

    The regular simplex's extremal ellipsoid is its inscribed ball (radius
    1/d for unit circumradius); affine images of extremal ellipsoids are
    extremal, so the answer is that ball pushed through the affine map that
    carries the regular simplex onto this one.
    """
    d = simplex.dim
    ref = reference_simplex(d)
    q_edges = ref[1:] - ref[0]
    s_edges = simplex.vertices[1:] - simplex.vertices[0]
    mat = np.linalg.solve(q_edges, s_edges).T
    shift = simplex.vertices[0] - mat @ ref[0]
    shape = _sqrtm_spd(mat @ mat.T) / d
    center = shift  # image of the reference center (the origin)
    centroid = simplex.vertices.mean(axis=0)
    if np.linalg.norm(center - centroid) > 1e-9 * (1.0 + np.linalg.norm(centroid)):
        raise DegenerateSimplex("affine map did not carry centroid to centroid")
    return Ellipsoid(center, shape)
