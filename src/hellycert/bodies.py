"""Closed-form convex bodies: the geometry a certificate is read with.

Half-space polytopes, simplices and ellipsoids as validated read-only
arrays, with the closed forms the checker relies on: simplex and ellipsoid
volume, and the largest ellipsoid inscribed in a simplex, also read without
its matrix root (`inscribed_reach`, `inscribed_det`). Nothing
here solves an LP or enumerates a vertex; that code lives in `geometry`.

An `HPolytope` is two read-only C-contiguous arrays, unit normals (m, d)
and offsets (m,), validated once as a whole. `HPolytope(normals, offsets)`
takes rows already of unit length and `hpolytope_from_arrays` scales any
rows to unit length, each by the length `np.linalg.norm` gives that row
alone, so a polytope's bits do not depend on the memory order of its input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DIM_CAP, FACET_CAP
from .errors import CapExceeded, Degenerate, DegenerateSimplex, ZeroNormal

_ZERO_NORMAL = 1e-12  # normal length at or below which a half-space is refused
_UNIT_NORM = 1e-12  # how far an `HPolytope` normal's length may be from 1
_SPD_FLOOR = 1e-12  # smallest admissible ellipsoid eigenvalue
DEDUPE = 1e-9  # two points closer than this are one point


def unit_ball_volume(d: int) -> float:
    """Volume of the d-dimensional Euclidean unit ball."""
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1)


def simplex_volume(edges: np.ndarray) -> np.ndarray:
    """Volume |det(edges)| / d! of the simplex spanned by d edges (rows) from
    one vertex, over any leading axes; 0.0 when flat."""
    return np.abs(np.linalg.det(edges)) / math.factorial(edges.shape[-1])


def freeze(arr: np.ndarray) -> np.ndarray:
    """A read-only C-contiguous float copy of arr."""
    out = np.array(arr, dtype=float, order="C")
    out.setflags(write=False)
    return out


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Length of each row of a C-contiguous array, bit for bit `np.linalg.norm`
    of that row alone (`np.linalg.norm(a, axis=1)` sums in another order)."""
    return np.sqrt(np.vecdot(a, a))


@dataclass(frozen=True, eq=False)
class HPolytope:
    """{x : normals @ x <= offsets}, m half-spaces in R^d with unit normals."""

    normals: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        a, b = freeze(self.normals), freeze(self.offsets)
        if a.ndim != 2 or b.shape != a.shape[:1]:
            raise ZeroNormal("half-space arrays have mismatched shapes")
        m, d = a.shape
        if not (1 <= d <= DIM_CAP):
            raise CapExceeded(f"dimension {d} outside [1, {DIM_CAP}]")
        if not (1 <= m <= FACET_CAP):
            raise CapExceeded(f"{m} half-spaces outside [1, {FACET_CAP}]")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ZeroNormal("half-space has non-finite entries")
        if (np.abs(_row_norms(a) - 1.0) > _UNIT_NORM).any():
            raise ZeroNormal("half-space normal is not unit length")
        object.__setattr__(self, "normals", a)
        object.__setattr__(self, "offsets", b)

    @property
    def dim(self) -> int:
        return self.normals.shape[1]


def hpolytope_from_arrays(a, b) -> HPolytope:
    """The polytope {x : a x <= b}, each row (a_i, b_i) scaled so a_i has
    unit length. Raises ZeroNormal, naming the row, for a normal of length
    at most 1e-12."""
    a = np.ascontiguousarray(a, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if a.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ZeroNormal("half-space arrays have mismatched shapes")
    norms = _row_norms(a)
    short = np.flatnonzero(norms <= _ZERO_NORMAL)
    if short.size:
        raise ZeroNormal(f"half-space {short[0]} has a normal of length {norms[short[0]]:.3e}")
    return HPolytope(a / norms[:, None], b / norms)


@dataclass(frozen=True, eq=False)
class Simplex:
    """d+1 affinely independent points in dimension d; edge_det is the
    determinant of the edges vertices[1:] - vertices[0]."""

    vertices: np.ndarray
    edge_det: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "vertices", freeze(np.atleast_2d(self.vertices)))
        n, d = self.vertices.shape
        if n != d + 1:
            raise DegenerateSimplex(f"{n} vertices in dimension {d}")
        edges = self.vertices[1:] - self.vertices[0]
        object.__setattr__(self, "edge_det", float(np.linalg.det(edges)))
        if abs(self.edge_det) <= 1e-12:
            raise DegenerateSimplex("vertices are affinely dependent")

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def volume(self) -> float:
        return abs(self.edge_det) / math.factorial(self.dim)

    def facets(self) -> tuple[np.ndarray, np.ndarray]:
        """Unit normals and offsets of the facets; row i is opposite vertex i.

        With C the inverse of the barycentric matrix [[v_i, 1]], the
        barycentric coordinates of x are [x, 1] @ C, so facet i is
        -C[:d, i].x <= C[d, i].
        """
        bary = np.ones((self.dim + 1, self.dim + 1))
        bary[:, :-1] = self.vertices
        inv = np.linalg.inv(bary)
        a = -inv[:-1].T
        norms = _row_norms(a)
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
        if np.linalg.eigvalsh(s).min() < _SPD_FLOOR:
            raise Degenerate("ellipsoid shape matrix is not positive definite")
        object.__setattr__(self, "center", freeze(c))
        object.__setattr__(self, "shape", freeze(s))

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def support(self, direction: np.ndarray) -> float:
        """sup of direction.x over the ellipsoid."""
        return float(direction @ self.center + np.linalg.norm(self.shape @ direction))

    def contains(self, point: np.ndarray, tol: float = 1e-9) -> bool:
        y = np.linalg.solve(self.shape, np.asarray(point, dtype=float) - self.center)
        return bool(np.linalg.norm(y) <= 1.0 + tol)


def ellipsoid_volume(ell: Ellipsoid) -> float:
    return unit_ball_volume(ell.dim) * float(np.linalg.det(ell.shape))


def ellipsoid_affine_image(ell: Ellipsoid, mat: np.ndarray, shift: np.ndarray) -> Ellipsoid:
    """Image of an ellipsoid under x -> mat @ x + shift. Its shape is the
    root of G G^T with G = mat @ shape, read off G's singular vectors."""
    left, spread, _ = np.linalg.svd(mat @ ell.shape)
    return Ellipsoid(mat @ ell.center + shift, (left * spread) @ left.T)


def max_ellipsoid_in_simplex(simplex: Simplex) -> Ellipsoid:
    """Largest-volume ellipsoid inscribed in a simplex, in closed form.

    Its center is the centroid c and its shape (S / (d (d+1)))^(1/2), with
    S = sum_i (v_i - c)(v_i - c)^T over the d+1 vertices. A regular simplex
    of unit circumradius has S = ((d+1)/d) I and its inscribed ball, radius
    1/d, as extremal ellipsoid; both carry over under an affine map, and
    affine images of extremal ellipsoids are extremal. The root is read off
    the singular values of the centered vertices, so S, whose condition
    number is the square of the simplex's, is never formed.
    """
    d = simplex.dim
    center = simplex.vertices.mean(axis=0)
    _, spread, axes = np.linalg.svd(simplex.vertices - center, full_matrices=False)
    return Ellipsoid(center, (axes.T * (spread / math.sqrt(d * (d + 1)))) @ axes)


def inscribed_reach(centered: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """|E a| for each row a of directions, E the largest ellipsoid in the
    simplex whose centered vertices are the rows V_c of `centered`: E^2 is
    V_c^T V_c / (d (d+1)), so |E a| = |V_c a| / sqrt(d (d+1)), with no root."""
    return _row_norms(directions @ centered.T) / math.sqrt(centered.size)


def inscribed_det(edge_det: float, d: int) -> float:
    """|det E| of the largest ellipsoid in a d-simplex whose edges have
    determinant edge_det: |edge_det| / (d^(d/2) (d+1)^((d+1)/2)), as
    kappa_d |det E| / (|edge_det| / d!) is `simplex_ellipsoid_ratio(d)`."""
    return abs(edge_det) / math.sqrt(d**d * (d + 1) ** (d + 1))
