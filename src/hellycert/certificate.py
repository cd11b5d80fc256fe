"""The certificate of one selection run, and the closed forms it is read with.

The Certificate stores each fact of the run once and derives the rest by
the producer's own formulas, so an independent checker can replay each
inequality from the serialized data alone. Those formulas live here and
nowhere else: the normalized rows, the contact allowance, the subfamily's
rows, the contraction ratio and the certified volume ratio. This module and
what it imports (the closed-form bodies, the bounds, the caps and the error
types) are all that `check_certificate` trusts; no LP, solver or selection
code is among them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import Ellipsoid, HPolytope, Simplex, inscribed_det, max_ellipsoid_in_simplex
from .bounds import explicit_bound
from .config import CONTACT, DIM_CAP, VERSION
from .errors import DegenerateSimplex, HellyError, MalformedCertificate

DEGENERATE_RAY = 1e-10  # |u| at or below which the ray direction is moot
SELECTORS = ("dr", "pivovarov")  # the greedy pass and the weighted draw
# covers 2.5 x a far contact's worst excess over 1, 1.45 eps (|b| + |c|) / slack on 8000 bodies
_OFFSET_ROUNDING = 4.0
# 10 x this (the checker's default scale) off tangency loosens the ratio by (1 + 1e-3)^8 < 1.01
CONTACT_CAP = 1e-4  # reached 1e10 to 3e11 inradii from the origin

ARRAY_FIELDS = {
    "normals": 2,
    "offsets": 1,
    "map_matrix": 2,
    "map_offset": 1,
    "contact_weights": 1,
    "contact_indices": 1,
    "selected_rows": 1,
    "w": 1,
    "cara_rows": 1,
    "cara_coeffs": 1,
}
INT_FIELDS = {"contact_indices", "selected_rows", "cara_rows"}


class _once:
    """Computed on first read, then kept: `cached_property` without the lock
    it takes on Python 3.11 and earlier; it can go once those are unsupported."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        obj.__dict__[self.name] = value = self.fn(obj)
        return value


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def normalized_rows(normals, offsets, map_matrix, map_offset) -> tuple[np.ndarray, np.ndarray]:
    """The half-spaces a.x <= b seen from the frame x = map_matrix @ y +
    map_offset, with every row scaled to a unit normal: (normals, offsets).
    A row that the map sends to zero comes out non-finite."""
    raw = normals @ map_matrix
    scale = np.linalg.norm(raw, axis=1)
    return raw / scale[:, None], (offsets - normals @ map_offset) / scale


def contact_allowance(normals, offsets, center, rows) -> float:
    """How far past tangency the contact rows may read from center c: the
    larger of CONTACT and _OFFSET_ROUNDING times the rounding eps (|b_i| + |c|)
    / (b_i - a_i.c) that b and c add to a normalized offset, at its worst row;
    inf past CONTACT_CAP or at a slack that is not positive (lost digits)."""
    b = offsets[rows]
    slack = b - normals[rows] @ center
    if not (slack > 0.0).all():
        return math.inf
    loss = float(((np.abs(b) + math.sqrt(center @ center)) / slack).max(initial=0.0))
    allowance = max(CONTACT, _OFFSET_ROUNDING * np.finfo(float).eps * loss)
    return allowance if allowance <= CONTACT_CAP else math.inf


@dataclass(frozen=True)
class DecompositionReport:
    identity_residual: float  # max abs entry of sum c w w^T - I
    barycenter_norm: float  # |sum c w|
    weight_sum: float  # sum c (should be the dimension)
    min_weight: float  # inf when there are no weights


def verify_decomposition(points, weights) -> DecompositionReport:
    """Residuals of John's decomposition sum c_i w_i w_i^T = I, sum c_i w_i
    = 0 over points w_i and weights c_i, no thresholds."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    wts = np.asarray(weights, dtype=float).ravel()
    outer = np.einsum("i,ip,iq->pq", wts, pts, pts)
    outer.flat[:: pts.shape[1] + 1] -= 1.0  # less the identity
    bary = wts @ pts
    return DecompositionReport(
        identity_residual=float(np.abs(outer).max()),
        barycenter_norm=math.sqrt(bary @ bary),
        weight_sum=float(wts.sum()),
        min_weight=float(wts.min(initial=math.inf)),
    )


def contraction_ratio(u, w) -> float:
    """|w| / (|u| + |w|), which carries the center u of E1 to the origin when
    w lies opposite u; 1 when |u| is at most DEGENERATE_RAY."""
    nu = math.sqrt(u @ u)
    if nu <= DEGENERATE_RAY:
        return 1.0
    nw = math.sqrt(w @ w)
    return nw / (nu + nw)


@dataclass(frozen=True, eq=False)
class Certificate:
    """Transcript of one selection run: only what the run chose is stored.

    Index conventions: contact_indices maps contact rows to rows of the
    original family; selected_rows and cara_rows index contact rows. All
    geometry except (normals, offsets) lives in the normalized frame, and
    x_original = map_matrix @ x_normalized + map_offset converts back.

    The properties below derive everything else from these fields, by the
    same formulas the producer uses: the normalized rows, the contact
    points, the subfamily X and its rows G, the base simplex S1 and det P,
    which give the simplex ellipsoid E1 with center u in closed form, the
    contraction ratio lam, E2 = lam E1 and the certified volume ratio from
    det P; `bound` is the a priori `explicit_bound(dim)`. They are computed
    on first use, so a certificate whose base simplex is flat still
    constructs; reading S1 or E1 from it raises a HellyError
    (DegenerateSimplex), and its ratio reads inf. `e1`, `e1_shape` and
    `e2_shape` take E1's matrix root, which no check needs.
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
    selected_rows: np.ndarray
    w: np.ndarray
    cara_rows: np.ndarray
    cara_coeffs: np.ndarray
    library: str = "hellycert " + VERSION

    def __post_init__(self):
        for name, ndim in ARRAY_FIELDS.items():
            exact = name in INT_FIELDS  # an integer array is finite by its type
            arr = np.array(getattr(self, name), dtype=int if exact else float)  # a copy: the caller's stays writable
            if arr.ndim != ndim:
                raise MalformedCertificate(f"{name} must have {ndim} axes")
            if not (exact or np.isfinite(arr).all()):
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
            "selected_rows": (d,),
            "w": (d,),
            "cara_rows": (self.cara_coeffs.shape[0],),
        }
        for name, want in shapes.items():
            if getattr(self, name).shape != want:
                raise MalformedCertificate(f"{name} has shape {getattr(self, name).shape}, want {want}")
        if self.selector not in SELECTORS:
            raise MalformedCertificate(f"unknown selector {self.selector!r}")
        for idx, limit in (
            (self.contact_indices, m),
            (self.selected_rows, n),
            (self.cara_rows, n),
        ):
            if idx.size and (idx.min() < 0 or idx.max() >= limit):
                raise MalformedCertificate("an index field points outside its table")
        if not math.isfinite(float(self.contact_tol)):
            raise MalformedCertificate("contact_tol is not finite")
        rows, offsets = self._normalized
        if not (np.isfinite(rows).all() and np.isfinite(offsets).all()):
            raise MalformedCertificate("the map sends a normal to zero or out of range")

    @_once
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

    @_once
    def contact_points(self) -> np.ndarray:
        return _frozen(self.norm_normals[self.contact_indices])

    @_once
    def x_rows(self) -> np.ndarray:
        """The contact rows of X: the selected rows, then the hull rows, each
        once, in the order first seen."""
        rows = dict.fromkeys(np.concatenate([self.selected_rows, self.cara_rows]).tolist())
        return _frozen(np.array(list(rows), dtype=int))

    @_once
    def x_points(self) -> np.ndarray:
        return _frozen(self.contact_points[self.x_rows])

    @_once
    def g_indices(self) -> np.ndarray:
        return _frozen(self.contact_indices[self.x_rows])

    @_once
    def selected_points(self) -> np.ndarray:
        return _frozen(self.contact_points[self.selected_rows])

    @property
    def s2_vertices(self) -> np.ndarray:
        return np.vstack([self.w, self.selected_points])

    @_once
    def s1(self) -> Simplex:
        vertices = np.zeros((self.dim + 1, self.dim))
        vertices[1:] = self.selected_points
        return Simplex(vertices)

    @_once
    def s1_det(self) -> float:
        """det P of the selected points P, the edges of S1 = conv{0, P}: S1's
        own, taken again only when P is too flat to make S1."""
        try:
            return self.s1.edge_det
        except DegenerateSimplex:
            return float(np.linalg.det(self.selected_points))

    @_once
    def u(self) -> np.ndarray:
        return _frozen(self.s1.vertices.sum(axis=0) / (self.dim + 1))  # S1's centroid

    @_once
    def e1(self) -> Ellipsoid:
        return max_ellipsoid_in_simplex(self.s1)

    @property
    def e1_shape(self) -> np.ndarray:
        return self.e1.shape

    @_once
    def lam(self) -> float:
        return contraction_ratio(self.u, self.w)

    @_once
    def e2_shape(self) -> np.ndarray:
        return _frozen(self.lam * self.e1_shape)

    def certified_ratio(self, lam: float) -> float:
        """Upper bound on vol(G)/vol(K) from one determinant, with E2 = lam E1.

        In the normalized frame K holds the ball of radius beta = min b_i. The
        hull chain E2 in S2 in conv(X) puts X* inside the polar of E2, and
        G = {y : a_g.y <= b_g} lies in (max_g b_g) X*. So
        vol(G)/vol(K) <= (max_g b_g / beta)^d / |det E2|, with |det E2| =
        lam^d |det E1| and |det E1| = `inscribed_det(det P, d)`. It is
        computed as 1 / ((lam beta / max_g b_g)^d |det E1|), so no power can
        overflow; a certificate whose offsets or E1 admit no bound reads inf.
        """
        beta = float(self.norm_offsets.min())
        if beta <= 0.0:
            return math.inf
        scale = lam * beta / float(self.norm_offsets[self.g_indices].max())
        det = scale**self.dim * inscribed_det(self.s1_det, self.dim)
        return 1.0 / det if det > 0.0 else math.inf

    @_once
    def ratio(self) -> float:
        try:
            lam = self.lam
        except HellyError:  # a flat base simplex inscribes no E1
            return math.inf
        return self.certified_ratio(lam)

    @property
    def bound(self) -> float:
        return explicit_bound(self.dim)

    @property
    def subfamily_size(self) -> int:
        return self.x_rows.shape[0]

    def subfamily(self) -> HPolytope:
        """The selected half-spaces, verbatim rows of the original family."""
        return HPolytope(self.normals[self.g_indices], self.offsets[self.g_indices])
