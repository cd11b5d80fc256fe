"""End-to-end subfamily selection with a replayable certificate.

The run moves the instance so its largest inscribed ellipsoid is the unit
ball, picks d well-spread contact points, builds the base simplex over the
origin and its largest inscribed ellipsoid, shoots a ray opposite that
ellipsoid's center to the boundary of the contact hull, where the ray LP
writes the hit point over at most d hull points, and contracts the
ellipsoid to the origin. The contact points touched along the way name at
most 2d input half-spaces whose intersection is provably small relative to
the input's. The run ends in a `Certificate`, which derives everything
it does not store by the closed forms of `certificate`.
"""

from __future__ import annotations

import numpy as np

from .bodies import DEDUPE, Ellipsoid, HPolytope, Simplex, max_ellipsoid_in_simplex
from .bounds import explicit_bound, simplex_volume_floor
from .certificate import DEGENERATE_RAY, SELECTORS, Certificate, certified_ratio, contraction_ratio, subfamily_rows
from .config import DEFAULT, Tolerances
from .dr import dr_select
from .errors import (
    DegenerateSimplex,
    HellyError,
    Misaligned,
    NumericalBreakdown,
    PipelineError,
    ReductionFailed,
)
from .john import NormalizedInstance, normalize_position
from .lp import LPStatus, lp_solve
from .pivovarov import sample_indices

_SAMPLE_CAP = 200
_DROP_TOL = 1e-12  # combination weights below this count as zero


def build_S1(points: np.ndarray, enforce_floor: bool = True) -> Ellipsoid:
    """Largest ellipsoid inscribed in the simplex over the origin and the d
    selected points; its center u is the simplex's centroid.

    The greedy windows force vol >= 1/(sqrt(d!) d^(d/2)), which is certified
    here when requested; sampled selections offer no floor.
    """
    d = points.shape[1]
    simplex = Simplex(np.vstack([np.zeros(d), points]))
    vol = simplex.volume()
    if enforce_floor and vol < simplex_volume_floor(d) - 1e-9:
        raise DegenerateSimplex(
            f"selected simplex volume {vol:.6e} below the guaranteed floor"
        )
    return max_ellipsoid_in_simplex(simplex)


def ray_hit_boundary(points: np.ndarray, direction: np.ndarray):
    """Farthest point of conv(points) along a unit ray from the origin.

    Maximizes t with t*direction a convex combination of the points;
    the simplex method's basic solution spends one basic variable on t, so
    at most d combination weights are nonzero and the hit point needs no
    hull rewrite.
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
    """The boundary point's hull combination over at most d of its points.

    Drops the weights below _DROP_TOL and renormalizes the rest. The ray
    LP's basic solution spends one basic variable on t >= 1/d, so at most d
    weights survive; more is a ReductionFailed, as is a combination that is
    not convex or does not reproduce the point.
    """
    vertices = np.atleast_2d(np.asarray(vertices, dtype=float))
    point = np.asarray(point, dtype=float).ravel()
    coeffs = np.asarray(coeffs, dtype=float)
    d = vertices.shape[1]
    if coeffs.min() < -1e-9 or abs(coeffs.sum() - 1.0) > 1e-9:
        raise ReductionFailed("input coefficients are not a convex combination")
    if np.linalg.norm(vertices.T @ coeffs - point) > 1e-8:
        raise ReductionFailed("input combination does not reproduce the point")
    support = np.flatnonzero(coeffs >= _DROP_TOL)
    if support.size > d:
        raise ReductionFailed(f"{support.size} hull weights, more than d = {d}")
    out = coeffs[support]
    out = out / out.sum()
    if np.linalg.norm(vertices[support].T @ out - point) > 1e-8:
        raise ReductionFailed("reduced combination no longer reproduces the point")
    return support, out


def contract_E1(e1: Ellipsoid, w: np.ndarray):
    """Contract the simplex ellipsoid toward the boundary point w so its
    center u lands on the origin.

    The ratio |w|/(|u|+|w|) does exactly that when w lies opposite u through
    the origin, and it never drops below 1/(d+1). A centered ellipsoid
    (|u| at most DEGENERATE_RAY) needs no contraction, and on a selected
    simplex only rounding can make one: u is the centroid of S1, so
    (d+1)<u, z_d> = <v_1 + ... + v_d, z_d> = <v_d, z_d>, the last window.
    The greedy windows put that at least 1/sqrt(d), so |u| >= 1/((d+1)
    sqrt(d)). A sampled draw has |det V| > 1e-9 and windows at most 1, so
    |u| >= |det V|/(d+1) > 1.1e-10 > DEGENERATE_RAY for d <= 8.
    """
    u = e1.center
    w = np.asarray(w, dtype=float).ravel()
    d = u.shape[0]
    nu = float(np.linalg.norm(u))
    nw = float(np.linalg.norm(w))
    if nu <= DEGENERATE_RAY:
        return Ellipsoid(np.zeros(d), e1.shape), 1.0
    if nw <= 1e-14:
        raise Misaligned("contraction center sits at the origin")
    cosine = float(u @ w) / (nu * nw)
    if cosine > -1.0 + 1e-8:
        raise Misaligned(f"w is not opposite u through the origin (cosine {cosine:.2e})")
    lam = contraction_ratio(u, w)
    center = w + lam * (u - w)
    if np.linalg.norm(center) > 1e-10:
        raise NumericalBreakdown(
            f"contraction center missed the origin by {np.linalg.norm(center):.2e}"
        )
    if lam < 1.0 / (d + 1) - 1e-9:
        raise NumericalBreakdown(f"contraction ratio {lam:.6e} below 1/(d+1)")
    return Ellipsoid(np.zeros(d), lam * e1.shape), lam


def assemble_subfamily(
    inst: NormalizedInstance,
    selector: str,
    rows: np.ndarray,
    w: np.ndarray,
    e2: Ellipsoid,
    cara_rows: np.ndarray,
    cara_coeffs: np.ndarray,
) -> Certificate:
    """Merge the touched contact points into X, name the half-spaces they
    came from, bound their volume ratio, and fill the certificate.

    A hull point within DEDUPE of a selected point, or of an earlier hull
    point, is that point: its row becomes the chosen row and the two hull
    coefficients add up, so X never holds a half-space twice (a family may
    repeat one). Re-checks the one containment the ratio rests on: the
    contracted ellipsoid inside the apex simplex. The apex simplex lies in
    conv(X), up to the 1e-8 by which caratheodory_reduce lets its hull
    combination miss the apex and the DEDUPE by which a merged point moves,
    so polarity puts X* inside the contracted ellipsoid's polar.
    """
    dec = inst.decomposition
    d = inst.dim
    merged: dict[int, float] = {}
    for row, coeff in zip(cara_rows.tolist(), cara_coeffs.tolist()):
        chosen = [*rows.tolist(), *merged]
        near = np.linalg.norm(dec.points[chosen] - dec.points[row], axis=1) <= DEDUPE
        if near.any():
            row = chosen[int(near.argmax())]
        merged[row] = merged.get(row, 0.0) + coeff
    cara_rows = np.array(list(merged), dtype=int)
    cara_coeffs = np.array(list(merged.values()))
    x_rows = subfamily_rows(rows, cara_rows)
    if x_rows.size > 2 * d:
        raise NumericalBreakdown(f"{x_rows.size} selected points exceed 2d = {2 * d}")

    s2 = np.vstack([w, dec.points[rows]])
    facet_a, facet_b = Simplex(s2).facets()
    support = np.linalg.norm(facet_a @ e2.shape, axis=1)
    worst = float((support - facet_b).max())
    if worst > 1e-8:
        raise NumericalBreakdown(
            f"contracted ellipsoid leaves the apex simplex by {worst:.2e}"
        )

    ratio = certified_ratio(inst.norm_offsets, dec.source_indices[x_rows], e2.shape)
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
        selected_rows=rows,
        w=w,
        cara_rows=cara_rows,
        cara_coeffs=cara_coeffs,
    )


def _sample_selection(dec, seed) -> np.ndarray:
    """Random alternative to the greedy pick: the rows of d contact points
    drawn by `sample_indices`, as `pivovarov_sample` draws them. Draws whose
    simplex is numerically flat are rejected, since the downstream ellipsoid
    needs interior to live in; no window guarantee travels with the result."""
    rng = np.random.default_rng(seed)
    for _ in range(_SAMPLE_CAP):
        rows = sample_indices(dec, rng, dec.dim)
        if abs(np.linalg.det(dec.points[rows])) > 1e-9:
            return rows
    raise DegenerateSimplex(f"no full-dimensional sample in {_SAMPLE_CAP} draws")


def select(
    poly: HPolytope,
    selector: str = "dr",
    seed: int | None = None,
    tolerances: Tolerances = DEFAULT,
) -> Certificate:
    """Run the whole construction on a bounded full-dimensional instance.

    Deterministic for the default greedy selector (input order decides
    ties); the sampling selector takes its randomness from seed; tolerances
    govern the position normalization. Errors are wrapped with the stage
    that raised them.
    """
    if selector not in SELECTORS:
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
        rows = stage("select", dr_select, dec)
    else:
        rows = stage("select", _sample_selection, dec, seed)
    e1 = stage("simplex", build_S1, dec.points[rows], enforce_floor=selector == "dr")
    nu = np.linalg.norm(e1.center)
    direction = -e1.center / nu if nu > DEGENERATE_RAY else np.eye(d)[0]
    w, coeffs = stage("ray", ray_hit_boundary, dec.points, direction)
    cara_rows, cara_coeffs = stage("reduce", caratheodory_reduce, w, dec.points, coeffs)
    e2, _ = stage("contract", contract_E1, e1, w)
    return stage(
        "assemble",
        assemble_subfamily,
        inst,
        selector,
        rows,
        w,
        e2,
        cara_rows,
        cara_coeffs,
    )
