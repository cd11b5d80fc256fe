"""End-to-end subfamily selection with a replayable certificate.

The run moves the instance so its largest inscribed ellipsoid is the unit
ball, picks d well-spread contact points, builds the base simplex over the
origin and its largest inscribed ellipsoid, shoots a ray opposite that
ellipsoid's center to the boundary of the contact hull, where the ray LP
writes the hit point over at most d hull points, and names the half-spaces
of the contact points touched along the way: at most 2d, whose intersection
is provably small relative to the input's. The run ends in a `Certificate`,
which derives everything it does not store (the contracted ellipsoid and
the certified ratio among them) by the closed forms of `certificate`.

Each stage raises only where the next one cannot compute. Every inequality
of the argument is `check_certificate`'s to measure, not the producer's.
"""

from __future__ import annotations

import numpy as np

from .bodies import DEDUPE, Ellipsoid, HPolytope, Simplex
from .certificate import DEGENERATE_RAY, SELECTORS, Certificate, contraction_ratio
from .dr import dr_select, spanning_rows
from .errors import HellyError, NumericalBreakdown, PipelineError
from .john import NormalizedInstance, normalize_position
from .lp import LPStatus, lp_solve

_SAMPLE_FLATNESS = 1e-9  # |det| floor of a sampled simplex
_DROP_TOL = 1e-12  # combination weights below this count as zero


def build_S1(points: np.ndarray) -> Simplex:
    """The base simplex S1 over the origin and the d selected points. A flat
    simplex raises DegenerateSimplex."""
    d = points.shape[1]
    return Simplex(np.vstack([np.zeros(d), points]))


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
    return float(res.x[0]) * direction, res.x[1:].copy()


def caratheodory_reduce(coeffs):
    """The rows and weights of the ray LP's hull combination: the weights
    below _DROP_TOL dropped and the rest renormalized. The LP's basic
    solution spends one basic variable on t, so at most d survive."""
    coeffs = np.asarray(coeffs, dtype=float)
    support = np.flatnonzero(coeffs >= _DROP_TOL)
    out = coeffs[support]
    return support, out / out.sum()


def contract_E1(e1: Ellipsoid, w: np.ndarray):
    """Contract the simplex ellipsoid toward the boundary point w by the
    ratio |w|/(|u|+|w|), which carries its center u to the origin when w
    lies opposite u; the contracted ellipsoid and the ratio."""
    lam = contraction_ratio(e1.center, w)
    return Ellipsoid(np.zeros(e1.dim), lam * e1.shape), lam


def assemble_subfamily(
    inst: NormalizedInstance,
    selector: str,
    rows: np.ndarray,
    w: np.ndarray,
    cara_rows: np.ndarray,
    cara_coeffs: np.ndarray,
) -> Certificate:
    """Merge the touched contact points into X and fill the certificate.

    A hull point within DEDUPE of a selected point, or of an earlier hull
    point, is that point: its row becomes the chosen row and the two hull
    coefficients add up, so X never holds a half-space twice (a family may
    repeat one).
    """
    dec = inst.decomposition
    merged: dict[int, float] = {}
    for row, coeff in zip(cara_rows.tolist(), cara_coeffs.tolist()):
        chosen = [*rows.tolist(), *merged]
        near = np.linalg.norm(dec.points[chosen] - dec.points[row], axis=1) <= DEDUPE
        if near.any():
            row = chosen[int(near.argmax())]
        merged[row] = merged.get(row, 0.0) + coeff
    return Certificate(
        dim=inst.dim,
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
        cara_rows=np.array(list(merged), dtype=int),
        cara_coeffs=np.array(list(merged.values())),
    )


def _sample_selection(dec, seed) -> np.ndarray:
    """Random alternative to the greedy pick: d contact rows drawn one at a
    time, each by weight c_i among the contacts whose square length off the
    span of those drawn before exceeds _SAMPLE_FLATNESS^(2/d), so the drawn
    simplex's |det| stays above _SAMPLE_FLATNESS. Some contact always
    qualifies: off a span of rank k their weighted square lengths add up to
    d - k, and the weights to d. No window guarantee travels with the
    result; `pivovarov_sample` keeps the i.i.d. draws."""
    rng = np.random.default_rng(seed)
    floor = _SAMPLE_FLATNESS ** (2.0 / dec.dim)

    def draw(k, projector):
        spread = ((dec.points @ projector) * dec.points).sum(axis=1)
        p = np.where(spread > floor, dec.weights, 0.0)
        return int(rng.choice(dec.size, p=p / p.sum()))

    return spanning_rows(dec, draw)


def select(
    poly: HPolytope,
    selector: str = "dr",
    seed: int | None = None,
) -> Certificate:
    """Run the whole construction on a bounded full-dimensional instance.

    Deterministic for the default greedy selector (input order decides
    ties); the sampling selector takes its randomness from seed. Errors are
    wrapped with the stage that raised them. The certificate is returned
    unchecked: run `check_certificate` on it to trust it.
    """
    if selector not in SELECTORS:
        raise ValueError(f"unknown selector {selector!r}")

    def stage(name, fn, *args):
        try:
            return fn(*args)
        except PipelineError:
            raise
        except HellyError as exc:
            raise PipelineError(name, str(exc)) from exc

    inst = stage("normalize", normalize_position, poly)
    dec = inst.decomposition
    d = poly.dim
    if selector == "dr":
        rows = stage("select", dr_select, dec)
    else:
        rows = stage("select", _sample_selection, dec, seed)
    s1 = stage("simplex", build_S1, dec.points[rows])
    # u, E1's center, is S1's centroid, as `max_ellipsoid_in_simplex` takes
    # it, so (d+1)<u, z_d> is the last window: only rounding puts |u| at
    # DEGENERATE_RAY, and any axis then keeps the ray LP defined
    u = s1.vertices.mean(axis=0)
    nu = np.linalg.norm(u)
    direction = -u / nu if nu > DEGENERATE_RAY else np.eye(d)[0]
    w, coeffs = stage("ray", ray_hit_boundary, dec.points, direction)
    cara_rows, cara_coeffs = stage("reduce", caratheodory_reduce, coeffs)
    return stage("assemble", assemble_subfamily, inst, selector, rows, w, cara_rows, cara_coeffs)
