"""Random instance generators.

All instances keep the unit ball inside the body: tangent instances place
every bounding hyperplane at distance exactly one from the origin, and warped
instances are affine images of those (the inscribed ball moves with the map).
"""

from __future__ import annotations

import numpy as np

from .bodies import HPolytope, hpolytope_from_arrays
from .errors import GenerationFailed, Unbounded
from .geometry import ensure_bounded

RETRY_CAP = 1000


def gen_cube(d: int, radius: float = 1.0) -> HPolytope:
    """Axis-aligned cube [-radius, radius]^d."""
    a = np.vstack([np.eye(d), -np.eye(d)])
    return hpolytope_from_arrays(a, np.full(2 * d, float(radius)))


def gen_tangent_random(d: int, m: int, seed: int) -> HPolytope:
    """m random half-spaces tangent to the unit ball, resampled until bounded.
    Raises ValueError unless 1 <= d < m: m <= d half-spaces never bound a body."""
    if not 1 <= d < m:
        raise ValueError(f"need 1 <= d < m, got d={d}, m={m}: m <= d half-spaces never bound a body")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    for _ in range(RETRY_CAP):
        a = rng.normal(size=(m, d))
        norms = np.linalg.norm(a, axis=1)
        if norms.min() <= 1e-12:
            continue
        poly = HPolytope(a / norms[:, None], np.ones(m))
        try:
            ensure_bounded(poly)
        except Unbounded:
            continue
        return poly
    raise GenerationFailed(f"no bounded tangent instance in {RETRY_CAP} tries")


def gen_affine_warp(
    poly: HPolytope, seed: int, cond_cap: float = 100.0
) -> tuple[HPolytope, np.ndarray, np.ndarray]:
    """Random invertible affine image of an instance.

    Returns (warped, mat, shift) where the warped body is {mat x + shift}.
    Singular values are sampled inside [1/sqrt(cap), sqrt(cap)] so the map's
    condition number never exceeds cond_cap.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    d = poly.dim
    half = np.sqrt(cond_cap)
    q1, _ = np.linalg.qr(rng.normal(size=(d, d)))
    q2, _ = np.linalg.qr(rng.normal(size=(d, d)))
    svals = rng.uniform(1.0 / half, half, size=d)
    mat = q1 @ np.diag(svals) @ q2
    shift = rng.normal(size=d) * 0.5
    # {x : a.x <= b} maps to {y : (mat^-T a).y <= b + (mat^-T a).shift}
    new_a = np.linalg.solve(mat.T, poly.normals.T).T
    new_b = poly.offsets + new_a @ shift
    return hpolytope_from_arrays(new_a, new_b), mat, shift
