"""Geometry primitives against independent oracles.

Oracles here deliberately avoid the library's own code paths: polygon areas
come from the shoelace formula, 2-D tangent polytopes from an angular-sweep
construction, ellipsoid volumes from Monte Carlo rejection counts, and
polytope volumes from Qhull (`scipy.spatial.ConvexHull`).
"""

import itertools
import math
import time

import numpy as np
import pytest
import scipy.spatial

from conftest import reference_simplex

from hellycert import geometry, john
from hellycert.bodies import (
    Ellipsoid,
    HPolytope,
    Simplex,
    ellipsoid_affine_image,
    ellipsoid_volume,
    hpolytope_from_arrays,
    max_ellipsoid_in_simplex,
    unit_ball_volume,
)
from hellycert.checker import check_certificate
from hellycert.errors import (
    CapExceeded,
    Degenerate,
    DegenerateSimplex,
    Empty,
    HellyError,
    NoConvergence,
    PipelineError,
    Unbounded,
    ZeroNormal,
)
from hellycert.geometry import (
    chebyshev_center,
    ensure_bounded,
    facets_from_vertices,
    polar_of_points,
    vertex_enumeration,
    volume,
)
from hellycert.generators import gen_affine_warp, gen_tangent_random
from hellycert.john import inscribed_ellipsoid
from hellycert.lp import LPStatus, lp_solve
from hellycert.pipeline import select

# ---------------------------------------------------------------- oracles


def shoelace(points):
    """Polygon area; vertices get sorted by angle around their centroid."""
    pts = np.asarray(points, dtype=float)
    c = pts.mean(axis=0)
    order = np.argsort(np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0]))
    pts = pts[order]
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def sweep_tangent_polygon(angles):
    """Vertices of the polygon of tangent lines at the given sorted angles.

    Each line is {x : (cos t, sin t).x = 1}; consecutive tangent lines meet
    in one vertex as long as every angular gap is below pi.
    """
    angles = np.sort(np.asarray(angles, dtype=float))
    gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))
    assert gaps.max() < np.pi, "sweep construction needs gaps below pi"
    verts = []
    m = len(angles)
    for i in range(m):
        t1, t2 = angles[i], angles[(i + 1) % m]
        a = np.array([[np.cos(t1), np.sin(t1)], [np.cos(t2), np.sin(t2)]])
        verts.append(np.linalg.solve(a, np.ones(2)))
    return np.array(verts)


def mc_ellipsoid_volume(ell, n, seed):
    """Rejection-count estimate of an ellipsoid's volume."""
    rng = np.random.default_rng(seed)
    half = np.linalg.norm(ell.shape, axis=0)  # bounding-box half-widths
    lo, hi = ell.center - half, ell.center + half
    pts = rng.uniform(lo, hi, size=(n, ell.dim))
    y = np.linalg.solve(ell.shape, (pts - ell.center).T)
    inside = (y * y).sum(axis=0) <= 1.0
    return inside.mean() * np.prod(hi - lo)


def random_tangent_angles(rng, m):
    while True:
        angles = np.sort(rng.uniform(0, 2 * np.pi, size=m))
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))
        if gaps.max() < np.pi - 0.05:
            return angles


def cube(d, r=1.0):
    a = np.vstack([np.eye(d), -np.eye(d)])
    return hpolytope_from_arrays(a, np.full(2 * d, r))


def support_lp_bounded(poly):
    """Boundedness by brute force: maximize +-x_k over the polytope for every k.

    This is the 2d-support-LP probe `ensure_bounded` used before it became a
    single Stiemke LP; the polytope must be nonempty.
    """
    for k in range(poly.dim):
        for sgn in (1.0, -1.0):
            direction = np.zeros(poly.dim)
            direction[k] = sgn
            res = lp_solve(direction, a_ub=poly.normals, b_ub=poly.offsets, maximize=True)
            assert res.status != LPStatus.INFEASIBLE, "probe needs a nonempty polytope"
            if res.status == LPStatus.UNBOUNDED:
                return False
    return True


def boundedness_family(rng, kind, d, tilt=None, m=None):
    """Unit-offset normals of one kind; every family contains the origin.

    "random": Gaussian normals, bounded or not. "half-space": every normal
    has a positive component along u. "lineality": every normal is
    orthogonal to u. "near-half-space": normals in the plane orthogonal to u
    that positively span it, tilted by a small +-eps along u, plus normals
    with a positive u component; bounded exactly when the tilt is away from
    u. `tilt` fixes that signed eps (positive is bounded), and `m` the
    number of normals, which are otherwise drawn.
    """
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))  # its last column is u
    a = rng.normal(size=(int(rng.integers(d + 1, 3 * d + 2)) if m is None else m, d))
    if kind == "half-space":
        a[:, -1] = np.abs(a[:, -1]) + 0.05
    elif kind == "lineality":
        a[:, -1] = 0.0
    elif kind == "near-half-space":
        plane = np.vstack([np.eye(d - 1), -np.eye(d - 1), rng.normal(size=(2, d - 1))])
        eps = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-4, -2) if tilt is None else tilt
        up_rows = int(rng.integers(1, 4)) if m is None else m - plane.shape[0]
        up = rng.normal(size=(up_rows, d))
        up[:, -1] = np.abs(up[:, -1]) + 0.1
        a = np.vstack([np.hstack([plane, np.full((plane.shape[0], 1), -eps)]), up])
    return hpolytope_from_arrays(a @ q.T, np.ones(a.shape[0]))


# ------------------------------------------------------- basic containers


def test_normalize_halfspace():
    poly = hpolytope_from_arrays([[3.0, 4.0]], [10.0])
    np.testing.assert_allclose(poly.normals[0], [0.6, 0.8], atol=1e-15)
    assert poly.offsets[0] == pytest.approx(2.0)
    with pytest.raises(ZeroNormal, match="half-space 1 has a normal of length 0"):
        hpolytope_from_arrays([[1.0, 0.0], [0.0, 0.0]], [1.0, 1.0])


@pytest.mark.parametrize("order", ["C", "F"])
def test_polytope_arrays_are_frozen_c_contiguous(order):
    rng = np.random.default_rng(5)
    a = rng.normal(size=(9, 4))
    a /= np.linalg.norm(a, axis=1)[:, None]
    a = np.array(a, order=order)
    for poly in (HPolytope(a, np.ones(9)), hpolytope_from_arrays(a, np.ones(9))):
        for arr in (poly.normals, poly.offsets):
            assert arr.flags.c_contiguous and not arr.flags.writeable
        assert poly.dim == 4


def test_normalized_rows_equal_the_per_row_quotients_bitwise():
    # the rows of an F-ordered matrix, as gen_affine_warp builds one, are
    # scaled by the length np.linalg.norm gives each row alone; the pairwise
    # sums of np.linalg.norm(a, axis=1) differ from it in the last bit
    rng = np.random.default_rng(11)
    for d in range(1, 9):
        a = np.linalg.solve(rng.normal(size=(d, d)), rng.normal(size=(d, 64))).T
        assert a.flags.f_contiguous
        b = rng.uniform(0.5, 2.0, size=64)
        poly = hpolytope_from_arrays(a, b)
        for i in range(64):
            nrm = np.linalg.norm(a[i])
            assert np.array_equal(poly.normals[i], a[i] / nrm)
            assert poly.offsets[i] == b[i] / nrm


def test_polytope_validates_its_arrays():
    with pytest.raises(ZeroNormal, match="not unit length"):
        HPolytope([[1.0, 0.0], [0.0, 2.0]], [1.0, 1.0])
    with pytest.raises(ZeroNormal, match="non-finite"):
        HPolytope([[1.0, 0.0], [0.0, 1.0]], [1.0, np.inf])
    with pytest.raises(ZeroNormal, match="mismatched shapes"):
        HPolytope([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0, 1.0])


def test_caps_enforced():
    with pytest.raises(CapExceeded):
        cube(9)
    a = np.vstack([np.eye(2)] * 33)  # 66 rows > facet cap
    with pytest.raises(CapExceeded):
        hpolytope_from_arrays(np.vstack([a, -a[:1]]), np.ones(67))


def test_simplex_degeneracy():
    with pytest.raises(DegenerateSimplex):
        Simplex(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))


def test_ellipsoid_requires_spd():
    with pytest.raises(Degenerate):
        Ellipsoid(np.zeros(2), np.array([[1.0, 0.0], [0.0, -0.5]]))


# ------------------------------------------------------------ LP wrappers


def test_chebyshev_center_of_cube():
    c, r = chebyshev_center(cube(3))
    np.testing.assert_allclose(c, np.zeros(3), atol=1e-9)
    assert r == pytest.approx(1.0, abs=1e-9)


def test_empty_and_unbounded_detected():
    a = np.array([[1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(Empty):
        vertex_enumeration(hpolytope_from_arrays(a, np.array([1.0, -2.0])))
    with pytest.raises(Unbounded):
        vertex_enumeration(hpolytope_from_arrays(a, np.array([1.0, 1.0])))


@pytest.mark.parametrize("kind", ["random", "half-space", "lineality", "near-half-space"])
def test_ensure_bounded_matches_support_lp_probe(kind):
    rng = np.random.default_rng(20261018)
    verdicts = set()
    for i in range(60):
        poly = boundedness_family(rng, kind, d=2 + i % 3)
        want = support_lp_bounded(poly)
        try:
            ensure_bounded(poly)
            got = True
        except Unbounded:
            got = False
        assert got == want, f"family {i}: probe says bounded={want}"
        verdicts.add(want)
    assert verdicts == ({True, False} if kind in ("random", "near-half-space") else {False})


def solver_outcome(poly):
    """"PASS", or the type of the error the John solver raised, by
    `inscribed_ellipsoid` and by `select` (whose normalize stage wraps it)."""
    try:
        inscribed_ellipsoid(poly)
    except HellyError as exc:
        direct = type(exc)
    else:
        direct = "PASS"
    try:
        cert = select(poly)
    except PipelineError as exc:
        assert exc.stage == "normalize"
        piped = type(exc.__cause__)
    else:
        assert check_certificate(cert).passed
        piped = "PASS"
    assert direct == piped
    return direct


@pytest.mark.parametrize("kind", ["random", "half-space", "lineality", "near-half-space"])
def test_solver_types_boundedness_as_ensure_bounded_does(kind):
    # the John solver runs the Stiemke LP only when its iteration fails or
    # runs long; on every family it still agrees with that LP, bounded or not
    rng = np.random.default_rng(20261019)
    for i in range(40):
        poly = boundedness_family(rng, kind, d=2 + i % 4)
        try:
            ensure_bounded(poly)
            want = "PASS"
        except Unbounded:
            want = Unbounded
        assert solver_outcome(poly) == want, f"family {i}"


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_solver_near_the_boundedness_edge(sign):
    # tilts of 1e-12 to 1e-6: the unbounded side is always typed Unbounded;
    # the bounded side gives a passing certificate or a typed error, never a
    # certificate that fails. Bodies longer than about 1e9 of their width
    # are Unbounded to `ensure_bounded`'s floor, and between that and about
    # 1e6 the solver's residuals stall above their 1e-12 exit test, which
    # is NoConvergence
    rng = np.random.default_rng(20261020)
    seen = set()
    for i in range(12):
        tilt = sign * 10 ** rng.uniform(-12, -6)
        poly = boundedness_family(rng, "near-half-space", d=2 + i % 4, tilt=tilt)
        got = solver_outcome(poly)
        if sign < 0:
            assert got is Unbounded, f"body {i}"
        else:
            assert got in ("PASS", Unbounded, NoConvergence), f"body {i}"
            if got is Unbounded:
                with pytest.raises(Unbounded):
                    ensure_bounded(poly)
        seen.add(got)
    assert Unbounded in seen


@pytest.mark.parametrize(
    "kind, tilt",
    [
        ("half-space", None),
        ("lineality", None),
        ("near-half-space", -1e-3),
        ("near-half-space", -1e-9),
        ("near-half-space", 1e-9),
        ("near-half-space", 1e-6),
    ],
)
def test_solver_failure_is_prompt_at_the_caps(kind, tilt):
    # an unbounded body is typed Unbounded, a "half-space" cone too: its
    # normals have full rank and its inscribed radius is unbounded, which
    # the least-squares start does not see, so the solver's boundedness LP
    # types it; a bounded body this close to the edge may not converge
    want = (Unbounded, NoConvergence) if tilt is not None and tilt > 0 else Unbounded
    rng = np.random.default_rng(8)
    for _ in range(3):
        poly = boundedness_family(rng, kind, d=8, tilt=tilt, m=64)
        start = time.perf_counter()
        with pytest.raises(PipelineError) as info:
            select(poly)
        assert time.perf_counter() - start < 1.0
        assert isinstance(info.value.__cause__, want)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_ensure_bounded_solves_one_lp(monkeypatch, d):
    poly = gen_tangent_random(d, 3 * d, seed=d)
    calls = []
    inner = geometry.lp_solve

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(geometry, "lp_solve", counted)
    ensure_bounded(poly)
    assert len(calls) == 1


@pytest.mark.parametrize("m", [1, 2, 3])
def test_ensure_bounded_needs_more_half_spaces_than_dimensions(m):
    rng = np.random.default_rng(m)
    with pytest.raises(Unbounded):
        ensure_bounded(hpolytope_from_arrays(rng.normal(size=(m, 3)), np.ones(m)))


@pytest.mark.parametrize(
    "normals, offsets",
    [
        # the slab |x1| <= 1, with a redundant x1 <= 2 so that m > d: rank 1
        ([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]], [1.0, 1.0, 2.0]),
        # a half-strip: rank 2, but no positive combination of normals vanishes
        ([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [1.0, 1.0, 1.0]),
    ],
)
def test_ensure_bounded_rejects_strips(normals, offsets):
    with pytest.raises(Unbounded):
        ensure_bounded(hpolytope_from_arrays(np.array(normals), np.array(offsets)))


def test_ensure_bounded_leaves_emptiness_to_chebyshev_center():
    # x <= -1 and x >= 1 on the square: bounded normals, empty intersection
    empty = hpolytope_from_arrays(
        np.vstack([np.eye(2), -np.eye(2)]), np.array([-1.0, 1.0, -1.0, 1.0])
    )
    ensure_bounded(empty)
    with pytest.raises(Empty):
        vertex_enumeration(empty)


def test_flat_polytope_detected():
    a = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = np.array([0.0, 0.0, 1.0, 1.0])  # the segment x = 0, |y| <= 1
    with pytest.raises(Degenerate):
        vertex_enumeration(hpolytope_from_arrays(a, b))


# ----------------------------------------------------- vertex enumeration


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_cube_corners(d):
    verts = vertex_enumeration(cube(d)).vertices
    assert verts.shape == (2**d, d)
    want = np.array(np.meshgrid(*[[-1.0, 1.0]] * d)).reshape(d, -1).T
    got = sorted(map(tuple, np.round(verts, 9)))
    expected = sorted(map(tuple, want))
    np.testing.assert_allclose(got, expected, atol=1e-9)


def test_tangent_polygons_match_sweep_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = int(rng.integers(4, 10))
        angles = random_tangent_angles(rng, m)
        a = np.column_stack([np.cos(angles), np.sin(angles)])
        poly = hpolytope_from_arrays(a, np.ones(m))
        got = vertex_enumeration(poly).vertices
        want = sweep_tangent_polygon(angles)
        assert got.shape == want.shape
        got_sorted = got[np.lexsort((got[:, 1], got[:, 0]))]
        want_sorted = want[np.lexsort((want[:, 1], want[:, 0]))]
        np.testing.assert_allclose(got_sorted, want_sorted, atol=1e-8)


def test_redundant_halfspace_ignored():
    a = np.vstack([np.eye(2), -np.eye(2), np.array([[1.0, 1.0]]) / math.sqrt(2)])
    b = np.concatenate([np.ones(4), [5.0]])  # the diagonal constraint is slack
    verts = vertex_enumeration(hpolytope_from_arrays(a, b)).vertices
    assert verts.shape[0] == 4


def test_cross_polytope_vertices():
    # conv{+-e_i} has facets x.s <= 1 over all sign vectors s.
    d = 3
    signs = np.array(np.meshgrid(*[[-1.0, 1.0]] * d)).reshape(d, -1).T
    poly = hpolytope_from_arrays(signs, np.full(2**d, 1.0))
    verts = vertex_enumeration(poly).vertices
    assert verts.shape[0] == 2 * d
    norms = np.linalg.norm(verts, axis=1)
    np.testing.assert_allclose(norms, np.ones(2 * d), atol=1e-9)


def chebyshev_precheck(poly):
    """The interior pre-check by the Chebyshev LP alone: Empty or Unbounded
    from the LP, Degenerate below the flatness floor, then Unbounded from
    the rank test."""
    _, radius = geometry.chebyshev_center(poly)
    if radius < geometry._INTERIOR_FLOOR:
        raise Degenerate(f"inscribed radius {radius:.3e}")
    geometry._ensure_full_rank(poly.normals)


def reference_vertex_array(poly):
    """Vertices from the Chebyshev-center pre-check followed by the walk over
    every d-subset, written out here as one batch; the reference for the
    origin pre-check of `vertex_enumeration`."""
    chebyshev_precheck(poly)
    ensure_bounded(poly)
    a, b = poly.normals, poly.offsets
    m, d = a.shape
    combos = np.array(list(itertools.combinations(range(m), d)), dtype=int)
    sub_a, sub_b = a[combos], b[combos]
    good = np.abs(np.linalg.det(sub_a)) > 1e-12
    pts = np.linalg.solve(sub_a[good], sub_b[good][..., None])[..., 0]
    feas = np.all(pts @ a.T <= b[None, :] + geometry.INCIDENCE, axis=1)
    verts = geometry._dedupe_points(pts[feas], geometry.DEDUPE)
    if not verts.shape[0]:
        raise Degenerate("no vertices found")
    return verts


def precheck_family(rng, kind, d):
    """One body of a family for the interior pre-check.

    Positive offsets, so the origin is inside: "bounded" (a tangent body
    with rescaled offsets), "half-strip" and "lineality" (unbounded, from
    `boundedness_family`), and "floor-above" / "floor-below", whose
    smallest offset sits just above or below `_INTERIOR_FLOOR` (one tangent
    row moved through the origin, or both sides of a thin slab). The origin
    outside: "negative" (a translated tangent body), "empty" (one more row
    cuts everything away) and "empty-lineality" (the same cut through a
    "lineality" body, whose normals keep rank below d).
    """
    if kind in ("half-strip", "lineality"):
        return boundedness_family(rng, "half-space" if kind == "half-strip" else kind, d)
    if kind == "empty-lineality":
        body = boundedness_family(rng, "lineality", d)
        a, b = body.normals, body.offsets
    else:
        m = int(rng.integers(d + 2, 3 * d + 2))
        tangent = gen_tangent_random(d, m, seed=int(rng.integers(1 << 30)))
        a, b = tangent.normals, tangent.offsets * rng.uniform(0.5, 2.0, size=m)
    if kind.startswith("floor"):
        r = geometry._INTERIOR_FLOOR * (1.0 + 1e-3 if kind == "floor-above" else 1.0 - 1e-3)
        if rng.random() < 0.5:
            b = b.copy()
            b[0] = r
        else:
            q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            a = np.vstack([np.eye(d), -np.eye(d)]) @ q.T
            sides = rng.uniform(0.5, 2.0, size=(2, d - 1))
            b = np.concatenate([[r], sides[0], [r], sides[1]])
    elif kind == "negative":
        shift = rng.normal(size=d)
        b = b - a @ (shift * rng.uniform(2.0, 4.0) / np.linalg.norm(shift))
    elif kind.startswith("empty"):
        a = np.vstack([a, -a[:1]])
        b = np.concatenate([b, [-b[0] - 1.0]])
    return hpolytope_from_arrays(a, b)


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the type is the outcome compared
        return type(exc)


@pytest.mark.parametrize(
    "kind, want",
    [
        ("bounded", {"vertices"}),
        ("half-strip", {Unbounded}),
        ("lineality", {Unbounded}),
        ("floor-above", {"vertices"}),
        ("floor-below", {"vertices", Degenerate}),
        ("negative", {"vertices"}),
        ("empty", {Empty}),
    ],
)
def test_origin_precheck_matches_chebyshev_reference(monkeypatch, kind, want):
    rng = np.random.default_rng(sum(map(ord, kind)))
    cheb_calls = []
    inner = geometry.chebyshev_center

    def counted(poly):
        cheb_calls.append(1)
        return inner(poly)

    monkeypatch.setattr(geometry, "chebyshev_center", counted)
    seen = set()
    for i in range(24):
        poly = precheck_family(rng, kind, d=2 + i % 3)
        ref = outcome(reference_vertex_array, poly)
        cheb_calls.clear()
        got = outcome(lambda p: vertex_enumeration(p).vertices, poly)
        vol = outcome(volume, poly)
        if isinstance(ref, type):
            assert got is ref and vol is ref, f"body {i}"
            seen.add(ref)
        else:
            assert np.array_equal(got, ref), f"body {i}"
            ref_vol = geometry._polytope_volume(ref, poly.normals, poly.offsets)
            assert vol == ref_vol, f"body {i}"
            seen.add("vertices")
        if poly.offsets.min() >= geometry._INTERIOR_FLOOR:
            assert not cheb_calls, f"body {i}: the origin witness was not used"
    assert seen == want


@pytest.mark.parametrize(
    "kind, want",
    [
        ("negative", {"PASS"}),
        ("empty", {Empty}),
        ("empty-lineality", {Empty}),
        ("floor-below", {"PASS", Degenerate}),
        ("lineality", {Unbounded}),
    ],
)
def test_solver_start_types_errors_as_the_chebyshev_lp_does(monkeypatch, kind, want):
    # the John solver starts from a least-squares witness ball and runs the
    # Chebyshev LP only when that ball misses the floor; an empty, flat or
    # line-holding body is still typed as the LP path types it, in its
    # order (Empty before the rank test), and before any Newton step
    rng = np.random.default_rng(sum(map(ord, kind)) + 1)
    steps = []
    inner = john._newton_step

    def counted(*args):
        steps.append(1)
        return inner(*args)

    monkeypatch.setattr(john, "_newton_step", counted)
    seen = set()
    for i in range(24):
        poly = precheck_family(rng, kind, d=2 + i % 3)
        ref = outcome(chebyshev_precheck, poly)
        steps.clear()
        got = outcome(inscribed_ellipsoid, poly)
        if isinstance(ref, type):
            assert got is ref, f"body {i}"
            assert not steps, f"body {i}: a Newton step ran before {ref.__name__}"
            seen.add(ref)
        else:
            assert isinstance(got, Ellipsoid), f"body {i}"
            seen.add("PASS")
    assert seen == want


def test_subset_budget_refuses_before_the_walk(monkeypatch):
    # the 6-dimensional cross-polytope in H-form: C(64, 6) = 74,974,368 subsets
    d = 6
    signs = np.array(np.meshgrid(*[[-1.0, 1.0]] * d)).reshape(d, -1).T
    poly = hpolytope_from_arrays(signs, np.ones(2**d))
    assert math.comb(2**d, d) > geometry._SUBSET_BUDGET
    monkeypatch.setattr(geometry, "_dedupe_points", None)  # the walk must not start
    start = time.perf_counter()
    with pytest.raises(CapExceeded):
        vertex_enumeration(poly)
    with pytest.raises(CapExceeded):
        volume(poly)
    assert time.perf_counter() - start < 1.0


# ------------------------------------------------------------------ volume


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_cube_volume(d):
    assert volume(cube(d)) == pytest.approx(2.0**d, rel=1e-9)


# d=6 in H-form is left out: C(64, 6) facet subsets exceed the walk's
# budget (see test_subset_budget_refuses_before_the_walk); the incidence
# test below covers d=6.
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_cross_polytope_volume(d):
    signs = np.array(np.meshgrid(*[[-1.0, 1.0]] * d)).reshape(d, -1).T
    poly = hpolytope_from_arrays(signs, np.full(2**d, 1.0))
    # row normalization rescales both sides, so this is still conv{+-e_i}
    want = 2.0**d / math.factorial(d)
    assert volume(poly) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("d", [3, 5, 6])
def test_cross_polytope_volume_from_incidence(d):
    # the triangulation kernel on the vertices +-e_i and the 2^d facets
    # s.x <= 1 (every vertex lies on half of them), with no vertex walk
    verts = np.vstack([np.eye(d), -np.eye(d)])
    signs = np.array(np.meshgrid(*[[-1.0, 1.0]] * d)).reshape(d, -1).T
    got = geometry._polytope_volume(verts, signs, np.ones(2**d))
    assert got == pytest.approx(2.0**d / math.factorial(d), rel=1e-9)


@pytest.mark.parametrize("d, faces", [(3, 2**3 - 1), (4, 2**4 - 1)])
def test_volume_evaluates_each_face_once(monkeypatch, d, faces):
    calls = []
    inner = geometry._pull_face

    def counted(face, *args):
        calls.append(face)
        return inner(face, *args)

    monkeypatch.setattr(geometry, "_pull_face", counted)
    assert volume(cube(d)) == pytest.approx(2.0**d, rel=1e-9)
    assert len(set(calls)) == len(calls), "a face was triangulated twice"
    # pulling one corner visits the faces through the opposite corner down
    # to its edges: one per proper subset of coordinates fixed at that corner
    assert len(calls) == faces


@pytest.mark.parametrize("d, m", [(2, 8), (3, 8), (3, 10), (4, 10), (4, 12), (5, 10), (5, 12)])
@pytest.mark.parametrize("generator", ["tangent", "warped"])
def test_volume_matches_qhull(d, m, generator):
    for seed in range(3):
        poly = gen_tangent_random(d, m, seed=seed)
        if generator == "warped":
            poly, _, _ = gen_affine_warp(poly, seed=seed + 100)
        cert = select(poly, seed=seed)
        bodies = [
            HPolytope(cert.norm_normals, cert.norm_offsets),
            polar_of_points(cert.x_points),
        ]
        for body in bodies:
            want = scipy.spatial.ConvexHull(vertex_enumeration(body).vertices).volume
            assert volume(body) == pytest.approx(want, rel=1e-9)


def test_polygon_volume_matches_shoelace():
    rng = np.random.default_rng(23)
    for _ in range(30):
        m = int(rng.integers(4, 12))
        angles = random_tangent_angles(rng, m)
        a = np.column_stack([np.cos(angles), np.sin(angles)])
        poly = hpolytope_from_arrays(a, np.ones(m))
        want = shoelace(sweep_tangent_polygon(angles))
        assert volume(poly) == pytest.approx(want, rel=1e-9)


def test_volume_of_3d_simplex_both_forms():
    rng = np.random.default_rng(5)
    for _ in range(10):
        verts = rng.normal(size=(4, 3))
        if abs(np.linalg.det(verts[1:] - verts[0])) < 0.1:
            continue
        s = Simplex(verts)
        a, b = facets_from_vertices(verts)
        hv = volume(hpolytope_from_arrays(a, b))
        assert hv == pytest.approx(s.volume(), rel=1e-9)


def test_volume_duplicate_halfspaces_not_double_counted():
    a = np.vstack([np.eye(2), np.eye(2), -np.eye(2)])
    b = np.ones(6)
    assert volume(hpolytope_from_arrays(a, b)) == pytest.approx(4.0, rel=1e-9)


# ------------------------------------------------------------------ polars


def test_hexagon_polar_area():
    angles = np.arange(6) * np.pi / 3
    pts = np.column_stack([np.cos(angles), np.sin(angles)])
    polar = polar_of_points(pts)
    assert volume(polar) == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-9)


def test_polar_of_cube_corners_is_scaled_cross_polytope():
    corners = np.array(np.meshgrid(*[[-1.0, 1.0]] * 3)).reshape(3, -1).T
    polar = polar_of_points(corners)
    # {y : |y|_1 <= 1} has volume 2^d / d!
    assert volume(polar) == pytest.approx(8.0 / 6.0, rel=1e-9)


def test_polar_rejects_origin():
    with pytest.raises(Unbounded):
        polar_of_points(np.array([[1.0, 0.0], [0.0, 0.0]]))


# -------------------------------------------------------------- ellipsoids


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


def test_ellipsoid_volume_against_monte_carlo():
    rng = np.random.default_rng(77)
    for d in (2, 3):
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        shape = q @ np.diag(rng.uniform(0.5, 2.0, size=d)) @ q.T
        ell = Ellipsoid(rng.normal(size=d), shape)
        want = mc_ellipsoid_volume(ell, 400_000, seed=d)
        assert ellipsoid_volume(ell) == pytest.approx(want, rel=0.02)


def test_ellipsoid_support_and_membership():
    ell = Ellipsoid(np.array([1.0, 0.0]), np.diag([2.0, 0.5]))
    assert ell.support(np.array([1.0, 0.0])) == pytest.approx(3.0)
    assert ell.contains(np.array([2.9, 0.0]))
    assert not ell.contains(np.array([3.1, 0.0]))


# ------------------------------------------------- simplex inner ellipsoid


def test_reference_simplex_shape():
    for d in (1, 2, 3, 5):
        pts = reference_simplex(d)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(pts.sum(axis=0), np.zeros(d), atol=1e-12)


def test_equilateral_triangle_inner_ellipse_is_incircle():
    s = Simplex(reference_simplex(2))
    ell = max_ellipsoid_in_simplex(s)
    np.testing.assert_allclose(ell.center, np.zeros(2), atol=1e-12)
    np.testing.assert_allclose(ell.shape, 0.5 * np.eye(2), atol=1e-10)


def inner_ratio_closed_form(d):
    # d! vol(B_d) / (d^{d/2} (d+1)^{(d+1)/2})
    return (
        math.factorial(d)
        * unit_ball_volume(d)
        / (d ** (d / 2) * (d + 1) ** ((d + 1) / 2))
    )


@pytest.mark.parametrize("d", range(1, 9))
def test_inner_ellipsoid_volume_ratio(d):
    rng = np.random.default_rng(d)
    for _ in range(8):
        verts = rng.normal(size=(d + 1, d))
        if abs(np.linalg.det(verts[1:] - verts[0])) < 0.1:
            continue
        s = Simplex(verts)
        ell = max_ellipsoid_in_simplex(s)
        ratio = ellipsoid_volume(ell) / s.volume()
        assert ratio == pytest.approx(inner_ratio_closed_form(d), rel=1e-10)


def test_inner_ellipsoid_affine_equivariance():
    rng = np.random.default_rng(9)
    for d in (2, 3):
        verts = rng.normal(size=(d + 1, d))
        while abs(np.linalg.det(verts[1:] - verts[0])) < 0.1:
            verts = rng.normal(size=(d + 1, d))
        mat = rng.normal(size=(d, d)) + 2.0 * np.eye(d)
        shift = rng.normal(size=d)
        e_direct = max_ellipsoid_in_simplex(Simplex(verts @ mat.T + shift))
        e_mapped = ellipsoid_affine_image(max_ellipsoid_in_simplex(Simplex(verts)), mat, shift)
        np.testing.assert_allclose(e_direct.center, e_mapped.center, atol=1e-9)
        np.testing.assert_allclose(
            e_direct.shape @ e_direct.shape, e_mapped.shape @ e_mapped.shape, atol=1e-9
        )


def mapped_inball(simplex):
    """E1 as the inscribed ball of the regular simplex, radius 1/d, pushed
    through the affine map that carries that simplex onto this one, with
    the root of mat @ mat.T taken by its eigendecomposition."""
    d = simplex.dim
    ref = reference_simplex(d)
    mat = np.linalg.solve(ref[1:] - ref[0], simplex.vertices[1:] - simplex.vertices[0]).T
    lam, vec = np.linalg.eigh(mat @ mat.T)
    root = (vec * np.sqrt(np.clip(lam, 0.0, None))) @ vec.T
    return Ellipsoid(simplex.vertices[0] - mat @ ref[0], root / d)


def tangency_gap(simplex, ell):
    """Largest distance between a facet and E1's support along its normal."""
    a, b = simplex.facets()
    return float(np.abs(a @ ell.center + np.linalg.norm(a @ ell.shape, axis=1) - b).max())


@pytest.mark.parametrize("d", range(1, 9))
def test_inner_ellipsoid_closed_form_matches_the_mapped_inball(d):
    # random, stretched (aspect 1e6) and far (shifted by 1e4) simplices
    rng = np.random.default_rng(100 + d)
    cases = []
    while len(cases) < 30:
        verts = rng.normal(size=(d + 1, d))
        if np.linalg.cond(verts[1:] - verts[0]) > 10.0:
            continue
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        stretched = verts @ q @ np.diag(np.logspace(0.0, 6.0, d)) @ q.T
        cases += [verts, stretched, stretched + 1e4 * q[0]]
    for verts in cases:
        s = Simplex(verts)
        new, old = max_ellipsoid_in_simplex(s), mapped_inball(s)
        scale = float(np.abs(verts).max())
        np.testing.assert_allclose(new.center, old.center, rtol=0.0, atol=1e-12 * scale)
        assert np.linalg.norm(new.shape - old.shape, 2) <= 1e-9 * np.linalg.norm(old.shape, 2)
        # no less tangent than the mapped ball, up to a few roundings of the
        # gap's own evaluation at this scale
        assert tangency_gap(s, new) <= max(tangency_gap(s, old), 8 * np.finfo(float).eps * scale)


def test_inner_ellipsoid_touches_facets():
    rng = np.random.default_rng(31)
    verts = rng.normal(size=(4, 3)) * 2.0
    while abs(np.linalg.det(verts[1:] - verts[0])) < 0.5:
        verts = rng.normal(size=(4, 3)) * 2.0
    s = Simplex(verts)
    ell = max_ellipsoid_in_simplex(s)
    a, b = facets_from_vertices(verts)
    for i in range(a.shape[0]):
        # support of the ellipsoid in the facet normal direction hits the facet
        assert ell.support(a[i]) == pytest.approx(b[i], abs=1e-9)


def test_facets_of_cube_vertices():
    corners = np.array(np.meshgrid(*[[-1.0, 1.0]] * 3)).reshape(3, -1).T
    a, b = facets_from_vertices(corners)
    assert a.shape == (6, 3)
    np.testing.assert_allclose(np.sort(b), np.ones(6), atol=1e-12)


@pytest.mark.parametrize("d", range(1, 9))
def test_simplex_facets_match_facet_recovery(d):
    rng = np.random.default_rng(40 + d)
    for _ in range(5):
        verts = rng.normal(size=(d + 1, d))
        if abs(np.linalg.det(verts[1:] - verts[0])) < 0.1:
            continue
        a, b = Simplex(verts).facets()
        want_a, want_b = facets_from_vertices(verts)
        got = np.column_stack([a, b])
        want = np.column_stack([want_a, want_b])
        assert got.shape == want.shape == (d + 1, d + 1)
        np.testing.assert_allclose(
            got[np.lexsort(got.T[::-1])], want[np.lexsort(want.T[::-1])], atol=1e-9
        )
        # row i is the facet opposite vertex i
        sides = verts @ a.T - b
        assert (np.diag(sides) < 0).all()
        np.testing.assert_allclose(sides[~np.eye(d + 1, dtype=bool)], 0.0, atol=1e-9)
