"""Inscribed-ellipsoid solver, normalization, and contact weights."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_simplex

from hellycert import john
from hellycert.bodies import (
    HPolytope,
    Simplex,
    ellipsoid_volume,
    hpolytope_from_arrays,
    max_ellipsoid_in_simplex,
    unit_ball_volume,
)
from hellycert.certificate import CONTACT_CAP, contact_allowance, verify_decomposition
from hellycert.checker import check_certificate
from hellycert.config import CONTACT, DECOMPOSITION
from hellycert.errors import (
    Degenerate,
    Empty,
    NoConvergence,
    NoDecomposition,
    Unbounded,
)
from hellycert.generators import gen_affine_warp, gen_cube, gen_tangent_random
from hellycert.geometry import chebyshev_center, facets_from_vertices
from hellycert.john import (
    ContactDecomposition,
    contact_points,
    inscribed_ellipsoid,
    john_weights,
    normalize_position,
    random_decomposition,
)
from hellycert.pipeline import select


def worst_violation(poly, ell):
    return float(
        (
            np.linalg.norm(poly.normals @ ell.shape, axis=1)
            + poly.normals @ ell.center
            - poly.offsets
        ).max()
    )


def random_simplex_hpoly(rng, d, det_floor=0.1):
    while True:
        verts = rng.normal(size=(d + 1, d))
        if abs(np.linalg.det(verts[1:] - verts[0])) >= det_floor:
            break
    a, b = facets_from_vertices(verts)
    return Simplex(verts), hpolytope_from_arrays(a, b)


# ------------------------------------------------------------------- solver


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_cube_ellipsoid_is_unit_ball(d):
    ell = inscribed_ellipsoid(gen_cube(d))
    np.testing.assert_allclose(ell.center, np.zeros(d), atol=1e-8)
    np.testing.assert_allclose(ell.shape, np.eye(d), atol=1e-8)
    assert ellipsoid_volume(ell) == pytest.approx(unit_ball_volume(d), rel=1e-8)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_solver_matches_simplex_closed_form(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(4):
        simplex, poly = random_simplex_hpoly(rng, d)
        closed = max_ellipsoid_in_simplex(simplex)
        solved = inscribed_ellipsoid(poly)
        assert ellipsoid_volume(solved) == pytest.approx(
            ellipsoid_volume(closed), rel=1e-6
        )
        np.testing.assert_allclose(solved.center, closed.center, atol=1e-5)


def test_solver_affine_covariance_on_warped_cube():
    for seed in range(4):
        warped, mat, _ = gen_affine_warp(gen_cube(3), seed=seed)
        ell = inscribed_ellipsoid(warped)
        want = abs(np.linalg.det(mat)) * unit_ball_volume(3)
        assert ellipsoid_volume(ell) == pytest.approx(want, rel=1e-7)


def test_solver_error_cases():
    a = np.array([[1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(Empty):
        inscribed_ellipsoid(hpolytope_from_arrays(a, np.array([1.0, -2.0])))
    with pytest.raises(Unbounded):
        inscribed_ellipsoid(hpolytope_from_arrays(a, np.array([1.0, 1.0])))
    flat = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    with pytest.raises(Degenerate):
        inscribed_ellipsoid(hpolytope_from_arrays(flat, np.array([0.0, 0.0, 1.0, 1.0])))


def test_solver_feasibility_of_result():
    rng_seeds = [(2, 8, 3), (3, 10, 4), (4, 14, 5)]
    for d, m, seed in rng_seeds:
        poly = gen_tangent_random(d, m, seed)
        assert worst_violation(poly, inscribed_ellipsoid(poly)) <= 1e-8


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_solver_iteration_count(monkeypatch, d):
    calls = []
    inner = john._newton_step

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(john, "_newton_step", counted)
    most = 0
    for m in sorted({d + 2, 4 * d, 64}):
        for seed in range(2):
            base = gen_tangent_random(d, m, seed=100 * d + m + seed)
            for poly in (base, gen_affine_warp(base, seed=seed)[0]):
                calls.clear()
                inscribed_ellipsoid(poly)
                most = max(most, len(calls))
    # these solves take at most 18 steps; 40 leaves headroom
    assert 0 < most <= 40


def _mean_select_steps(monkeypatch, bodies):
    calls = []
    inner = john._newton_step

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(john, "_newton_step", counted)
    for poly in bodies:
        select(poly)
    return len(calls) / len(bodies)


def _tangent_and_warped(d, m):
    for seed in range(10):
        poly = gen_tangent_random(d, m, seed=seed)
        yield poly
        yield gen_affine_warp(poly, seed=seed + 5000)[0]


def test_select_newton_steps(monkeypatch):
    # Mehrotra's corrector on top of his adaptive centering, from the Dikin
    # ellipsoid of the least-squares start: 5.2, 8.05 and 11.05 steps.
    # Without the corrector these means were 6.3, 10.7 and 16.0; with the
    # centering share fixed at 0.1, 11.1, 13.25 and 16.55; and with adaptive
    # centering from uniform weights at the Chebyshev center 6.6, 10.95 and
    # 16.35
    d2 = [gen_affine_warp(gen_tangent_random(2, 64, seed=s), seed=s + 5000)[0] for s in range(10)]
    assert _mean_select_steps(monkeypatch, d2) <= 5.6
    assert _mean_select_steps(monkeypatch, list(_tangent_and_warped(4, 16))) <= 9.0
    assert _mean_select_steps(monkeypatch, list(_tangent_and_warped(8, 64))) <= 12.0


@pytest.mark.parametrize("d, m", [(2, 64), (4, 16), (8, 64)])
def test_newton_step_solves_one_bordered_matrix(monkeypatch, d, m):
    # each step factors nothing but its bordered matrix of order m + d: one
    # solve for the affine and centering columns and, while the corrector
    # applies, one more with the same matrix; no inverse
    calls = []
    inner = john._newton_step
    solve, inv = np.linalg.solve, np.linalg.inv

    def counted_solve(mat, rhs):
        calls[-1].append(mat.copy())
        return solve(mat, rhs)

    def counted_inv(mat):
        calls[-1].append("inv")
        return inv(mat)

    def counted_step(*args):
        calls.append([])
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        monkeypatch.setattr(np.linalg, "inv", counted_inv)
        try:
            return inner(*args)
        finally:
            monkeypatch.setattr(np.linalg, "solve", solve)
            monkeypatch.setattr(np.linalg, "inv", inv)

    monkeypatch.setattr(john, "_newton_step", counted_step)
    select(gen_affine_warp(gen_tangent_random(d, m, seed=3), seed=5003)[0])
    assert calls and all(1 <= len(step) <= 2 for step in calls)
    assert any(len(step) == 2 for step in calls)
    for step in calls:
        assert all(not isinstance(mat, str) and mat.shape == (m + d, m + d) for mat in step)
        assert all(np.array_equal(mat, step[0]) for mat in step)


@pytest.mark.parametrize("inradius", [1e-3, 1e3])
@pytest.mark.parametrize("d", [2, 4, 6])
def test_solver_on_far_simplex_of_any_size(d, inradius):
    rng = np.random.default_rng(700 + d)
    verts = rng.normal(size=(d + 1, d))
    _, r = chebyshev_center(hpolytope_from_arrays(*Simplex(verts).facets()))
    verts = (verts - verts.mean(axis=0)) * (inradius / r) + 1e4 * np.ones(d) / math.sqrt(d)
    simplex = Simplex(verts)
    closed = max_ellipsoid_in_simplex(simplex)
    solved = inscribed_ellipsoid(hpolytope_from_arrays(*simplex.facets()))
    assert ellipsoid_volume(solved) == pytest.approx(ellipsoid_volume(closed), rel=1e-7)
    np.testing.assert_allclose(solved.center, closed.center, rtol=0.0, atol=1e-6 * inradius)


@pytest.mark.parametrize("d", range(2, 9))
def test_solver_on_ill_conditioned_cube(d):
    warped, mat, _ = gen_affine_warp(gen_cube(d), seed=d, cond_cap=1e4)
    ell = inscribed_ellipsoid(warped)
    want = abs(np.linalg.det(mat)) * unit_ball_volume(d)
    assert ellipsoid_volume(ell) == pytest.approx(want, rel=1e-8)
    assert worst_violation(warped, ell) <= 0.0


def test_solver_budget_exhaustion_raises(monkeypatch):
    # the iteration cap is a hard stop: an unfinished solve is never returned
    poly = gen_affine_warp(gen_tangent_random(3, 10, seed=1), seed=1)[0]
    for cap in (0, 2):
        monkeypatch.setattr(john, "_NEWTON_CAP", cap)
        with pytest.raises(NoConvergence):
            inscribed_ellipsoid(poly)


def test_solver_regression_far_center():
    # acceptance-corpus body whose John ellipsoid sits more than a thousand
    # Chebyshev radii from the Chebyshev center
    base = gen_tangent_random(4, 6, seed=91)
    warped, mat, _ = gen_affine_warp(base, seed=5091)
    want = abs(np.linalg.det(mat)) * ellipsoid_volume(inscribed_ellipsoid(base))
    ell = inscribed_ellipsoid(warped)
    assert ellipsoid_volume(ell) == pytest.approx(want, rel=1e-8)
    assert worst_violation(warped, ell) <= 0.0
    dec = normalize_position(warped).decomposition
    rep = verify_decomposition(dec.points, dec.weights)
    assert rep.identity_residual <= 1e-6
    assert rep.barycenter_norm <= 1e-6


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    d=st.integers(2, 5),
    extra=st.integers(1, 12),
    seed=st.integers(0, 10**6),
    log_scale=st.floats(-3.0, 3.0),
    log_cond=st.floats(0.0, 4.0),
)
def test_solver_property_feasible_and_certified(d, extra, seed, log_scale, log_cond):
    """The ellipsoid fits, and its contacts resolve the identity with zero
    barycenter: by John's theorem that decomposition certifies it is the
    largest, whichever solver produced it."""
    base = gen_tangent_random(d, d + extra, seed=seed)
    warped, _, _ = gen_affine_warp(base, seed=seed, cond_cap=10.0**log_cond)
    poly = hpolytope_from_arrays(warped.normals, warped.offsets * 10.0**log_scale)
    assert worst_violation(poly, inscribed_ellipsoid(poly)) <= 1e-8
    dec = normalize_position(poly).decomposition
    rep = verify_decomposition(dec.points, dec.weights)
    assert rep.identity_residual <= DECOMPOSITION
    assert rep.barycenter_norm <= DECOMPOSITION


# ------------------------------------------------------------------ weights


def test_john_weights_axis_pairs():
    d = 3
    pts = np.vstack([np.eye(d), -np.eye(d)])
    w = john_weights(pts)
    np.testing.assert_allclose(w, np.full(2 * d, 0.5), atol=1e-10)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_john_weights_regular_simplex(d):
    pts = reference_simplex(d)
    w = john_weights(pts)
    np.testing.assert_allclose(w, np.full(d + 1, d / (d + 1)), atol=1e-10)


def test_john_weights_rejects_half_sphere():
    # vectors in an open half-space cannot resolve the identity
    pts = np.array([[1.0, 0.0], [0.9, 0.1], [0.8, 0.2]])
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    with pytest.raises(NoDecomposition):
        john_weights(pts)


def test_john_weights_drops_redundant_points():
    d = 2
    pts = np.vstack([np.eye(d), -np.eye(d), [[math.cos(0.7), math.sin(0.7)]]])
    w = john_weights(pts)
    rep = verify_decomposition(pts, w)
    assert rep.identity_residual <= 1e-10
    assert rep.barycenter_norm <= 1e-10


def test_decomposition_type_invariants():
    # +-e_i with weight 1/2 is fine
    d = 2
    pts = np.vstack([np.eye(d), -np.eye(d)])
    dec = ContactDecomposition(points=pts, weights=np.full(2 * d, 0.5))
    assert dec.size == 4 and dec.dim == 2


# ------------------------------------------------------------ normalization


def test_normalize_cube_is_identity_map():
    ni = normalize_position(gen_cube(3, radius=1.0))
    np.testing.assert_allclose(ni.map_matrix, np.eye(3), atol=1e-8)
    np.testing.assert_allclose(ni.map_offset, np.zeros(3), atol=1e-8)
    assert ni.decomposition.size == 6
    np.testing.assert_allclose(ni.decomposition.weights, np.full(6, 0.5), atol=1e-6)


def test_normalize_scaled_shifted_cube():
    a = np.vstack([np.eye(2), -np.eye(2)])
    b = np.array([3.0, 3.0, 1.0, 1.0])  # cube [-1,3]^2, ball radius 2 at (1,1)
    ni = normalize_position(hpolytope_from_arrays(a, b))
    np.testing.assert_allclose(ni.map_offset, [1.0, 1.0], atol=1e-7)
    np.testing.assert_allclose(ni.map_matrix, 2.0 * np.eye(2), atol=1e-7)
    np.testing.assert_allclose(ni.norm_offsets, np.ones(4), atol=1e-8)


def test_normalized_offsets_at_least_one():
    for d, m, seed in [(2, 7, 1), (3, 9, 2), (4, 13, 3), (5, 16, 4)]:
        ni = normalize_position(gen_tangent_random(d, m, seed))
        assert ni.norm_offsets.min() >= 1.0 - 1e-8
        rep = verify_decomposition(ni.decomposition.points, ni.decomposition.weights)
        assert rep.identity_residual <= 1e-6
        assert rep.barycenter_norm <= 1e-6
        assert rep.weight_sum == pytest.approx(d, abs=1e-5)
        assert ni.decomposition.size >= d + 1


def test_normalize_warped_instances():
    for d, seed in [(2, 11), (3, 12), (4, 13)]:
        base = gen_tangent_random(d, 2 * d + 1, seed)
        warped, _, _ = gen_affine_warp(base, seed)
        ni = normalize_position(warped)
        rep = verify_decomposition(ni.decomposition.points, ni.decomposition.weights)
        assert rep.identity_residual <= 1e-6
        assert rep.barycenter_norm <= 1e-6


def test_contact_points_on_normalized_cube():
    ni = normalize_position(gen_cube(2))
    pts, idx = contact_points(HPolytope(ni.norm_normals, ni.norm_offsets))
    assert idx.shape[0] == 4
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), np.ones(4), atol=1e-12)


def test_contact_source_indices_are_consistent():
    ni = normalize_position(gen_tangent_random(3, 9, 21))
    src = ni.decomposition.source_indices
    np.testing.assert_allclose(
        ni.decomposition.points, ni.norm_normals[src], atol=1e-12
    )
    assert ni.contact_tol == CONTACT
    assert ni.norm_offsets[src].max() <= 1.0 + CONTACT


def test_recorded_contact_beyond_the_contact_tolerance_is_refused():
    # shifted by 1e10 inradii, the normalized offsets keep about six digits
    # of the body: the recorded contact tolerance grows to cover a contact's
    # offset, and the checker refuses the certificate if it does not
    poly = gen_tangent_random(2, 8, seed=0)
    shift = 1e10 * np.array([1.0, 1.0]) / math.sqrt(2.0)
    far = HPolytope(poly.normals, poly.offsets + poly.normals @ shift)
    cert = select(far)
    tangency = cert.norm_offsets[cert.contact_indices].max() - 1.0
    assert cert.contact_tol > 10 * CONTACT and 10 * CONTACT < tangency <= cert.contact_tol
    assert cert.contact_tol == contact_allowance(far.normals, far.offsets, cert.map_offset, cert.contact_indices)
    assert check_certificate(cert, scale=1).passed
    # both items that replay a contact's tangency refuse the narrow record
    narrow = dataclasses.replace(cert, contact_tol=CONTACT)
    assert set(check_certificate(narrow).failures()) == {"decomposition", "subfamily_membership"}


def test_recorded_contact_tolerance_is_held_to_the_rows_allowance():
    # the checker derives the allowance from the stored rows and center, by
    # the producer's formula: a wider record fails, and so does a body moved
    # so far that its allowance passes CONTACT_CAP
    cert = select(gen_tangent_random(3, 12, seed=0))
    allowed = contact_allowance(cert.normals, cert.offsets, cert.map_offset, cert.contact_indices)
    assert cert.contact_tol == allowed == CONTACT
    assert check_certificate(cert).passed
    wide = dataclasses.replace(cert, contact_tol=1.0)
    assert check_certificate(wide).failures() == ("decomposition",)
    assert "contact tolerance 1.00e+00 beyond 1.00e-07" in check_certificate(wide)["decomposition"].detail
    shift = np.full(3, 1e12)
    moved = dataclasses.replace(
        cert,
        offsets=cert.offsets + cert.normals @ shift,
        map_offset=cert.map_offset + shift,
        contact_tol=CONTACT_CAP,
    )
    assert contact_allowance(moved.normals, moved.offsets, moved.map_offset, moved.contact_indices) == math.inf
    report = check_certificate(moved, scale=1e6)
    assert "decomposition" in report.failures() and "beyond inf" in report["decomposition"].detail


def test_a_body_beyond_the_contact_cap_is_degenerate():
    # 1e11 inradii out, the rounding of this body's offsets allows contacts
    # 1.8e-4 off tangency: past CONTACT_CAP, so a typed refusal
    poly = gen_tangent_random(2, 8, seed=0)
    shift = 1e11 * np.array([1.0, 1.0]) / math.sqrt(2.0)
    with pytest.raises(Degenerate, match="lost the digits of the body"):
        normalize_position(HPolytope(poly.normals, poly.offsets + poly.normals @ shift))


def _square_with_light_contact(delta):
    """The square |x|_inf <= 1 with its first normal turned by -delta, cut by
    a diagonal half-space tangent to the unit ball. The ball is the John
    ellipsoid; the five weights are unique and the diagonal's is about delta."""
    angles = np.array([-delta, np.pi / 2, np.pi, 1.5 * np.pi, np.pi / 4])
    normals = np.column_stack([np.cos(angles), np.sin(angles)])
    c, s = normals.T
    exact = np.linalg.solve(np.array([c * c, s * s, c * s, c, s]), [1.0, 1.0, 0.0, 0.0, 0.0])
    return HPolytope(normals, np.ones(5)), exact


@pytest.mark.parametrize("warp_seed", [None, 3])
def test_contact_of_small_weight_is_admitted_at_the_contact_tolerance(warp_seed):
    # at the target gap this contact's slack is about its share of the gap
    # over its weight, well above 1e-7: the solver must go on until the
    # slack is inside the contact tolerance, not widen the tolerance
    poly, exact = _square_with_light_contact(5e-6)
    assert exact.min() > 0.0 and exact[4] == pytest.approx(5e-6, rel=0.01)
    if warp_seed is not None:
        poly, _, _ = gen_affine_warp(poly, seed=warp_seed)
    ni = normalize_position(poly)
    src = ni.decomposition.source_indices
    np.testing.assert_array_equal(src, np.arange(5))
    np.testing.assert_allclose(ni.decomposition.weights, exact, rtol=1e-3)
    assert ni.contact_tol == CONTACT
    assert ni.norm_offsets[src].max() <= 1.0 + CONTACT


@pytest.mark.parametrize("pull, want", [(0.0, [0, 1, 3]), (1e-3, [0, 2, 3]), (5e-3, [0, 2, 3])])
def test_row_just_off_the_ellipsoid_keeps_no_weight(pull, want):
    # this instance's John ellipsoid is that of the triangle of rows 0, 1, 3;
    # row 2 misses it by 9e-6. Pulling row 2 in by 1e-3 or more swaps its
    # part with row 1, which then misses by 3e-5 or more. At the target gap
    # the missing row still carries a weight of 1e-6 to 1e-5: dropping it
    # there breaks the residual cap, admitting it needs a wider tolerance.
    poly = gen_tangent_random(2, 5, seed=172)
    offsets = poly.offsets.copy()
    offsets[2] -= pull
    ni = normalize_position(HPolytope(poly.normals, offsets))
    np.testing.assert_array_equal(ni.decomposition.source_indices, want)
    assert ni.contact_tol == CONTACT
    rep = verify_decomposition(ni.decomposition.points, ni.decomposition.weights)
    assert max(rep.identity_residual, rep.barycenter_norm) <= DECOMPOSITION


def test_decomposition_residual_is_checked_at_the_callers_tolerance(monkeypatch):
    # weights 3e-6 too heavy on the square: an identity residual of 3e-6,
    # above the default cap of 1e-6 and within the 1e-5 of a tenfold scale
    solve = john._john_solve

    def heavy(poly):
        ell, y, tangent = solve(poly)
        return ell, y * (1.0 + 3e-6), tangent

    monkeypatch.setattr(john, "_john_solve", heavy)
    square = gen_cube(2)
    ni = normalize_position(square)
    rep = verify_decomposition(ni.decomposition.points, ni.decomposition.weights)
    assert 1e-6 < rep.identity_residual <= 1e-5
    # at the default tolerance the checker is the one that refuses it
    cert = select(square)
    assert check_certificate(cert, scale=1).failures() == ("decomposition",)
    assert check_certificate(cert).passed


# --------------------------------------------------------------- generators


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_random_decomposition_residuals(d):
    dec = random_decomposition(d, seed=d * 7)
    rep = verify_decomposition(dec.points, dec.weights)
    assert rep.identity_residual <= 1e-10
    assert rep.barycenter_norm <= 1e-10
    assert rep.weight_sum == pytest.approx(d, abs=1e-9)
    assert dec.size >= d + 1


def test_random_decomposition_deterministic():
    a = random_decomposition(3, seed=5)
    b = random_decomposition(3, seed=5)
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.weights, b.weights)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_random_unbalanced_decomposition(d):
    dec = random_decomposition(d, seed=d * 13, balanced=False)
    rep = verify_decomposition(dec.points, dec.weights)
    assert rep.identity_residual <= 1e-10
    assert rep.barycenter_norm >= 1e-3  # genuinely unbalanced
