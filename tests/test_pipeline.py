"""Selection pipeline: frozen small cases per operation, then end-to-end
properties (bound, containments, determinism, affine invariance)."""

import math
import sys
import time

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_simplex

from hellycert import geometry, john, pipeline
from hellycert.bodies import (
    Ellipsoid,
    HPolytope,
    Simplex,
    ellipsoid_volume,
    hpolytope_from_arrays,
    max_ellipsoid_in_simplex,
)
from hellycert.bounds import (
    eq3_lower_bounds,
    explicit_bound,
    selection_windows,
    simplex_ellipsoid_ratio,
    simplex_volume_floor,
    window_allowance,
)
from hellycert.certificate import SELECTORS, verify_decomposition
from hellycert.checker import DEFAULT_SCALE, check_certificate
from hellycert.dr import dr_select
from hellycert.config import FACET_CAP
from hellycert.errors import CapExceeded, Degenerate, HellyError, PipelineError
from hellycert.generators import gen_affine_warp, gen_cube, gen_tangent_random
from hellycert.geometry import facets_from_vertices, polar_of_points, vertex_enumeration, volume
from hellycert.john import normalize_position
from hellycert.pipeline import (
    build_S1,
    caratheodory_reduce,
    contract_E1,
    ray_hit_boundary,
    select,
)


class TestBuildS1:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_cube_basis(self, d):
        e1 = max_ellipsoid_in_simplex(build_S1(np.eye(d)))
        assert np.allclose(e1.center, np.full(d, 1.0 / (d + 1)), atol=1e-9)
        assert ellipsoid_volume(e1) == pytest.approx(
            simplex_ellipsoid_ratio(d) / math.factorial(d), rel=1e-9
        )

    def test_corner_simplex_ellipsoid_area_ratio(self):
        e1 = max_ellipsoid_in_simplex(build_S1(np.eye(2)))
        ratio = ellipsoid_volume(e1) / 0.5
        assert ratio == pytest.approx(math.pi / (3.0 * math.sqrt(3.0)), rel=1e-9)

    def test_floor_skippable_for_sampled_selections(self):
        e1 = max_ellipsoid_in_simplex(build_S1(0.1 * np.eye(2)))
        # the simplex's volume is 0.005
        assert ellipsoid_volume(e1) == pytest.approx(0.005 * simplex_ellipsoid_ratio(2), rel=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_volume_product_identity_random(self, d):
        from hellycert.john import random_decomposition

        for seed in range(5):
            dec = random_decomposition(d, seed=seed)
            pts = dec.points[dr_select(dec)]
            volume_s1 = Simplex(np.vstack([np.zeros(d), pts])).volume()
            prod = float(np.prod(selection_windows(pts)))
            assert volume_s1 * math.factorial(d) == pytest.approx(prod, rel=1e-9)


DIAMOND = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


def hull_gap(point, pts):
    """L1 distance from point to conv(pts), by scipy's LP solver."""
    k, d = pts.shape
    res = scipy.optimize.linprog(
        np.concatenate([np.zeros(k), np.ones(2 * d)]),
        A_eq=np.block([[pts.T, np.eye(d), -np.eye(d)], [np.ones((1, k)), np.zeros((1, 2 * d))]]),
        b_eq=np.append(point, 1.0),
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0, res.message
    return res.fun


class TestRayHitBoundary:
    def test_cross_polytope_diagonal(self):
        direction = np.array([1.0, 1.0]) / math.sqrt(2.0)
        w, coeffs = ray_hit_boundary(DIAMOND, direction)
        assert np.allclose(w, [0.5, 0.5], atol=1e-9)
        assert np.linalg.norm(w) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-9)
        recon = coeffs @ DIAMOND
        assert np.allclose(recon, w, atol=1e-9)
        assert coeffs.sum() == pytest.approx(1.0, abs=1e-9)
        assert (coeffs > 1e-9).sum() <= 2

    def test_axis_ray_hits_vertex(self):
        w, coeffs = ray_hit_boundary(DIAMOND, np.array([1.0, 0.0]))
        assert np.allclose(w, [1.0, 0.0], atol=1e-9)
        assert coeffs[0] == pytest.approx(1.0, abs=1e-9)

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError):
            ray_hit_boundary(DIAMOND, np.array([1.0, 1.0]))

    def test_shallow_hull_fails_depth_floor(self):
        # the hit point below the 1/d floor is returned; the checker's
        # ray_depth item refuses it
        w, _ = ray_hit_boundary(0.05 * DIAMOND, np.array([1.0, 0.0]))
        assert np.linalg.norm(w) == pytest.approx(0.05, rel=1e-12)

    def test_random_hulls_match_membership_oracle(self):
        rng = np.random.default_rng(11)
        for d in (2, 3):
            for _ in range(10):
                pts = rng.standard_normal((4 * d, d))
                pts /= np.linalg.norm(pts, axis=1, keepdims=True)
                if hull_gap(np.zeros(d), pts) > 1e-10:
                    continue  # origin not interior; precondition not met
                direction = rng.standard_normal(d)
                direction /= np.linalg.norm(direction)
                w, coeffs = ray_hit_boundary(pts, direction)
                assert hull_gap(w, pts) <= 1e-8
                assert hull_gap(w * (1.0 + 1e-6), pts) > 1e-10

    def test_combination_is_convex_after_many_pivots(self):
        # on this instance the pivoted tableau's rhs drifted until the ray
        # weights summed to 1 + 1.3e-9, which hull_chain refuses at scale 1
        seed = 4000295462
        poly, _, _ = gen_affine_warp(gen_tangent_random(4, 16, seed=seed), seed=seed + 1)
        dec = normalize_position(poly).decomposition
        u = build_S1(dec.points[dr_select(dec)]).vertices.mean(axis=0)
        w, coeffs = ray_hit_boundary(dec.points, -u / np.linalg.norm(u))
        assert abs(coeffs.sum() - 1.0) <= 1e-14
        assert np.linalg.norm(dec.points.T @ coeffs - w) <= 1e-14
        assert check_certificate(select(poly)).passed


class TestCaratheodoryReduce:
    def test_already_small_passes_through(self):
        idx, coeffs = caratheodory_reduce(np.array([0.5, 0.5]))
        assert idx.tolist() == [0, 1]
        assert np.allclose(coeffs, [0.5, 0.5], atol=1e-12)

    def test_vertex_itself(self):
        idx, coeffs = caratheodory_reduce(np.array([0.0, 1.0, 0.0]))
        assert idx.tolist() == [1]
        assert coeffs[0] == pytest.approx(1.0, abs=1e-12)


class TestContractE1:
    def test_frozen_arithmetic(self):
        e1 = Ellipsoid(np.array([0.2, 0.0]), 0.1 * np.eye(2))
        e2, lam = contract_E1(e1, np.array([-0.5, 0.0]))
        assert lam == pytest.approx(5.0 / 7.0, rel=1e-12)
        assert np.allclose(e2.center, 0.0, atol=1e-15)
        assert np.allclose(e2.shape, 0.1 * lam * np.eye(2), atol=1e-15)

    def test_centered_input_needs_no_contraction(self):
        e1 = Ellipsoid(np.zeros(2), 0.3 * np.eye(2))
        e2, lam = contract_E1(e1, np.array([-0.5, 0.0]))
        assert lam == 1.0
        assert np.allclose(e2.shape, e1.shape, atol=0.0)


def simplex_instance(d, scale=2.0):
    a, b = facets_from_vertices(scale * reference_simplex(d))
    return HPolytope(a, b)


class TestSelectEndToEnd:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_cube_selects_all_facets(self, d):
        cube = gen_cube(d)
        cert = select(cube)
        assert cert.subfamily_size == 2 * d
        assert sorted(cert.g_indices.tolist()) == list(range(2 * d))
        measured = volume(cert.subfamily()) / volume(cube)
        assert measured == pytest.approx(1.0, abs=1e-6)
        assert measured >= 1.0 - 1e-9
        assert cert.ratio >= measured
        assert cert.bound == pytest.approx(explicit_bound(d), rel=1e-12)

    def test_simplex_instance_subfamily_at_most_d_plus_one(self):
        for d in (2, 3):
            cert = select(simplex_instance(d))
            assert cert.subfamily_size <= d + 1
            assert cert.ratio <= explicit_bound(d) * (1.0 + 1e-9)

    def test_deterministic(self):
        poly = gen_tangent_random(3, 9, seed=4)
        a = select(poly)
        b = select(poly)
        assert np.array_equal(a.x_points, b.x_points)
        assert np.array_equal(a.g_indices, b.g_indices)
        assert a.ratio == b.ratio

    def test_warp_leaves_ratio_unchanged(self):
        cube = gen_cube(2)
        base = select(cube)
        warped, _, _ = gen_affine_warp(cube, seed=3)
        cert = select(warped)
        assert cert.ratio == pytest.approx(base.ratio, rel=1e-6)

    @pytest.mark.parametrize("d", [2, 3])
    def test_random_instances_obey_guarantees(self, d):
        floor = simplex_volume_floor(d)
        for seed in range(12):
            poly = gen_tangent_random(d, 3 * d, seed=seed)
            cert = select(poly)
            assert cert.subfamily_size <= 2 * d
            assert cert.ratio <= explicit_bound(d) * (1.0 + 1e-9)
            assert cert.ratio >= 1.0 - 1e-9
            assert cert.lam >= 1.0 / (d + 1) - 1e-9
            assert np.linalg.norm(cert.w) >= 1.0 / d - 1e-8
            # subfamily rows really are rows of the input
            assert np.array_equal(
                cert.normals[cert.g_indices], poly.normals[cert.g_indices]
            )
            assert len(set(cert.g_indices.tolist())) == cert.subfamily_size
            # base simplex floor and the triangular volume identity, over the
            # windows derived as the checker derives them
            pts = cert.selected_points
            windows = np.diag(np.linalg.cholesky(pts @ pts.T))
            residual = verify_decomposition(cert.contact_points, cert.contact_weights).identity_residual
            assert (windows >= eq3_lower_bounds(d) - window_allowance(d, residual)).all()
            s1_vol = abs(np.linalg.det(pts)) / math.factorial(d)
            assert s1_vol >= floor - 1e-9
            prod = float(np.prod(windows))
            assert s1_vol * math.factorial(d) == pytest.approx(prod, rel=1e-9)

    @pytest.mark.parametrize("selector", ["dr", "pivovarov"])
    @pytest.mark.parametrize("generator", ["tangent", "warped"])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_containment_chain(self, d, generator, selector):
        for seed in range(8):
            poly = gen_tangent_random(d, 2 * d + 2, seed=seed)
            if generator == "warped":
                poly, _, _ = gen_affine_warp(poly, seed=seed + 5000)
            cert = select(poly, selector=selector, seed=seed)
            # contracted ellipsoid sits inside the apex simplex
            fa, fb = facets_from_vertices(cert.s2_vertices)
            support = np.linalg.norm(fa @ cert.e2_shape, axis=1)
            assert (support - fb).max() <= 1e-8
            # apex simplex sits inside the hull of the selected points:
            # its selected vertices verbatim, its apex via the stored coefficients
            recon = cert.contact_points[cert.cara_rows].T @ cert.cara_coeffs
            assert np.allclose(recon, cert.w, atol=1e-8)
            assert set(cert.cara_rows.tolist()) <= set(cert.x_rows.tolist())
            assert set(cert.selected_rows.tolist()) <= set(cert.x_rows.tolist())
            # polar of the selection is trapped by the contracted polar: the
            # reference for the inclusion that select and the checker prove
            # from the two containments above instead of enumerating X*
            verts = vertex_enumeration(polar_of_points(cert.x_points)).vertices
            assert np.linalg.norm(verts @ cert.e2_shape, axis=1).max() <= 1.0 + 1e-8

    @pytest.mark.parametrize(
        "d, m",
        [(5, 12), (5, 24), (5, 64), (6, 14), (6, 64), (7, 16), (7, 64), (8, 12), (8, 24), (8, 64)],
    )
    def test_high_dimension_finishes(self, d, m):
        start = time.perf_counter()
        cert = select(gen_tangent_random(d, m, seed=0))
        report = check_certificate(cert)
        assert report.passed
        assert all(item.applicable for item in report.items)
        assert cert.ratio <= explicit_bound(d) * (1.0 + 1e-9)
        assert time.perf_counter() - start < 10.0

    def test_select_needs_no_vertex_walk_over_the_input(self):
        # the input's volume would walk C(64, 8) ≈ 4.4e9 subsets and is
        # refused; its certificate takes no polytope volume and is not
        poly = gen_tangent_random(8, 64, seed=0)
        start = time.perf_counter()
        with pytest.raises(CapExceeded):
            volume(poly)
        assert time.perf_counter() - start < 5.0
        assert check_certificate(select(poly)).passed

    @pytest.mark.parametrize(
        "poly",
        [
            pytest.param(gen_tangent_random(4, 16, seed=0), id="tangent-d4-m16"),
            pytest.param(
                gen_affine_warp(gen_tangent_random(2, 64, seed=0), seed=5000)[0],
                id="warped-d2-m64",
            ),
        ],
    )
    def test_select_and_check_solve_one_lp(self, monkeypatch, poly):
        # the ray; the John solver starts from a least-squares witness ball
        # with no Chebyshev LP, the Stiemke LP runs only when the solver
        # fails or runs long, X* is bounded by the hull chain, not
        # enumerated, and no volume of the input is taken
        lp_calls, cheb_calls, enum_calls, stiemke_calls = [], [], [], []

        def counting(calls, fn):
            def counted(*args, **kwargs):
                calls.append(1)
                return fn(*args, **kwargs)

            return counted

        for module in (geometry, pipeline):  # every module that calls lp_solve
            monkeypatch.setattr(module, "lp_solve", counting(lp_calls, module.lp_solve))
        monkeypatch.setattr(
            geometry, "chebyshev_center", counting(cheb_calls, geometry.chebyshev_center)
        )
        for name, module in list(sys.modules.items()):  # every binding of the name
            if name.startswith("hellycert") and hasattr(module, "vertex_enumeration"):
                counted = counting(enum_calls, module.vertex_enumeration)
                monkeypatch.setattr(module, "vertex_enumeration", counted)
            if name.startswith("hellycert") and hasattr(module, "ensure_bounded"):
                counted = counting(stiemke_calls, module.ensure_bounded)
                monkeypatch.setattr(module, "ensure_bounded", counted)
        report = check_certificate(select(poly))
        assert report.passed
        assert (len(lp_calls), len(cheb_calls), len(enum_calls)) == (1, 0, 0)
        assert not stiemke_calls

    def test_select_fits_no_contact_weights(self, monkeypatch):
        # the decomposition is the John solver's own dual weights: no
        # tangency scan and no nonnegative least-squares fit on the way
        def refuse(*args, **kwargs):
            raise AssertionError("select fitted contact weights")

        for name, module in list(sys.modules.items()):
            if name.startswith("hellycert"):
                for fn in ("nnls", "john_weights", "contact_points"):
                    if callable(getattr(module, fn, None)):  # not the nnls module
                        monkeypatch.setattr(module, fn, refuse)
        for d in (2, 3, 4, 5, 6):
            for seed in range(2):
                poly = gen_tangent_random(d, 3 * d, seed=seed)
                warped, _, _ = gen_affine_warp(poly, seed=seed + 5000)
                assert check_certificate(select(poly)).passed
                assert check_certificate(select(warped)).passed

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_contacts_ignore_a_start_shift_below_every_tolerance(self, monkeypatch, d):
        # moving the solver's start point by 5e-13 moves its exit point by
        # noise; the contacts and the selected rows must not follow it
        exact = john.interior_point
        rng = np.random.default_rng(d)

        def shifted(poly):
            center, radius = exact(poly)
            return center + rng.uniform(-5e-13, 5e-13, size=center.shape), radius

        for seed in range(4):
            poly = gen_tangent_random(d, 8 * d, seed=seed)
            warped, _, _ = gen_affine_warp(poly, seed=seed + 5000)
            for body in (poly, warped):
                monkeypatch.setattr(john, "interior_point", exact)
                want = select(body)
                monkeypatch.setattr(john, "interior_point", shifted)
                got = select(body)
                assert np.array_equal(got.contact_indices, want.contact_indices)
                assert np.array_equal(got.g_indices, want.g_indices)
                assert check_certificate(got).passed

    @pytest.mark.parametrize("selector", ["dr", "pivovarov"])
    @pytest.mark.parametrize("generator", ["tangent", "warped"])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_certified_ratio_bounds_measured_ratio(self, d, generator, selector):
        for seed in range(3):
            poly = gen_tangent_random(d, 2 * d + 3, seed=seed)
            if generator == "warped":
                poly, _, _ = gen_affine_warp(poly, seed=seed + 5000)
            cert = select(poly, selector=selector, seed=seed)
            measured = volume(cert.subfamily()) / volume(poly)
            assert 1.0 - 1e-9 <= measured <= cert.ratio

    def test_window_slack_recorded(self):
        # the report records the window allowance the checker derives from
        # the decomposition residual, not one the certificate stores
        cert = select(gen_tangent_random(3, 9, seed=1))
        residual = verify_decomposition(cert.contact_points, cert.contact_weights).identity_residual
        allowance = window_allowance(3, residual)
        assert allowance >= 1e-9
        item = check_certificate(cert)["selection_window"]
        assert f"allowance {allowance + 1e-9 * DEFAULT_SCALE:.2e}" in item.detail
        pts = cert.selected_points
        windows = np.diag(np.linalg.cholesky(pts @ pts.T))
        assert (windows >= eq3_lower_bounds(3) - allowance).all()

    @pytest.mark.parametrize(
        "d, seed, selector, moved",
        [
            (2, 5, "pivovarov", None),
            (3, 7, "pivovarov", "offsets"),
            (4, 4, "pivovarov", "offsets"),
            (2, 3, "dr", "normals"),
            (3, 6, "dr", "normals"),
        ],
    )
    def test_repeated_half_spaces_enter_the_subfamily_once(self, d, seed, selector, moved):
        # the family holds each half-space twice, the copy exact or moved by
        # 1e-11; a hull point that copies a chosen point must not enter X as
        # a second member, or the certificate fails its own subfamily_size
        poly = gen_tangent_random(d, 4 * d, seed=seed)
        normals, offsets = poly.normals, poly.offsets
        if moved == "normals":
            normals = normals + 1e-11 * np.random.default_rng(seed).standard_normal(normals.shape)
        elif moved == "offsets":
            offsets = offsets + 1e-11
        body = hpolytope_from_arrays(
            np.vstack([poly.normals, normals]), np.concatenate([poly.offsets, offsets])
        )
        assert check_certificate(select(body, selector=selector, seed=seed)).passed

    def test_unbounded_input_wrapped_with_stage(self):
        open_poly = hpolytope_from_arrays(
            np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]), np.ones(3)
        )
        with pytest.raises(PipelineError) as info:
            select(open_poly)
        assert info.value.stage == "normalize"

    def test_unknown_selector_rejected(self):
        with pytest.raises(ValueError):
            select(gen_cube(2), selector="greedy")


@st.composite
def bodies_in_the_domain(draw):
    """A body of the advertised domain (d <= 8, m <= 64), with a selector and
    its seed: tangent rows, an optional affine warp of condition up to 1e4,
    up to three rows repeated exactly or moved by 1e-11, up to three far
    rows at offsets 2^j, a shift by up to 1e16 along a random unit vector,
    then every offset scaled by 2^k (so the shift counts in units of the
    tangent body's inradius, 1). At 1e15 and 1e16 the offsets have lost the
    digits a contact needs, and the body is refused as `Degenerate`."""
    d = draw(st.integers(2, 8))
    copies = draw(st.integers(0, 3))
    far = draw(st.integers(0, 3))
    m = draw(st.integers(d + 1, FACET_CAP - copies - far))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    poly = gen_tangent_random(d, m, seed=seed)
    if draw(st.booleans()):
        cond_cap = draw(st.sampled_from([100.0, 1e4]))
        poly, _, _ = gen_affine_warp(poly, seed=seed + 1, cond_cap=cond_cap)
    rows = draw(st.lists(st.integers(0, m - 1), min_size=copies, max_size=copies))
    moved = draw(st.sampled_from([0.0, 1e-11]))
    repeated = poly.normals[rows] + moved * rng.standard_normal((copies, d))
    far_normals = rng.standard_normal((far, d))
    far_normals /= np.linalg.norm(far_normals, axis=1, keepdims=True)
    far_offsets = 2.0 ** np.array(draw(st.lists(st.integers(0, 40), min_size=far, max_size=far)))
    normals = np.vstack([poly.normals, repeated, far_normals])
    offsets = np.concatenate([poly.offsets, poly.offsets[rows], far_offsets])
    k = draw(st.integers(-40, 40))
    direction = rng.standard_normal(d)
    shifts = [0.0, 1e3, 1e6, 1e9, 1e12, 1e15, 1e16]
    shift = draw(st.sampled_from(shifts)) * direction / np.linalg.norm(direction)
    body = hpolytope_from_arrays(normals, 2.0**k * (offsets + normals @ shift))
    return body, draw(st.sampled_from(SELECTORS)), seed


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=bodies_in_the_domain())
def test_select_ends_in_a_passing_certificate_or_a_typed_error(case):
    # the producer re-measures nothing the checker replays, so this property
    # is what holds it to its own checker
    poly, selector, seed = case
    try:
        cert = select(poly, selector=selector, seed=seed)
    except HellyError:
        return  # a typed refusal: a body flat, or shifted beyond the digits of its offsets
    assert check_certificate(cert).failures() == ()


@pytest.mark.parametrize("selector", SELECTORS)
@pytest.mark.parametrize("d", [2, 4, 6, 8])
def test_selection_does_not_depend_on_the_body_size(d, selector):
    # the certified claim is affine-invariant, so scaling every offset by
    # 2^k moves neither the selected rows nor the ratio, and refuses nothing
    for seed in range(2):
        poly = gen_tangent_random(d, min(4 * d, FACET_CAP), seed=seed)
        warped, _, _ = gen_affine_warp(poly, seed=seed + 5000)
        for body in (poly, warped):
            want = select(body, selector=selector, seed=seed)
            assert check_certificate(want).passed
            for k in (-30, -10, 20, 40):
                got = select(HPolytope(body.normals, 2.0**k * body.offsets), selector=selector, seed=seed)
                assert check_certificate(got).passed
                assert np.array_equal(got.g_indices, want.g_indices)
                assert got.ratio == pytest.approx(want.ratio, rel=1e-12, abs=0.0)


def shifted(poly, seed, shift):
    """poly moved by shift along a unit vector drawn from seed."""
    direction = np.random.default_rng(seed).standard_normal(poly.dim)
    direction *= shift / np.linalg.norm(direction)
    return HPolytope(poly.normals, poly.offsets + poly.normals @ direction)


@pytest.mark.parametrize("d", [2, 3, 4, 6, 8])
def test_far_bodies_certify_without_a_flag(d):
    # the recorded contact tolerance covers the digits the offsets lose, so
    # a body 1e8 to 1e10 inradii from the origin certifies as one near it
    for seed in range(8):
        poly = gen_tangent_random(d, min(4 * d, FACET_CAP), seed=seed)
        if seed % 2:
            poly, _, _ = gen_affine_warp(poly, seed=seed + 10007)
        for shift in (1e8, 1e9, 1e10):
            body = shifted(poly, seed, shift)
            for selector in SELECTORS:
                assert check_certificate(select(body, selector=selector, seed=seed)).passed


def test_a_body_whose_certificate_failed_its_bound_is_refused():
    # 1e15 inradii out, a contact of this body read 1.3 past tangency, which
    # a recorded contact tolerance of 12.5 admitted, and its certificate
    # failed `ratio_bound`; its allowance passes CONTACT_CAP
    poly, _, _ = gen_affine_warp(gen_tangent_random(2, 63, seed=16), seed=17, cond_cap=100)
    with pytest.raises(PipelineError, match="lost the digits of the body") as exc:
        select(shifted(poly, 2, 1e15))
    assert exc.value.stage == "normalize" and isinstance(exc.value.__cause__, Degenerate)


@pytest.mark.parametrize("d", [2, 5, 8])
def test_a_start_slack_lost_to_rounding_is_degenerate(d):
    # 1e16 inradii from the origin, a slack at the solver's start point can
    # round to zero or below: a typed refusal, not a division by zero. A body
    # whose start falls back to the Chebyshev LP is refused there, naming the
    # lost digits as well; a flat body near the origin keeps the plain message
    refused = []
    for seed in range(6):
        body = shifted(gen_tangent_random(d, 4 * d, seed=seed), seed, 1e16)
        with pytest.raises(PipelineError) as exc:
            select(body)
        assert isinstance(exc.value.__cause__, Degenerate)
        refused.append(str(exc.value))
    assert any("slack at the start point" in message for message in refused)
    for message in refused:
        if "inscribed radius" in message:
            assert "offsets of magnitude 1.0e+16 have lost the digits" in message
    offsets = np.ones(2 * d)
    offsets[[0, d]] = 0.0  # the slab 0 <= x_0 <= 0
    flat = HPolytope(np.vstack([np.eye(d), -np.eye(d)]), offsets)
    with pytest.raises(PipelineError, match=r"inscribed radius \S+ below 1e-10$") as exc:
        select(flat)
    assert isinstance(exc.value.__cause__, Degenerate)


class TestSampledSelector:
    def test_runs_and_labels_certificate(self):
        cert = select(gen_cube(2), selector="pivovarov", seed=0)
        assert cert.selector == "pivovarov"
        assert cert.subfamily_size <= 4
        assert not check_certificate(cert)["selection_window"].applicable
        assert cert.ratio >= volume(cert.subfamily()) / volume(gen_cube(2))

    def test_seeded_determinism(self):
        poly = gen_tangent_random(2, 7, seed=9)
        a = select(poly, selector="pivovarov", seed=42)
        b = select(poly, selector="pivovarov", seed=42)
        assert np.array_equal(a.x_points, b.x_points)
        assert a.ratio == b.ratio

    @pytest.mark.parametrize("d", range(2, 9))
    def test_cube_certifies_on_every_seed(self, d):
        # the 2d contacts +-e_i come in antipodal pairs, so i.i.d. draws are
        # rarely full-dimensional; drawing off the span of the rows already
        # drawn never fails
        cube = gen_cube(d)
        for seed in range(100):
            cert = select(cube, selector="pivovarov", seed=seed)
            assert check_certificate(cert).passed, seed

    def test_containments_hold_without_window_guarantee(self):
        for seed in range(6):
            cert = select(gen_tangent_random(2, 8, seed=seed), selector="pivovarov", seed=seed)
            fa, fb = facets_from_vertices(cert.s2_vertices)
            support = np.linalg.norm(fa @ cert.e2_shape, axis=1)
            assert (support - fb).max() <= 1e-8
            assert cert.lam >= 1.0 / 3.0 - 1e-9


class TestCertificateStructure:
    def test_rejects_inconsistent_shapes(self):
        cert = select(gen_cube(2))
        from hellycert.errors import MalformedCertificate
        from dataclasses import replace

        with pytest.raises(MalformedCertificate):
            replace(cert, w=np.zeros(3))

    def test_rejects_bad_selector(self):
        cert = select(gen_cube(2))
        from hellycert.errors import MalformedCertificate
        from dataclasses import replace

        with pytest.raises(MalformedCertificate):
            replace(cert, selector="other")

    def test_subfamily_polytope_contains_original(self):
        poly = gen_tangent_random(2, 8, seed=2)
        cert = select(poly)
        sub = cert.subfamily()
        assert volume(sub) >= volume(poly) - 1e-9

    def test_normalized_frame_has_unit_ball_inside(self):
        cert = select(gen_tangent_random(3, 10, seed=5))
        assert cert.norm_offsets.min() >= 1.0 - 1e-8
        assert np.allclose(np.linalg.norm(cert.norm_normals, axis=1), 1.0, atol=1e-12)
