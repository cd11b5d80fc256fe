"""Selection pipeline: frozen small cases per operation, then end-to-end
properties (bound, containments, determinism, affine invariance)."""

import math
import sys
import time

import numpy as np
import pytest
import scipy.optimize

from hellycert import geometry, john, pipeline
from hellycert.bounds import explicit_bound, simplex_volume_floor
from hellycert.checker import check_certificate
from hellycert.dr import DRBasis, dr_select, eq3_lower_bounds
from hellycert.errors import (
    CapExceeded,
    DegenerateSimplex,
    Misaligned,
    NumericalBreakdown,
    PipelineError,
    ReductionFailed,
)
from hellycert.generators import gen_affine_warp, gen_cube, gen_tangent_random
from hellycert.geometry import (
    Ellipsoid,
    ellipsoid_volume,
    facets_from_vertices,
    hpolytope_from_arrays,
    polar_of_points,
    reference_simplex,
    vertex_enumeration,
    volume,
)
from hellycert.john import normalize_position
from hellycert.pipeline import (
    Certificate,
    build_S1,
    caratheodory_reduce,
    contract_E1,
    ray_hit_boundary,
    select,
)


def cube_basis(d):
    sel = np.eye(d)
    return DRBasis(basis=sel, selected=sel, indices=np.arange(d))


class TestBuildS1:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_cube_basis(self, d):
        simplex, e1, u = build_S1(cube_basis(d))
        assert simplex.volume() == pytest.approx(1.0 / math.factorial(d), rel=1e-12)
        assert np.allclose(u, np.full(d, 1.0 / (d + 1)), atol=1e-9)

    def test_corner_simplex_ellipsoid_area_ratio(self):
        simplex, e1, _ = build_S1(cube_basis(2))
        ratio = ellipsoid_volume(e1) / simplex.volume()
        assert ratio == pytest.approx(math.pi / (3.0 * math.sqrt(3.0)), rel=1e-9)

    def test_floor_violation_raises(self):
        small = DRBasis(
            basis=np.eye(2),
            selected=0.1 * np.eye(2),
            indices=np.arange(2),
            validate=False,
        )
        with pytest.raises(DegenerateSimplex):
            build_S1(small)

    def test_floor_skippable_for_sampled_selections(self):
        small = DRBasis(
            basis=np.eye(2),
            selected=0.1 * np.eye(2),
            indices=np.arange(2),
            validate=False,
        )
        simplex, _, _ = build_S1(small, enforce_floor=False)
        assert simplex.volume() == pytest.approx(0.005, rel=1e-12)

    def test_volume_product_mismatch_raises(self):
        crossed = DRBasis(
            basis=np.eye(2),
            selected=np.array([[0.0, 1.0], [1.0, 0.0]]),
            indices=np.arange(2),
            validate=False,
        )
        with pytest.raises(NumericalBreakdown):
            build_S1(crossed)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_volume_product_identity_random(self, d):
        from hellycert.john import random_decomposition

        for seed in range(5):
            basis = dr_select(random_decomposition(d, seed=seed))
            simplex, _, _ = build_S1(basis)
            prod = float(np.prod(basis.inner_products()))
            assert simplex.volume() * math.factorial(d) == pytest.approx(prod, rel=1e-9)


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
        with pytest.raises(NumericalBreakdown):
            ray_hit_boundary(0.05 * DIAMOND, np.array([1.0, 0.0]))

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
                try:
                    w, coeffs = ray_hit_boundary(pts, direction)
                except NumericalBreakdown:
                    continue  # hull too shallow along this ray
                assert hull_gap(w, pts) <= 1e-8
                assert hull_gap(w * (1.0 + 1e-6), pts) > 1e-10

    def test_combination_is_convex_after_many_pivots(self):
        # on this instance the pivoted tableau's rhs drifted until the ray
        # weights summed to 1 + 1.3e-9, which `caratheodory_reduce` refuses
        seed = 4000295462
        poly, _, _ = gen_affine_warp(gen_tangent_random(4, 16, seed=seed), seed=seed + 1)
        dec = normalize_position(poly).decomposition
        _, _, u = build_S1(dr_select(dec))
        w, coeffs = ray_hit_boundary(dec.points, -u / np.linalg.norm(u))
        assert abs(coeffs.sum() - 1.0) <= 1e-14
        assert np.linalg.norm(dec.points.T @ coeffs - w) <= 1e-14
        assert check_certificate(select(poly)).passed


class TestCaratheodoryReduce:
    def test_already_small_passes_through(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0]])
        idx, coeffs = caratheodory_reduce(np.array([0.5, 0.5]), pts, np.array([0.5, 0.5]))
        assert idx.tolist() == [0, 1]
        assert np.allclose(coeffs, [0.5, 0.5], atol=1e-12)

    def test_vertex_itself(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        idx, coeffs = caratheodory_reduce(
            np.array([0.0, 1.0]), pts, np.array([0.0, 1.0, 0.0])
        )
        assert idx.tolist() == [1]
        assert coeffs[0] == pytest.approx(1.0, abs=1e-12)

    def test_square_facet_reduces(self):
        pts = np.array(
            [[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1.0, -1.0, 1.0], [1.0, -1.0, -1.0]]
        )
        w = np.array([1.0, 0.0, 0.0])
        idx, coeffs = caratheodory_reduce(w, pts, np.full(4, 0.25))
        assert idx.size <= 3
        assert (coeffs > 0.0).all()
        assert np.allclose(pts[idx].T @ coeffs, w, atol=1e-8)
        assert coeffs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_interior_point_raises(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        coeffs = np.array([0.5, 0.1, 0.4])
        w = pts.T @ coeffs
        with pytest.raises(ReductionFailed):
            caratheodory_reduce(w, pts, coeffs)

    def test_bad_combination_rejected(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ReductionFailed):
            caratheodory_reduce(np.array([0.5, 0.5]), pts, np.array([0.9, 0.5]))


class TestContractE1:
    def test_frozen_arithmetic(self):
        e1 = Ellipsoid(np.array([0.2, 0.0]), 0.1 * np.eye(2))
        e2, lam = contract_E1(e1, np.array([0.2, 0.0]), np.array([-0.5, 0.0]))
        assert lam == pytest.approx(5.0 / 7.0, rel=1e-12)
        assert np.allclose(e2.center, 0.0, atol=1e-15)
        assert np.allclose(e2.shape, 0.1 * lam * np.eye(2), atol=1e-15)

    def test_centered_input_needs_no_contraction(self):
        e1 = Ellipsoid(np.zeros(2), 0.3 * np.eye(2))
        e2, lam = contract_E1(e1, np.zeros(2), np.array([-0.5, 0.0]))
        assert lam == 1.0
        assert np.allclose(e2.shape, e1.shape, atol=0.0)

    def test_same_side_point_misaligned(self):
        e1 = Ellipsoid(np.array([0.2, 0.0]), 0.1 * np.eye(2))
        with pytest.raises(Misaligned):
            contract_E1(e1, np.array([0.2, 0.0]), np.array([0.5, 0.0]))

    def test_off_axis_point_misaligned(self):
        e1 = Ellipsoid(np.array([0.2, 0.0]), 0.1 * np.eye(2))
        with pytest.raises(Misaligned):
            contract_E1(e1, np.array([0.2, 0.0]), np.array([-0.5, 0.01]))

    def test_wrong_center_rejected(self):
        e1 = Ellipsoid(np.array([0.2, 0.0]), 0.1 * np.eye(2))
        with pytest.raises(Misaligned):
            contract_E1(e1, np.array([0.3, 0.0]), np.array([-0.5, 0.0]))


def simplex_instance(d, scale=2.0):
    a, b = facets_from_vertices(scale * reference_simplex(d))
    return hpolytope_from_arrays(a, b, normalize=False)


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
            # base simplex floor and the triangular volume identity
            basis = DRBasis(
                basis=cert.basis,
                selected=cert.selected_points,
                indices=cert.selected_rows,
                slack=cert.window_slack,
            )
            s1_vol = abs(np.linalg.det(cert.selected_points)) / math.factorial(d)
            assert s1_vol >= floor - 1e-9
            prod = float(np.prod(basis.inner_products()))
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
        exact = john._interior_point
        rng = np.random.default_rng(d)

        def shifted(poly):
            center, radius = exact(poly)
            return center + rng.uniform(-5e-13, 5e-13, size=center.shape), radius

        for seed in range(4):
            poly = gen_tangent_random(d, 8 * d, seed=seed)
            warped, _, _ = gen_affine_warp(poly, seed=seed + 5000)
            for body in (poly, warped):
                monkeypatch.setattr(john, "_interior_point", exact)
                want = select(body)
                monkeypatch.setattr(john, "_interior_point", shifted)
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
        cert = select(gen_tangent_random(3, 9, seed=1))
        assert cert.window_slack >= 1e-9
        inner = np.einsum("ij,ij->i", cert.selected_points, cert.basis)
        assert (inner >= eq3_lower_bounds(3) - cert.window_slack).all()

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


class TestSampledSelector:
    def test_runs_and_labels_certificate(self):
        cert = select(gen_cube(2), selector="pivovarov", seed=0)
        assert cert.selector == "pivovarov"
        assert cert.subfamily_size <= 4
        assert cert.window_slack == 0.0
        assert cert.ratio >= volume(cert.subfamily()) / volume(gen_cube(2))

    def test_seeded_determinism(self):
        poly = gen_tangent_random(2, 7, seed=9)
        a = select(poly, selector="pivovarov", seed=42)
        b = select(poly, selector="pivovarov", seed=42)
        assert np.array_equal(a.x_points, b.x_points)
        assert a.ratio == b.ratio

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
