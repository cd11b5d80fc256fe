"""Greedy selection: frozen small cases, then the window and guarantee
invariants over randomized decompositions."""

import math

import numpy as np
import pytest

from hellycert.bounds import eq3_lower_bounds
from hellycert.dr import DRBasis, dr_select, sampled_basis, trace_pick
from hellycert.errors import NumericalBreakdown
from hellycert.john import ContactDecomposition, random_decomposition


def regular_triangle():
    angles = np.deg2rad([90.0, 210.0, 330.0])
    pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return ContactDecomposition(
        points=pts, weights=np.full(3, 2.0 / 3.0), source_indices=np.arange(3)
    )


def random_projector(d, rank, rng):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    cols = q[:, :rank]
    return cols @ cols.T


class TestTracePick:
    def test_identity_projector_picks_first_unit_point(self):
        dec = regular_triangle()
        assert trace_pick(np.eye(2), dec) == 0

    def test_axis_projector_on_triangle(self):
        dec = regular_triangle()
        projector = np.diag([1.0, 0.0])
        # x-components squared are 0, 3/4, 3/4; first argmax wins
        assert trace_pick(projector, dec) == 1

    def test_guarantee_holds_over_random_pairs(self):
        hits = 0
        for d in range(2, 7):
            for seed in range(50):
                dec = random_decomposition(d, seed=seed)
                rng = np.random.default_rng(10_000 + 97 * d + seed)
                for rank in range(1, d + 1):
                    t_mat = random_projector(d, rank, rng)
                    pick = trace_pick(t_mat, dec, slack=1e-9)
                    value = dec.points[pick] @ t_mat @ dec.points[pick]
                    assert value >= rank / d - 1e-9
                    hits += 1
        assert hits >= 1000

    def test_raises_when_guarantee_unreachable(self):
        # two copies of one axis pair leave the y axis untouched by x-heavy
        # points; a fake overweight decomposition cannot reach tr/d
        pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
        dec = ContactDecomposition(
            points=pts,
            weights=np.array([0.5, 0.5]),
            source_indices=np.arange(2),
            validate=False,
        )
        with pytest.raises(NumericalBreakdown):
            trace_pick(np.diag([0.0, 1.0]), dec, slack=1e-9)


class TestDRSelect:
    def test_regular_triangle_frozen(self):
        sel = dr_select(regular_triangle())
        assert sel.indices.tolist() == [0, 1]
        assert np.allclose(sel.basis[0], [0.0, 1.0], atol=1e-12)
        assert np.allclose(sel.selected[0], [0.0, 1.0], atol=1e-12)
        assert np.allclose(sel.basis[1], [-1.0, 0.0], atol=1e-12)
        inner = sel.inner_products()
        assert inner[0] == pytest.approx(1.0, abs=1e-12)
        assert inner[1] == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)

    def test_cube_contacts_pick_axes(self):
        d = 3
        pts = np.vstack([np.eye(d), -np.eye(d)])
        dec = ContactDecomposition(
            points=pts, weights=np.full(2 * d, 0.5), source_indices=np.arange(2 * d)
        )
        sel = dr_select(dec)
        assert np.allclose(np.abs(sel.basis), np.eye(d), atol=1e-12)
        assert np.allclose(sel.inner_products(), 1.0, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_window_invariant_random(self, d):
        for seed in range(20):
            sel = dr_select(random_decomposition(d, seed=seed))
            inner = sel.inner_products()
            floor = eq3_lower_bounds(d)
            assert (inner >= floor - 1e-9).all()
            assert (inner <= 1.0 + 1e-12).all()
            gram = sel.basis @ sel.basis.T
            assert np.abs(gram - np.eye(d)).max() < 1e-10
            # span condition: v_i has no weight on later basis rows
            coords = sel.selected @ sel.basis.T
            assert np.abs(np.triu(coords, k=1)).max() < 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_unbalanced_decompositions_select_fine(self, d):
        for seed in range(10):
            dec = random_decomposition(d, seed=seed, balanced=False)
            sel = dr_select(dec)
            assert (sel.inner_products() >= eq3_lower_bounds(d) - 1e-9).all()

    def test_deterministic(self):
        dec = random_decomposition(4, seed=7)
        a = dr_select(dec)
        b = dr_select(dec)
        assert np.array_equal(a.basis, b.basis)
        assert np.array_equal(a.indices, b.indices)

    def test_selected_points_are_distinct_decomposition_rows(self):
        dec = random_decomposition(5, seed=3)
        sel = dr_select(dec)
        assert np.allclose(sel.selected, dec.points[sel.indices], atol=0.0)
        assert len(set(sel.indices.tolist())) == 5


class TestDRBasisValidation:
    def test_rejects_nonorthonormal_basis(self):
        sel = dr_select(regular_triangle())
        bad = sel.basis.copy()
        bad[1] *= 1.5
        with pytest.raises(NumericalBreakdown):
            DRBasis(basis=bad, selected=sel.selected, indices=sel.indices)

    def test_rejects_span_violation(self):
        sel = dr_select(random_decomposition(3, seed=0))
        swapped = sel.selected[[1, 0, 2]]
        with pytest.raises(NumericalBreakdown):
            DRBasis(basis=sel.basis, selected=swapped, indices=sel.indices)

    def test_rejects_repeated_indices(self):
        sel = dr_select(regular_triangle())
        with pytest.raises(NumericalBreakdown):
            DRBasis(
                basis=sel.basis,
                selected=sel.selected,
                indices=np.array([0, 0]),
            )

    def test_validate_false_skips_checks(self):
        DRBasis(
            basis=np.zeros((2, 2)),
            selected=np.zeros((2, 2)),
            indices=np.array([0, 0]),
            validate=False,
        )


class TestSampledBasis:
    def test_orthonormal_with_growing_spans(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 5):
            pts = rng.standard_normal((d, d))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            basis = sampled_basis(pts)
            assert np.abs(basis @ basis.T - np.eye(d)).max() < 1e-10
            coords = pts @ basis.T
            assert np.abs(np.triu(coords, k=1)).max() < 1e-10
            assert (np.diag(coords) > 0.0).all()
