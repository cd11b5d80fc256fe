"""Greedy selection: frozen small cases, then the window and guarantee
invariants over randomized decompositions."""

import math

import numpy as np
import pytest

from hellycert import checker
from hellycert.bounds import eq3_lower_bounds, selection_windows
from hellycert.checker import check_certificate
from hellycert.dr import dr_select, trace_pick
from hellycert.generators import gen_tangent_random
from hellycert.john import ContactDecomposition, random_decomposition
from hellycert.pipeline import select


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

    def test_equal_picks_go_to_the_lowest_index(self):
        # rows 1 and 2 tie: exactly, then with row 2 ahead only in its last
        # bits, as rounding leaves a tie; the first row within the tie band
        # of the maximum wins both times, and a real lead still wins
        projector = np.diag([0.0, 1.0])
        for lead in (0.0, 1e-14, 1e-9):
            pts = np.array([[1.0, 0.0], [0.6, 0.8], [-0.6, 0.8 * (1.0 + lead)]])
            dec = ContactDecomposition(points=pts, weights=np.ones(3))
            assert trace_pick(projector, dec) == (2 if lead > 1e-12 else 1), lead

    def test_guarantee_holds_over_random_pairs(self):
        hits = 0
        for d in range(2, 7):
            for seed in range(50):
                dec = random_decomposition(d, seed=seed)
                rng = np.random.default_rng(10_000 + 97 * d + seed)
                for rank in range(1, d + 1):
                    t_mat = random_projector(d, rank, rng)
                    pick = trace_pick(t_mat, dec)
                    value = dec.points[pick] @ t_mat @ dec.points[pick]
                    assert value >= rank / d - 1e-9
                    hits += 1
        assert hits >= 1000


class TestDRSelect:
    def test_regular_triangle_frozen(self):
        dec = regular_triangle()
        rows = dr_select(dec)
        assert rows.tolist() == [0, 1]
        assert np.allclose(dec.points[rows[0]], [0.0, 1.0], atol=1e-12)
        windows = selection_windows(dec.points[rows])
        assert windows[0] == pytest.approx(1.0, abs=1e-12)
        assert windows[1] == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)

    def test_cube_contacts_pick_axes(self):
        d = 3
        pts = np.vstack([np.eye(d), -np.eye(d)])
        dec = ContactDecomposition(
            points=pts, weights=np.full(2 * d, 0.5), source_indices=np.arange(2 * d)
        )
        rows = dr_select(dec)
        assert np.allclose(np.abs(pts[rows]), np.eye(d), atol=1e-12)
        assert np.allclose(selection_windows(pts[rows]), 1.0, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_window_invariant_random(self, d):
        for seed in range(20):
            dec = random_decomposition(d, seed=seed)
            pts = dec.points[dr_select(dec)]
            windows = selection_windows(pts)
            floor = eq3_lower_bounds(d)
            assert (windows >= floor - 1e-9).all()
            assert (windows <= 1.0 + 1e-12).all()
            # the windows are the Gram-Schmidt diagonal, so they multiply to |det V|
            det = abs(np.linalg.det(pts))
            assert np.prod(windows) == pytest.approx(det, rel=1e-9)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_unbalanced_decompositions_select_fine(self, d):
        for seed in range(10):
            dec = random_decomposition(d, seed=seed, balanced=False)
            windows = selection_windows(dec.points[dr_select(dec)])
            assert (windows >= eq3_lower_bounds(d) - 1e-9).all()

    def test_deterministic(self):
        dec = random_decomposition(4, seed=7)
        assert np.array_equal(dr_select(dec), dr_select(dec))

    def test_selected_points_are_distinct_decomposition_rows(self):
        dec = random_decomposition(5, seed=3)
        rows = dr_select(dec)
        assert rows.dtype.kind == "i"
        assert len(set(rows.tolist())) == 5
        assert rows.min() >= 0 and rows.max() < dec.size

    def test_window_below_its_floor_is_refused(self, monkeypatch):
        # the selection measures no window; the checker refuses a certificate
        # whose windows miss their floors, here floors lifted past them
        floors = checker.eq3_lower_bounds
        poly = gen_tangent_random(3, 8, seed=0)
        assert check_certificate(select(poly))["selection_window"].passed
        monkeypatch.setattr(checker, "eq3_lower_bounds", lambda d: floors(d) + 1e-6)
        report = check_certificate(select(poly))
        assert report.failures() == ("selection_window",)
