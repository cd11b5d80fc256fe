"""Simplex solver vs an exhaustive vertex-scan oracle."""

import itertools

import numpy as np
import pytest

from hellycert import lp
from hellycert.lp import LPStatus, lp_solve


def oracle_max_over_polytope(cost, a_ub, b_ub, tol=1e-9):
    """Best objective over all basic feasible points, by brute force.

    Solves every d x d subsystem directly and keeps feasible solutions.
    Independent of the simplex code path on purpose.
    """
    m, d = a_ub.shape
    best, best_x = None, None
    for idx in itertools.combinations(range(m), d):
        sub = a_ub[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, b_ub[list(idx)])
        if np.all(a_ub @ x <= b_ub + tol):
            val = float(cost @ x)
            if best is None or val > best:
                best, best_x = val, x
    return best, best_x


def bounded_box_system(rng, m, d):
    a = rng.normal(size=(m, d))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    a = np.vstack([a, np.eye(d), -np.eye(d)])
    b = np.concatenate([np.ones(m), np.full(2 * d, 1.5)])
    return a, b


class PivotCounter:
    """numpy with its `outer` calls counted: `lp_solve` makes one per pivot."""

    def __init__(self):
        self.pivots = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def outer(self, *args):
        self.pivots += 1
        return np.outer(*args)


def test_matches_vertex_scan_oracle():
    rng = np.random.default_rng(20260817)
    for _ in range(60):
        a, b = bounded_box_system(rng, 8, 3)
        cost = rng.normal(size=3)
        want, _ = oracle_max_over_polytope(cost, a, b)
        got = lp_solve(cost, a_ub=a, b_ub=b, maximize=True)
        assert got.status == LPStatus.OPTIMAL
        assert got.value == pytest.approx(want, abs=1e-8)
        assert np.all(a @ got.x <= b + 1e-8)


def test_box_corner():
    a = np.vstack([np.eye(2), -np.eye(2)])
    b = np.array([1.0, 1.0, 0.0, 0.0])
    res = lp_solve(np.array([1.0, 1.0]), a_ub=a, b_ub=b, maximize=True)
    assert res.status == LPStatus.OPTIMAL
    assert res.value == pytest.approx(2.0, abs=1e-10)
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-10)


def test_unbounded_detected():
    res = lp_solve(
        np.array([1.0, 1.0]),
        a_ub=np.array([[1.0, 0.0], [0.0, 1.0]]),
        b_ub=np.array([1.0, 1.0]),
        maximize=False,
    )
    assert res.status == LPStatus.UNBOUNDED


def test_infeasible_detected():
    a = np.array([[1.0, 0.0], [-1.0, 0.0]])
    b = np.array([1.0, -2.0])  # x <= 1 and x >= 2
    res = lp_solve(np.zeros(2), a_ub=a, b_ub=b)
    assert res.status == LPStatus.INFEASIBLE


def test_equality_constraints():
    # max x + 2y on the segment x + y = 1, x,y >= 0
    res = lp_solve(
        np.array([1.0, 2.0]),
        a_eq=np.array([[1.0, 1.0]]),
        b_eq=np.array([1.0]),
        nonneg=np.array([True, True]),
        maximize=True,
    )
    assert res.status == LPStatus.OPTIMAL
    assert res.value == pytest.approx(2.0, abs=1e-10)
    np.testing.assert_allclose(res.x, [0.0, 1.0], atol=1e-10)


def test_equality_with_free_variable():
    # min t subject to t = 3 (free t)
    res = lp_solve(
        np.array([1.0]),
        a_eq=np.array([[1.0]]),
        b_eq=np.array([3.0]),
    )
    assert res.status == LPStatus.OPTIMAL
    assert res.value == pytest.approx(3.0, abs=1e-12)


def test_redundant_rows_do_not_confuse():
    a = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    b = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
    res = lp_solve(np.array([1.0, 1.0]), a_ub=a, b_ub=b, maximize=True)
    assert res.value == pytest.approx(2.0, abs=1e-10)


def test_degenerate_vertex_terminates():
    # Four facets through one corner in 3d; Bland's rule must not cycle.
    a = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [1.0, 1.0, 1.0],
            [-1.0, 0.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, -1.0],
        ]
    )
    b = np.array([1.0, 1.0, 1.0, 3.0, 0.0, 0.0, 0.0])
    res = lp_solve(np.array([1.0, 1.0, 1.0]), a_ub=a, b_ub=b, maximize=True)
    assert res.status == LPStatus.OPTIMAL
    assert res.value == pytest.approx(3.0, abs=1e-10)


def test_negative_rhs_rows():
    # x >= 0.5 written as -x <= -0.5
    res = lp_solve(
        np.array([1.0]),
        a_ub=np.array([[-1.0], [1.0]]),
        b_ub=np.array([-0.5, 2.0]),
        maximize=False,
    )
    assert res.status == LPStatus.OPTIMAL
    assert res.value == pytest.approx(0.5, abs=1e-10)


def test_mixed_eq_ub_with_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b = bounded_box_system(rng, 6, 3)
        cost = rng.normal(size=3)
        # Slice with a random plane through an interior point, then compare
        # against the oracle applied to the sliced system written as two
        # inequalities.
        normal = rng.normal(size=3)
        a_sliced = np.vstack([a, normal[None, :], -normal[None, :]])
        b_sliced = np.concatenate([b, [0.1], [-0.1]])
        want, _ = oracle_max_over_polytope(cost, a_sliced, b_sliced)
        got = lp_solve(
            cost,
            a_ub=a,
            b_ub=b,
            a_eq=normal[None, :],
            b_eq=np.array([0.1]),
            maximize=True,
        )
        assert got.status == LPStatus.OPTIMAL
        assert got.value == pytest.approx(want, abs=1e-7)


def test_mixed_sign_rhs_with_oracle():
    # Moving the body off the origin gives some rows b < 0 (they start on an
    # artificial) and keeps others at b >= 0 (they start on their slack).
    rng = np.random.default_rng(20261018)
    mixed = 0
    for _ in range(60):
        a, b = bounded_box_system(rng, 8, 3)
        b = b + a @ rng.uniform(-2.0, 2.0, size=3)
        mixed += bool((b < 0).any() and (b >= 0).any())
        cost = rng.normal(size=3)
        want, _ = oracle_max_over_polytope(cost, a, b)
        got = lp_solve(cost, a_ub=a, b_ub=b, maximize=True)
        assert got.status == LPStatus.OPTIMAL
        assert got.value == pytest.approx(want, abs=1e-8)
        assert np.all(a @ got.x <= b + 1e-8)
    assert mixed >= 50


def test_infeasible_with_mostly_nonnegative_rhs():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a, b = bounded_box_system(rng, 8, 3)
        # the box has |u.x| <= 1.5 * sqrt(3) < 5 for every unit u
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        a_bad, b_bad = np.vstack([a, u]), np.append(b, -5.0)
        assert (b_bad >= 0).mean() > 0.9
        res = lp_solve(rng.normal(size=3), a_ub=a_bad, b_ub=b_bad, maximize=True)
        assert res.status == LPStatus.INFEASIBLE
        # the same miss as an equality row, every inequality b >= 0
        res = lp_solve(rng.normal(size=3), a_ub=a, b_ub=b, a_eq=u[None, :], b_eq=[-5.0])
        assert res.status == LPStatus.INFEASIBLE


def test_unbounded_from_the_slack_start():
    # a strip along (1, 1): both rows have b >= 0, so no phase 1 runs
    a = np.array([[1.0, -1.0], [-1.0, 1.0]])
    res = lp_solve(np.array([1.0, 1.0]), a_ub=a, b_ub=np.array([1.0, 1.0]), maximize=True)
    assert res.status == LPStatus.UNBOUNDED
    # the same strip cut by x >= 2, a row with b < 0
    res = lp_solve(
        np.array([1.0, 1.0]),
        a_ub=np.vstack([a, [-1.0, 0.0]]),
        b_ub=np.array([1.0, 1.0, -2.0]),
        maximize=True,
    )
    assert res.status == LPStatus.UNBOUNDED


def test_nonnegative_rhs_skips_phase_one(monkeypatch):
    # The slack basis is already feasible, so a zero objective is optimal
    # there without a single pivot; a phase 1 would pivot at least once per
    # row, to take its artificial out of the basis.
    counter = PivotCounter()
    monkeypatch.setattr(lp, "np", counter)
    rng = np.random.default_rng(3)
    a, b = bounded_box_system(rng, 8, 3)
    res = lp_solve(np.zeros(3), a_ub=a, b_ub=b)
    assert res.status == LPStatus.OPTIMAL
    assert counter.pivots == 0
    np.testing.assert_array_equal(res.x, np.zeros(3))
