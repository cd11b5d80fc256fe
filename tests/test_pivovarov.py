"""Random-simplex sampler and moment estimators.

The cube decomposition is small enough to enumerate every outcome, which
gives exact first and second moments to hold the Monte Carlo estimates
against.
"""

import itertools
import math

import numpy as np
import pytest

from hellycert import pivovarov
from hellycert.bodies import simplex_volume
from hellycert.bounds import simplex_volume_floor
from hellycert.generators import gen_tangent_random
from hellycert.john import ContactDecomposition, normalize_position
from hellycert.pivovarov import MomentReport, pivovarov_moments, pivovarov_sample


def axis_cross(d):
    """+-e_i contacts with equal weights, the cube's decomposition."""
    pts = np.vstack([np.eye(d), -np.eye(d)])
    return ContactDecomposition(pts, np.full(2 * d, 0.5))


def enumerate_moments(dec):
    p = dec.weights / dec.weights.sum()
    d = dec.points.shape[1]
    mean = mean_sq = 0.0
    for combo in itertools.product(range(dec.points.shape[0]), repeat=d):
        vol = abs(np.linalg.det(dec.points[list(combo)])) / math.factorial(d)
        prob = float(np.prod(p[list(combo)]))
        mean += prob * vol
        mean_sq += prob * vol * vol
    return mean, mean_sq


class TestSample:
    def test_shape_and_origin(self):
        verts = pivovarov_sample(axis_cross(3), seed=0)
        assert verts.shape == (4, 3)
        assert np.all(verts[0] == 0.0)

    def test_rows_are_contact_points(self):
        dec = axis_cross(2)
        for seed in range(20):
            verts = pivovarov_sample(dec, seed=seed)
            for row in verts[1:]:
                assert any(np.array_equal(row, p) for p in dec.points)

    def test_seed_determinism(self):
        dec = axis_cross(4)
        a = pivovarov_sample(dec, seed=42)
        b = pivovarov_sample(dec, seed=42)
        assert np.array_equal(a, b)

    def test_degenerate_draws_have_volume_zero(self):
        dec = axis_cross(2)
        seen_zero = False
        for seed in range(50):
            verts = pivovarov_sample(dec, seed=seed)
            vol = simplex_volume(verts[1:] - verts[0])
            assert vol in (0.0, 0.5)
            seen_zero = seen_zero or vol == 0.0
        assert seen_zero  # repeats and antipodal pairs do occur

    def test_sample_volume_matches_edge_determinant(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert simplex_volume(verts[1:] - verts[0]) == pytest.approx(0.5)


class TestMoments:
    def test_line_segment_is_exact(self):
        # d=1: both contacts have |x| = 1, so every draw has volume 1
        dec = ContactDecomposition(np.array([[1.0], [-1.0]]), np.array([0.5, 0.5]))
        rep = pivovarov_moments(dec, trials=100, seed=0)
        assert rep.mean_vol == 1.0
        assert rep.se_mean == 0.0
        assert rep.rms == 1.0
        assert rep.floor == pytest.approx(1.0)

    def test_cube_enumeration_oracle(self):
        # 16 equally likely ordered pairs; half are orthogonal with vol 1/2
        mean, mean_sq = enumerate_moments(axis_cross(2))
        assert mean == pytest.approx(0.25, abs=1e-15)
        assert mean_sq == pytest.approx(0.125, abs=1e-15)
        assert math.sqrt(mean_sq) == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), rel=1e-15)

    def test_cube_monte_carlo_matches_enumeration(self):
        rep = pivovarov_moments(axis_cross(2), trials=40_000, seed=7)
        assert abs(rep.mean_vol - 0.25) <= 3.0 * rep.se_mean
        assert abs(rep.mean_sq - 0.125) <= 3.0 * rep.se_sq
        assert abs(rep.rms - rep.floor) <= 3.0 * rep.se_rms

    def test_cube_first_moment_sits_below_root_second(self):
        # E[vol] = 1/4 while sqrt(E[vol^2]) = floor; the guarantee tracks
        # the second-moment reading, and the gap is real, not noise
        rep = pivovarov_moments(axis_cross(2), trials=40_000, seed=11)
        assert rep.mean_vol + 10.0 * rep.se_mean < rep.floor

    def test_floor_field(self):
        for d in (2, 3, 4):
            rep = pivovarov_moments(axis_cross(d), trials=10, seed=0)
            assert rep.floor == simplex_volume_floor(d)
            assert rep.dim == d and rep.trials == 10

    def test_single_trial_has_no_error_bar(self):
        rep = pivovarov_moments(axis_cross(2), trials=1, seed=3)
        assert math.isinf(rep.se_mean) and math.isinf(rep.se_sq)

    def test_block_size_changes_nothing(self, monkeypatch):
        # 100 trials over blocks of 7 are the one draw of 100: same report
        dec = normalize_position(gen_tangent_random(4, 12, seed=3)).decomposition
        whole = pivovarov_moments(dec, trials=100, seed=5)
        monkeypatch.setattr(pivovarov, "_TRIAL_BLOCK", 7)
        assert pivovarov_moments(dec, trials=100, seed=5) == whole

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            pivovarov_moments(axis_cross(2), trials=0)

    def test_pipeline_decomposition_smoke(self):
        inst = normalize_position(gen_tangent_random(3, 9, seed=5))
        rep = pivovarov_moments(inst.decomposition, trials=5_000, seed=9)
        assert isinstance(rep, MomentReport)
        assert rep.mean_vol > 0.0
        assert rep.rms + 3.0 * rep.se_rms >= rep.floor * (1.0 - 1e-9)

    def test_seed_determinism(self):
        a = pivovarov_moments(axis_cross(3), trials=500, seed=21)
        b = pivovarov_moments(axis_cross(3), trials=500, seed=21)
        assert a == b
