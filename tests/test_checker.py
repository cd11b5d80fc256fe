"""Checker: agreement with the producer on honest certificates, and a
fault-injection suite verifying that corrupting a stored witness flips its
check (and only the checks that genuinely depend on it). A certificate stores
each fact once, so a corruption reaches every check that reads a value
derived from the corrupted field."""

import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hellycert.bodies import Simplex, inscribed_det, inscribed_reach, max_ellipsoid_in_simplex
from hellycert.bounds import eq3_lower_bounds
from hellycert.certificate import Certificate
from hellycert.checker import CheckReport, check_certificate
from hellycert.config import CONTACT
from hellycert.documents import certificate_from_doc, certificate_to_doc
from hellycert.errors import DegenerateSimplex, MalformedCertificate
from hellycert.generators import gen_affine_warp, gen_cube, gen_tangent_random
from hellycert.pipeline import select

ALL_CHECKS = {
    "instance_map",
    "decomposition",
    "selection_window",
    "simplex_floor",
    "ray_depth",
    "contraction",
    "hull_chain",
    "ratio_bound",
    "subfamily_size",
    "subfamily_membership",
}


@pytest.fixture(scope="module")
def cube_cert():
    return select(gen_cube(2))


@pytest.fixture(scope="module")
def random_cert():
    return select(gen_tangent_random(3, 9, seed=7))


class TestHonestCertificates:
    def test_cube_all_pass(self, cube_cert):
        rep = check_certificate(cube_cert)
        assert isinstance(rep, CheckReport)
        assert rep.passed
        assert {item.name for item in rep.items} == ALL_CHECKS
        assert rep.failures() == ()

    def test_report_lookup(self, cube_cert):
        rep = check_certificate(cube_cert)
        assert rep["ray_depth"].passed
        with pytest.raises(KeyError):
            rep["no_such_check"]

    @pytest.mark.parametrize("d", [2, 3])
    def test_random_and_warped_instances(self, d):
        for seed in range(6):
            poly = gen_tangent_random(d, 3 * d, seed=seed)
            assert check_certificate(select(poly)).passed
            warped, _, _ = gen_affine_warp(poly, seed=seed + 100)
            assert check_certificate(select(warped)).passed

    def test_recomputed_ratio_matches(self, random_cert):
        rep = check_certificate(random_cert)
        assert rep.ratio == pytest.approx(random_cert.ratio, rel=1e-9)
        assert rep.bound == random_cert.bound

    def test_sampled_selector_gates_window_checks(self):
        cert = select(gen_tangent_random(2, 8, seed=3), selector="pivovarov", seed=11)
        rep = check_certificate(cert)
        assert rep.passed
        gated = {i.name for i in rep.items if not i.applicable}
        assert gated == {"selection_window", "simplex_floor", "ratio_bound"}

    @pytest.mark.parametrize("selector", ["dr", "pivovarov"])
    def test_window_margin_measured_for_either_selector(self, selector):
        # the experiment table reads its window column from this slack
        for seed in range(3):
            cert = select(gen_tangent_random(3, 9, seed=seed), selector=selector, seed=seed)
            pts = cert.selected_points
            diag = np.diag(np.linalg.cholesky(pts @ pts.T))
            margin = float(np.min(diag - eq3_lower_bounds(cert.dim)))
            slack = check_certificate(cert)["selection_window"].slack
            assert slack == pytest.approx(margin, abs=1e-15)

    def test_runs_no_lp_and_no_vertex_enumeration(self, monkeypatch, cube_cert, random_cert):
        # the checker is closed-form linear algebra: it leans on neither
        # the LP nor the vertex enumeration of the code it checks
        def refuse(*args, **kwargs):
            raise AssertionError("the checker called a solver")

        for name, module in list(sys.modules.items()):
            if name.startswith("hellycert"):
                for fn in ("lp_solve", "vertex_enumeration"):
                    if hasattr(module, fn):
                        monkeypatch.setattr(module, fn, refuse)
        assert check_certificate(cube_cert).passed
        assert check_certificate(random_cert).passed

    def test_scale_parameter_loosens(self, random_cert):
        strict = check_certificate(random_cert, scale=1.0)
        loose = check_certificate(random_cert, scale=100.0)
        assert loose.passed
        assert strict.scale == 1.0 and loose.scale == 100.0

    def test_rejects_non_certificate(self):
        with pytest.raises(MalformedCertificate):
            check_certificate({"dim": 2})


def assert_flips(cert, corrupted, must_fail, may_fail=frozenset()):
    rep = check_certificate(corrupted)
    failed = set(rep.failures())
    assert must_fail <= failed, f"expected {must_fail} to fail, got {failed}"
    assert failed <= must_fail | set(may_fail), (
        f"unexpected failures {failed - must_fail - set(may_fail)}"
    )
    assert check_certificate(cert).passed  # the original stays green


class TestFaultInjection:
    def test_shifted_map(self, random_cert):
        # the shift moves every normalized offset, which the contacts'
        # tangency reads too
        bad = replace(random_cert, map_offset=random_cert.map_offset + 0.01)
        assert_flips(
            random_cert,
            bad,
            {"instance_map", "decomposition"},
            may_fail={"subfamily_membership"},
        )

    def test_scaled_map(self, random_cert):
        # a larger map shrinks every normalized offset below 1 alike, which
        # leaves the tangency and the ratio's offset quotient as they were
        bad = replace(random_cert, map_matrix=1.01 * random_cert.map_matrix)
        assert_flips(random_cert, bad, {"instance_map"})

    def test_inflated_weight(self, random_cert):
        weights = random_cert.contact_weights.copy()
        weights[0] *= 1.5
        assert_flips(random_cert, replace(random_cert, contact_weights=weights), {"decomposition"})

    def test_rewired_contact_index(self, random_cert):
        idx = random_cert.contact_indices.copy()
        outside = [r for r in range(idx.size) if r not in set(random_cert.x_rows.tolist())]
        row = outside[0]
        idx[row] = (idx[row] + 1) % random_cert.normals.shape[0]
        assert_flips(
            random_cert,
            replace(random_cert, contact_indices=idx),
            {"decomposition"},
            may_fail={"subfamily_membership"},
        )

    def test_shrunk_boundary_point(self, random_cert):
        # the contraction ratio, and with it E2 and the ratio, follow |w|
        d = random_cert.dim
        w = random_cert.w * (0.5 / (d * np.linalg.norm(random_cert.w)))
        assert_flips(
            random_cert,
            replace(random_cert, w=w),
            {"ray_depth"},
            may_fail={"contraction", "hull_chain"},
        )

    def test_moved_ellipsoid_center(self, random_cert):
        # u is derived from the base simplex; turning w by 0.05 rad about the
        # origin moves it off the line through u as moving u would
        u, w = random_cert.u, random_cert.w
        perp = np.cross(u, [1.0, 0.0, 0.0])
        perp *= np.linalg.norm(w) / np.linalg.norm(perp)
        turned = np.cos(0.05) * w + np.sin(0.05) * perp
        assert_flips(
            random_cert,
            replace(random_cert, w=turned),
            {"contraction", "hull_chain"},
        )

    def test_inflated_inner_shape(self, random_cert):
        # E1 is derived from the selected rows; a selected row swapped for a
        # contact outside X gives the E1 of another simplex
        rows = random_cert.selected_rows.copy()
        x_rows = set(random_cert.x_rows.tolist())
        rows[0] = next(r for r in range(random_cert.contact_indices.size) if r not in x_rows)
        assert_flips(
            random_cert,
            replace(random_cert, selected_rows=rows),
            {"contraction", "hull_chain"},
            may_fail={"selection_window", "simplex_floor", "ratio_bound"},
        )

    def test_shrunk_contracted_shape(self, random_cert):
        # E2 = lam E1 with lam derived from |w|: half of w shrinks E2
        assert_flips(
            random_cert,
            replace(random_cert, w=0.5 * random_cert.w),
            {"hull_chain"},
        )

    def test_spec_ratio_overwrite(self, random_cert):
        # the contraction ratio set to 1/(d+2), below the guaranteed floor,
        # through the one field it is derived from: |w| = |u| / (d+1)
        u, w = random_cert.u, random_cert.w
        short = w * (np.linalg.norm(u) / (random_cert.dim + 1) / np.linalg.norm(w))
        bad = replace(random_cert, w=short)
        assert bad.lam == pytest.approx(1.0 / (random_cert.dim + 2))
        assert_flips(
            random_cert,
            bad,
            {"contraction"},
            may_fail={"ray_depth", "hull_chain"},
        )

    def test_biased_hull_coefficient(self, random_cert):
        coeffs = random_cert.cara_coeffs.copy()
        coeffs[0] += 0.1
        assert_flips(random_cert, replace(random_cert, cara_coeffs=coeffs), {"hull_chain"})

    def test_hull_row_beyond_d(self, random_cert):
        # a contact outside X joins the hull combination at weight 0: the
        # combination still reproduces w, but over d + 1 rows, and X over 2d
        d = random_cert.dim
        assert random_cert.cara_rows.size == d and random_cert.x_rows.size == 2 * d
        x_rows = set(random_cert.x_rows.tolist())
        spare = next(r for r in range(random_cert.contact_indices.size) if r not in x_rows)
        bad = replace(
            random_cert,
            cara_rows=np.append(random_cert.cara_rows, spare),
            cara_coeffs=np.append(random_cert.cara_coeffs, 0.0),
        )
        assert_flips(random_cert, bad, {"hull_chain", "subfamily_size"})

    def test_forged_window_slack_is_ignored(self):
        # a sampled selection relabelled greedy has no window guarantee; a
        # stored window allowance of 1e6 used to pass its windows anyway, but
        # the reader drops the key and the checker derives the allowance
        cert = select(gen_tangent_random(3, 10, seed=0), selector="pivovarov", seed=0)
        relabelled = replace(cert, selector="dr")
        assert not check_certificate(relabelled)["selection_window"].passed
        doc = certificate_to_doc(relabelled) | {"window_slack": 1e6}
        forged = certificate_from_doc(doc)
        assert not check_certificate(forged)["selection_window"].passed

    def test_doubled_stored_volume(self, random_cert):
        # w lengthened until the derived E2 has twice its volume: the apex
        # simplex no longer holds it
        d = random_cert.dim
        lam = 2.0 ** (1.0 / d) * random_cert.lam
        nu, nw = np.linalg.norm(random_cert.u), np.linalg.norm(random_cert.w)
        bad = replace(random_cert, w=random_cert.w * (lam * nu / (1.0 - lam) / nw))
        assert abs(np.linalg.det(bad.e2_shape)) == pytest.approx(
            2.0 * abs(np.linalg.det(random_cert.e2_shape))
        )
        assert_flips(random_cert, bad, {"hull_chain"})

    def test_stored_ellipsoid_leaves_the_apex_simplex(self, random_cert):
        # E2 grown past the apex simplex breaks the inclusion that bounds X*
        # inside the polar of E2
        bad = replace(random_cert, w=10.0 * random_cert.w)
        assert check_certificate(bad)["hull_chain"].slack < 0.0
        assert_flips(random_cert, bad, {"hull_chain"})

    # the stored fields the certified ratio reads (w through E2, the contact
    # indices through G), each with the checks that a corruption of it must
    # trip (at least one of them)
    RATIO_INPUTS = {
        "w": {"contraction", "hull_chain"},
        "contact_indices": {"decomposition", "subfamily_membership"},
    }

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        field=st.sampled_from(sorted(RATIO_INPUTS)),
        seed=st.integers(0, 2**32 - 1),
        log_size=st.floats(-6.0, 0.0),
    )
    def test_corrupted_ratio_input_is_caught(self, random_cert, field, seed, log_size):
        rng = np.random.default_rng(seed)
        size = 10.0**log_size * rng.choice([-1.0, 1.0])
        if field == "w":
            noise = rng.uniform(-1.0, 1.0, random_cert.w.shape)
            noise /= np.abs(noise).max()
            scale = np.linalg.norm(random_cert.w)
            bad = replace(random_cert, w=random_cert.w + size * scale * noise)
        else:
            idx = random_cert.contact_indices.copy()
            m = random_cert.normals.shape[0]
            i = random_cert.x_rows[rng.integers(random_cert.x_rows.size)]
            idx[i] = (idx[i] + rng.integers(1, m)) % m
            bad = replace(random_cert, contact_indices=idx)
        failed = set(check_certificate(bad).failures())
        assert failed & self.RATIO_INPUTS[field], f"{field} corruption went unnoticed"

    def test_rewired_subfamily_index(self, random_cert):
        # G is derived from the contact indices of X: point the last member
        # of X at an input row that is not tangent to the ball
        idx = random_cert.contact_indices.copy()
        far = np.flatnonzero(random_cert.norm_offsets > 1.0 + 1e-3)
        idx[random_cert.x_rows[-1]] = far[0]
        assert_flips(
            random_cert,
            replace(random_cert, contact_indices=idx),
            {"subfamily_membership", "decomposition"},
            may_fail={"hull_chain", "ratio_bound"},
        )

    def test_moved_selected_point(self, random_cert):
        # X is derived from the input normals: turn the one behind the last
        # member of X, which the hull combination uses
        normals = random_cert.normals.copy()
        g = random_cert.g_indices[-1]
        normals[g] = normals[g] + np.array([0.05, 0.0, 0.0])
        assert_flips(
            random_cert,
            replace(random_cert, normals=normals),
            {"hull_chain", "decomposition"},
            may_fail={"instance_map", "subfamily_membership", "ratio_bound"},
        )

    def test_repeated_selected_row(self, random_cert):
        # a flat base simplex is reported, not raised
        rows = random_cert.selected_rows.copy()
        rows[1] = rows[0]
        assert_flips(
            random_cert,
            replace(random_cert, selected_rows=rows),
            # a flat base simplex inscribes no E1, so neither E2 nor the
            # ratio it certifies can be rebuilt
            {
                "selection_window",
                "simplex_floor",
                "contraction",
                "hull_chain",
                "ratio_bound",
            },
        )

    def test_every_check_is_coverable(self, random_cert):
        # the corruptions above collectively reach every applicable check
        covered = {
            "instance_map",
            "decomposition",
            "selection_window",
            "ray_depth",
            "contraction",
            "hull_chain",
            "ratio_bound",
            "subfamily_size",
            "subfamily_membership",
        }
        rep = check_certificate(random_cert)
        applicable = {i.name for i in rep.items if i.applicable}
        # simplex_floor fails only beside selection_window, when a selected
        # row repeats
        assert covered <= applicable


@pytest.mark.parametrize("d, m", [(2, 64), (4, 16), (8, 64)])
def test_check_takes_one_factorization_per_fact(monkeypatch, d, m):
    # E1 is read through S1's centered vertices, so a check takes no matrix
    # root: no SVD and no eigenvalues. det P serves the simplex floor, S1's
    # flatness test and the ratio; S2' takes its own det; each simplex one
    # inverse for its facets; the windows one Cholesky factor
    cert = select(gen_affine_warp(gen_tangent_random(d, m, seed=3), seed=5003)[0])
    fresh = certificate_from_doc(certificate_to_doc(cert))  # nothing derived yet
    calls = []
    for name in ("svd", "eigvalsh", "eigh", "eig", "inv", "cholesky", "det", "slogdet", "solve"):
        inner = getattr(np.linalg, name)

        def counted(*args, _name=name, _inner=inner, **kwargs):
            calls.append(_name)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    assert check_certificate(fresh).passed
    monkeypatch.undo()
    assert not {"svd", "eigvalsh", "eigh", "eig"} & set(calls)
    assert calls.count("inv") <= 2 and calls.count("cholesky") <= 1 and calls.count("det") <= 2


@pytest.mark.parametrize("d", range(1, 9))
def test_closed_form_e1_matches_the_matrix_root(d):
    # The checker reads |E1 a| as |V_c a| / sqrt(d (d+1)) and |det E1| as
    # |det P| / (d^(d/2) (d+1)^((d+1)/2)), where max_ellipsoid_in_simplex
    # takes the root of V_c^T V_c by SVD. Without that `Ellipsoid`, its SPD
    # floor (eigenvalues of E1 at least 1e-12) no longer runs in a check; the
    # floor that stands for it is S1's flatness test |det P| <= 1e-12, which
    # ran before it and still refuses E1, E2 and the ratio of a flat S1. It is
    # the weaker floor on a thin S1: one just above it may have E1
    # eigenvalues below 1e-12, and then reads a tiny |det E1| and so a large
    # ratio, where the SPD floor failed to build E1.
    rng = np.random.default_rng(900 + d)
    for target in (1.0, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
        p = rng.normal(size=(d, d))
        p *= (target / abs(np.linalg.det(p))) ** (1.0 / d)
        vertices = np.vstack([np.zeros(d), p])
        simplex = Simplex(vertices)
        shape = max_ellipsoid_in_simplex(simplex).shape
        centered = vertices - vertices.sum(axis=0) / (d + 1)
        directions = np.vstack([simplex.facets()[0], rng.normal(size=(4, d))])
        want = np.linalg.norm(directions @ shape, axis=1)
        np.testing.assert_allclose(inscribed_reach(centered, directions), want, rtol=1e-12, atol=0.0)
        det = inscribed_det(simplex.edge_det, d)
        assert det == pytest.approx(abs(np.linalg.det(shape)), rel=1e-12, abs=0.0)
    flat = p * (1e-13 / target) ** (1.0 / d)  # |det P| = 1e-13
    with pytest.raises(DegenerateSimplex):
        Simplex(np.vstack([np.zeros(d), flat]))


def test_a_thin_base_simplex_certifies_a_true_loose_ratio():
    # S1 = conv{0, e1, e2, q} with q = (-1/sqrt2, -1/sqrt2, eps), |det P| = eps
    # = 2e-12: above S1's flatness floor (1e-12), while E1's least eigenvalue,
    # 2.1e-13, is below the `Ellipsoid` SPD floor (1e-12) that a check no
    # longer runs. The checker reads E1 in closed form, so contraction and
    # hull_chain pass and the sampled certificate passes with a ratio near
    # 6e13: a true bound, since G = {|x1|, |x2| <= 1, x3 >= -1, q.x <= 1}
    # holds [0, 1]^2 x [-1, 1/eps] and K lies in [-1, 1]^3, so vol(G)/vol(K)
    # >= 1 / (8 eps). The greedy selector's floors refuse it.
    eps = 2e-12
    q = np.array([-np.sqrt(0.5), -np.sqrt(0.5), eps])
    normals = np.vstack([np.eye(3), -np.eye(3), q / np.linalg.norm(q)])
    selected = np.array([0, 1, 6])  # e1, e2, q
    u = normals[selected].sum(axis=0) / 4
    w = -u / np.abs(u).sum()  # opposite u, on the facet of -e1, -e2, -e3
    cert = Certificate(
        dim=3,
        selector="pivovarov",
        normals=normals,
        offsets=np.ones(7),
        map_matrix=np.eye(3),
        map_offset=np.zeros(3),
        contact_tol=CONTACT,
        contact_weights=np.r_[np.full(6, 0.5), 0.0],
        contact_indices=np.arange(7),
        selected_rows=selected,
        w=w,
        cara_rows=np.array([3, 4, 5]),
        cara_coeffs=np.abs(w),
    )
    assert abs(np.linalg.det(normals[selected])) == pytest.approx(eps, rel=1e-9)
    report = check_certificate(cert)
    assert report.passed
    assert report["contraction"].passed and report["hull_chain"].passed
    assert report.ratio == cert.ratio
    assert 1.0 / (8.0 * eps) <= report.ratio < 1e14
    greedy = check_certificate(replace(cert, selector="dr"))
    assert set(greedy.failures()) == {"selection_window", "simplex_floor", "ratio_bound"}


def test_producer_and_checker_share_one_ratio():
    # with no hull-chain excess (delta = 0) the report's ratio and the
    # certificate's are one formula at one contraction: equal to the bit
    checked = 0
    for d in range(2, 7):
        for seed in range(3):
            for selector in ("dr", "pivovarov"):
                cert = select(gen_tangent_random(d, 3 * d, seed=seed), selector=selector, seed=seed)
                report = check_certificate(cert)
                if report["hull_chain"].slack >= 0.0:
                    assert report.ratio == cert.ratio
                    checked += 1
    assert checked >= 20
