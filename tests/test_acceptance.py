"""Acceptance gate: every guarantee the library advertises, end to end.

Each test emits exactly one PASS/FAIL verdict line (replayed in the
terminal summary, and printed live under -s), then asserts. The shared
corpus fixture runs the full pipeline plus the independent checker on 600
random instances across dimensions 2 to 4 and is reused by every per-run
criterion.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import record_verdict

from hellycert.bodies import HPolytope, ellipsoid_volume
from hellycert.bounds import (
    eq3_lower_bounds,
    explicit_bound,
    log_explicit_bound,
    selection_windows,
    simplex_ellipsoid_ratio,
    simplex_volume_floor,
    theorem_constant_scan,
)
from hellycert.certificate import verify_decomposition
from hellycert.checker import check_certificate
from hellycert.dr import dr_select
from hellycert.generators import gen_affine_warp, gen_cube, gen_tangent_random
from hellycert.geometry import facets_from_vertices, polar_of_points, vertex_enumeration, volume
from hellycert.john import (
    inscribed_ellipsoid,
    normalize_position,
    random_decomposition,
)
from hellycert.oracle import oracle_min_subfamily
from hellycert.pipeline import select
from hellycert.pivovarov import pivovarov_moments


def announce(label: str, ok: bool, detail: str = "") -> None:
    """One verdict line per criterion."""
    line = f"ACCEPTANCE {'PASS' if ok else 'FAIL'}  {label}"
    if detail:
        line += f"  [{detail}]"
    record_verdict(line)
    print(line, flush=True)
    assert ok, line


@dataclass(frozen=True)
class Run:
    d: int
    m: int
    seed: int
    generator: str
    poly: object
    cert: object
    passed: bool


def _instances():
    for d in (2, 3, 4):
        sizes = list(range(d + 2, 3 * d + 1))
        for i in range(200):
            m = sizes[i % len(sizes)]
            if i % 2 == 0:
                yield d, m, i, "tangent", gen_tangent_random(d, m, seed=i)
            else:
                base = gen_tangent_random(d, m, seed=i)
                warped, _, _ = gen_affine_warp(base, seed=i + 5_000)
                yield d, m, i, "warped", warped


@pytest.fixture(scope="module")
def corpus():
    runs = []
    start = time.perf_counter()
    for d, m, seed, generator, poly in _instances():
        cert = select(poly)
        runs.append(
            Run(
                d=d,
                m=m,
                seed=seed,
                generator=generator,
                poly=poly,
                cert=cert,
                passed=check_certificate(cert).passed,
            )
        )
    elapsed = time.perf_counter() - start
    return runs, elapsed


def test_end_to_end_small_subfamily_with_certified_ratio(corpus):
    runs, elapsed = corpus
    bad = []
    for r in runs:
        cert, g = r.cert, r.cert.g_indices
        sub_ok = (
            cert.subfamily_size <= 2 * r.d
            and g.size == np.unique(g).size
            and np.all((0 <= g) & (g < r.poly.normals.shape[0]))
            and np.array_equal(cert.subfamily().normals, r.poly.normals[g])
            and np.array_equal(cert.subfamily().offsets, r.poly.offsets[g])
        )
        if not (sub_ok and cert.ratio <= explicit_bound(r.d) and r.passed):
            bad.append((r.d, r.seed, r.generator))
    ok = not bad and len(runs) == 600 and elapsed <= 300.0
    announce(
        "pipeline returns <= 2d member subfamilies within the volume bound, "
        "independently re-checked",
        ok,
        f"600 runs over d in 2..4, {elapsed:.1f}s" + (f", failures {bad[:3]}" if bad else ""),
    )


def test_decomposition_residuals_within_budget(corpus):
    runs, _ = corpus
    worst = 0.0
    for r in runs:
        rep = verify_decomposition(r.cert.contact_points, r.cert.contact_weights)
        worst = max(
            worst,
            rep.barycenter_norm,
            rep.identity_residual,
            abs(rep.weight_sum - r.d),
        )
    announce(
        "contact decomposition residuals stay within 1e-6 on every instance",
        worst <= 1e-6,
        f"worst residual {worst:.2e}",
    )


def test_simplex_inner_ellipsoid_ratio_matches_closed_form():
    rng = np.random.default_rng(2024)
    worst = 0.0
    count = 0
    for d in (2, 3, 4):
        target = simplex_ellipsoid_ratio(d)
        done = 0
        while done < 50:
            verts = rng.normal(size=(d + 1, d))
            if abs(np.linalg.det(verts[1:] - verts[0])) < 1e-2:
                continue
            a, b = facets_from_vertices(verts)
            poly = HPolytope(a, b)
            ratio = ellipsoid_volume(inscribed_ellipsoid(poly)) / volume(poly)
            worst = max(worst, abs(ratio - target) / target)
            done += 1
            count += 1
    planar = simplex_ellipsoid_ratio(2)
    ok = worst <= 1e-6 and abs(planar - math.pi / (3.0 * math.sqrt(3.0))) <= 1e-12
    announce(
        "inscribed-ellipsoid volume ratio of random simplices matches the "
        "closed form to 1e-6",
        ok,
        f"{count} simplices, worst relative error {worst:.2e}, "
        f"d=2 constant {planar:.6f}",
    )


def test_selection_windows_hold_over_random_decompositions():
    worst_window = math.inf
    worst_product = 0.0
    count = 0
    for balanced in (True, False):
        for d in (2, 3, 4, 5, 6):
            for trial in range(20):
                dec = random_decomposition(
                    d, seed=1_000 * d + trial + (0 if balanced else 50_000), balanced=balanced
                )
                pts = dec.points[dr_select(dec)]
                windows = selection_windows(pts)
                worst_window = min(worst_window, float(np.min(windows - eq3_lower_bounds(d))))
                det = abs(float(np.linalg.det(pts)))
                worst_product = max(worst_product, abs(float(np.prod(windows)) - det) / det)
                count += 1
    ok = worst_window >= -1e-9 and worst_product <= 1e-9 and count >= 200
    announce(
        "greedy selection meets its per-step inner-product windows on random "
        "decompositions, balanced or not",
        ok,
        f"{count} decompositions d<=6, worst window margin {worst_window:.2e}, "
        f"worst relative gap between |det V| and the window product {worst_product:.2e}",
    )


def test_contraction_ratio_and_ray_depth_floors(corpus):
    runs, _ = corpus
    worst_lam = math.inf
    worst_depth = math.inf
    for r in runs:
        worst_lam = min(worst_lam, r.cert.lam - 1.0 / (r.d + 1))
        worst_depth = min(worst_depth, float(np.linalg.norm(r.cert.w)) - 1.0 / r.d)
    ok = worst_lam >= -1e-9 and worst_depth >= -1e-8
    announce(
        "contraction ratio and boundary-ray depth never fall below their "
        "dimension floors",
        ok,
        f"min lambda margin {worst_lam:.2e}, min |w| margin {worst_depth:.2e}",
    )


def test_containment_chain_to_the_polar(corpus):
    runs, _ = corpus
    worst = -math.inf
    for r in runs:
        cert = r.cert
        fa, fb = facets_from_vertices(cert.s2_vertices)
        e2_out = float(np.max(np.linalg.norm(fa @ cert.e2_shape, axis=1) - fb))
        recon = float(
            np.linalg.norm(cert.w - cert.cara_coeffs @ cert.contact_points[cert.cara_rows])
        )
        selected_in_x = set(cert.selected_rows.tolist()) <= set(cert.x_rows.tolist())
        verts = vertex_enumeration(polar_of_points(cert.x_points)).vertices
        reach = float(np.max(np.linalg.norm(verts @ cert.e2_shape, axis=1)) - 1.0)
        g_rows = cert.contact_indices[cert.x_rows]
        member = float(
            np.max(verts @ cert.norm_normals[g_rows].T - cert.norm_offsets[g_rows])
        )
        worst = max(worst, e2_out, recon, reach, member)
        if not selected_in_x:
            worst = math.inf
    announce(
        "containment chain holds at 1e-8: shrunken ellipsoid inside the cone "
        "body, cone body inside the selected hull, polar inside the dual "
        "ellipsoid and the subfamily",
        worst <= 1e-8,
        f"worst signed violation {worst:.2e}",
    )


def test_selected_simplex_volume_floor_and_identity(corpus):
    runs, _ = corpus
    worst_floor = math.inf
    worst_ident = 0.0
    for r in runs:
        cert = r.cert
        vol = abs(float(np.linalg.det(cert.selected_points))) / math.factorial(r.d)
        worst_floor = min(worst_floor, vol - simplex_volume_floor(r.d))
        pts = cert.selected_points
        prod = float(np.prod(selection_windows(pts)))
        worst_ident = max(
            worst_ident, abs(vol * math.factorial(r.d) - prod) / max(1.0, abs(prod))
        )
    ok = worst_floor >= -1e-9 and worst_ident <= 1e-9
    announce(
        "selected simplex volume clears its closed-form floor and factors "
        "into the window inner products",
        ok,
        f"min floor margin {worst_floor:.2e}, worst identity residual {worst_ident:.2e}",
    )


def test_normalized_constant_peaks_at_dimension_one():
    peak = theorem_constant_scan(50)
    target = 4.0 / math.e
    logs = [log_explicit_bound(d) - d - 2 * d * math.log(d) for d in range(1, 51)]
    non_increasing = all(b <= a + 1e-12 for a, b in zip(logs[1:], logs[2:]))
    ok = abs(peak - target) <= 1e-12 * target and peak == pytest.approx(math.exp(max(logs)))
    announce(
        "bound over e^d d^(2d) peaks at dimension one with value 4/e and "
        "decreases from dimension two on",
        ok and non_increasing,
        f"peak {peak:.12f} vs 4/e {target:.12f}",
    )


def test_cube_needs_all_its_facets():
    start = time.perf_counter()
    best2, vol2 = oracle_min_subfamily(gen_cube(2), k=3)
    best3, vol3 = oracle_min_subfamily(gen_cube(3), k=5)
    elapsed = time.perf_counter() - start
    ok = best2 is None and best3 is None and math.isinf(vol2) and math.isinf(vol3)
    announce(
        "exhaustive search finds no bounded subfamily smaller than 2d on the "
        "cube in dimensions 2 and 3",
        ok and elapsed <= 10.0,
        f"{elapsed:.2f}s",
    )


def test_random_simplex_moments_match_enumeration():
    dec = normalize_position(gen_cube(2)).decomposition
    rep = pivovarov_moments(dec, trials=100_000, seed=20_240)
    mean_gap = abs(rep.mean_vol - 0.25)
    rms_target = 1.0 / (2.0 * math.sqrt(2.0))
    rms_gap = abs(rep.rms - rms_target)
    ok = mean_gap <= 3.0 * rep.se_mean and rms_gap <= 3.0 * rep.se_rms
    announce(
        "random-simplex moments on the square match exact enumeration: "
        "first moment 1/4, root second moment the claimed floor",
        ok,
        f"mean {rep.mean_vol:.5f} (exact 0.25), rms {rep.rms:.5f} "
        f"(exact {rms_target:.6f}), claimed floor {rep.floor:.6f}",
    )


def test_selection_never_beats_exhaustive_optimum():
    worst_gap = math.inf
    worst_oracle_ratio = 0.0
    sizes = (5, 6, 7, 8)
    for i in range(50):
        m = sizes[i % len(sizes)]
        poly = gen_tangent_random(2, m, seed=9_000 + i)
        cert = select(poly)
        vol_f = volume(poly)
        sub_ratio = volume(cert.subfamily()) / vol_f
        rows, best_vol = oracle_min_subfamily(poly, k=4)
        assert rows is not None
        oracle_ratio = best_vol / vol_f
        worst_gap = min(worst_gap, sub_ratio - oracle_ratio)
        worst_oracle_ratio = max(worst_oracle_ratio, oracle_ratio)
    ok = worst_gap >= -1e-9 and worst_oracle_ratio <= explicit_bound(2)
    announce(
        "pipeline ratio never undercuts the exhaustive optimum, and even the "
        "optimum respects the bound",
        ok,
        f"50 planar instances, min pipeline-minus-oracle gap {worst_gap:.2e}, "
        f"max oracle ratio {worst_oracle_ratio:.3f}",
    )


def test_contact_hull_depth_and_polar_radius(corpus):
    runs, _ = corpus
    rng = np.random.default_rng(77)
    dirs = {d: None for d in (2, 3, 4)}
    for d in dirs:
        raw = rng.normal(size=(1000, d))
        dirs[d] = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    worst_norm = 0.0
    worst_support = math.inf
    for r in runs:
        pts = r.cert.contact_points
        verts = vertex_enumeration(polar_of_points(pts)).vertices
        worst_norm = max(worst_norm, float(np.linalg.norm(verts, axis=1).max()) - r.d)
        support = np.max(dirs[r.d] @ pts.T, axis=1)
        worst_support = min(worst_support, float(support.min()) - 1.0 / r.d)
    ok = worst_norm <= 1e-6 and worst_support >= -1e-6
    announce(
        "every contact polar stays inside d times the ball and every contact "
        "hull contains the 1/d ball",
        ok,
        f"max polar vertex norm excess {worst_norm:.2e}, "
        f"min hull support margin {worst_support:.2e}",
    )
