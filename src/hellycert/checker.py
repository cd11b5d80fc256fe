"""Independent re-verification of a selection certificate.

Everything is recomputed from the certificate's serialized arrays with
closed-form linear algebra only: no LP, no vertex enumeration, no ellipsoid
solver, no greedy selection, no trust in any producer-side invariant. Each
link of the argument gets its own named check with a measured slack
(positive means margin, negative means violation), and the report passes
when every applicable check passes.

Checks gated on the greedy selector (the window floors, the simplex volume
floor, and the ratio bound they imply) are reported as not applicable for
sampled selections, whose guarantee is distributional rather than per-run.

No polytope volume is taken. The volume ratio of the selected subfamily
to the whole family is bounded by one determinant, (max_g b_g / min_i b_i)^d
/ |det E2| in the normalized frame, which the hull chain and polarity make
an upper bound for the selected half-spaces themselves: E2 inside an apex
simplex built from points of X puts X* inside the polar of E2, so that
inclusion is proved rather than measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import explicit_bound, simplex_volume_floor
from .config import DEFAULT
from .dr import eq3_lower_bounds
from .errors import DegenerateSimplex, HellyError, MalformedCertificate
from .geometry import Simplex
from .pipeline import Certificate, _certified_ratio


@dataclass(frozen=True)
class CheckItem:
    """One named inequality with its measured margin."""

    name: str
    passed: bool
    applicable: bool
    slack: float
    detail: str

    @property
    def ok(self) -> bool:
        return self.passed or not self.applicable


@dataclass(frozen=True)
class CheckReport:
    dim: int
    selector: str
    items: tuple[CheckItem, ...]
    ratio: float
    bound: float
    scale: float

    @property
    def passed(self) -> bool:
        return all(item.ok for item in self.items)

    def __getitem__(self, name: str) -> CheckItem:
        for item in self.items:
            if item.name == name:
                return item
        raise KeyError(name)

    def failures(self) -> tuple[str, ...]:
        return tuple(item.name for item in self.items if not item.ok)


def _item(name, margin, tol, detail, applicable=True) -> CheckItem:
    """Pass when the measured margin stays above -tol."""
    return CheckItem(
        name=name,
        passed=bool(margin >= -tol),
        applicable=applicable,
        slack=float(margin),
        detail=detail,
    )


def check_certificate(cert: Certificate, scale: float | None = None) -> CheckReport:
    """Replay every inequality of the construction from stored data.

    scale loosens the producer tolerances of `DEFAULT` (default: its
    checker_scale, 10x); raising it separates genuine violations from float
    noise, lowering it sharpens the audit.
    """
    if not isinstance(cert, Certificate):
        raise MalformedCertificate("checker needs a Certificate")
    k = float(scale if scale is not None else DEFAULT.checker_scale)
    d = cert.dim
    dr = cert.selector == "dr"
    items: list[CheckItem] = []

    # How far the stored normalized instance is from the mapped original.
    raw = cert.normals @ cert.map_matrix
    row_scale = np.linalg.norm(raw, axis=1)
    map_err = 0.0
    if row_scale.min() <= 1e-14:
        map_err = math.inf
    else:
        want_a = raw / row_scale[:, None]
        want_b = (cert.offsets - cert.normals @ cert.map_offset) / row_scale
        map_err = max(
            float(np.abs(want_a - cert.norm_normals).max()),
            float(np.abs(want_b - cert.norm_offsets).max()),
        )
    unit_err = float(np.abs(np.linalg.norm(cert.norm_normals, axis=1) - 1.0).max())
    inscribed = float(cert.norm_offsets.min() - 1.0)
    items.append(
        _item(
            "instance_map",
            -max(map_err, unit_err, -inscribed if inscribed < 0 else 0.0),
            DEFAULT.feasibility * k,
            f"map residual {map_err:.2e}, unit-normal residual {unit_err:.2e}, "
            f"min offset 1{inscribed:+.2e}",
        )
    )

    # Decomposition of the identity over near-tangent facets.
    pts, wts, idx = cert.contact_points, cert.contact_weights, cert.contact_indices
    outer = np.einsum("i,ip,iq->pq", wts, pts, pts)
    identity_res = float(np.abs(outer - np.eye(d)).max())
    bary = float(np.linalg.norm(wts @ pts))
    sum_res = abs(float(wts.sum()) - d)
    weight_floor = float(wts.min())
    point_match = float(np.abs(pts - cert.norm_normals[idx]).max())
    tangency = float((cert.norm_offsets[idx] - 1.0).max())
    dec_bad = max(
        identity_res,
        bary,
        sum_res,
        point_match,
        -weight_floor if weight_floor <= 0 else 0.0,
    )
    dec_tol = DEFAULT.decomposition * k
    tangency_ok = tangency <= cert.contact_tol * k
    items.append(
        CheckItem(
            name="decomposition",
            passed=bool(dec_bad <= dec_tol and tangency_ok),
            applicable=True,
            slack=float(dec_tol - dec_bad),
            detail=(
                f"identity {identity_res:.2e}, barycenter {bary:.2e}, "
                f"weight sum off by {sum_res:.2e}, min weight {weight_floor:.2e}, "
                f"worst tangency 1+{max(tangency, 0.0):.2e}"
            ),
        )
    )

    # Greedy selection windows: orthonormal basis, triangular spans, floors.
    selected = cert.contact_points[cert.selected_rows]
    gram_res = float(np.abs(cert.basis @ cert.basis.T - np.eye(d)).max())
    coords = selected @ cert.basis.T
    span_res = float(np.abs(np.triu(coords, k=1)).max(initial=0.0))
    diag = np.diag(coords)
    window_margin = float((diag - eq3_lower_bounds(d)).min())
    upper_ok = bool((diag <= 1.0 + 1e-10 * k).all())
    distinct = len(set(cert.selected_rows.tolist())) == d
    window_ok = (
        gram_res <= 1e-10 * k
        and span_res <= 1e-8 * k
        and (not dr or window_margin >= -(cert.window_slack + 1e-9 * k))
        and upper_ok
        and distinct
    )
    items.append(
        CheckItem(
            name="selection_window",
            passed=bool(window_ok),
            applicable=dr,
            slack=window_margin,
            detail=(
                f"orthonormality {gram_res:.2e}, span residual {span_res:.2e}, "
                f"worst window margin {window_margin:+.2e}"
                + ("" if dr else " (sampled selection, no floor)")
            ),
        )
    )

    # Base simplex volume: the floor only the greedy windows guarantee, and
    # the triangular factorization that holds for either selector.
    det = float(np.linalg.det(selected))
    vol_s1 = abs(det) / math.factorial(d)
    prod = float(np.prod(diag))
    ident_rel = abs(vol_s1 * math.factorial(d) - prod) / max(abs(prod), 1e-300)
    floor_margin = vol_s1 - simplex_volume_floor(d)
    items.append(
        CheckItem(
            name="simplex_floor",
            passed=bool(
                ident_rel <= 1e-9 * k and (not dr or floor_margin >= -1e-9 * k)
            ),
            applicable=dr,
            slack=float(floor_margin),
            detail=(
                f"vol {vol_s1:.6e}, floor margin {floor_margin:+.2e}, "
                f"factorization residual {ident_rel:.2e}"
            ),
        )
    )

    # Boundary point depth.
    w_norm = float(np.linalg.norm(cert.w))
    items.append(
        _item(
            "ray_depth",
            w_norm - 1.0 / d,
            1e-8 * k,
            f"|w| = {w_norm:.6f} vs floor 1/{d}",
        )
    )

    # Contraction: ratio formula, its floor, the scaled shape, alignment,
    # the inscribed ellipsoid's center/tangency inside the base simplex.
    nu = float(np.linalg.norm(cert.u))
    if nu <= DEFAULT.degenerate_ray:
        lam_want = 1.0
        align_err = 0.0
    else:
        lam_want = w_norm / (nu + w_norm)
        align_err = float(cert.u @ cert.w) / (nu * w_norm) + 1.0
    lam_err = abs(cert.lam - lam_want)
    lam_margin = cert.lam - 1.0 / (d + 1)
    shape_err = float(np.abs(cert.e2_shape - cert.lam * cert.e1_shape).max())
    e1_eigs = np.linalg.eigvalsh(0.5 * (cert.e1_shape + cert.e1_shape.T))
    centroid_err = float(
        np.linalg.norm(cert.u - cert.s1_vertices.mean(axis=0))
    )
    try:
        fa1, fb1 = Simplex(cert.s1_vertices).facets()
        e1_support = fa1 @ cert.u + np.linalg.norm(fa1 @ cert.e1_shape, axis=1)
        e1_out = float((e1_support - fb1).max())
        e1_gap = float(np.abs(e1_support - fb1).max())  # tangency on every facet
    except HellyError:
        e1_out = e1_gap = math.inf  # a flat base simplex inscribes nothing
    contraction_ok = (
        lam_err <= 1e-9 * k
        and abs(align_err) <= 1e-8 * k
        and lam_margin >= -1e-9 * k
        and shape_err <= 1e-9 * k * max(1.0, float(np.abs(cert.e1_shape).max()))
        and float(e1_eigs.min()) > 0.0
        and centroid_err <= 1e-8 * k
        and e1_out <= 1e-8 * k
        and e1_gap <= 1e-6 * k
    )
    items.append(
        CheckItem(
            name="contraction",
            passed=bool(contraction_ok),
            applicable=True,
            slack=float(lam_margin),
            detail=(
                f"ratio {cert.lam:.6f} (formula residual {lam_err:.2e}, "
                f"floor margin {lam_margin:+.2e}), alignment residual {abs(align_err):.2e}, "
                f"shape residual {shape_err:.2e}, center-vs-centroid {centroid_err:.2e}, "
                f"inscribed-tangency gap {e1_gap:.2e}"
            ),
        )
    )

    # Hull chain: the boundary point rewrites over at most d selected hull
    # points, the apex simplex's vertex set is exactly what X collects, and
    # the contracted ellipsoid fits in the apex simplex S2' whose apex is
    # rebuilt from the clipped, renormalized hull coefficients. S2' lies in
    # conv(X) by construction, so E2/(1 + delta) inside S2' puts X* inside
    # (1 + delta) times the polar of E2: the polar inclusion the ratio needs.
    cara_pts = cert.contact_points[cert.cara_rows]
    coeff_floor = float(cert.cara_coeffs.min(initial=math.inf))
    coeff_sum = abs(float(cert.cara_coeffs.sum()) - 1.0)
    recon_err = float(np.linalg.norm(cara_pts.T @ cert.cara_coeffs - cert.w))
    x_set = set(cert.x_rows.tolist())
    composition_ok = (
        x_set == set(cert.selected_rows.tolist()) | set(cert.cara_rows.tolist())
        and np.abs(cert.contact_points[cert.x_rows] - cert.x_points).max() <= 1e-12
    )
    try:
        clipped = np.clip(cert.cara_coeffs, 0.0, None)
        if clipped.sum() <= 0.0:
            raise DegenerateSimplex("no hull coefficient is positive")
        apex = cara_pts.T @ (clipped / clipped.sum())
        fa2, fb2 = Simplex(np.vstack([apex, selected])).facets()
        e2_out = float(
            (np.linalg.norm(fa2 @ cert.e2_shape, axis=1) - fb2).max()
        )
        s2_floor = float(fb2.min())
    except HellyError:
        e2_out, s2_floor = math.inf, 0.0
    hull_ok = (
        cert.cara_rows.size <= d
        and coeff_floor >= -1e-12 * k
        and coeff_sum <= 1e-9 * k
        and recon_err <= 1e-8 * k
        and composition_ok
        and e2_out <= 1e-8 * k
    )
    items.append(
        CheckItem(
            name="hull_chain",
            passed=bool(hull_ok),
            applicable=True,
            slack=float(-e2_out),
            detail=(
                f"{cert.cara_rows.size} hull coefficients (min {coeff_floor:.2e}, "
                f"sum residual {coeff_sum:.2e}), apex reconstruction {recon_err:.2e}, "
                f"ellipsoid-in-simplex excess {e2_out:.2e}"
            ),
        )
    )

    # The certified ratio, recomputed from the offsets and E2.
    ratio_new = _certified_ratio(cert.norm_offsets, cert.g_indices, cert.e2_shape)
    ratio_err = abs(ratio_new - cert.ratio) / max(abs(cert.ratio), 1e-300)
    items.append(
        _item(
            "certified_ratio",
            -ratio_err,
            1e-9 * k,
            f"recomputed ratio {ratio_new:.6e}, relative drift {ratio_err:.2e}",
        )
    )

    # E2 leaves S2' by at most e2_out, so E2/(1 + delta) lies inside S2' and
    # the ratio of the shrunk ellipsoid is a true upper bound, not a rounded one.
    delta = max(e2_out, 0.0) / s2_floor if s2_floor > 0.0 else math.inf
    ratio_for_bound = _certified_ratio(
        cert.norm_offsets, cert.g_indices, cert.e2_shape / (1.0 + delta)
    )
    bound_err = abs(cert.bound - explicit_bound(d)) / explicit_bound(d)
    bound_margin = (cert.bound - ratio_for_bound) / cert.bound
    items.append(
        CheckItem(
            name="ratio_bound",
            passed=bool(bound_err <= 1e-12 * k and bound_margin >= -1e-9 * k),
            applicable=dr,
            slack=float(bound_margin),
            detail=(
                f"ratio {ratio_for_bound:.6e} vs bound {cert.bound:.6e} "
                f"(relative margin {bound_margin:+.2e})"
            ),
        )
    )

    # Subfamily size and identification with input half-spaces.
    p = cert.x_points.shape[0]
    distinct_rows = len(x_set) == p
    gaps = np.linalg.norm(
        cert.x_points[:, None, :] - cert.x_points[None, :, :], axis=2
    )
    np.fill_diagonal(gaps, np.inf)
    min_gap = float(gaps.min()) if p > 1 else math.inf
    items.append(
        CheckItem(
            name="subfamily_size",
            passed=bool(p <= 2 * d and distinct_rows and min_gap > DEFAULT.dedupe),
            applicable=True,
            slack=float(2 * d - p),
            detail=f"{p} members vs cap {2 * d}, closest pair {min_gap:.2e}",
        )
    )

    g_expected = cert.contact_indices[cert.x_rows]
    g_match = bool(np.array_equal(np.sort(g_expected), np.sort(cert.g_indices)))
    g_distinct = len(set(cert.g_indices.tolist())) == p
    support_res = float(
        np.abs(
            np.einsum("ij,ij->i", cert.norm_normals[cert.g_indices], cert.x_points)
            - cert.norm_offsets[cert.g_indices]
        ).max()
    ) if g_match else math.inf
    g_tangent = (
        float((cert.norm_offsets[cert.g_indices] - 1.0).max()) if p else 0.0
    )
    items.append(
        CheckItem(
            name="subfamily_membership",
            passed=bool(
                g_match
                and g_distinct
                and support_res <= cert.contact_tol * k
                and g_tangent <= cert.contact_tol * k
            ),
            applicable=True,
            slack=float(cert.contact_tol * k - max(support_res, g_tangent)),
            detail=(
                f"indices {'consistent' if g_match else 'inconsistent'}, "
                f"support residual {support_res:.2e}, worst offset 1+{max(g_tangent, 0.0):.2e}"
            ),
        )
    )

    return CheckReport(
        dim=d,
        selector=cert.selector,
        items=tuple(items),
        ratio=float(ratio_for_bound),
        bound=float(cert.bound),
        scale=k,
    )
