"""Independent re-verification of a selection certificate.

The certificate stores each fact once; the quantities it derives from them
(the normalized rows, the contact points, X and G, E1, the contraction ratio
and E2) come from closed-form linear algebra only: no LP, no vertex
enumeration, no ellipsoid solver, no greedy selection, no trust in any
producer-side invariant. Each link of the argument gets its own named check
with a measured slack (positive means margin, negative means violation), and
the report passes when every applicable check passes.

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

    # The unit ball inside the mapped instance: no normalized offset below 1.
    inscribed = float(cert.norm_offsets.min() - 1.0)
    items.append(
        _item(
            "instance_map",
            inscribed,
            DEFAULT.feasibility * k,
            f"min normalized offset 1{inscribed:+.2e}",
        )
    )

    # Decomposition of the identity over near-tangent facets.
    pts, wts, idx = cert.contact_points, cert.contact_weights, cert.contact_indices
    outer = np.einsum("i,ip,iq->pq", wts, pts, pts)
    identity_res = float(np.abs(outer - np.eye(d)).max())
    bary = float(np.linalg.norm(wts @ pts))
    sum_res = abs(float(wts.sum()) - d)
    weight_floor = float(wts.min(initial=math.inf))
    tangency = float((cert.norm_offsets[idx] - 1.0).max(initial=-math.inf))
    dec_bad = max(identity_res, bary, sum_res, -weight_floor if weight_floor <= 0 else 0.0)
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
    selected = cert.selected_points
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

    # Contraction: the derived E1 sits in the base simplex, centered at its
    # centroid and tangent to every facet; w lies opposite its center u; the
    # derived ratio clears its floor. A flat base simplex inscribes nothing,
    # which fails every item that reads E1 or E2.
    try:
        u, e1_shape, lam, e2_shape = cert.u, cert.e1_shape, cert.lam, cert.e2_shape
    except HellyError as exc:
        e2_shape = None
        contraction_ok, lam_margin = False, -math.inf
        contraction_detail = f"no inscribed ellipsoid: {exc}"
    else:
        nu = float(np.linalg.norm(u))
        if nu <= DEFAULT.degenerate_ray:
            align_err = 0.0
        elif w_norm > 0.0:
            align_err = float(u @ cert.w) / (nu * w_norm) + 1.0
        else:
            align_err = math.inf
        lam_margin = lam - 1.0 / (d + 1)
        centroid_err = float(np.linalg.norm(u - cert.s1.vertices.mean(axis=0)))
        fa1, fb1 = cert.s1.facets()
        e1_support = fa1 @ u + np.linalg.norm(fa1 @ e1_shape, axis=1)
        e1_out = float((e1_support - fb1).max())
        e1_gap = float(np.abs(e1_support - fb1).max())  # tangency on every facet
        contraction_ok = (
            abs(align_err) <= 1e-8 * k
            and lam_margin >= -1e-9 * k
            and centroid_err <= 1e-8 * k
            and e1_out <= 1e-8 * k
            and e1_gap <= 1e-6 * k
        )
        contraction_detail = (
            f"ratio {lam:.6f} (floor margin {lam_margin:+.2e}), "
            f"alignment residual {abs(align_err):.2e}, "
            f"center-vs-centroid {centroid_err:.2e}, inscribed-tangency gap {e1_gap:.2e}"
        )
    items.append(
        CheckItem(
            name="contraction",
            passed=bool(contraction_ok),
            applicable=True,
            slack=float(lam_margin),
            detail=contraction_detail,
        )
    )

    # Hull chain: the boundary point rewrites over at most d selected hull
    # points, and the contracted ellipsoid fits in the apex simplex S2' whose
    # apex is rebuilt from the clipped, renormalized hull coefficients. S2'
    # lies in conv(X) by construction, so E2/(1 + delta) inside S2' puts X*
    # inside (1 + delta) times the polar of E2: the polar inclusion the
    # ratio needs.
    cara_pts = cert.contact_points[cert.cara_rows]
    coeff_floor = float(cert.cara_coeffs.min(initial=math.inf))
    coeff_sum = abs(float(cert.cara_coeffs.sum()) - 1.0)
    recon_err = float(np.linalg.norm(cara_pts.T @ cert.cara_coeffs - cert.w))
    try:
        clipped = np.clip(cert.cara_coeffs, 0.0, None)
        if e2_shape is None or clipped.sum() <= 0.0:
            raise DegenerateSimplex("no E2, or no hull coefficient is positive")
        apex = cara_pts.T @ (clipped / clipped.sum())
        fa2, fb2 = Simplex(np.vstack([apex, cert.selected_points])).facets()
        e2_out = float((np.linalg.norm(fa2 @ e2_shape, axis=1) - fb2).max())
        s2_floor = float(fb2.min())
    except HellyError:
        e2_out, s2_floor = math.inf, 0.0
    hull_ok = (
        cert.cara_rows.size <= d
        and coeff_floor >= -1e-12 * k
        and coeff_sum <= 1e-9 * k
        and recon_err <= 1e-8 * k
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
    def ratio_of(shape):  # no E2 certifies no ratio
        return math.inf if shape is None else _certified_ratio(cert.norm_offsets, cert.g_indices, shape)

    ratio_new = ratio_of(e2_shape)
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
    ratio_for_bound = ratio_of(None if e2_shape is None else e2_shape / (1.0 + delta))
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

    # Subfamily size, and its rows: distinct input half-spaces, all tangent.
    x_points, g = cert.x_points, cert.g_indices
    p = x_points.shape[0]
    gaps = np.linalg.norm(x_points[:, None, :] - x_points[None, :, :], axis=2)
    np.fill_diagonal(gaps, np.inf)
    min_gap = float(gaps.min()) if p > 1 else math.inf
    items.append(
        CheckItem(
            name="subfamily_size",
            passed=bool(p <= 2 * d and min_gap > DEFAULT.dedupe),
            applicable=True,
            slack=float(2 * d - p),
            detail=f"{p} members vs cap {2 * d}, closest pair {min_gap:.2e}",
        )
    )

    g_distinct = len(set(g.tolist())) == p
    g_tangent = float((cert.norm_offsets[g] - 1.0).max())
    items.append(
        CheckItem(
            name="subfamily_membership",
            passed=bool(g_distinct and g_tangent <= cert.contact_tol * k),
            applicable=True,
            slack=float(cert.contact_tol * k - g_tangent),
            detail=(
                f"rows {'distinct' if g_distinct else 'repeated'}, "
                f"worst offset 1+{max(g_tangent, 0.0):.2e}"
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
