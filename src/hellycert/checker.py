"""Independent re-verification of a selection certificate.

The certificate stores only what the run chose; everything the checker
reads besides (the normalized rows, the contact points, X and G, the
selection windows and their allowance, E1, the contraction ratio, E2 and
the certified ratio) it derives with closed-form linear algebra only: no
LP, no vertex enumeration, no ellipsoid solver, no greedy selection, no
trust in any producer-side invariant; the one stored tolerance,
`contact_tol`, is held to the allowance its rows derive. Each of the ten
links of the argument gets its own named check with a measured slack
(positive means margin, negative means violation), and the report passes
when every applicable check passes.

Checks gated on the greedy selector (the window floors, the simplex volume
floor, and the ratio bound they imply) are reported as not applicable for
sampled selections, whose guarantee is distributional rather than per-run.

No polytope volume and no matrix root is taken. E1 and E2 = lam E1 are
read through the centered vertices V_c of S1 = conv{0, P}: |E1 a| =
|V_c a| / sqrt(d (d+1)) and |det E1| = |det P| / (d^(d/2) (d+1)^((d+1)/2)),
one det P serving the simplex floor, S1's flatness and the ratio. The
subfamily's volume ratio to the whole family is at most (max_g b_g /
min_i b_i)^d / |det E2| in the normalized frame, which the hull chain and
polarity make an upper bound for the selected half-spaces themselves: E2
inside an apex simplex built from points of X puts X* inside the polar of
E2, so that inclusion is proved rather than measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import DEDUPE, Simplex, inscribed_reach
from .bounds import eq3_lower_bounds, explicit_bound, selection_windows, simplex_volume_floor, window_allowance
from .certificate import DEGENERATE_RAY, Certificate, contact_allowance, verify_decomposition
from .config import DECOMPOSITION
from .errors import DegenerateSimplex, HellyError, MalformedCertificate

DEFAULT_SCALE = 10.0  # checker tolerance = producer tolerance x this, unless asked


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

    scale multiplies every tolerance applied here: `config.DECOMPOSITION`,
    the certificate's recorded `contact_tol` and the literal slacks of the
    inequalities (default: DEFAULT_SCALE, 10x), which may not exceed its
    `contact_allowance`; raising the scale separates genuine violations
    from float noise, lowering it sharpens the audit. It must be finite and
    positive (ValueError otherwise), since an infinite scale would pass
    anything.
    """
    if not isinstance(cert, Certificate):
        raise MalformedCertificate("checker needs a Certificate")
    k = DEFAULT_SCALE if scale is None else float(scale)
    if not (math.isfinite(k) and k > 0):
        raise ValueError(f"tolerance scale must be finite and positive, got {scale}")
    d = cert.dim
    dr = cert.selector == "dr"
    items: list[CheckItem] = []

    # The unit ball inside the mapped instance: no normalized offset below 1.
    inscribed = float(cert.norm_offsets.min() - 1.0)
    items.append(
        _item(
            "instance_map",
            inscribed,
            1e-8 * k,
            f"min normalized offset 1{inscribed:+.2e}",
        )
    )

    # Decomposition of the identity over near-tangent facets.
    res = verify_decomposition(cert.contact_points, cert.contact_weights)
    identity_res, bary, weight_floor = res.identity_residual, res.barycenter_norm, res.min_weight
    sum_res = abs(res.weight_sum - d)
    tangency = float((cert.norm_offsets[cert.contact_indices] - 1.0).max(initial=-math.inf))
    dec_bad = max(identity_res, bary, sum_res, -weight_floor if weight_floor <= 0 else 0.0)
    dec_tol = DECOMPOSITION * k
    allowed = contact_allowance(cert.normals, cert.offsets, cert.map_offset, cert.contact_indices)
    recorded_ok = cert.contact_tol <= allowed < math.inf  # inf: past the cap, nothing is allowed
    recorded = "" if recorded_ok else f", contact tolerance {cert.contact_tol:.2e} beyond {allowed:.2e}"
    tangency_ok = tangency <= cert.contact_tol * k
    items.append(
        CheckItem(
            name="decomposition",
            passed=bool(dec_bad <= dec_tol and tangency_ok and recorded_ok),
            applicable=True,
            slack=float(dec_tol - dec_bad),
            detail=(
                f"identity {identity_res:.2e}, barycenter {bary:.2e}, "
                f"weight sum off by {sum_res:.2e}, min weight {weight_floor:.2e}, "
                f"worst tangency 1+{max(tangency, 0.0):.2e}{recorded}"
            ),
        )
    )

    # Greedy selection windows of the selected points in pick order, which a
    # flat selection does not have. The floors are widened by the allowance
    # the decomposition residual earns.
    selected = cert.selected_points
    try:
        diag = selection_windows(selected)
    except np.linalg.LinAlgError:
        window_margin, upper_ok = -math.inf, False
    else:
        window_margin = float((diag - eq3_lower_bounds(d)).min())
        upper_ok = bool((diag <= 1.0 + 1e-10 * k).all())
    allowance = window_allowance(d, identity_res) + 1e-9 * k
    distinct = len(set(cert.selected_rows.tolist())) == d
    items.append(
        CheckItem(
            name="selection_window",
            passed=bool(window_margin >= -allowance and upper_ok and distinct),
            applicable=dr,
            slack=window_margin,
            detail=(
                f"worst window margin {window_margin:+.2e}, allowance {allowance:.2e}"
                + ("" if dr else " (sampled selection, no floor)")
            ),
        )
    )

    # Base simplex volume: the floor only the greedy windows guarantee. S1's
    # edges are the selected points P, so this det P is S1's flatness test too.
    vol_s1 = abs(cert.s1_det) / math.factorial(d)
    floor_margin = vol_s1 - simplex_volume_floor(d)
    items.append(
        _item(
            "simplex_floor",
            floor_margin,
            1e-9 * k,
            f"vol {vol_s1:.6e}, floor margin {floor_margin:+.2e}",
            applicable=dr,
        )
    )

    # Boundary point depth.
    w_norm = math.sqrt(cert.w @ cert.w)
    items.append(
        _item(
            "ray_depth",
            w_norm - 1.0 / d,
            1e-8 * k,
            f"|w| = {w_norm:.6f} vs floor 1/{d}",
        )
    )

    # Contraction: E1, centered at S1's centroid u and read through S1's
    # centered vertices, sits in S1 tangent to every facet; w lies opposite
    # u; the derived ratio clears its floor. A flat base simplex inscribes
    # nothing, which fails every item that reads E1 or E2.
    try:
        u, lam = cert.u, cert.lam
        centered = cert.s1.vertices - u  # V_c, which reads E1 (`inscribed_reach`)
    except HellyError as exc:
        lam = None
        contraction_ok, lam_margin = False, -math.inf
        contraction_detail = f"no inscribed ellipsoid: {exc}"
    else:
        nu = math.sqrt(u @ u)
        if nu <= DEGENERATE_RAY:
            align_err = 0.0
        elif w_norm > 0.0:
            align_err = float(u @ cert.w) / (nu * w_norm) + 1.0
        else:
            align_err = math.inf
        lam_margin = lam - 1.0 / (d + 1)
        fa1, fb1 = cert.s1.facets()
        excess = fa1 @ u + inscribed_reach(centered, fa1) - fb1
        e1_out = float(excess.max())
        e1_gap = float(np.abs(excess).max())  # tangency on every facet
        contraction_ok = (
            abs(align_err) <= 1e-8 * k
            and lam_margin >= -1e-9 * k
            and e1_out <= 1e-8 * k
            and e1_gap <= 1e-6 * k
        )
        contraction_detail = (
            f"ratio {lam:.6f} (floor margin {lam_margin:+.2e}), "
            f"alignment residual {abs(align_err):.2e}, inscribed-tangency gap {e1_gap:.2e}"
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
    # points, and the contracted ellipsoid E2 = lam E1 fits in the apex
    # simplex S2' whose apex is rebuilt from the clipped, renormalized hull
    # coefficients. S2' lies in conv(X) by construction, so E2/(1 + delta)
    # inside S2' puts X* inside (1 + delta) times the polar of E2: the polar
    # inclusion the ratio needs.
    cara_pts = cert.contact_points[cert.cara_rows]
    coeff_floor = float(cert.cara_coeffs.min(initial=math.inf))
    coeff_sum = abs(float(cert.cara_coeffs.sum()) - 1.0)
    recon = cara_pts.T @ cert.cara_coeffs - cert.w
    recon_err = math.sqrt(recon @ recon)
    try:
        clipped = np.maximum(cert.cara_coeffs, 0.0)
        if lam is None or clipped.sum() <= 0.0:
            raise DegenerateSimplex("no E2, or no hull coefficient is positive")
        apex = cara_pts.T @ (clipped / clipped.sum())
        fa2, fb2 = Simplex(np.concatenate([apex[None], cert.selected_points])).facets()
        e2_out = float((lam * inscribed_reach(centered, fa2) - fb2).max())
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

    # E2 leaves S2' by at most e2_out, so E2/(1 + delta) lies inside S2' and
    # the ratio of the shrunk ellipsoid is a true upper bound, not a rounded
    # one. No E2 (delta is then inf) certifies no ratio.
    delta = max(e2_out, 0.0) / s2_floor if s2_floor > 0.0 else math.inf
    ratio_for_bound = math.inf if math.isinf(delta) else cert.certified_ratio(lam / (1.0 + delta))
    bound = explicit_bound(d)
    bound_margin = (bound - ratio_for_bound) / bound
    items.append(
        _item(
            "ratio_bound",
            bound_margin,
            1e-9 * k,
            f"ratio {ratio_for_bound:.6e} vs bound {bound:.6e} "
            f"(relative margin {bound_margin:+.2e})",
            applicable=dr,
        )
    )

    # Subfamily size, and its rows: distinct input half-spaces, all tangent.
    x_points, g = cert.x_points, cert.g_indices
    p = x_points.shape[0]
    diff = x_points[:, None, :] - x_points[None, :, :]
    square_gaps = (diff * diff).sum(axis=2)
    square_gaps.flat[:: p + 1] = np.inf  # a point's gap to itself
    min_gap = math.sqrt(square_gaps.min()) if p > 1 else math.inf
    items.append(
        CheckItem(
            name="subfamily_size",
            passed=bool(p <= 2 * d and min_gap > DEDUPE),
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
        bound=bound,
        scale=k,
    )
