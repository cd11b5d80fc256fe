"""Constructive quantitative Helly subfamilies with checkable certificates.

Given half-spaces whose intersection is bounded and full-dimensional, the
pipeline picks at most 2d of them whose intersection volume exceeds the
original by at most an explicit dimension-only factor, and records every
inequality of the construction in a certificate that `check_certificate`
replays from stored data alone.

    >>> import hellycert as hc
    >>> cert = hc.select(hc.gen_cube(3))
    >>> cert.subfamily_size, cert.ratio <= hc.explicit_bound(3)
    (6, True)
    >>> hc.check_certificate(cert).passed
    True
"""

from .bounds import (
    BoundReport,
    bound_report,
    explicit_bound,
    log_explicit_bound,
    simplex_ellipsoid_ratio,
    simplex_volume_floor,
    theorem_constant_scan,
    theorem_form_ratio,
)
from .checker import CheckItem, CheckReport, check_certificate
from .config import DEFAULT, DIM_CAP, FACET_CAP, VERSION, Tolerances
from .documents import (
    certificate_from_doc,
    certificate_to_doc,
    instance_from_doc,
    instance_to_doc,
    load_document,
    report_from_doc,
    report_to_doc,
    save_document,
)
from .dr import DRBasis, dr_select, eq3_lower_bounds, trace_pick
from .errors import (
    CapExceeded,
    DegenerateSimplex,
    Empty,
    HellyError,
    MalformedCertificate,
    MalformedDocument,
    NumericalBreakdown,
    PipelineError,
    Unbounded,
)
from .experiment import ExperimentRow, TrialSpec, grid_specs, rows_to_csv, run_experiment
from .generators import gen_affine_warp, gen_cube, gen_tangent_random
from .geometry import (
    Ellipsoid,
    HalfSpace,
    HPolytope,
    Simplex,
    VPolytope,
    hpolytope_from_arrays,
    polar_of_points,
    vertex_enumeration,
    volume,
)
from .john import (
    ContactDecomposition,
    NormalizedInstance,
    contact_points,
    inscribed_ellipsoid,
    john_weights,
    normalize_position,
    verify_decomposition,
)
from .oracle import oracle_min_subfamily
from .pipeline import Certificate, select
from .pivovarov import MomentReport, pivovarov_moments, pivovarov_sample

__version__ = VERSION

__all__ = [
    "BoundReport",
    "CapExceeded",
    "Certificate",
    "CheckItem",
    "CheckReport",
    "ContactDecomposition",
    "DEFAULT",
    "DIM_CAP",
    "DRBasis",
    "DegenerateSimplex",
    "Ellipsoid",
    "Empty",
    "ExperimentRow",
    "FACET_CAP",
    "HPolytope",
    "HalfSpace",
    "HellyError",
    "MalformedCertificate",
    "MalformedDocument",
    "MomentReport",
    "NormalizedInstance",
    "NumericalBreakdown",
    "PipelineError",
    "Simplex",
    "Tolerances",
    "TrialSpec",
    "Unbounded",
    "VPolytope",
    "bound_report",
    "certificate_from_doc",
    "certificate_to_doc",
    "check_certificate",
    "contact_points",
    "dr_select",
    "eq3_lower_bounds",
    "explicit_bound",
    "gen_affine_warp",
    "gen_cube",
    "gen_tangent_random",
    "grid_specs",
    "hpolytope_from_arrays",
    "inscribed_ellipsoid",
    "instance_from_doc",
    "instance_to_doc",
    "john_weights",
    "load_document",
    "log_explicit_bound",
    "normalize_position",
    "oracle_min_subfamily",
    "pivovarov_moments",
    "pivovarov_sample",
    "polar_of_points",
    "report_from_doc",
    "report_to_doc",
    "rows_to_csv",
    "run_experiment",
    "save_document",
    "select",
    "simplex_ellipsoid_ratio",
    "simplex_volume_floor",
    "theorem_constant_scan",
    "theorem_form_ratio",
    "trace_pick",
    "verify_decomposition",
    "vertex_enumeration",
    "volume",
]
