"""Numeric tolerances and size caps, centralized.

Every comparison threshold in the library reads from a single Tolerances
record so that producer and checker can be rescaled together (the checker
defaults to 10x looser than the producer).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

VERSION = "0.1.0"

# Hard size caps. Combinatorial primitives are exponential in the dimension;
# the library is meant for desk-scale certified runs, not bulk computation.
DIM_CAP = 8
FACET_CAP = 64


@dataclass(frozen=True)
class Tolerances:
    incidence: float = 1e-9        # vertex-on-facet slack in enumeration/volume
    dedupe: float = 1e-9           # two points closer than this are one point
    spd_floor: float = 1e-12       # smallest admissible ellipsoid eigenvalue
    unit_norm: float = 1e-12       # half-space normal normalization slack
    feasibility: float = 1e-8      # membership / containment re-checks
    contact: float = 1e-7          # near-tangency admission for contact points
    decomposition: float = 1e-6    # identity / barycenter residual cap
    solver_gap: float = 1e-9       # John solver duality gap at exit (log-volume)
    newton_cap: int = 500          # John solver primal-dual iteration budget
    degenerate_ray: float = 1e-10  # |u| below which the ray direction is moot
    checker_scale: float = 10.0    # verification tolerance = producer x this

    def scaled(self, factor: float) -> "Tolerances":
        """Return a copy with every tolerance multiplied by factor; the
        iteration budget `newton_cap` and the ratio `checker_scale` stay."""
        if factor <= 0:
            raise ValueError("tolerance scale must be positive")
        return replace(
            self,
            **{
                f.name: getattr(self, f.name) * factor
                for f in fields(self)
                if f.name not in ("newton_cap", "checker_scale")
            },
        )


DEFAULT = Tolerances()
