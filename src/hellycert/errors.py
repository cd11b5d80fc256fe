"""Exception taxonomy.

Geometric impossibilities (empty, unbounded, flat) and numeric failures are
distinct conditions and get distinct types; LP infeasibility/unboundedness
when probing a polytope is an answer, not an error, and lives in lp.LPStatus.
"""

from __future__ import annotations


class HellyError(Exception):
    """Base class for every library-raised error."""


class CapExceeded(HellyError):
    """Instance exceeds the dimension or facet cap."""


class ZeroNormal(HellyError):
    """Half-space normal has (near-)zero length."""


class Empty(HellyError):
    """The intersection is empty."""


class Unbounded(HellyError):
    """The intersection is unbounded in some direction (also the polar of a
    point set that contains the origin)."""


class Degenerate(HellyError):
    """The body is not full-dimensional (no interior ball of radius 1e-10)."""


class DegenerateSimplex(HellyError):
    """Simplex vertices are affinely dependent."""


class NoConvergence(HellyError):
    """Iterative solver ran out of its step budget."""


class NoDecomposition(HellyError):
    """Contact weights leave an identity or barycenter residual above tolerance."""


class NumericalBreakdown(HellyError):
    """An inequality the construction guarantees failed numerically."""


class ReductionFailed(HellyError):
    """Affine-dependence search found no usable null direction."""


class Misaligned(HellyError):
    """Contraction endpoints are not antipodal through the origin."""


class GenerationFailed(HellyError):
    """Random instance/decomposition generator hit its retry cap."""


class MalformedDocument(HellyError):
    """Input file does not match the expected schema."""


class MalformedCertificate(MalformedDocument):
    """Certificate document is missing fields or structurally invalid."""


class PipelineError(HellyError):
    """Wraps an upstream error with the pipeline stage it occurred in."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"[{stage}] {message}")
