"""The producer's tolerance record, and the size caps.

`Tolerances` governs the John solver and the position normalization: how
near tangency a facet must be to count as a contact (`contact`), the
largest residual the contact decomposition may leave (`decomposition`),
the duality gap the solver stops at (`solver_gap`) and its step budget
(`newton_cap`). `select(..., tolerances=DEFAULT.scaled(k))` and `hellycert
select --tol-scale k` move the three thresholds together. The checker reads
`decomposition` from `DEFAULT` and the certificate's recorded `contact_tol`,
times its own scale. Every other threshold is a constant where it is read,
which no option moves: named ones such as `geometry.INCIDENCE`,
`bodies.DEDUPE`, `certificate.DEGENERATE_RAY` and `checker.DEFAULT_SCALE`,
and literal slacks in the pipeline and in the checker's inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

VERSION = "0.1.0"

# Hard size caps. Combinatorial primitives are exponential in the dimension;
# the library is meant for desk-scale certified runs, not bulk computation.
DIM_CAP = 8
FACET_CAP = 64


@dataclass(frozen=True)
class Tolerances:
    contact: float = 1e-7          # near-tangency admission for contact points
    decomposition: float = 1e-6    # identity / barycenter residual cap
    solver_gap: float = 1e-9       # John solver duality gap at exit (log-volume)
    newton_cap: int = 500          # John solver primal-dual iteration budget

    def scaled(self, factor: float) -> "Tolerances":
        """Return a copy with every tolerance multiplied by factor, which
        must be finite and positive; the iteration budget `newton_cap`
        stays."""
        if not (math.isfinite(factor) and factor > 0):
            raise ValueError(f"tolerance scale must be finite and positive, got {factor}")
        return replace(
            self,
            **{f.name: getattr(self, f.name) * factor for f in fields(self) if f.name != "newton_cap"},
        )


DEFAULT = Tolerances()
