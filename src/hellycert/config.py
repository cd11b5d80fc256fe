"""The size caps, and the two tolerances that the producer and the checker share.

`CONTACT` is how near tangency a facet must be to count as a contact, and
`DECOMPOSITION` the largest residual the contact decomposition may leave.
The John solver settles on half of each, in the frame of its start point,
where no digits are lost. A certificate's `contact_tol` is
`certificate.contact_allowance`, `CONTACT` widened by the rounding of a far
body's offsets up to `certificate.CONTACT_CAP`; producer and checker both
derive it. The checker reads `DECOMPOSITION` and `contact_tol` times its
own scale (`verify --tol-scale`). Every other threshold is a constant where
it is read, which no option moves: named ones such as `geometry.INCIDENCE`,
`bodies.DEDUPE`, `certificate.DEGENERATE_RAY` and `checker.DEFAULT_SCALE`,
and literal slacks in the pipeline and in the checker's inequalities.
"""

VERSION = "0.1.0"

# Hard size caps. Combinatorial primitives are exponential in the dimension;
# the library is meant for desk-scale certified runs, not bulk computation.
DIM_CAP = 8
FACET_CAP = 64

CONTACT = 1e-7  # near-tangency admission for contact points
DECOMPOSITION = 1e-6  # identity / barycenter residual cap
