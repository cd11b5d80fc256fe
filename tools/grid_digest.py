"""Digests of the 544-certificate grid: certificate bytes and check reports.

Runs `select` on a fixed grid of seeded bodies, writes each certificate as
its canonical document, reads it back, checks it, and prints the sha256 over
the certificate documents, the sha256 over the check-report documents and
the count of reports that pass. Two trees whose certificate digest agrees
produce the same certificates on the grid; the report digest also moves
when only the checker's arithmetic does (a slack's last bits).

Grid: d = 2..8; m in (d+2, 2d+3, 4d, 8d, 64), each once and at most 64;
seeds 0-3; the tangent body, then it warped with seed s + 10007; the `dr`
selector, then `pivovarov` with seed s. That is 544 certificates; on a
2-vCPU machine the run takes a few seconds.

Usage: python tools/grid_digest.py [--verbose]
(it imports the package from the `src` beside this script's directory)
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, as the benchmark runs
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import hashlib  # noqa: E402

from hellycert import check_certificate, gen_affine_warp, gen_tangent_random, select  # noqa: E402
from hellycert.documents import (  # noqa: E402
    canonical_dumps,
    canonical_loads,
    certificate_from_doc,
    certificate_to_doc,
    report_to_doc,
)


def grid():
    """(label, body, selector, seed) in grid order."""
    for d in range(2, 9):
        for m in dict.fromkeys(m for m in (d + 2, 2 * d + 3, 4 * d, 8 * d, 64) if m <= 64):
            for s in range(4):
                tangent = gen_tangent_random(d, m, seed=s)
                warped = gen_affine_warp(tangent, seed=s + 10007)[0]
                for kind, body in (("tangent", tangent), ("warped", warped)):
                    for selector in ("dr", "pivovarov"):
                        yield f"d={d} m={m} seed={s} {kind} {selector}", body, selector, s


def main(argv) -> int:
    verbose = "--verbose" in argv
    certs, reports = hashlib.sha256(), hashlib.sha256()
    total = passed = 0
    for label, body, selector, seed in grid():
        text = canonical_dumps(certificate_to_doc(select(body, selector=selector, seed=seed)))
        report = check_certificate(certificate_from_doc(canonical_loads(text)))
        certs.update(text.encode())
        reports.update(canonical_dumps(report_to_doc(report)).encode())
        total += 1
        passed += report.passed
        if verbose and not report.passed:
            print(f"FAIL {label}: {', '.join(report.failures())}")
    print(f"certificates {certs.hexdigest()}")
    print(f"reports      {reports.hexdigest()}")
    print(f"PASS {passed} of {total}")
    return 0 if passed == total else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
