"""Shared test plumbing.

The acceptance suite registers one verdict line per criterion; replaying
them in the terminal summary keeps them visible under output capture.
`reference_simplex` builds the regular simplex several tests start from.
"""

import math

import numpy as np

ACCEPTANCE_VERDICTS: list[str] = []


def record_verdict(line: str) -> None:
    ACCEPTANCE_VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.line(line)


def reference_simplex(d: int) -> np.ndarray:
    """Regular simplex: d+1 unit vectors in R^d summing to zero, as rows."""
    ones = np.ones((d + 1, 1))
    q_full, _ = np.linalg.qr(ones, mode="complete")
    basis = q_full[:, 1:]  # orthonormal basis of the sum-zero hyperplane
    centered = np.eye(d + 1) - np.full((d + 1, d + 1), 1.0 / (d + 1))
    return math.sqrt((d + 1) / d) * centered @ basis
