"""The status rule: every check's value becomes a pass / fail / inconclusive band.

A value passes up to its tolerance, fails from its falsification gap on (or at
NaN), and is inconclusive in between.
"""

from __future__ import annotations

__all__ = ["POSITIVE_TOL", "FALSIFICATION_GAP", "band"]

# Positive verification tolerance and the falsification gap (100x separation).
POSITIVE_TOL = 5e-5
FALSIFICATION_GAP = 1e-2


def band(value: float, tol: float, gap: float) -> str:
    """Verdict band of a value: "pass" up to tol, "fail" from gap on or at NaN, else
    "inconclusive"."""
    if value <= tol:
        return "pass"
    if value < gap:
        return "inconclusive"
    return "fail"
