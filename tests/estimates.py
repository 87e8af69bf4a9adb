"""Test helpers for Monte Carlo estimates."""

from __future__ import annotations

from normpack.volumetrics import McEstimate


def brackets(est: McEstimate, truth: float, sigmas: float = 3.0) -> bool:
    """Is ``truth`` within ``sigmas`` standard errors of the estimate?"""
    return abs(est.value - truth) <= sigmas * est.std_error + 1e-15
