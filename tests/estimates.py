"""Test helpers for volume estimates: the k-sigma check of a Monte Carlo
estimate, the scalar ball cap and lens formulas that the array lens must
equal bit for bit, and the first bisection of the l2 ball's I_K radius."""

from __future__ import annotations

import numpy as np
from scipy.special import betainc

from normpack.bodies import ball_volume
from normpack.volumetrics import McEstimate, exact_intersection_volume


def brackets(est: McEstimate, truth, sigmas: float = 3.0) -> bool:
    """Is ``truth`` within ``sigmas`` standard errors of the estimate, in
    every row of an estimate per row?"""
    return bool(np.all(np.abs(est.value - truth) <= sigmas * est.std_error + 1e-15))


def ball_cap_volume(d: int, r: float, a: float) -> float:
    """Volume of the cap {x in B(0,r) : x_1 >= a} for 0 <= a <= r."""
    if a >= r:
        return 0.0
    if a <= -r:
        return ball_volume(d) * r**d
    x = 1.0 - (a / r) ** 2
    half = 0.5 * ball_volume(d) * r**d
    cap = half * betainc(0.5 * (d + 1), 0.5, x)
    return cap if a >= 0 else 2.0 * half - cap


def ball_lens_scalar(d: int, r: float, s: float) -> float:
    """vol of the intersection of two radius-r balls with centers s apart."""
    return 2.0 * ball_cap_volume(d, r, 0.5 * s)


def ball_ik_radius_loop(body, delta: float) -> float:
    """The l2 ball's I_K gauge radius by a scalar bisection of [0, 2]
    along e_1, halving while the bracket is wider than 1e-9."""
    lo, hi = 0.0, 2.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if exact_intersection_volume(body, np.array([mid * body.scale] + [0.0] * (body.d - 1))) > delta:
            lo = mid
        else:
            hi = mid
    return hi
