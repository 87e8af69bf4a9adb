"""Per-point reference loops for the verifiers on closed-form bodies, a
per-set loop for the Minkowski equivalence check, and the dual membership
test of the simplex difference body.

``check_schmuckenschlager`` and ``check_logconcavity`` take the exact f
and h_{Pi K} of a ball or cube in one call over all points, and
``check_minkowski_equivalence`` tests the pairs of all its sets in one
batch.  These loops evaluate one point or one set per call, in the order
the rng draws them, and must give the same report.
"""

from __future__ import annotations

import math

import numpy as np

from normpack.bodies import helmert_basis, sample_uniform, simplex_difference
from normpack.checks import MINKOWSKI_SET_SIZE, CheckReport
from normpack.volumetrics import analytic_proj_support, exact_intersection_volume


def h_proj_point(body, x):
    """h_{Pi K}(x) of a closed-form body, at x/|x| and rescaled."""
    n = np.linalg.norm(x)
    if n == 0:
        return 0.0
    return analytic_proj_support(body, x / n) * n


def simplex_diff_membership_dual(d: int, z: np.ndarray) -> np.ndarray:
    """z in (S - S) for the regular simplex S, via the positive-part test.

    Lifting z to the zero-sum hyperplane, z = u - v with u, v in the
    simplex iff sum(max(w_i, 0)) <= 1.  Independent of the l_1 gauge route.
    """
    E = helmert_basis(d)
    w = np.atleast_2d(z) @ E.T
    return np.maximum(w, 0.0).sum(axis=-1) <= 1.0 + 1e-12


def schmuckenschlager_per_point(body, delta, trials, rng, slack=0.05, seed=None):
    xs = sample_uniform(body.scaled(2.0), rng, trials)
    log_bound = math.log(1.0 / delta)
    outer_viol = inner_viol = outer_checked = inner_checked = 0
    for x in xs:
        fx = float(exact_intersection_volume(body, x))
        hx = h_proj_point(body, x)
        if fx > delta:
            outer_checked += 1
            if hx > log_bound * (1.0 + slack):
                outer_viol += 1
        if hx <= (1.0 - delta) * (1.0 - slack):
            inner_checked += 1
            if not fx > delta:
                inner_viol += 1
    return CheckReport(
        check="schmuckenschlager",
        body=body.describe(),
        d=body.d,
        params={"delta": delta, "slack": slack},
        value=float(outer_viol + inner_viol),
        std_error=0.0,
        bound=0.0,
        violations=outer_viol + inner_viol,
        trials=trials,
        seed=seed,
        extra={
            "outer_violations": outer_viol,
            "inner_violations": inner_viol,
            "outer_checked": outer_checked,
            "inner_checked": inner_checked,
        },
    )


def logconcavity_per_point(body, rays, rng, slope_directions=0, slope_tol=0.05, mc_samples=10_000, seed=None):
    viol = 0
    for _ in range(rays):
        y = rng.normal(size=body.d)
        y /= np.linalg.norm(y)
        t_sup = 2.0 / body.gauge(y)
        t1, t2 = np.sort(rng.uniform(0.0, 0.9 * t_sup, size=2))
        lam = rng.uniform(0.1, 0.9)
        tm = lam * t1 + (1.0 - lam) * t2
        f1 = float(exact_intersection_volume(body, t1 * y))
        f2 = float(exact_intersection_volume(body, t2 * y))
        fm = float(exact_intersection_volume(body, tm * y))
        if fm < f1**lam * f2 ** (1.0 - lam) - 3.0 * 1e-12 - 1e-12:
            viol += 1
    slope_fail = 0
    slope_errs = []
    for _ in range(slope_directions):
        y = rng.normal(size=body.d)
        y /= np.linalg.norm(y)
        hy = h_proj_point(body, y)
        eps = 0.05 / hy
        rel = abs(math.log(float(exact_intersection_volume(body, eps * y))) / eps + hy) / hy
        slope_errs.append(rel)
        if rel > slope_tol:
            slope_fail += 1
    return CheckReport(
        check="logconcavity",
        body=body.describe(),
        d=body.d,
        params={"mc_samples": mc_samples, "slope_tol": slope_tol},
        value=float(viol),
        std_error=0.0,
        bound=0.0,
        violations=viol + slope_fail,
        trials=rays + slope_directions,
        seed=seed,
        extra={
            "slope_failures": slope_fail,
            "max_slope_rel_err": max(slope_errs) if slope_errs else 0.0,
        },
    )


def minkowski_per_set(d, n_sets, rng, seed=None):
    body = simplex_difference(d)
    E = helmert_basis(d)
    disagreements = 0
    pack_true = pack_false = 0
    side = max(2, int(math.ceil(MINKOWSKI_SET_SIZE ** (1.0 / d))))
    grid = np.stack(np.meshgrid(*([np.arange(side)] * d), indexing="ij"), axis=-1).reshape(-1, d)
    for _ in range(n_sets):
        spacing = rng.uniform(1.0, 2.6)
        keep = rng.permutation(len(grid))[:MINKOWSKI_SET_SIZE]
        pts = spacing * (grid[keep] + rng.uniform(-0.15, 0.15, size=(MINKOWSKI_SET_SIZE, d)))
        ii, jj = np.triu_indices(MINKOWSKI_SET_SIZE, 1)
        z = pts[ii] - pts[jj]
        strict = np.maximum(np.atleast_2d(z) @ E.T, 0.0).sum(axis=-1) < 1.0 - 1e-12
        packs_simplex = not bool(strict.any())
        packs_diff = bool(np.all(body.gauge(z) >= 2.0 - 1e-12))
        if packs_simplex != packs_diff:
            disagreements += 1
        if packs_simplex:
            pack_true += 1
        else:
            pack_false += 1
    return CheckReport(
        check="minkowski_equivalence",
        body=f"simplex(d={d})",
        d=d,
        params={"set_size": MINKOWSKI_SET_SIZE},
        value=float(disagreements),
        std_error=0.0,
        bound=0.0,
        violations=disagreements,
        trials=n_sets,
        seed=seed,
        extra={"packing_true_sets": pack_true, "packing_false_sets": pack_false},
    )
