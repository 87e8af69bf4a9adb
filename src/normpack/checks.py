"""Numerical verifiers for the geometric facts the pipeline relies on.

Each checker samples a configurable number of trials and returns a
:class:`CheckReport` carrying (violations, trials, slack) plus the
headline value/bound pair; pass/fail thresholds live in the caller.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import gammaln

from .bodies import (
    ConvexBody,
    helmert_basis,
    sample_uniform,
    simplex_difference,
)
from .volumetrics import (
    McEstimate,
    analytic_polar_proj_volume,
    exact_intersection_volume,
    intersection_volume,
    mc_volume,
    polar_proj_ball_volume,
    polar_proj_volume_mc,
    proj_support_rows,
    row_norms,
)

# Monte Carlo samples per f(x) estimate and per Cauchy h_{Pi K}(u) in the
# Schmuckenschläger and Petty checks
CHECK_MC_SAMPLES = 20_000
# largest relative error of the finite-difference slope of log f at 0
SLOPE_TOL = 0.05
# centers per random set of the Minkowski equivalence check
MINKOWSKI_SET_SIZE = 8


@dataclass(frozen=True)
class CheckReport:
    """Structured verifier outcome; never a bare boolean."""

    check: str
    body: str
    d: int
    params: dict
    value: float
    std_error: float
    bound: float
    violations: int
    trials: int
    seed: int | None
    conclusive: bool = True
    extra: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        """The fields, with the keys of ``extra`` in place of ``extra``."""
        rec = asdict(self)
        rec.update(rec.pop("extra"))
        return rec


def write_reports_jsonl(reports, path) -> None:
    with open(path, "w") as fh:
        for rep in reports:
            fh.write(json.dumps(rep.to_record(), sort_keys=True) + "\n")


def write_reports_csv(reports, path) -> None:
    fields = ["check", "body", "d", "value", "std_error", "bound", "violations", "trials", "seed", "conclusive", "params"]
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
        w.writeheader()
        for rep in reports:
            row = rep.to_record()
            row["params"] = json.dumps(row["params"], sort_keys=True)
            w.writerow(row)


def _f_rows(body: ConvexBody, xs: np.ndarray, samples: int, rng: np.random.Generator) -> McEstimate:
    """f at each row of xs: exact (standard error 0) where f has a closed
    form, else :func:`intersection_volume` over one shared sample."""
    f = exact_intersection_volume(body, xs)
    return intersection_volume(body, xs, samples, rng) if f is None else McEstimate(f, np.zeros(len(xs)), 0)


def check_schmuckenschlager(
    body: ConvexBody,
    delta: float,
    trials: int,
    rng: np.random.Generator,
    slack: float = 0.05,
    seed: int | None = None,
) -> CheckReport:
    """Two-sided containment between {f > delta} and scaled Pi*K.

    Outer: f(x) > delta must imply h_{Pi K}(x) <= log(1/delta)(1+slack).
    Inner: h_{Pi K}(x) <= (1-delta)(1-slack) must imply f(x) > delta.

    The trial points x are uniform in 2K.  h_{Pi K} at all of them comes
    from one :func:`proj_support_rows` call, whose Cauchy estimates share
    one draw of :data:`CHECK_MC_SAMPLES` directions, and f from one
    :func:`_f_rows` call: exact for balls and cubes, else from one shared
    sample of :data:`CHECK_MC_SAMPLES` points of K.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError("delta in (0,1) required")
    xs = sample_uniform(body.scaled(2.0), rng, trials)
    hx = proj_support_rows(body, xs, CHECK_MC_SAMPLES, rng)
    fx = _f_rows(body, xs, CHECK_MC_SAMPLES, rng).value
    outer = fx > delta
    inner = hx <= (1.0 - delta) * (1.0 - slack)
    outer_viol = int(np.count_nonzero(outer & (hx > math.log(1.0 / delta) * (1.0 + slack))))
    inner_viol = int(np.count_nonzero(inner & ~outer))
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
            "outer_checked": int(np.count_nonzero(outer)),
            "inner_checked": int(np.count_nonzero(inner)),
        },
    )


def check_logconcavity(
    body: ConvexBody,
    rays: int,
    rng: np.random.Generator,
    mc_samples: int = 10_000,
    slope_directions: int = 0,
    seed: int | None = None,
) -> CheckReport:
    """Log-concavity of f along random rays, plus the derivative identity.

    For each ray, picks 0 <= t1 < t2 inside the support and checks
    f(tm) >= f(t1)^lam f(t2)^(1-lam) up to 3-sigma Monte Carlo slack.
    Every ray draws its direction, t1, t2 and lam in turn; then one batch
    normalizes, gauges and sorts every ray, and one :func:`_f_rows` call
    takes the 3 f values of every ray (one shared sample of ``mc_samples``
    points of K where f has no closed form).  The slack sums the errors of
    the three estimates, which bounds the spread of their combination
    however the shared sample correlates them.  One inequality then tests
    every ray.
    With ``slope_directions`` > 0, additionally compares the one-sided
    finite-difference slope of log f at 0 against -h_{Pi K} (within
    :data:`SLOPE_TOL` relative): the directions come from one normal draw,
    then take h_{Pi K} from one :func:`proj_support_rows` call and f from
    one more :func:`_f_rows` call, of at least 200k samples.
    """
    if rays < 1:
        raise ValueError("rays >= 1 required")
    y, u = np.empty((rays, body.d)), np.empty((rays, 3))
    for i in range(rays):
        y[i], u[i, :2], u[i, 2] = rng.normal(size=body.d), rng.random(2), rng.random()
    y /= row_norms(y)[:, None]
    # Generator.uniform(low, high) is low + (high - low) U, for the U of rng.random
    t1, t2 = np.sort(0.9 * (2.0 / body.gauge(y))[:, None] * u[:, :2], axis=1).T
    lam = 0.1 + (0.9 - 0.1) * u[:, 2]
    t = np.stack([t1, t2, lam * t1 + (1.0 - lam) * t2], axis=1)
    est = _f_rows(body, (t[:, :, None] * y[:, None, :]).reshape(-1, body.d), mc_samples, rng)
    (f1, f2, fm), (s1, s2, sm) = est.value.reshape(rays, 3).T, est.std_error.reshape(rays, 3).T
    rhs = f1**lam * f2 ** (1.0 - lam)
    with np.errstate(divide="ignore", invalid="ignore"):  # rhs = 0 where f1 or f2 is 0
        # first-order error: d rhs / d f1 = lam rhs / f1, likewise f2
        sig = sm + np.where(rhs > 0.0, rhs * (lam * s1 / f1 + (1.0 - lam) * s2 / f2), 0.0)
    viol = int(np.count_nonzero(fm < rhs - 3.0 * sig - 1e-12))
    slope_errs = []
    if slope_directions > 0:
        y = rng.normal(size=(slope_directions, body.d))
        y /= row_norms(y)[:, None]
        hy = proj_support_rows(body, y, mc_samples, rng)
        eps = 0.05 / hy
        fe = _f_rows(body, eps[:, None] * y, max(mc_samples, 200_000), rng).value
        # f(0) = vol = 1 for normalized bodies; scalar math.log, as np.log can differ in the last bit
        slope_errs = [abs(math.log(f) / e + h) / h for f, e, h in zip(fe, eps, hy)]
    slope_fail = sum(1 for rel in slope_errs if rel > SLOPE_TOL)
    return CheckReport(
        check="logconcavity",
        body=body.describe(),
        d=body.d,
        params={"mc_samples": mc_samples, "slope_tol": SLOPE_TOL},
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


def check_petty(
    body: ConvexBody,
    rng: np.random.Generator,
    n_directions: int | None = None,
    seed: int | None = None,
) -> CheckReport:
    """vol(Pi* K) <= vol(Pi* B) for the unit-volume ball B of equal volume.

    Uses the closed form for balls and cubes, otherwise a Monte Carlo
    estimate over ``n_directions`` (required then) with
    :data:`CHECK_MC_SAMPLES` Cauchy directions per h_{Pi K}.  On polytopes
    each h_{Pi K} in that net is exact (Cauchy's formula), so only the net
    itself is random.  The bound takes no slack.  Reports inconclusive
    (never pass) when the noise band straddles the bound.
    """
    bound = polar_proj_ball_volume(body.d)
    analytic = analytic_polar_proj_volume(body)
    if analytic is not None:
        value, se = analytic, 0.0
    else:
        est = polar_proj_volume_mc(body, rng, n_directions, CHECK_MC_SAMPLES)
        value, se = est.value, est.std_error
    # equality (the ball itself) must pass despite float round-off
    ok = value <= bound * (1.0 + 1e-12) + 3.0 * se
    conclusive = se == 0.0 or abs(value - bound) > 3.0 * se or value < bound
    return CheckReport(
        check="petty",
        body=body.describe(),
        d=body.d,
        params={"slack": 0.0},
        value=value,
        std_error=se,
        bound=bound,
        violations=0 if ok else 1,
        trials=1,
        seed=seed,
        conclusive=conclusive,
    )


def regular_simplex_volume(d: int) -> float:
    """d-volume of the simplex conv(e_1..e_{d+1}) in R^(d+1): sqrt(d+1)/d!."""
    return math.exp(0.5 * math.log(d + 1) - gammaln(d + 1.0))


def check_rogers_shephard(
    simplex_dim: int,
    samples: int,
    rng: np.random.Generator,
    seed: int | None = None,
) -> CheckReport:
    """vol(K - K)/vol(K) = binom(2d, d) for the regular simplex.

    The simplex ratio comes from an independent Monte Carlo volume of the
    difference body; the cube control 2^d < binom(2d, d) is exact.
    """
    d = simplex_dim
    diff = simplex_difference(d)
    est = mc_volume(diff, samples, rng)
    ratio = 2.0**d * est.value / regular_simplex_volume(d)
    ratio_se = 2.0**d * est.std_error / regular_simplex_volume(d)
    target = float(math.comb(2 * d, d))
    cube_ratio = 2.0**d  # (cube - cube) = 2 cube
    cube_ok = d < 2 or cube_ratio < target
    viol = 0 if abs(ratio - target) <= 3.0 * ratio_se + 0.05 * target and cube_ok else 1
    return CheckReport(
        check="rogers_shephard",
        body=f"simplex(d={d})",
        d=d,
        params={"samples": samples},
        value=ratio,
        std_error=ratio_se,
        bound=target,
        violations=viol,
        trials=1,
        seed=seed,
        extra={"cube_ratio": cube_ratio, "cube_strict": bool(cube_ok)},
    )


# -- Minkowski difference-body equivalence ----------------------------


def check_minkowski_equivalence(d: int, n_sets: int, rng: np.random.Generator, seed: int | None = None) -> CheckReport:
    """A center set packs the simplex iff it packs the difference body.

    Both predicates are evaluated per pair: translate disjointness for
    the simplex via the dual membership test (z outside the open
    difference body), and gauge >= 2 for the half-difference body.
    Counts predicate disagreements over random sets of
    :data:`MINKOWSKI_SET_SIZE` centers scaled to straddle the critical
    packing distance.  Each set draws its spacing, subset and jitter in
    turn; both predicates then test the pairs of every set in one batch.
    """
    body = simplex_difference(d)
    E = helmert_basis(d)
    side = max(2, int(math.ceil(MINKOWSKI_SET_SIZE ** (1.0 / d))))
    grid = np.stack(np.meshgrid(*([np.arange(side)] * d), indexing="ij"), axis=-1).reshape(-1, d)
    pts = np.empty((n_sets, MINKOWSKI_SET_SIZE, d))
    for s in range(n_sets):
        # jittered grid with spacing straddling the critical packing distance
        spacing = rng.uniform(1.0, 2.6)
        keep = rng.permutation(len(grid))[:MINKOWSKI_SET_SIZE]
        pts[s] = spacing * (grid[keep] + rng.uniform(-0.15, 0.15, size=(MINKOWSKI_SET_SIZE, d)))
    ii, jj = np.triu_indices(MINKOWSKI_SET_SIZE, 1)
    z = (pts[:, ii] - pts[:, jj]).reshape(-1, d)
    # simplex route: translates x+S, y+S disjoint iff z not interior to S-S
    strict = np.maximum(z @ E.T, 0.0).sum(axis=-1) < 1.0 - 1e-12
    packs_simplex = ~strict.reshape(n_sets, len(ii)).any(axis=1)
    # difference-body route: gauge_{(S-S)/2}(z) >= 2
    packs_diff = (body.gauge(z) >= 2.0 - 1e-12).reshape(n_sets, len(ii)).all(axis=1)
    disagreements = int(np.count_nonzero(packs_simplex != packs_diff))
    pack_true = int(np.count_nonzero(packs_simplex))
    pack_false = n_sets - pack_true
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


def check_poisson_tail(
    lam: float,
    t: float,
    draws: int,
    rng: np.random.Generator,
    seed: int | None = None,
) -> CheckReport:
    """Empirical check of P[Z > (1+t) lam] <= exp(-lam t / 3) for Z ~ Pois(lam)."""
    if t < 1.0:
        raise ValueError("tail bound requires t >= 1")
    z = rng.poisson(lam, size=draws)
    p_hat = float(np.count_nonzero(z > (1.0 + t) * lam)) / draws
    se = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / draws) / draws)
    bound = math.exp(-lam * t / 3.0)
    viol = 0 if p_hat <= bound + 3.0 * se else 1
    return CheckReport(
        check="poisson_tail",
        body="-",
        d=0,
        params={"lambda": lam, "t": t},
        value=p_hat,
        std_error=se,
        bound=bound,
        violations=viol,
        trials=draws,
        seed=seed,
    )
