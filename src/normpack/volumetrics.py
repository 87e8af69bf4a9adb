"""Monte Carlo volume machinery and projection-body computations.

Covers plain rejection volume estimates, translate-intersection volumes
f(x) = vol(K cap (K + x)) with exact formulas for Euclidean balls and
cubes, the overlap region I_K = {x : f(x) > delta} with its intensity
bound Delta_K = 1/(d vol I_K), and support/volume computations for the
projection body and its polar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, gammaln

from .bodies import (
    GAUGE_CHUNK,
    ConvexBody,
    ball_volume,
    closed_form_volume,
    fold_columns,
    sample_uniform,
    uniform_box,
)

MC_MIN_SAMPLES = 1_000
MAX_ESCALATIONS = 4  # 4x sample increases before the MC classifier says "boundary"


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with its binomial standard error."""

    value: float
    std_error: float
    samples: int

    def brackets(self, truth: float, sigmas: float = 3.0) -> bool:
        return abs(self.value - truth) <= sigmas * self.std_error + 1e-15


def mc_volume(body: ConvexBody, samples: int, rng: np.random.Generator) -> McEstimate:
    """Volume by rejection from the support bounding box.

    Draws :func:`uniform_box` points in chunks of :data:`GAUGE_CHUNK`
    rows, whose temporaries stay in cache; ``rng.random`` fills rows in
    order, so the numbers and the generator's end state are those of one
    draw of all rows.
    """
    if samples < MC_MIN_SAMPLES:
        raise ValueError(f"samples must be >= {MC_MIN_SAMPLES}")
    half = body.bounding_halfwidths()
    box_vol = float(np.prod(2.0 * half))
    hits = 0
    left = samples
    while left > 0:
        m = min(left, GAUGE_CHUNK)
        pts = uniform_box(rng, half, m)
        hits += int(np.count_nonzero(body.gauge(pts) <= 1.0))
        left -= m
    p = hits / samples
    return McEstimate(
        value=box_vol * p,
        std_error=box_vol * math.sqrt(p * (1.0 - p) / samples),
        samples=samples,
    )


# -- intersection volumes ---------------------------------------------


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


def ball_lens_volume(d: int, r: float, s: float) -> float:
    """vol of the intersection of two radius-r balls with centers s apart."""
    return 2.0 * ball_cap_volume(d, r, 0.5 * s)


def exact_intersection_volume(body: ConvexBody, x: np.ndarray) -> np.ndarray | float | None:
    """Closed-form f(x) = vol(body cap (body + x)) where known.

    Euclidean balls use the lens formula; cubes the separable product
    prod(side - |x_i|)_+.  Returns None for other bodies.
    """
    if not has_exact_intersection(body):
        return None
    x = np.asarray(x, dtype=float)
    if body.p == 2.0:
        out = _ball_lens_volumes(body.d, body.scale, np.sqrt(fold_columns(np.add, x * x)))
    else:
        side = 2.0 * body.scale
        out = fold_columns(np.multiply, np.maximum(side - np.abs(x), 0.0))
    return float(out) if out.ndim == 0 else out


def _ball_lens_volumes(d: int, r: float, s: np.ndarray) -> np.ndarray:
    """``ball_lens_volume`` over an array of center distances s >= 0.

    One ``betainc`` call, with the scalar function's operations in the
    same order, so each element equals the scalar value bit for bit.
    ``float_power`` calls libm ``pow`` per element as the scalar ``**``
    does; an array ``** 2`` squares instead and differs in the last bit.
    """
    s = np.asarray(s, dtype=float)
    a = 0.5 * s
    out = np.zeros(s.shape)
    lens = a < r
    half = 0.5 * ball_volume(d) * r**d
    x = 1.0 - np.float_power(a[lens] / r, 2.0)
    out[lens] = 2.0 * (half * betainc(0.5 * (d + 1), 0.5, x))
    return out


def has_exact_intersection(body: ConvexBody) -> bool:
    return body.kind == "lp" and (body.p == 2.0 or math.isinf(body.p))


def intersection_volume(
    body: ConvexBody,
    x: np.ndarray,
    samples: int,
    rng: np.random.Generator,
    volume: float | None = None,
) -> McEstimate:
    """Estimate f(x) = vol(body cap (body + x)).

    Samples y uniform in the body and tests gauge(y - x) <= 1; the hit
    fraction times vol(body) is an unbiased estimate.  ``volume``
    defaults to the closed form (1 for a normalized body).
    """
    x = np.asarray(x, dtype=float)
    if volume is None:
        volume = closed_form_volume(body)
    y = sample_uniform(body, rng, samples)
    p = float(np.count_nonzero(body.gauge(y - x) <= 1.0)) / samples
    return McEstimate(
        value=volume * p,
        std_error=volume * math.sqrt(p * (1.0 - p) / samples),
        samples=samples,
    )


class OverlapClassifier:
    """Decides whether f(x) > delta, exactly or by escalating Monte Carlo.

    The MC route starts at ``base_samples`` and multiplies by 4, at most
    :data:`MAX_ESCALATIONS` times, until the 3-sigma band excludes delta;
    still-ambiguous points are labeled boundary and, per the conservative
    convention, treated as inside I_K.
    """

    def __init__(
        self,
        body: ConvexBody,
        delta: float,
        rng: np.random.Generator | None = None,
        base_samples: int = 2_000,
        force_mc: bool = False,
    ):
        self.body = body
        self.delta = float(delta)
        self.rng = rng
        self.base_samples = base_samples
        self.exact = has_exact_intersection(body) and not force_mc
        self.boundary_count = 0
        if not self.exact and rng is None:
            raise ValueError("MC classification needs an rng")

    def inside(self, x: np.ndarray) -> np.ndarray:
        """Vectorized membership x in I_K (boundary counts as inside)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.exact:
            return np.asarray(exact_intersection_volume(self.body, x)) > self.delta
        return np.asarray([self._classify_one(xi) for xi in x])

    def _classify_one(self, x: np.ndarray) -> bool:
        n = self.base_samples
        for _ in range(MAX_ESCALATIONS + 1):
            est = intersection_volume(self.body, x, n, self.rng)
            if abs(est.value - self.delta) > 3.0 * est.std_error:
                return est.value > self.delta
            n *= 4
        self.boundary_count += 1
        return True  # conservative: ambiguous points count as inside I_K


@dataclass(frozen=True)
class IkProfile:
    """Estimated overlap region I_K and the derived intensity cap Delta_K."""

    body: ConvexBody
    delta: float
    volume_estimate: McEstimate
    delta_k: float
    degenerate: bool = False

    @property
    def vol_ik(self) -> float:
        return self.volume_estimate.value


def estimate_ik(
    body: ConvexBody,
    delta: float,
    outer_samples: int,
    inner_samples: int,
    rng: np.random.Generator,
) -> IkProfile:
    """Estimate vol(I_K) by sampling translations uniformly in 2K.

    vol(2K) is exact for every body kind (:func:`closed_form_volume`).
    ``inner_samples`` seeds the escalating MC classifier (ignored for
    bodies with exact intersection formulas).
    Degenerate all-hit / no-hit outcomes are flagged rather than raised.
    """
    if not (0.0 < delta < 1.0):
        if delta >= 1.0:
            est = McEstimate(0.0, 0.0, 0)
            return IkProfile(body, delta, est, math.inf, degenerate=True)
        raise ValueError("delta must be positive")
    vol2k = closed_form_volume(body.scaled(2.0))
    xs = sample_uniform(body.scaled(2.0), rng, outer_samples)
    clf = OverlapClassifier(body, delta, rng, base_samples=inner_samples)
    hits = int(np.count_nonzero(clf.inside(xs)))
    p = hits / outer_samples
    est = McEstimate(
        value=vol2k * p,
        std_error=vol2k * math.sqrt(p * (1.0 - p) / outer_samples),
        samples=outer_samples,
    )
    degenerate = hits == 0 or hits == outer_samples
    delta_k = math.inf if est.value == 0.0 else 1.0 / (body.d * est.value)
    return IkProfile(body, delta, est, delta_k, degenerate)


def ik_gauge_radius(body: ConvexBody, delta: float, tol: float = 1e-9) -> float:
    """A g with I_K contained in {gauge <= g}: the smallest one for the l2
    ball and the cube, 1.0 for any other body when delta >= vol(K)/2, and
    2.0 otherwise.

    The 1.0 is a certificate for every symmetric K: at a point x of gauge
    at least 1, let u be the outer normal of K at x / gauge(x).  Then
    K + x lies in {y : <y, u> >= 0}, so f(x) <= vol(K)/2 <= delta and x is
    not in I_K.  (The cube's closed form 2(1 - delta/vol) is 1 at exactly
    delta = vol/2.)  Pruning reads X2's candidate pairs off the graph's
    edges whenever 2 g <= 2.
    """
    f = exact_intersection_volume
    if body.kind == "lp" and math.isinf(body.p):
        # f > delta forces (side - |x_i|) * side^(d-1) > delta on each axis
        side = 2.0 * body.scale
        vol = side**body.d
        if delta >= vol:
            return 0.0
        return 2.0 * (1.0 - delta / vol)
    if body.kind == "lp" and body.p == 2.0:
        lo, hi = 0.0, 2.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if f(body, np.array([mid * body.scale] + [0.0] * (body.d - 1))) > delta:
                lo = mid
            else:
                hi = mid
        return hi
    return 1.0 if delta >= 0.5 * closed_form_volume(body) else 2.0


# -- projection bodies ------------------------------------------------


def analytic_proj_support(body: ConvexBody, u: np.ndarray) -> np.ndarray | float | None:
    """h_{Pi K}(u) in closed form for balls, cubes and polytopes, else None.

    ``u`` is one vector (a float comes back) or an (m, d) array (one value
    per row).  Polytopes use Cauchy's formula h_{Pi K}(u) = 1/2 sum_F
    |u . n_F| vol_{d-1}(F) over the facets of their vertex hull.
    1-homogeneous in u, so it takes vectors of any length.
    """
    u = np.asarray(u, dtype=float)
    d = body.d
    P = body.polytope
    if P is not None:
        h = 0.5 * (np.abs(P.normals @ u.T).T @ P.areas) * body.scale ** (d - 1)
    elif body.p == 2.0:
        h = ball_volume(d - 1) * body.scale ** (d - 1) * row_norms(u)
    elif math.isinf(body.p):
        h = (2.0 * body.scale) ** (d - 1) * fold_columns(np.add, np.abs(u))
    else:
        return None
    return float(h) if h.ndim == 0 else h


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis.

    Each equals ``np.linalg.norm`` of its row bit for bit: a stacked
    vector @ vector product runs the same BLAS dot, while a sum of
    squares rounds differently in some rows.
    """
    x = np.asarray(x, dtype=float)
    return np.sqrt(x[..., None, :] @ x[..., :, None])[..., 0, 0]


def _orthonormal_complement(u: np.ndarray) -> np.ndarray:
    """(d, d-1) matrix whose columns complete u to an orthonormal basis."""
    d = len(u)
    M = np.eye(d) - np.outer(u, u)
    q, r = np.linalg.qr(M)
    cols = np.argsort(-np.abs(np.diag(r)))[: d - 1]
    return q[:, sorted(cols)]


def _line_hits_convex(body: ConvexBody, base: np.ndarray, u: np.ndarray, t_max: float) -> np.ndarray:
    """Is min over |t| <= t_max of gauge(z + t*u) at most 1 + 1e-10, per row z?

    Needs only the body's gauge and support, and rows z orthogonal to u.
    Two exact certificates settle most rows without a search:

    * hit: gauge(z) <= 1 + 1e-10, so the line meets the body at t = 0;
    * miss: |z| > h(z/|z|) (1 + 1e-10).  Every point of the line has
      inner product |z| with the unit normal z/|z|, which is orthogonal
      to u, so that supporting halfspace separates the whole line.

    The other rows go to a golden-section minimization of the convex
    function t -> gauge(z + t*u), 80 steps over [-t_max, t_max].  A row
    leaves the search as a hit once a probe has gauge <= 1 + 1e-10; rows
    left after 80 steps are hits if their last probes are.
    """
    tol = 1.0 + 1e-10
    hit = body.gauge(base) <= tol
    rows = np.flatnonzero(~hit)
    base = base[rows]
    norm = np.sqrt(fold_columns(np.add, base * base))  # > 0: gauge(0) = 0
    miss = norm > body.support(base / norm[:, None]) * tol
    rows, base = rows[~miss], base[~miss]
    a = np.full(len(rows), -t_max)
    b = np.full(len(rows), t_max)
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1 = body.gauge(base + x1[:, None] * u)
    f2 = body.gauge(base + x2[:, None] * u)
    for _ in range(80):
        found = np.minimum(f1, f2) <= tol
        if found.any():
            hit[rows[found]] = True
            keep = ~found
            rows, base, a, b, x1, x2, f1, f2 = (v[keep] for v in (rows, base, a, b, x1, x2, f1, f2))
        if not len(rows):
            return hit
        left = f1 <= f2
        b = np.where(left, x2, b)
        a = np.where(left, a, x1)
        x1 = b - phi * (b - a)
        x2 = a + phi * (b - a)
        f1 = body.gauge(base + x1[:, None] * u)
        f2 = body.gauge(base + x2[:, None] * u)
    hit[rows] = np.minimum(f1, f2) <= tol
    return hit


def proj_body_support(
    body: ConvexBody,
    u: np.ndarray,
    samples: int,
    rng: np.random.Generator,
    force_mc: bool = False,
) -> McEstimate:
    """Shadow volume vol_{d-1} of the projection of the body onto u-perp.

    Exact for balls, cubes and polytopes (:func:`analytic_proj_support`);
    otherwise, or with ``force_mc``, Monte Carlo over a bounding box of
    the shadow, testing whether the line through each candidate point in
    direction u meets the body.  Every body settles most lines with an
    exact certificate from its gauge (hit) or its support (a separating
    halfspace) and searches only the rest; see ``_line_hits_convex``.
    """
    u = np.asarray(u, dtype=float)
    nrm = np.linalg.norm(u)
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError("u must be a Euclidean unit vector")
    if not force_mc:
        h = analytic_proj_support(body, u)
        if h is not None:
            return McEstimate(value=h, std_error=0.0, samples=0)
    V = _orthonormal_complement(u)
    # shadow of the body is contained in the projected bounding box
    half = np.asarray([body.support(V[:, j]) for j in range(body.d - 1)])
    area = float(np.prod(2.0 * half))
    t_max = float(body.support(u)) + 1e-9
    z = uniform_box(rng, half, samples)
    base = z @ V.T
    hits = int(np.count_nonzero(_line_hits_convex(body, base, u, t_max)))
    p = hits / samples
    if p == 0:
        raise RuntimeError("shadow bounding box produced no hits; bracketing bug")
    return McEstimate(
        value=area * p,
        std_error=area * math.sqrt(p * (1.0 - p) / samples),
        samples=samples,
    )


@dataclass(frozen=True)
class PolarProjBall:
    """Exact volume of the polar projection body of the unit-volume ball."""

    d: int
    value: float
    bound: float  # (2 pi / d)^(d/2)


def polar_proj_ball_volume(d: int) -> PolarProjBall:
    """(gamma_d / gamma_{d-1})^d via log-gamma, with its upper bound.

    gamma_0 = 1 by convention, so d = 1 gives 2.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    log_ratio = (
        0.5 * math.log(math.pi) + gammaln(0.5 * (d - 1) + 1.0) - gammaln(0.5 * d + 1.0)
    )
    value = math.exp(d * log_ratio)
    bound = (2.0 * math.pi / d) ** (0.5 * d)
    if not value <= bound * (1.0 + 1e-12):
        raise RuntimeError(f"polar projection ball volume {value!r} exceeds its bound {bound!r} at d={d}")
    return PolarProjBall(d=d, value=value, bound=bound)


def analytic_polar_proj_volume(body: ConvexBody) -> float | None:
    """vol(Pi* body) in closed form for balls and cubes."""
    if body.kind != "lp":
        return None
    d = body.d
    if body.p == 2.0:
        radius = 1.0 / (ball_volume(d - 1) * body.scale ** (d - 1))
        return ball_volume(d) * radius**d
    if math.isinf(body.p):
        # Pi(cube of side a) = a^(d-1) [-1,1]^d, polar = scaled l1 ball
        side = 2.0 * body.scale
        return math.exp(d * math.log(2.0) - gammaln(d + 1.0)) / side ** (d * (d - 1))
    return None


def polar_proj_volume_mc(
    body: ConvexBody,
    rng: np.random.Generator,
    n_directions: int | None = None,
    support_samples: int = 20_000,
) -> McEstimate:
    """vol(Pi* K) from a direction net, via the radial formula.

    Since gauge_{Pi* K}(x) = h_{Pi K}(x), the volume equals
    gamma_d * E_theta[h_{Pi K}(theta)^(-d)] over uniform unit theta.
    Net resolution (not just sampling noise) limits accuracy; the
    standard error reported covers the directional average only.
    """
    d = body.d
    if n_directions is None:
        n_directions = max(2 * d * d, 32)
    thetas = rng.normal(size=(n_directions, d))
    thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
    vals = np.empty(n_directions)
    for i, th in enumerate(thetas):
        vals[i] = proj_body_support(body, th, support_samples, rng).value
    r_d = vals**(-float(d))
    gd = ball_volume(d)
    return McEstimate(
        value=gd * float(r_d.mean()),
        std_error=gd * float(r_d.std(ddof=1)) / math.sqrt(n_directions),
        samples=n_directions,
    )
