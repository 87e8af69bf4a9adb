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
MC_BASE_SAMPLES = 2_000  # the MC classifier's first sample size
MAX_ESCALATIONS = 4  # 4x sample increases before the MC classifier says "boundary"


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with its standard error."""

    value: float
    std_error: float
    samples: int


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


def exact_intersection_volume(body: ConvexBody, x: np.ndarray) -> np.ndarray | float | None:
    """Closed-form f(x) = vol(body cap (body + x)) where known.

    Euclidean balls use the lens formula; cubes the separable product
    prod(side - |x_i|)_+.  Returns None for other bodies.
    """
    if not has_exact_intersection(body):
        return None
    x = np.asarray(x, dtype=float)
    if body.p == 2.0:
        out = ball_lens_volume(body.d, body.scale, np.sqrt(fold_columns(np.add, x * x)))
    else:
        side = 2.0 * body.scale
        out = fold_columns(np.multiply, np.maximum(side - np.abs(x), 0.0))
    return float(out) if out.ndim == 0 else out


def ball_lens_volume(d: int, r: float, s: np.ndarray) -> np.ndarray:
    """vol of the intersection of two radius-r balls, per center distance s >= 0.

    Twice the cap {x in B(0, r) : x_1 >= s/2}: half the ball's volume
    times a regularized incomplete beta, in one ``betainc`` call.  Each
    element equals the scalar cap formula bit for bit.  ``float_power``
    calls libm ``pow`` per element as a scalar ``**`` does; an array
    ``** 2`` squares instead and differs in the last bit.
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
) -> McEstimate:
    """Estimate f(x) = vol(body cap (body + x)).

    Samples y uniform in the body and tests gauge(y - x) <= 1; the hit
    fraction times the closed-form vol(body) is an unbiased estimate.
    """
    x = np.asarray(x, dtype=float)
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

    The MC route starts at :data:`MC_BASE_SAMPLES` and multiplies by 4, at most
    :data:`MAX_ESCALATIONS` times, until the 3-sigma band excludes delta;
    still-ambiguous points are labeled boundary and, per the conservative
    convention, treated as inside I_K.
    """

    def __init__(self, body: ConvexBody, delta: float, rng: np.random.Generator | None = None, force_mc: bool = False):
        self.body = body
        self.delta = float(delta)
        self.rng = rng
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
        n = MC_BASE_SAMPLES
        for _ in range(MAX_ESCALATIONS + 1):
            est = intersection_volume(self.body, x, n, self.rng)
            if abs(est.value - self.delta) > 3.0 * est.std_error:
                return est.value > self.delta
            n *= 4
        self.boundary_count += 1
        return True  # conservative: ambiguous points count as inside I_K


@dataclass(frozen=True)
class IkProfile:
    """The overlap region I_K: its volume, the Schmuckenschläger bracket
    (lower, upper) around that volume, and the intensity cap Delta_K."""

    body: ConvexBody
    delta: float
    volume_estimate: McEstimate
    delta_k: float
    bracket: tuple[float, float]

    @property
    def vol_ik(self) -> float:
        return self.volume_estimate.value


BISECTION_STEPS = 24  # 2^-24 of the radial bracket: 1.5e-9 of the cube's r* at delta = 0.95


def estimate_ik(
    body: ConvexBody,
    delta: float,
    outer_samples: int,
    inner_samples: int,
    rng: np.random.Generator,
) -> IkProfile:
    """vol(I_K) from the radial function r* of I_K = {x : f(x) > delta}.

    For K of volume V, f is log-concave with f(0) = V and slope -h_PiK(u)
    at 0 in direction u, and V - f(x) <= h_PiK(x).  So
    ``V - h_PiK(x) <= f(x) <= V exp(-h_PiK(x) / V)``, and along a unit
    direction theta, r*(theta) lies in ``[V - delta, V log(V/delta)] /
    h_PiK(theta)``.  vol(I_K) = kappa_d E_theta[r*(theta)^d]: 0 once
    delta >= V, and otherwise

    * l2 ball: I_K is the ball of gauge radius :func:`ik_gauge_radius`,
      exact, with a standard error of 0;
    * cube: r* bisected on the exact f inside its bracket, along
      ``outer_samples`` uniform directions (at least 2); the standard
      error is that of the mean over the directions;
    * every other body: the upper end of the bracket
      ``[(V - delta)^d, (V log(V/delta))^d] vol(Pi* K)``, with the
      standard error of vol(Pi* K) scaled alike.  vol(Pi* K) comes from
      :func:`polar_proj_volume_mc`: over ``outer_samples`` directions
      where :func:`analytic_proj_support` has a closed form (polytopes
      and every body at d = 2), and otherwise (lp bodies at d >= 3) over
      min(``outer_samples``, max(2 d^2, 32)) directions with
      ``inner_samples`` Cauchy directions per h_PiK.

    The profile's bracket is taken over the same directions as the
    volume, so for every body the volume lies inside it.
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    d = body.d
    V = closed_form_volume(body)
    if delta >= V:  # f <= f(0) = V, so I_K is empty
        return IkProfile(body, delta, McEstimate(0.0, 0.0, 0), math.inf, (0.0, 0.0))
    lo_r, hi_r = V - delta, V * math.log(V / delta)  # radial bracket times h_PiK
    if not has_exact_intersection(body):
        # a Monte Carlo h_PiK draws inner_samples directions: cap that net at max(2 d^2, 32)
        closed = analytic_proj_support(body, np.eye(d)[0]) is not None
        net = outer_samples if closed else min(outer_samples, max(2 * d * d, 32))
        polar = polar_proj_volume_mc(body, rng, max(net, 2), inner_samples)
        vol = McEstimate(hi_r**d * polar.value, hi_r**d * polar.std_error, polar.samples)
        return IkProfile(body, delta, vol, 1.0 / (d * vol.value), (lo_r**d * polar.value, vol.value))
    if body.p == 2.0:  # I_K is a ball: one exact radius serves every direction
        n, inv_h = 0, 1.0 / analytic_proj_support(body, np.eye(d)[:1])
        r = np.array([ik_gauge_radius(body, delta) * body.scale])
    else:  # the cube
        n = max(outer_samples, 2)
        theta = _uniform_directions(rng, n, d)
        inv_h = 1.0 / analytic_proj_support(body, theta)
        r = _radial_function(body, delta, theta, lo_r * inv_h, hi_r * inv_h, BISECTION_STEPS)
    vol = _radial_volume(r, d, n)
    bracket = (_radial_volume(lo_r * inv_h, d, n).value, _radial_volume(hi_r * inv_h, d, n).value)
    return IkProfile(body, delta, vol, 1.0 / (d * vol.value), bracket)


def _radial_volume(r: np.ndarray, d: int, n: int) -> McEstimate:
    """kappa_d E[r^d] over n uniform directions, or exactly for one radius (n = 0)."""
    w = ball_volume(d) * r**d
    se = float(w.std(ddof=1)) / math.sqrt(n) if n else 0.0
    return McEstimate(float(w.mean()), se, n)


def _uniform_directions(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n uniform unit vectors: normalized Gaussian rows."""
    theta = rng.normal(size=(n, d))
    theta /= np.linalg.norm(theta, axis=1, keepdims=True)
    return theta


def _radial_function(body, delta, theta, lo, hi, steps) -> np.ndarray:
    """r*(theta) of I_K per row of theta on the body's exact f: the upper
    end after ``steps`` halvings of [lo, hi], where f(lo theta) >= delta
    >= f(hi theta)."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        inside = exact_intersection_volume(body, mid[:, None] * theta) > delta
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return hi


def ik_gauge_radius(body: ConvexBody, delta: float) -> float:
    """A g with I_K contained in {gauge <= g}: 0.0 once delta >= vol(K)
    (I_K is empty); for the l2 ball and the cube, the upper end of a
    bisection of r*(e_1), where their gauge on I_K is largest; for any other
    body 1.0 when delta >= vol(K)/2, and 2.0 otherwise.

    The 1.0 is a certificate for every symmetric K: at a point x of gauge
    at least 1, let u be the outer normal of K at x / gauge(x).  Then
    K + x lies in {y : <y, u> >= 0}, so f(x) <= vol(K)/2 <= delta and x is
    not in I_K.  Pruning reads X2's candidate pairs off the graph's edges
    whenever 2 g <= 2.
    """
    V = closed_form_volume(body)
    if delta >= V:
        return 0.0
    if has_exact_intersection(body):
        e1 = np.eye(body.d)[:1] * body.scale  # 31 halvings of [0, 2] leave a bracket below 1e-9
        return float(_radial_function(body, delta, e1, np.zeros(1), np.full(1, 2.0), 31)[0])
    return 1.0 if delta >= 0.5 * V else 2.0


# -- projection bodies ------------------------------------------------


def analytic_proj_support(body: ConvexBody, u: np.ndarray) -> np.ndarray | float | None:
    """h_{Pi K}(u) in closed form for balls, cubes, polytopes and every
    body at d = 2, else None.

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
    elif d == 2:  # the shadow on u-perp is a segment of length 2 h_K(u-perp)
        h = 2.0 * np.asarray(body.support(u[..., ::-1] * [-1.0, 1.0]))
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


def proj_body_support(body: ConvexBody, u: np.ndarray, samples: int, rng: np.random.Generator) -> McEstimate:
    """h_{Pi K}(u) for a unit vector u, the (d-1)-volume of the body's shadow
    on u-perp, by Cauchy's formula in radial form over ``samples`` uniform
    unit directions theta, with the standard error of the mean:

        h_{Pi K}(u) = (d kappa_d / 2) E_theta[|<u, grad g(theta)>| / <theta, grad g(theta)>^d].

    This is 1/2 of the integral of |<u, n>| over the boundary, rewritten by
    the cone identity <x, n> dS = g(theta)^-d dtheta and Euler's identity
    <theta, grad g(theta)> = g(theta), for the gauge g.
    """
    u = np.asarray(u, dtype=float)
    if abs(np.linalg.norm(u) - 1.0) > 1e-9:
        raise ValueError("u must be a Euclidean unit vector")
    if samples < 2:
        raise ValueError("samples must be >= 2 for a standard error")
    d = body.d
    theta = _uniform_directions(rng, samples, d)
    grad = body.gauge_gradient(theta)
    w = 0.5 * d * ball_volume(d) * np.abs(grad @ u) / (theta * grad).sum(axis=1) ** d
    return McEstimate(float(w.mean()), float(w.std(ddof=1)) / math.sqrt(samples), samples)


def proj_support_rows(body: ConvexBody, xs: np.ndarray, samples: int, rng: np.random.Generator) -> np.ndarray:
    """h_{Pi K}(x) per row x of xs: h at x/|x| rescaled by |x|, 0 at x = 0.

    Balls, cubes, polytopes and every body at d = 2 take
    :func:`analytic_proj_support` of all rows in one call.  Other bodies
    call :func:`proj_body_support` row by row, in row order, each drawing
    ``samples`` directions from rng.
    """
    xs = np.asarray(xs, dtype=float)
    n = row_norms(xs)
    nz = np.flatnonzero(n)
    u = xs[nz] / n[nz, None]
    h_u = analytic_proj_support(body, u)
    if h_u is None:
        h_u = np.array([proj_body_support(body, ui, samples, rng).value for ui in u])
    h = np.zeros(len(xs))
    h[nz] = h_u * n[nz]
    return h


def polar_proj_ball_volume(d: int) -> float:
    """vol(Pi* B) of the unit-volume ball B: (gamma_d / gamma_{d-1})^d via
    log-gamma.  Raises a RuntimeError if it exceeds its upper bound
    (2 pi / d)^(d/2).

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
    return value


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
    n_directions: int,
    support_samples: int,
) -> McEstimate:
    """vol(Pi* K) over a net of ``n_directions`` uniform directions, by the radial formula.

    Since gauge_{Pi* K}(x) = h_{Pi K}(x), the volume equals gamma_d *
    E_theta[h_{Pi K}(theta)^(-d)] over uniform unit theta, h_{Pi K} from
    :func:`proj_support_rows` with ``support_samples`` Cauchy directions
    where it has no closed form.  Net resolution (not just sampling noise)
    limits accuracy; the standard error covers the directional average only.
    """
    d = body.d
    thetas = _uniform_directions(rng, n_directions, d)
    return _radial_volume(1.0 / proj_support_rows(body, thetas, support_samples, rng), d, n_directions)
