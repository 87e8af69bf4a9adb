"""Monte Carlo volume machinery and projection-body computations.

Covers plain rejection volume estimates, translate-intersection volumes
f(x) = vol(K cap (K + x)) with exact formulas for Euclidean balls and
cubes, the overlap region I_K = {x : f(x) > delta} with its intensity
bound Delta_K = 1/(d vol I_K), the region pruning tests (I_K, or
Schmuckenschläger's outer body where f has no closed form), and
support/volume computations for the projection body and its polar.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, gammainc, gammaln

from .bodies import (
    GAUGE_CHUNK,
    SPLIT_DOUBLES,
    ConvexBody,
    ball_volume,
    closed_form_volume,
    fold_columns,
    in_parts,
    sample_uniform,
    skip_doubles,
    uniform_box,
)

MC_MIN_SAMPLES = 1_000


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with its standard error (per row for a batch of rows)."""

    value: float | np.ndarray
    std_error: float | np.ndarray
    samples: int

    @classmethod
    def hit_fraction(cls, volume: float, hits, samples: int) -> McEstimate:  # binomial, per entry of hits
        p = np.asarray(hits) / samples
        value, std_error = volume * p, volume * np.sqrt(p * (1.0 - p) / samples)
        return cls(float(value), float(std_error), samples) if p.ndim == 0 else cls(value, std_error, samples)


def mc_volume(body: ConvexBody, samples: int, rng: np.random.Generator) -> McEstimate:
    """Volume by rejection from the support bounding box.

    Draws :func:`uniform_box` points in chunks of :data:`GAUGE_CHUNK`
    rows, whose temporaries stay in cache, and counts those in the body.
    The chunks run in two parts (:func:`in_parts`): the first half of them
    from ``rng``, the rest from a copy of it moved past the first half's
    rows (:func:`skip_doubles`); then ``rng`` moves past the rest.  The
    numbers and the generator's end state are those of one draw of all
    rows.  A call within one chunk leaves the second part empty and runs
    here.
    """
    if samples < MC_MIN_SAMPLES:
        raise ValueError(f"samples must be >= {MC_MIN_SAMPLES}")
    half = body.bounding_halfwidths()

    def hits(gen: np.random.Generator, rows: int) -> int:
        count = 0
        for s in range(0, rows, GAUGE_CHUNK):
            pts = uniform_box(gen, half, min(GAUGE_CHUNK, rows - s))
            count += int(np.count_nonzero(body.gauge(pts) <= 1.0))
        return count

    first = min(samples, GAUGE_CHUNK * -(-samples // (2 * GAUGE_CHUNK)))  # half the chunks, rounded up
    rest = samples - first
    later = copy.deepcopy(rng)
    skip_doubles(later, first * body.d)
    # the work a worker would take is the second part's draws
    count = sum(in_parts(rest * body.d, SPLIT_DOUBLES, lambda: hits(rng, first), lambda: hits(later, rest)))
    skip_doubles(rng, rest * body.d)
    return McEstimate.hit_fraction(float(np.prod(2.0 * half)), count, samples)


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


def has_analytic_proj_support(body: ConvexBody) -> bool:
    """h_PiK has a closed form (:func:`analytic_proj_support`); other bodies
    take Cauchy's formula (:func:`proj_body_support`)."""
    return analytic_proj_support(body, np.eye(body.d)[0]) is not None


def intersection_volume(
    body: ConvexBody,
    x: np.ndarray,
    samples: int,
    rng: np.random.Generator,
) -> McEstimate:
    """Estimate f(x) = vol(body cap (body + x)) at one point x or at each row of an (m, d) x.

    Draws ``samples`` points y uniform in the body once; every row tests
    gauge(y - x) <= 1 on that one draw, alone, so a row's value does not
    depend on the others.  The hit fraction times the closed-form vol(body)
    is an unbiased estimate; value and standard error are per-row arrays
    for an (m, d) x.  The rows' estimates are correlated through the draw.
    """
    x = np.asarray(x, dtype=float)
    y = sample_uniform(body, rng, samples)
    hits = [np.count_nonzero(body.gauge(y - row) <= 1.0) for row in np.reshape(x, (-1, body.d))]
    return McEstimate.hit_fraction(closed_form_volume(body), hits if x.ndim == 2 else hits[0], samples)


class OverlapClassifier:
    """Decides whether half pair differences lie in the region prune calls deep,
    reading body, delta and g_ik once from the run's :class:`IkProfile`.

    No row is inside once I_K is empty (g_ik = 0).  The l2 ball and the cube
    test I_K = {x : f(x) > delta} on their exact f.  Every other body tests
    Schmuckenschläger's outer body {x : h_PiK(x) <= t}, t = V log(V/delta),
    which holds I_K as f(x) <= V exp(-h_PiK(x)/V), cut at gauge g_ik.  Rows
    whose width bound V |x|^2 / (2 h_K(x)) <= h_PiK(x) exceeds t are out; the
    rest take one :func:`proj_support_rows` call, whose rows share one draw of
    ``samples`` directions for lp bodies at d >= 3, counted in ``boundary_count``.
    """

    def __init__(self, ik: IkProfile, rng: np.random.Generator | None = None, samples: int = 0):
        self.body, self.delta, self.gauge_radius = ik.body, float(ik.delta), ik.gauge_radius
        self.volume = closed_form_volume(self.body)
        self.rng = rng
        self.samples = samples
        self.exact = has_exact_intersection(self.body)
        self.cauchy = not has_analytic_proj_support(self.body)
        self.boundary_count = 0
        if self.cauchy and rng is None:
            raise ValueError("h_PiK by Cauchy's formula needs an rng")

    def inside(self, x: np.ndarray) -> np.ndarray:
        """Vectorized membership of the rows of x."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros(len(x), dtype=bool)
        if not self.gauge_radius:
            return out
        if self.exact:
            return exact_intersection_volume(self.body, x) > self.delta
        body, V = self.body, self.volume
        t = V * math.log(V / self.delta)
        # vol(K) <= 2 h_K(u) h_PiK(u) for symmetric K: the width bound
        near = (body.gauge(x) <= self.gauge_radius) & (V * fold_columns(np.add, x * x) <= 2.0 * body.support(x) * t)
        out[near] = proj_support_rows(body, x[near], self.samples, self.rng) <= t
        self.boundary_count += int(near.sum()) if self.cauchy else 0
        return out


@dataclass(frozen=True)
class IkProfile:
    """The overlap region I_K: its volume, the Schmuckenschläger bracket (lower,
    upper) around it, the intensity cap Delta_K and :func:`ik_gauge_radius`."""

    body: ConvexBody
    delta: float
    volume_estimate: McEstimate
    delta_k: float
    bracket: tuple[float, float]
    gauge_radius: float

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
    """vol(I_K) from the radial function r* of I_K = {x : f(x) > delta}, and
    g_ik (:func:`ik_gauge_radius`), once per run for prune to read.

    For K of volume V, f is log-concave with f(0) = V and slope -h_PiK(u)
    at 0 in direction u, and V - f(x) <= h_PiK(x).  So
    ``V - h_PiK(x) <= f(x) <= V exp(-h_PiK(x) / V)``, and along a unit
    direction theta, r*(theta) lies in ``[V - delta, V log(V/delta)] /
    h_PiK(theta)``: vol(I_K) = kappa_d E_theta[r*(theta)^d] lies in the
    bracket ``[(V - delta)^d, (V log(V/delta))^d] vol(Pi* K)``.  It is 0
    once delta >= V, and otherwise

    * l2 ball: I_K is the ball of gauge radius g_ik, exact;
    * cube of side a: f(x) = prod (a - |x_k|)_+ on 2K, and -log of a uniform
      variable is Exp(1), so vol(I_K) = 2^d V P(Gamma(d, 1) < log(V/delta)),
      exact;
    * every other body: the upper end of the bracket, with the
      standard error of vol(Pi* K) scaled alike.  vol(Pi* K) comes from
      :func:`polar_proj_volume_mc`: over ``outer_samples`` directions
      where :func:`analytic_proj_support` has a closed form (polytopes
      and every body at d = 2), and otherwise (lp bodies at d >= 3) over
      min(``outer_samples``, max(2 d^2, 32)) directions that share one
      draw of ``inner_samples`` Cauchy directions.

    Exact volumes have a standard error of 0, and only the last route
    draws from ``rng``.  The bracket is taken as the volume is, so the
    volume lies inside it.
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    d = body.d
    V = closed_form_volume(body)
    g = ik_gauge_radius(body, delta)
    if ik_empty(V, delta):
        return IkProfile(body, delta, McEstimate(0.0, 0.0, 0), math.inf, (0.0, 0.0), g)
    lo_r, hi_r = V - delta, V * math.log(V / delta)  # radial bracket times h_PiK
    if not has_exact_intersection(body):
        # the Cauchy h_PiK weighs inner_samples directions per net row: the cap bounds that product
        net = outer_samples if has_analytic_proj_support(body) else min(outer_samples, max(2 * d * d, 32))
        polar = polar_proj_volume_mc(body, rng, max(net, 2), inner_samples)
        vol = McEstimate(hi_r**d * polar.value, hi_r**d * polar.std_error, polar.samples)
        bracket = (lo_r**d * polar.value, vol.value)
    elif body.p == 2.0:  # I_K is a ball: one exact radius serves every direction
        inv_h = 1.0 / analytic_proj_support(body, np.eye(d)[:1])
        vol = _radial_volume(np.array([g * body.scale]), d, 0)
        bracket = (_radial_volume(lo_r * inv_h, d, 0).value, _radial_volume(hi_r * inv_h, d, 0).value)
    else:  # the cube; the clip takes off rounding at d = 1, where vol(I_K) is the lower end
        polar = analytic_polar_proj_volume(body)
        bracket = (lo_r**d * polar, hi_r**d * polar)
        vol = McEstimate(float(np.clip(2.0**d * V * gammainc(d, math.log(V / delta)), *bracket)), 0.0, 0)
    return IkProfile(body, delta, vol, 1.0 / (d * vol.value), bracket, g)


def _radial_volume(r: np.ndarray, d: int, n: int) -> McEstimate:
    """kappa_d E[r^d] over n uniform directions, or exactly for one radius (n = 0)."""
    w = ball_volume(d) * r**d
    se = float(w.std(ddof=1)) / math.sqrt(n) if n else 0.0
    return McEstimate(float(w.mean()), se, n)


def _uniform_directions(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n uniform unit vectors: normalized Gaussian rows."""
    theta = rng.normal(size=(n, d))
    norm = np.sqrt(fold_columns(np.add, theta * theta))  # np.linalg.norm(axis=1), bit for bit
    for k in range(d):
        theta[:, k] /= norm
    return theta


def ik_empty(V: float, delta: float) -> bool:
    """I_K is empty: f <= f(0) = V <= delta, with a delta up to 4 ulps below V
    taken as V (a unit-volume body's closed-form V can read 1 + 2.2e-16)."""
    return delta >= V - 4.0 * math.ulp(V)


def ik_gauge_radius(body: ConvexBody, delta: float) -> float:
    """A g with I_K contained in {gauge <= g}: 0.0 once delta >= vol(K)
    (I_K is empty); on e_1, where their gauge on I_K is largest, the cube's
    2 (1 - delta/V) and the l2 ball's upper end of 31 halvings of [0, 2]
    (below 1e-9); for any other body 1.0 when delta >= vol(K)/2, else 2.0.

    The 1.0 is a certificate for every symmetric K: at a point x of gauge
    at least 1, let u be the outer normal of K at x / gauge(x).  Then
    K + x lies in {y : <y, u> >= 0}, so f(x) <= vol(K)/2 <= delta and x is
    not in I_K.  Pruning reads X2's candidate pairs off the graph's edges
    whenever 2 g <= 2.
    """
    V = closed_form_volume(body)
    if ik_empty(V, delta):
        return 0.0
    if not has_exact_intersection(body):
        return 1.0 if delta >= 0.5 * V else 2.0
    if math.isinf(body.p):
        return 2.0 * (1.0 - delta / V)
    e1, lo, hi = np.eye(body.d)[:1] * body.scale, 0.0, 2.0
    for _ in range(31):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if exact_intersection_volume(body, mid * e1)[0] > delta else (lo, mid)
    return hi


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
    """h_{Pi K} at each row of ``u``, an (m, d) array of Euclidean unit vectors:
    the (d-1)-volume of the body's shadow on u-perp, by Cauchy's formula in
    radial form over one draw of ``samples`` uniform unit directions theta
    that every row shares, with the standard error of the mean per row:

        h_{Pi K}(u) = (d kappa_d / 2) E_theta[|<u, grad g(theta)>| / <theta, grad g(theta)>^d].

    This is 1/2 of the integral of |<u, n>| over the boundary, rewritten by
    the cone identity <x, n> dS = g(theta)^-d dtheta and Euler's identity
    <theta, grad g(theta)> = g(theta), for the gauge g.  Rows run in blocks of
    4 GAUGE_CHUNK / samples and each is reduced alone, so no estimate depends
    on its block or the row order.  An empty u draws nothing.
    """
    u = np.asarray(u, dtype=float)
    if np.any(np.abs(row_norms(u) - 1.0) > 1e-9):
        raise ValueError("u must hold Euclidean unit rows")
    if samples < 2:
        raise ValueError("samples must be >= 2 for a standard error")
    d, m = body.d, len(u)
    value, std_error = np.empty(m), np.empty(m)
    if m:
        theta = _uniform_directions(rng, samples, d)
        grad = body.gauge_gradient(theta)
        scale = 0.5 * d * ball_volume(d) / fold_columns(np.add, theta * grad) ** d
        step = max(1, 4 * GAUGE_CHUNK // samples)
        for s in range(0, m, step):
            w = sum(u[s : s + step, k, None] * grad[:, k] for k in range(d))  # not BLAS: same bits in any block
            w = np.multiply(np.abs(w, out=w), scale, out=w)
            value[s : s + step], std_error[s : s + step] = w.mean(axis=1), w.std(axis=1, ddof=1) / math.sqrt(samples)
    return McEstimate(value, std_error, samples)


def proj_support_rows(body: ConvexBody, xs: np.ndarray, samples: int, rng: np.random.Generator) -> np.ndarray:
    """h_{Pi K}(x) per row x of xs: h at x/|x| rescaled by |x|, 0 at x = 0.

    Balls, cubes, polytopes and every body at d = 2 take
    :func:`analytic_proj_support` of all rows in one call.  Other bodies
    take :func:`proj_body_support` of all nonzero rows in one call, which
    draws ``samples`` directions from rng once (none for no such row).
    """
    xs = np.asarray(xs, dtype=float)
    n = row_norms(xs)
    nz = np.flatnonzero(n)
    u = xs[nz] / n[nz, None]
    h_u = analytic_proj_support(body, u)
    if h_u is None:
        h_u = proj_body_support(body, u, samples, rng).value
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
    :func:`proj_support_rows`, whose Cauchy estimates share one draw of
    ``support_samples`` directions.  Net resolution (not just sampling noise)
    limits accuracy; the standard error covers the directional average only.
    """
    d = body.d
    thetas = _uniform_directions(rng, n_directions, d)
    return _radial_volume(1.0 / proj_support_rows(body, thetas, support_samples, rng), d, n_directions)
