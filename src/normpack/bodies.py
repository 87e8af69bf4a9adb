"""Centrally symmetric convex bodies given by gauge and support functions.

Three built-in families are supported:

* ``lp`` -- scaled l_p unit balls for p in [1, inf] (p = inf is the cube),
* ``hpoly`` -- symmetric H-polytopes {x : a_i . x <= b_i} with facet
  normals required to come in +/- pairs,
* ``simplex_diff`` -- the difference body of the regular d-simplex,
  realized exactly as the central hyperplane section of the
  (d+1)-dimensional cross-polytope.

The polytope kinds share their canonical body's Qhull vertices and hull
facets (:class:`Polytope`) with every scaled copy.

All gauge/support evaluations are vectorized over a leading batch axis.
"""

from __future__ import annotations

import concurrent.futures
import math
import numbers
import os
import reprlib
import threading
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
from scipy.spatial import ConvexHull, HalfspaceIntersection
from scipy.special import gammaln


class RejectionEfficiencyError(Exception):
    """Rejection sampling acceptance rate fell below the configured floor."""


def helmert_basis(d: int) -> np.ndarray:
    """Orthonormal basis of the hyperplane {sum(w) = 0} in R^(d+1).

    Returns a (d+1, d) matrix E with orthonormal columns, each orthogonal
    to the all-ones vector.  Used as the canonical embedding for the
    simplex difference body.
    """
    E = np.zeros((d + 1, d))
    for k in range(1, d + 1):
        c = 1.0 / math.sqrt(k * (k + 1))
        E[:k, k - 1] = c
        E[k, k - 1] = -k * c
    return E


def is_number(value, kind: type) -> bool:
    """The number rule of configs and body specs: an instance of ``kind``
    (``numbers.Integral`` or ``numbers.Real``), but not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def ball_volume(k: int) -> float:
    """Volume gamma_k of the k-dimensional Euclidean unit ball (gamma_0 = 1)."""
    if k < 0:
        raise ValueError(f"negative dimension {k}")
    return math.exp(0.5 * k * math.log(math.pi) - gammaln(0.5 * k + 1.0))


@dataclass(frozen=True, eq=False)
class Polytope:
    """Vertices, volume and hull facets of a canonical (scale 1) polytope; the
    facets are Qhull's simplices, by outward unit normal and (d-1)-volume."""

    vertices: np.ndarray  # (n, d)
    volume: float
    normals: np.ndarray  # (m, d)
    areas: np.ndarray  # (m,)


def _polytope(points: np.ndarray) -> Polytope:
    """Hull data of conv(points).  Qhull needs d >= 2, so d = 1 is the
    segment [min, max], whose two facets are points of 0-volume 1."""
    if points.shape[1] == 1:
        lo, hi = points.min(), points.max()
        return Polytope(np.array([[lo], [hi]]), float(hi - lo), np.array([[-1.0], [1.0]]), np.ones(2))
    hull = ConvexHull(points)
    normals = hull.equations[:, :-1]
    # a simplex's (d-1)-volume is |det(edges from one corner, unit normal)| / (d-1)!
    corners = points[hull.simplices]
    frames = np.concatenate([corners[:, 1:] - corners[:, :1], normals[:, None, :]], axis=1)
    areas = np.abs(np.linalg.det(frames)) / math.factorial(points.shape[1] - 1)
    return Polytope(points[hull.vertices], float(hull.volume), normals, areas)


@dataclass(frozen=True, eq=False)
class ConvexBody:
    """A centrally symmetric convex body: ``scale`` times a canonical body.

    Do not construct directly; use :func:`lp_ball`, :func:`hpolytope`
    or :func:`simplex_difference`.  Every body, scaled copies included,
    has an integer d >= 1 and a finite positive scale.
    """

    kind: str
    d: int
    scale: float = 1.0
    p: float | None = None
    normals: np.ndarray | None = None
    offsets: np.ndarray | None = None
    embedding: np.ndarray | None = field(default=None, repr=False)
    # a C-contiguous copy of embedding.T: numpy's matmul by the transposed view is 2-4x slower
    embedding_t: np.ndarray | None = field(default=None, repr=False)
    polytope: Polytope | None = field(default=None, repr=False)  # shared by scaled copies

    def __post_init__(self):
        if not is_number(self.d, numbers.Integral) or self.d < 1:
            raise ValueError(f"d must be an integer >= 1, got {self.d!r}")
        if not 0.0 < self.scale < math.inf:  # NaN fails this test too
            raise ValueError(f"scale must be finite and positive, got {self.scale}")

    # -- evaluation ----------------------------------------------------

    def gauge(self, x: np.ndarray) -> np.ndarray | float:
        """Minkowski gauge inf{lam >= 0 : x in lam * body}."""
        x = self._check_vec(x)
        if self.kind == "lp":
            g = _lp_norm(x, self.p)
        elif self.kind == "hpoly":
            w = x @ self.normals.T
            g = fold_columns(np.maximum, np.divide(w, self.offsets, out=w))  # (rows, facets): one array
            g = np.maximum(g, 0.0, out=g if g.ndim else None)
        else:  # simplex_diff
            w = x @ self.embedding_t
            g = fold_columns(np.add, np.abs(w, out=w))
        out = g / self.scale
        return float(out) if out.ndim == 0 else out

    def support(self, u: np.ndarray) -> np.ndarray | float:
        """Support function h(u) = sup{x . u : x in body}."""
        u = self._check_vec(u)
        if self.kind == "lp":
            h = _lp_norm(u, _dual_exponent(self.p))
        elif self.kind == "hpoly":
            h = fold_columns(np.maximum, u @ self.polytope.vertices.T)
        else:
            w = u @ self.embedding.T
            h = 0.5 * (fold_columns(np.maximum, w) - fold_columns(np.minimum, w))
        out = h * self.scale
        return float(out) if out.ndim == 0 else out

    def gauge_gradient(self, x: np.ndarray) -> np.ndarray:
        """Gradient of the gauge at x != 0, one row per row of x (a
        subgradient on a kink): sign(x) (|x| / |x|_p)^(p-1) for lp, or the
        largest coordinate's axis at p = inf; the active facet's normal over
        its offset for hpoly; sign(E x) E for simplex_diff; each over scale.
        Euler's identity <x, gradient> = gauge(x) holds for every kind."""
        x = self._check_vec(x)
        if self.kind == "lp" and math.isinf(self.p):
            top = np.expand_dims(np.abs(x).argmax(axis=-1), -1)
            g = np.where(np.arange(self.d) == top, np.sign(x), 0.0)
        elif self.kind == "lp":  # |x_k| / |x|_p one column at a time, like _lp_norm
            a, norm = np.abs(x), _lp_norm(x, self.p)
            for k in range(self.d):
                a[..., k] /= norm
            g = np.sign(x) * a ** (self.p - 1.0)
        elif self.kind == "hpoly":
            k = (x @ self.normals.T / self.offsets).argmax(axis=-1)
            g = self.normals[k] / np.expand_dims(self.offsets[k], -1)
        else:  # simplex_diff
            g = np.sign(x @ self.embedding.T) @ self.embedding
        return g / self.scale

    # -- geometry ------------------------------------------------------

    def circumradius(self) -> float:
        """Smallest R with the body contained in the Euclidean ball of radius R."""
        if self.kind == "lp":
            if self.p >= 2.0:
                expo = 0.5 - (0.0 if math.isinf(self.p) else 1.0 / self.p)
                return self.scale * self.d**expo
            return self.scale
        return self.scale * float(np.sqrt((self.polytope.vertices**2).sum(axis=1)).max())

    def bounding_halfwidths(self) -> np.ndarray:
        """Half-widths of the tight axis-aligned bounding box."""
        eye = np.eye(self.d)
        return np.asarray([self.support(eye[i]) for i in range(self.d)])

    def scaled(self, factor: float) -> "ConvexBody":
        return replace(self, scale=self.scale * factor)

    def _check_vec(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.d:
            raise ValueError(f"vector dimension {x.shape[-1]} != body dimension {self.d}")
        if np.isnan(x).any():
            raise ValueError("NaN in input vector")
        return x

    def describe(self) -> str:
        if self.kind == "lp":
            return f"lp(p={self.p}, d={self.d}, scale={self.scale:.6g})"
        if self.kind == "hpoly":
            return f"hpoly(m={len(self.offsets)}, d={self.d}, scale={self.scale:.6g})"
        return f"simplex_diff(d={self.d}, scale={self.scale:.6g})"


def lp_ball(d: int, p: float, scale: float = 1.0) -> ConvexBody:
    if not (1.0 <= p):
        raise ValueError(f"p must be in [1, inf], got {p}")
    return ConvexBody(kind="lp", d=d, scale=scale, p=float(p))


def cube(d: int, side: float = 1.0) -> ConvexBody:
    """Axis-aligned cube [-side/2, side/2]^d."""
    return lp_ball(d, math.inf, scale=side / 2.0)


# largest coordinate difference at which two unit facets count as antipodal
ANTIPODAL_TOL = 1e-9


def hpolytope(normals, offsets, scale: float = 1.0) -> ConvexBody:
    """Symmetric H-polytope {x : a_i . x <= b_i}, facets in +/- pairs.

    Normals are renormalized to unit length (offsets rescaled to keep the
    same halfspaces).  Raises if a normal is not finite, if offsets are
    not finite and positive, if some facet lacks its antipodal partner
    (within :data:`ANTIPODAL_TOL`), or if the normals do not span R^d
    (unbounded).
    """
    A = np.asarray(normals, dtype=float)
    b = np.asarray(offsets, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or len(A) != len(b):
        raise ValueError("normals must be (m, d), offsets (m,)")
    if not np.isfinite(A).all():
        raise ValueError("facet normals must be finite")
    if not (np.isfinite(b) & (b > 0)).all():
        raise ValueError("offsets must be finite and positive (origin must be interior)")
    norms = np.linalg.norm(A, axis=1)
    if np.any(norms == 0):
        raise ValueError("zero facet normal")
    A = A / norms[:, None]
    b = b / norms
    for i in range(len(A)):
        match = np.all(np.abs(A + A[i]) <= ANTIPODAL_TOL, axis=1) & (np.abs(b - b[i]) <= ANTIPODAL_TOL)
        if not match.any():
            raise ValueError(f"facet {i} has no antipodal partner: not centrally symmetric")
    d = A.shape[1]
    if np.linalg.matrix_rank(A) < d:
        raise ValueError("facet normals do not span R^d: the polytope is unbounded")
    if d == 1:  # normals are +/-1 with equal offsets
        vertices = np.array([[-b.min()], [b.min()]])
    else:  # the origin is interior; repeated vertices of non-simple polytopes drop out of the hull
        vertices = HalfspaceIntersection(np.column_stack([A, -b]), np.zeros(d)).intersections
    return ConvexBody(kind="hpoly", d=d, scale=scale, normals=A, offsets=b, polytope=_polytope(vertices))


def simplex_difference(d: int, scale: float = 1.0) -> ConvexBody:
    """Difference body (S - S)/2 of the regular d-simplex.

    Realized in R^d through a fixed orthonormal embedding into the
    zero-sum hyperplane of R^(d+1), where it coincides with the central
    section of the (d+1)-dimensional cross-polytope; the gauge is the
    l_1 norm of the embedded vector.
    """
    body = ConvexBody(kind="simplex_diff", d=d, scale=scale)  # checks d before the embedding is built
    E = helmert_basis(d)
    return replace(body, embedding=E, embedding_t=E.T.copy(), polytope=_simplex_diff_polytope(d))


# rows per gauge batch: a batch's temporaries stay in L2 cache, which halves
# the gauge filter's time on 445k pairs (2 cores, d = 3)
GAUGE_CHUNK = 1 << 15

# one token per core this process may run on: a pipeline run holds one for
# its whole length, and :func:`in_parts` borrows one more if it is free.
# Simpler designs lost on the sweep_d2_w2 benchmark (2 cores, median wall
# time, tokens -> design, pairs the design won): a worker thread per call
# 0.089 -> 0.107 s (1 of 10); one shared worker thread 0.089 -> 0.097 s
# (0 of 8); tokens taken per kernel call 0.078 -> 0.096 s (0 of 10).
CORE_TOKENS = threading.BoundedSemaphore(
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)
# least work worth a worker thread, per caller of :func:`in_parts`.  Two busy
# threads on the 2 vCPUs each run slower than one alone, so a split pays only
# on large kernels.  Split against caller-only, medians of 9-15 alternating
# calls timed together (2 cores, d = 3 unit-volume bodies):
# - the pair query, by expected pairs: 0.45M 65 vs 61 ms, 1.0M 121 vs 110,
#   1.2M 91 vs 91, 2.2M 151 vs 174, 3.4M 206 vs 282, 4.9M 309 vs 401,
#   8.6M 574 vs 751, 13.5M 735 vs 988;
# - the codegree product, by B's nonzeros: at mean degree 30, 0.15M 28 vs
#   25 ms, 0.4M 96 vs 91, 0.8M 293 vs 287; at 300, 0.25M 53 vs 52, 0.5M 113
#   vs 164, 1.2M 516 vs 881; at 1000, 0.25M 26 vs 38, 0.5M 76 vs 125, 2M 680
#   vs 1097;
# - mc_volume, by the second part's doubles: 22k-52k lost in every run (lp3,
#   2.2 vs 1.8 ms); 0.1-0.2M won in one run (lp3, 5.6 vs 7.3) and lost in
#   another (11.6 vs 10.5); 5.9M 101 vs 188 (lp3) and 210 vs 367 (hpoly).
SPLIT_PAIRS = 2_000_000  # expected pairs of a torus_pairs query
SPLIT_NONZEROS = 500_000  # nonzeros of B in the hot-row codegree product
SPLIT_DOUBLES = 100_000  # doubles that mc_volume's second part draws


def in_parts(work: float, crossover: float, first, second) -> list:
    """[first(), second()], with ``second`` on a worker thread that holds a
    borrowed core token until it ends, or here after ``first`` when the
    ``work`` the caller is about to do is below its ``crossover`` or no
    token is free.

    The parts should spend their time in code that releases the
    interpreter lock.  An exception from either part propagates once both
    have ended.
    """
    if work < crossover or not CORE_TOKENS.acquire(blocking=False):
        return [first(), second()]
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
            later = pool.submit(second)
            return [first(), later.result()]
    finally:
        CORE_TOKENS.release()


def skip_doubles(rng: np.random.Generator, k: int) -> None:
    """Leave ``rng`` where drawing k doubles (``rng.random(k)``) would.

    A PCG64 generator jumps ahead in O(log k) steps (O'Neill 2014), one
    step per double.  ``advance`` clears the buffered 32-bit half that
    32-bit integer and float draws keep, which doubles leave alone, so it
    is put back.  Other bit generators draw the doubles and drop them.
    """
    bg = rng.bit_generator
    if isinstance(bg, (np.random.PCG64, np.random.PCG64DXSM)):
        kept = bg.state
        bg.advance(k)
        bg.state = {**bg.state, "has_uint32": kept["has_uint32"], "uinteger": kept["uinteger"]}
        return
    for s in range(0, k, GAUGE_CHUNK):
        rng.random(min(GAUGE_CHUNK, k - s))


def fold_columns(op: np.ufunc, w: np.ndarray) -> np.ndarray:
    """``op.reduce(w, axis=-1)`` bit for bit, for op ``np.add``,
    ``np.maximum``, ``np.minimum`` or ``np.multiply``.

    Rows of 2 to 7 columns fold by one elementwise ``op`` per column,
    which skips the ~55 ns per-row overhead of a reduction over short
    rows.  numpy adds fewer than 8 terms left to right (pairwise from 8
    on), and its max/min of 9 or more columns may return the other sign
    of a zero; wider rows, and 1-D input, go to numpy.  ``add`` needs no
    row of only -0.0 (numpy sums it to +0.0): callers pass absolute
    values and squares.
    """
    k = w.shape[-1]
    if w.ndim < 2 or not 2 <= k < 8:
        return op.reduce(w, axis=-1)
    s = op(w[..., 0], w[..., 1])
    for c in range(2, k):
        op(s, w[..., c], out=s)
    return s


def _lp_norm(x: np.ndarray, p: float) -> np.ndarray:
    a = np.abs(x)
    if math.isinf(p):
        return fold_columns(np.maximum, a)
    if p == 1.0:
        return fold_columns(np.add, a)
    if p == 2.0:
        return np.sqrt(fold_columns(np.add, np.multiply(a, a, out=a)))
    # rescale by the max to avoid overflow for large p
    m = fold_columns(np.maximum, a)
    safe = np.where(m > 0, m, 1.0)
    if a.ndim < 2 or a.shape[-1] >= 8:  # fold_columns hands these to numpy
        return m * fold_columns(np.add, (a / safe[..., None]) ** p) ** (1.0 / p)
    # fold_columns' left-to-right sum, one column's terms at a time
    s = (a[..., 0] / safe) ** p
    for k in range(1, a.shape[-1]):
        s += (a[..., k] / safe) ** p
    return m * s ** (1.0 / p)


def _dual_exponent(p: float) -> float:
    if math.isinf(p):
        return 1.0
    if p == 1.0:
        return math.inf
    return p / (p - 1.0)


@lru_cache(maxsize=None)
def _simplex_diff_polytope(d: int) -> Polytope:
    """Hull of the vertices (E_i - E_j)/2, i != j, for the rows E_i of the embedding."""
    E = helmert_basis(d)
    i, j = np.nonzero(~np.eye(d + 1, dtype=bool))
    return _polytope(0.5 * (E[i] - E[j]))


def closed_form_volume(body: ConvexBody) -> float:
    """Exact volume: the l_p ball formula, or the Qhull volume of a
    polytope's vertex hull."""
    if body.polytope is not None:
        return body.polytope.volume * body.scale**body.d
    d, p, s = body.d, body.p, body.scale
    if math.isinf(p):
        return (2.0 * s) ** d
    logv = d * math.log(2.0) + d * gammaln(1.0 + 1.0 / p) - gammaln(1.0 + d / p)
    return math.exp(logv) * s**d


def normalize_to_unit_volume(body: ConvexBody, volume: float | None = None) -> ConvexBody:
    """Rescale so the body has volume 1.

    ``volume`` overrides the exact value of :func:`closed_form_volume`.
    """
    v = closed_form_volume(body) if volume is None else volume
    if v <= 0:
        raise ValueError(f"nonpositive volume estimate {v}")
    return body.scaled(v ** (-1.0 / body.d))


def uniform_box(rng: np.random.Generator, half: np.ndarray, n: int) -> np.ndarray:
    """n points uniform in the box [-half, half], one row per point.

    The same numbers as ``rng.uniform(-half, half, size=(n, len(half)))``,
    bit for bit, and the generator ends in the same state; scaling
    ``rng.random`` in place, one column at a time, skips the broadcast of
    the bounds over rows of a few columns.
    """
    pts = rng.random((n, len(half)))
    for k, h in enumerate(np.asarray(half, dtype=float)):
        col = pts[:, k]
        col *= 2.0 * h
        col += -h
    return pts


def sample_uniform(
    body: ConvexBody,
    rng: np.random.Generator,
    n: int,
    efficiency_floor: float = 1e-6,
) -> np.ndarray:
    """n points uniform in the body, by rejection from its bounding box.

    Takes batches of max(4 n, 2^14) :func:`uniform_box` rows until n are
    accepted, drawing and gauging each batch in slices: first the
    ceil(1.25 n vol(box) / vol(body)) + 64 rows that n points are expected
    to need, at most :data:`GAUGE_CHUNK`, then slices of
    :data:`GAUGE_CHUNK` rows while points are missing.  Once n are
    accepted the generator skips the batch's remaining rows
    (:func:`skip_doubles`), so it ends where drawing every batch in full
    leaves it.  Deterministic given the generator state.  Raises
    :class:`RejectionEfficiencyError` if the acceptance rate drops below
    ``efficiency_floor`` (the body is too thin for rejection sampling).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    half = body.bounding_halfwidths()
    out = np.empty((n, body.d))
    got = 0
    drawn = 0
    batch = max(4 * n, 1 << 14)
    first = min(math.ceil(1.25 * n * np.prod(2.0 * half) / closed_form_volume(body)) + 64, GAUGE_CHUNK)
    bounds = [0, *range(first, batch, GAUGE_CHUNK), batch]
    while got < n:
        for s, e in zip(bounds, bounds[1:]):
            chunk = uniform_box(rng, half, e - s)
            acc = np.flatnonzero(body.gauge(chunk) <= 1.0)[: n - got]
            np.take(chunk, acc, axis=0, out=out[got : got + len(acc)])
            got += len(acc)
            if got == n:
                skip_doubles(rng, (batch - e) * body.d)
                break
        drawn += batch
        if drawn >= 1_000_000 and got / drawn < efficiency_floor:
            raise RejectionEfficiencyError(
                f"acceptance rate {got / drawn:.2e} below floor {efficiency_floor:.2e} "
                f"for {body.describe()}"
            )
    return out


# -- body specification files -----------------------------------------


def body_to_spec(body: ConvexBody) -> dict:
    """JSON-compatible specification of a body."""
    if body.kind == "lp":
        p = "inf" if math.isinf(body.p) else body.p
        return {"kind": "lp", "d": body.d, "p": p, "scale": body.scale}
    if body.kind == "hpoly":
        facets = [
            {"normal": list(map(float, a)), "offset": float(b)}
            for a, b in zip(body.normals, body.offsets)
        ]
        return {"kind": "hpoly", "d": body.d, "scale": body.scale, "facets": facets}
    return {"kind": "simplex_diff", "d": body.d, "scale": body.scale}


def body_from_spec(spec: dict) -> ConvexBody:
    """Load a body from its specification dict; rejects asymmetric facets.

    A spec that is not a dict, lacks a key its kind needs, or holds a
    value of the wrong type there raises a ValueError that says so."""
    if not isinstance(spec, dict):
        raise ValueError("a body spec must be a JSON object")
    try:
        return _body_from_spec(spec)
    except KeyError as exc:
        raise ValueError(f"body spec has no key {exc.args[0]!r}") from None


def _spec_value(spec: dict, key: str, convert, what: str, default=None):
    """``convert(spec[key])``, or ``default`` when the key is absent and a
    default is given; a value ``convert`` rejects with a TypeError or
    ValueError raises a ValueError naming the key and ``what`` it must be."""
    value = spec[key] if default is None or key in spec else default
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ValueError(f"body spec key {key!r} must be {what}, got {reprlib.repr(value)}") from None


def _integer(value) -> int:
    """``value`` as an int by the config's integer rule, else a TypeError."""
    if not is_number(value, numbers.Integral):
        raise TypeError(value)
    return int(value)


def _real(value) -> float:
    """``value`` as a float by the config's real-number rule, else a TypeError."""
    if not is_number(value, numbers.Real):
        raise TypeError(value)
    return float(value)


def _p_value(p) -> float:
    return math.inf if p in ("inf", "Infinity") else _real(p)


def _facet_arrays(facets) -> tuple[list, list]:
    return [f["normal"] for f in facets], [f["offset"] for f in facets]


def _body_from_spec(spec: dict) -> ConvexBody:
    kind = spec["kind"]
    d = _spec_value(spec, "d", _integer, "an integer")
    scale = _spec_value(spec, "scale", _real, "a real number", default=1.0)
    if kind == "lp":
        return lp_ball(d, _spec_value(spec, "p", _p_value, "a real number or 'inf'"), scale)
    if kind == "hpoly":
        A, b = _spec_value(spec, "facets", _facet_arrays, "a list of objects with a normal and an offset")
        body = hpolytope(A, b, scale)
        if body.d != d:
            raise ValueError("facet dimension does not match d")
        return body
    if kind == "simplex_diff":
        return simplex_difference(d, scale)
    raise ValueError(f"unknown body kind {kind!r}")
