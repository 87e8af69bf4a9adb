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

import math
import reprlib
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
    or :func:`simplex_difference`.
    """

    kind: str
    d: int
    scale: float = 1.0
    p: float | None = None
    normals: np.ndarray | None = None
    offsets: np.ndarray | None = None
    embedding: np.ndarray | None = field(default=None, repr=False)
    polytope: Polytope | None = field(default=None, repr=False)  # shared by scaled copies

    # -- evaluation ----------------------------------------------------

    def gauge(self, x: np.ndarray) -> np.ndarray | float:
        """Minkowski gauge inf{lam >= 0 : x in lam * body}."""
        x = self._check_vec(x)
        if self.kind == "lp":
            g = _lp_norm(x, self.p)
        elif self.kind == "hpoly":
            g = fold_columns(np.maximum, x @ self.normals.T / self.offsets)
            g = np.maximum(g, 0.0)
        else:  # simplex_diff
            w = x @ self.embedding.T
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
        elif self.kind == "lp":
            g = np.sign(x) * (np.abs(x) / np.expand_dims(_lp_norm(x, self.p), -1)) ** (self.p - 1.0)
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
        if factor <= 0:
            raise ValueError("scale factor must be positive")
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
    if d < 1 or scale <= 0:
        raise ValueError("need d >= 1 and scale > 0")
    return ConvexBody(kind="lp", d=d, scale=scale, p=float(p))


def cube(d: int, side: float = 1.0) -> ConvexBody:
    """Axis-aligned cube [-side/2, side/2]^d."""
    return lp_ball(d, math.inf, scale=side / 2.0)


# largest coordinate difference at which two unit facets count as antipodal
ANTIPODAL_TOL = 1e-9


def hpolytope(normals, offsets, scale: float = 1.0) -> ConvexBody:
    """Symmetric H-polytope {x : a_i . x <= b_i}, facets in +/- pairs.

    Normals are renormalized to unit length (offsets rescaled to keep the
    same halfspaces).  Raises if offsets are not positive, if some facet
    lacks its antipodal partner (within :data:`ANTIPODAL_TOL`), or if the
    normals do not span R^d (unbounded).
    """
    A = np.asarray(normals, dtype=float)
    b = np.asarray(offsets, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or len(A) != len(b):
        raise ValueError("normals must be (m, d), offsets (m,)")
    if np.any(b <= 0):
        raise ValueError("offsets must be positive (origin must be interior)")
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
    if d < 1 or scale <= 0:
        raise ValueError("need d >= 1 and scale > 0")
    return ConvexBody(
        kind="simplex_diff", d=d, scale=scale, embedding=helmert_basis(d), polytope=_simplex_diff_polytope(d)
    )


# rows per gauge batch: a batch's temporaries stay in L2 cache, which halves
# the gauge filter's time on 445k pairs (2 cores, d = 3)
GAUGE_CHUNK = 1 << 15


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
    s = fold_columns(np.add, (a / safe[..., None]) ** p)
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
    ``rng.random`` in place skips the broadcast of the bounds.
    """
    half = np.asarray(half, dtype=float)
    pts = rng.random((n, len(half)))
    pts *= 2.0 * half
    pts += -half
    return pts


def sample_uniform(
    body: ConvexBody,
    rng: np.random.Generator,
    n: int,
    efficiency_floor: float = 1e-6,
) -> np.ndarray:
    """n points uniform in the body, by rejection from its bounding box.

    Draws batches of :func:`uniform_box` points and gauges each in
    chunks of :data:`GAUGE_CHUNK` rows until n are accepted; every batch
    is drawn in full, so the generator ends where the draws alone leave
    it.  Deterministic given the generator state.  Raises
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
    while got < n:
        pts = uniform_box(rng, half, batch)
        for s in range(0, batch, GAUGE_CHUNK):
            chunk = pts[s : s + GAUGE_CHUNK]
            acc = chunk[body.gauge(chunk) <= 1.0]
            take = min(n - got, len(acc))
            out[got : got + take] = acc[:take]
            got += take
            if got == n:
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


def _p_value(p) -> float:
    return math.inf if p in ("inf", "Infinity") else float(p)


def _facet_arrays(facets) -> tuple[list, list]:
    return [f["normal"] for f in facets], [f["offset"] for f in facets]


def _body_from_spec(spec: dict) -> ConvexBody:
    kind = spec["kind"]
    d = _spec_value(spec, "d", int, "an integer")
    scale = _spec_value(spec, "scale", float, "a real number", default=1.0)
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
