"""Centrally symmetric convex bodies given by gauge and support functions.

Three built-in families are supported:

* ``lp`` -- scaled l_p unit balls for p in [1, inf] (p = inf is the cube),
* ``hpoly`` -- symmetric H-polytopes {x : a_i . x <= b_i} with facet
  normals required to come in +/- pairs,
* ``simplex_diff`` -- the difference body of the regular d-simplex,
  realized exactly as the central hyperplane section of the
  (d+1)-dimensional cross-polytope.

All gauge/support evaluations are vectorized over a leading batch axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
from scipy.optimize import linprog
from scipy.special import gammaln


class VolumeUnavailableError(Exception):
    """No closed-form volume exists for this body; use Monte Carlo."""


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

    # -- evaluation ----------------------------------------------------

    def gauge(self, x: np.ndarray) -> np.ndarray | float:
        """Minkowski gauge inf{lam >= 0 : x in lam * body}."""
        x = self._check_vec(x)
        if self.kind == "lp":
            g = _lp_norm(x, self.p)
        elif self.kind == "hpoly":
            g = np.max(x @ self.normals.T / self.offsets, axis=-1)
            g = np.maximum(g, 0.0)
        else:  # simplex_diff
            g = np.abs(x @ self.embedding.T).sum(axis=-1)
        out = g / self.scale
        return float(out) if out.ndim == 0 else out

    def support(self, u: np.ndarray) -> np.ndarray | float:
        """Support function h(u) = sup{x . u : x in body}."""
        u = self._check_vec(u)
        if self.kind == "lp":
            h = _lp_norm(u, _dual_exponent(self.p))
        elif self.kind == "hpoly":
            h = _hpoly_support(self.normals, self.offsets, u)
        else:
            w = u @ self.embedding.T
            h = 0.5 * (w.max(axis=-1) - w.min(axis=-1))
        out = h * self.scale
        return float(out) if out.ndim == 0 else out

    # -- geometry ------------------------------------------------------

    def circumradius(self) -> float:
        """R with body contained in the Euclidean ball of radius R."""
        if self.kind == "lp":
            if self.p >= 2.0:
                expo = 0.5 - (0.0 if math.isinf(self.p) else 1.0 / self.p)
                return self.scale * self.d**expo
            return self.scale
        if self.kind == "simplex_diff":
            # extreme points are (e_i - e_j)/2 in the embedded picture
            return self.scale / math.sqrt(2.0)
        # certified upper bound: diagonal of the support bounding box
        return float(np.sqrt(np.sum(self.bounding_halfwidths() ** 2)))

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


def hpolytope(normals, offsets, scale: float = 1.0, tol: float = 1e-9) -> ConvexBody:
    """Symmetric H-polytope {x : a_i . x <= b_i}, facets in +/- pairs.

    Normals are renormalized to unit length (offsets rescaled to keep the
    same halfspaces).  Raises if offsets are not positive or if some facet
    lacks its antipodal partner.
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
        match = np.all(np.abs(A + A[i]) <= tol, axis=1) & (np.abs(b - b[i]) <= tol)
        if not match.any():
            raise ValueError(f"facet {i} has no antipodal partner: not centrally symmetric")
    return ConvexBody(kind="hpoly", d=A.shape[1], scale=scale, normals=A, offsets=b)


def simplex_difference(d: int, scale: float = 1.0) -> ConvexBody:
    """Difference body (S - S)/2 of the regular d-simplex.

    Realized in R^d through a fixed orthonormal embedding into the
    zero-sum hyperplane of R^(d+1), where it coincides with the central
    section of the (d+1)-dimensional cross-polytope; the gauge is the
    l_1 norm of the embedded vector.
    """
    if d < 1 or scale <= 0:
        raise ValueError("need d >= 1 and scale > 0")
    return ConvexBody(kind="simplex_diff", d=d, scale=scale, embedding=helmert_basis(d))


def _lp_norm(x: np.ndarray, p: float) -> np.ndarray:
    a = np.abs(x)
    if math.isinf(p):
        return a.max(axis=-1)
    if p == 1.0:
        return a.sum(axis=-1)
    if p == 2.0:
        return np.sqrt((a * a).sum(axis=-1))
    # rescale by the max to avoid overflow for large p
    m = a.max(axis=-1, keepdims=True)
    safe = np.where(m > 0, m, 1.0)
    s = ((a / safe) ** p).sum(axis=-1)
    return m[..., 0] * s ** (1.0 / p)


def _dual_exponent(p: float) -> float:
    if math.isinf(p):
        return 1.0
    if p == 1.0:
        return math.inf
    return p / (p - 1.0)


def _hpoly_support(A: np.ndarray, b: np.ndarray, u: np.ndarray) -> np.ndarray:
    flat = np.atleast_2d(u.reshape(-1, A.shape[1]))
    vals = np.empty(len(flat))
    for i, ui in enumerate(flat):
        res = linprog(-ui, A_ub=A, b_ub=b, bounds=[(None, None)] * A.shape[1], method="highs")
        if not res.success:
            raise RuntimeError(f"support LP failed: {res.message}")
        vals[i] = -res.fun
    return vals.reshape(u.shape[:-1])


@lru_cache(maxsize=None)
def _simplex_diff_canonical_volume(d: int) -> float:
    # Monte Carlo rejection estimate, computed once per dimension with a
    # fixed internal seed and cached.  Deliberately does not assume the
    # Rogers-Shephard equality, which the verifiers test independently.
    body = simplex_difference(d)
    rng = np.random.default_rng(0x5D1F + d)
    half = body.bounding_halfwidths()
    total = 4_000_000
    hits = 0
    for _ in range(4):
        pts = rng.uniform(-half, half, size=(total // 4, d))
        hits += int(np.count_nonzero(body.gauge(pts) <= 1.0))
    return float(np.prod(2.0 * half)) * hits / total


def closed_form_volume(body: ConvexBody) -> float:
    """Exact volume where a formula exists (l_p balls), or the cached
    Monte Carlo value for the simplex difference body.

    Raises :class:`VolumeUnavailableError` for general H-polytopes.
    """
    if body.kind == "lp":
        d, p, s = body.d, body.p, body.scale
        if math.isinf(p):
            return (2.0 * s) ** d
        logv = d * math.log(2.0) + d * gammaln(1.0 + 1.0 / p) - gammaln(1.0 + d / p)
        return math.exp(logv) * s**d
    if body.kind == "simplex_diff":
        return _simplex_diff_canonical_volume(body.d) * body.scale**body.d
    raise VolumeUnavailableError("no closed-form volume for a general H-polytope; use mc_volume")


def normalize_to_unit_volume(body: ConvexBody, volume: float | None = None) -> ConvexBody:
    """Rescale so the body has volume 1.

    ``volume`` overrides the closed-form value (pass a Monte Carlo
    estimate for H-polytopes).
    """
    v = closed_form_volume(body) if volume is None else volume
    if v <= 0:
        raise ValueError(f"nonpositive volume estimate {v}")
    return body.scaled(v ** (-1.0 / body.d))


def sample_uniform(
    body: ConvexBody,
    rng: np.random.Generator,
    n: int,
    efficiency_floor: float = 1e-6,
) -> np.ndarray:
    """n points uniform in the body, by rejection from its bounding box.

    Deterministic given the generator state.  Raises
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
        pts = rng.uniform(-half, half, size=(batch, body.d))
        acc = pts[body.gauge(pts) <= 1.0]
        take = min(n - got, len(acc))
        out[got : got + take] = acc[:take]
        got += take
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
    """Load a body from its specification dict; rejects asymmetric facets."""
    kind = spec["kind"]
    d = int(spec["d"])
    scale = float(spec.get("scale", 1.0))
    if kind == "lp":
        p = spec["p"]
        p = math.inf if p in ("inf", "Infinity") else float(p)
        return lp_ball(d, p, scale)
    if kind == "hpoly":
        facets = spec["facets"]
        A = [f["normal"] for f in facets]
        b = [f["offset"] for f in facets]
        body = hpolytope(A, b, scale)
        if body.d != d:
            raise ValueError("facet dimension does not match d")
        return body
    if kind == "simplex_diff":
        return simplex_difference(d, scale)
    raise ValueError(f"unknown body kind {kind!r}")
