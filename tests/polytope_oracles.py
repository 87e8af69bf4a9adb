"""Polytope oracles for the tests: a linear-programming support function,
independent of the Qhull vertex route, and the acceptance suite's
criterion-4 H-polytope."""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from normpack.bodies import ConvexBody, hpolytope


def lp_support(body: ConvexBody, u: np.ndarray) -> float:
    """h(u) = max u . x subject to a_i . x <= scale * b_i, by one LP."""
    A, b = body.normals, body.offsets * body.scale
    res = linprog(-np.asarray(u, dtype=float), A_ub=A, b_ub=b, bounds=[(None, None)] * body.d, method="highs")
    if not res.success:
        raise RuntimeError(f"support LP failed: {res.message}")
    return -res.fun


def random_symmetric_hpolytope(rng: np.random.Generator, d: int, pairs: int) -> ConvexBody:
    """Facet pairs +/-a_i with random unit normals and offsets in [0.5, 2]."""
    dirs = rng.normal(size=(pairs, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    b = rng.uniform(0.5, 2.0, size=pairs)
    return hpolytope(np.vstack([dirs, -dirs]), np.concatenate([b, b]))


def criterion4_hpolytope() -> ConvexBody:
    """Unit offsets on 5 random direction pairs in d=3 (seed 404), as the
    acceptance suite's criterion 4 draws them; not volume-normalized."""
    rng = np.random.default_rng(404)
    dirs = rng.normal(size=(5, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return hpolytope(np.vstack([dirs, -dirs]), np.ones(10))


def cube_hpolytope(d: int) -> ConvexBody:
    """The unit cube [-1/2, 1/2]^d as an H-polytope: kind hpoly, so it takes
    every polytope route, while ``cube(d)`` gives its exact f."""
    eye = np.eye(d)
    return hpolytope(np.vstack([eye, -eye]), np.full(2 * d, 0.5))
