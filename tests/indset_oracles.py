"""The true independence number of small graphs, as a test oracle.

A maximum independent set by ``scipy.optimize.milp`` (HiGHS) on the edge
formulation: maximize sum_v x_v over binary x with x_i + x_j <= 1 on every
edge.  It shares no code with the pipeline's heuristic.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp

from normpack.packing import PackingGraph


def max_independent_set(graph: PackingGraph, time_limit: float = 60.0) -> np.ndarray:
    """A maximum independent set of ``graph``, sorted; raises RuntimeError
    unless the solver proves it optimal within ``time_limit`` seconds."""
    n = graph.n
    upper = sp.triu(graph.adj, 1).tocoo()
    m = upper.nnz
    rows = np.repeat(np.arange(m), 2)
    cols = np.column_stack([upper.row, upper.col]).ravel()
    edges = sp.csr_matrix((np.ones(2 * m), (rows, cols)), shape=(m, n))
    constraints = [LinearConstraint(edges, -np.inf, 1.0)] if m else []
    res = milp(
        -np.ones(n),
        integrality=np.ones(n),
        bounds=Bounds(0.0, 1.0),
        constraints=constraints,
        options={"time_limit": time_limit},
    )
    if res.status != 0:
        raise RuntimeError(f"milp did not prove optimality: {res.message}")
    chosen = np.flatnonzero(res.x > 0.5)
    # the dual bound is below alpha + 1, so no larger set exists
    if not -res.mip_dual_bound < len(chosen) + 1:
        raise RuntimeError(f"dual bound {-res.mip_dual_bound} leaves room above {len(chosen)}")
    return chosen
