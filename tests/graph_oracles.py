"""Brute-force graph oracles for the tests: dense O(n^2) adjacency, dense
A @ A codegrees and exhaustive independent sets, independent of the
KD-tree, codegree and local-search paths."""

from __future__ import annotations

import itertools

import numpy as np

from normpack.bodies import ConvexBody
from normpack.packing import PackingGraph, PointSet, TorusDomain


def brute_force_graph(points: PointSet, body: ConvexBody, domain: TorusDomain) -> PackingGraph:
    """O(n^2) reference adjacency; oracle for build_graph."""
    pts = points.points
    n = len(pts)
    pairs = np.empty((0, 2), dtype=np.int64)
    if n:
        diffs = domain.min_image(pts[:, None, :] - pts[None, :, :])
        g = body.gauge(diffs)
        np.fill_diagonal(g, np.inf)
        pairs = np.argwhere(g <= 2.0)
    return PackingGraph.from_pairs(pts, pairs, domain)


def graphs_equal(a: PackingGraph, b: PackingGraph) -> bool:
    return (
        a.n == b.n
        and np.array_equal(a.adj.indptr, b.adj.indptr)
        and np.array_equal(a.adj.indices, b.adj.indices)
    )


def brute_force_max_codegree(graph: PackingGraph) -> int:
    """Dense boolean-matmul codegree maximum; oracle for prune postconditions."""
    if graph.n == 0:
        return 0
    A = graph.adj.toarray()
    C = A @ A
    np.fill_diagonal(C, 0.0)
    return int(C.max())


def graph_from_edges(n, edges) -> PackingGraph:
    """Synthetic graph with dummy coordinates, for code that never reads them."""
    return PackingGraph.from_pairs(np.zeros((n, 2)), edges, TorusDomain(2, 100.0))


def exhaustive_max_independent(n, edges) -> int:
    """Size of a maximum independent set, trying every subset, largest first."""
    edge_set = {tuple(sorted(e)) for e in edges}
    for r in range(n, 0, -1):
        for combo in itertools.combinations(range(n), r):
            if all(pair not in edge_set for pair in itertools.combinations(combo, 2)):
                return r
    return 0
