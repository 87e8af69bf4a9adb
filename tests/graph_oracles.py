"""Brute-force graph oracles for the tests: dense O(n^2) adjacency, dense
A @ A codegrees and exhaustive independent sets, independent of the
KD-tree, codegree and local-search paths; plus the plain first versions of
the minimal image, the CSR build, the independence test, the periodic
KD-tree pair query and the local search, and a per-vertex loop of the
local-minimum rounds, which the array code must match exactly; two
probes of the core tokens that split kernels borrow, and a switch of the
work crossovers at which they split."""

from __future__ import annotations

import contextlib
import itertools
import math
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial import cKDTree

from normpack import bodies, packing, volumetrics
from normpack.bodies import CORE_TOKENS, ConvexBody
from normpack.packing import PackingGraph, TorusDomain


@contextlib.contextmanager
def all_core_tokens_held():
    """Hold every free core token, so that split kernels run both halves here."""
    with contextlib.ExitStack() as stack:
        while CORE_TOKENS.acquire(blocking=False):
            stack.callback(CORE_TOKENS.release)
        yield


@contextlib.contextmanager
def crossovers_at(value: float):
    """Every :func:`in_parts` crossover set to ``value``: 0 splits each kernel
    whenever a core token is free, inf runs every part on the caller.
    Yields the list of the threads that second parts ran on."""
    seconds = []

    def in_parts(work, crossover, first, second):
        return bodies.in_parts(work, crossover, first, lambda: seconds.append(threading.get_ident()) or second())

    with pytest.MonkeyPatch.context() as mp:
        for module, name in ((packing, "SPLIT_PAIRS"), (packing, "SPLIT_NONZEROS"), (volumetrics, "SPLIT_DOUBLES")):
            mp.setattr(module, name, value)
        for module in (packing, volumetrics):
            mp.setattr(module, "in_parts", in_parts)
        yield seconds


def free_core_tokens() -> int:
    """How many core tokens are free now."""
    free = 0
    with contextlib.ExitStack() as stack:
        while CORE_TOKENS.acquire(blocking=False):
            stack.callback(CORE_TOKENS.release)
            free += 1
    return free


def brute_force_graph(points: np.ndarray, body: ConvexBody, domain: TorusDomain) -> PackingGraph:
    """O(n^2) reference adjacency; oracle for build_graph."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    pairs = np.empty((0, 2), dtype=np.int64)
    if n:
        diffs = domain.min_image(pts[:, None, :] - pts[None, :, :])
        g = body.gauge(diffs)
        np.fill_diagonal(g, np.inf)
        pairs = np.argwhere(g <= 2.0)
    return PackingGraph(pts, adjacency_reference(n, pairs), domain)


def graphs_equal(a: PackingGraph, b: PackingGraph) -> bool:
    return (
        a.n == b.n
        and np.array_equal(a.adj.indptr, b.adj.indptr)
        and np.array_equal(a.adj.indices, b.adj.indices)
    )


def brute_force_max_codegree(graph: PackingGraph) -> int:
    """Dense matmul codegree maximum; oracle for prune postconditions.  It
    counts in float64, not in adj's 1-byte dtype, which would wrap: exact
    for counts below 2^53, and a BLAS product, where numpy's int64 matmul
    has none."""
    if graph.n == 0:
        return 0
    A = graph.adj.toarray().astype(np.float64)
    C = A @ A
    np.fill_diagonal(C, 0.0)
    return int(C.max())


def graph_from_edges(n, edges) -> PackingGraph:
    """Synthetic graph with dummy coordinates, for code that never reads them."""
    return PackingGraph(np.zeros((n, 2)), adjacency_reference(n, edges), TorusDomain(2, 100.0))


def exhaustive_max_independent(n, edges) -> int:
    """Size of a maximum independent set, trying every subset, largest first."""
    edge_set = {tuple(sorted(e)) for e in edges}
    for r in range(n, 0, -1):
        for combo in itertools.combinations(range(n), r):
            if all(pair not in edge_set for pair in itertools.combinations(combo, 2)):
                return r
    return 0


def min_image_reference(domain: TorusDomain, v) -> np.ndarray:
    """Out-of-place minimal image: v - L round(v / L), + L where <= -L/2."""
    w = v - domain.L * np.round(np.asarray(v, dtype=float) / domain.L)
    return np.where(w <= -0.5 * domain.L, w + domain.L, w)


def adjacency_reference(n, pairs) -> sp.csr_matrix:
    """Symmetric CSR adjacency from COO entries in both directions,
    duplicates summed (in int64), then 1-byte unit data."""
    i, j = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
    adj = sp.csr_matrix((np.ones(len(rows), dtype=np.int64), (rows, cols)), shape=(n, n))
    adj.sum_duplicates()
    adj = adj.astype(np.int8)
    adj.data.fill(1)
    return adj


def is_independent_reference(graph: PackingGraph, vertices) -> bool:
    chosen = set(int(v) for v in vertices)
    return all(not chosen.intersection(graph.neighbors[v].tolist()) for v in chosen)


def periodic_query_reference(wrapped, L: float, radius: float, p: float = 2.0) -> np.ndarray:
    """Pairs i < j within Minkowski p-distance ``radius`` on the torus, from
    one periodic KD tree over every point, sorted by (i, j)."""
    pairs = cKDTree(wrapped, boxsize=L).query_pairs(radius, p=p, output_type="ndarray")
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def periodic_pairs_reference(points, body: ConvexBody, domain: TorusDomain, gauge_limit: float):
    """The pairs of :func:`periodic_query_reference` whose minimal-image
    gauge is within ``gauge_limit``, and those gauges: (pairs, gauges).
    The query radius is the gauge limit times the scale for lp with p in
    {1, 2, inf}, else times the circumradius, with 1e-9 slack."""
    points = np.asarray(points, dtype=float)
    wrapped = points % domain.L
    wrapped[wrapped >= domain.L] = 0.0
    if body.kind == "lp" and body.p in (1.0, 2.0, math.inf):
        p, radius = body.p, gauge_limit * body.scale
    else:
        p, radius = 2.0, gauge_limit * body.circumradius()
    pairs = periodic_query_reference(wrapped, domain.L, radius * (1.0 + 1e-9), p)
    g = body.gauge(domain.min_image(points[pairs[:, 0]] - points[pairs[:, 1]]))
    within = g <= gauge_limit
    return pairs[within], g[within]


def x2_pairs_reference(points, body: ConvexBody, domain: TorusDomain, gauge_limit: float):
    """X2's candidate pairs by a periodic KD-tree query at ``gauge_limit``,
    sorted by (i, j): (rows, cols)."""
    return periodic_pairs_reference(points, body, domain, gauge_limit)[0].T


def rounds_reference(graph: PackingGraph, rng: np.random.Generator) -> np.ndarray:
    """Local-minimum rounds vertex by vertex: in each round every live vertex
    whose (live degree, place in ``rng.permutation``) is below that of each
    live neighbor joins, then the winners and their neighbors leave."""
    place = {int(v): k for k, v in enumerate(rng.permutation(graph.n))}
    live = set(range(graph.n))
    chosen = []
    while live:
        nbrs = {v: [int(u) for u in graph.neighbors[v] if u in live] for v in live}
        key = {v: (len(nbrs[v]), place[v]) for v in live}
        winners = [v for v in live if all(key[v] < key[u] for u in nbrs[v])]
        chosen += winners
        for v in winners:
            live.discard(v)
            live.difference_update(nbrs[v])
    return np.asarray(sorted(chosen), dtype=np.int64)


def local_search_reference(graph: PackingGraph, seed_set, budget: int) -> np.ndarray:
    """(1,2)-swap local search with a per-neighbor scan for private neighbors."""
    current = set(int(v) for v in seed_set)
    conflicts = np.zeros(graph.n, dtype=np.int64)
    for v in current:
        conflicts[graph.neighbors[v]] += 1
    moves = 0
    improved = True
    while improved and moves < budget:
        improved = False
        for v in sorted(current):
            nb_v = graph.neighbors[v]
            private = [int(u) for u in nb_v if conflicts[u] == 1 and u not in current]
            found = None
            for ai in range(len(private)):
                a = private[ai]
                nb_a = set(graph.neighbors[a].tolist())
                for b in private[ai + 1 :]:
                    if b not in nb_a:
                        found = (a, b)
                        break
                if found:
                    break
            if found is None:
                continue
            a, b = found
            current.remove(v)
            conflicts[nb_v] -= 1
            for u in (a, b):
                current.add(u)
                conflicts[graph.neighbors[u]] += 1
            moves += 1
            improved = True
            if moves >= budget:
                break
    for v in range(graph.n):
        if v not in current and conflicts[v] == 0:
            current.add(v)
            conflicts[graph.neighbors[v]] += 1
    return np.asarray(sorted(current), dtype=np.int64)
