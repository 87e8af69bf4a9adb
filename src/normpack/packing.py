"""Poisson sampling on a flat torus, intersection graphs, and pruning.

The pipeline here mirrors the probabilistic construction: sample
Poisson points (an (n, d) array), connect points whose body translates
intersect (gauge of the minimal-image difference at most 2: torus pairs
from non-periodic KD-tree queries, one per slab of the box cut at
x_0 = L/2, one across that cut and one across each pair of opposite
faces; CSR graph that keeps its points and domain), then remove

* X1: points whose degree exceeds Delta + Delta^(2/3),
* X2: endpoints of pairs whose difference lies in 2 I_K (deep overlap),
* X3: endpoints of pairs outside 2 I_K whose codegree reaches
  codegree_coeff * Delta.

:func:`prune` takes the body from the I_K profile and the domain from
the graph.  By construction the surviving graph satisfies both the
degree and the codegree bound; tests re-verify this by brute force.

The pair queries and the hot-row codegree product run in scipy code that
releases the interpreter lock.  Each runs in two parts (:func:`in_parts`):
when one of :data:`CORE_TOKENS`, one per core, is free, one part runs on
a worker thread; otherwise both run on the caller, one after the other.
A pipeline run holds one token, so two sweep workers on two cores start
no more threads.  The arrays are the same either way.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .bodies import GAUGE_CHUNK, ConvexBody
from .volumetrics import IkProfile, OverlapClassifier, ik_gauge_radius

POINT_CAP = 2_000_000
# relative slack on every pair query radius: keeps pairs at exactly the gauge
# limit despite rounding
QUERY_SLACK = 1e-9
# one token per core this process may run on: a pipeline run holds one for
# its whole length, and :func:`in_parts` borrows one more if it is free.
# Simpler designs lost on the sweep_d2_w2 benchmark (2 cores, median wall
# time, tokens -> design, pairs the design won): a worker thread per call
# 0.089 -> 0.107 s (1 of 10); one shared worker thread 0.089 -> 0.097 s
# (0 of 8); tokens taken per kernel call 0.078 -> 0.096 s (0 of 10).
CORE_TOKENS = threading.BoundedSemaphore(
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


@dataclass(frozen=True)
class TorusDomain:
    """Periodic box [0, L)^d; displacements use the minimal image."""

    d: int
    L: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("need d >= 1")
        if not 0.0 < self.L < math.inf:  # NaN fails this test too
            raise ValueError(f"L must be finite and positive, got {self.L}")

    @property
    def volume(self) -> float:
        return self.L**self.d

    def min_image(self, v: np.ndarray) -> np.ndarray:
        """Coordinate-wise representative of v in (-L/2, L/2]^d, as a new
        array: v - L * round(v / L), then + L where that is <= -L/2."""
        v = np.asarray(v, dtype=float)
        w = np.divide(v, self.L, out=np.empty_like(v))
        np.round(w, out=w)
        w *= self.L
        np.subtract(v, w, out=w)
        w[w <= -0.5 * self.L] += self.L
        return w

    def validate_for_body(self, body: ConvexBody) -> None:
        """No self-wrap: a 2K translate must not meet itself around the torus.

        The floor also covers every pair query of the pipeline: up to gauge 4
        (X2 at g_ik = 2), with its slack, the query radius stays below L/2,
        as :func:`torus_pairs` needs.
        """
        need = 4.0 * body.scaled(2.0).circumradius() * (1.0 + QUERY_SLACK)
        if self.L <= need:
            raise ValueError(f"L={self.L} too small for {body.describe()}: need L > {need:.4g}")


def expected_count(domain: TorusDomain, Delta: float) -> float:
    """2^-d Delta vol(domain), the mean point count of :func:`sample_poisson`;
    a negative Delta, or a count above :data:`POINT_CAP`, raises a ValueError."""
    if Delta < 0:
        raise ValueError("Delta must be nonnegative")
    mean = Delta / 2.0**domain.d * domain.volume
    if mean > POINT_CAP:
        raise ValueError(f"expected count {mean:.3g} exceeds cap {POINT_CAP}")
    return mean


def sample_poisson(domain: TorusDomain, Delta: float, rng: np.random.Generator) -> np.ndarray:
    """(n, d) points in [0, L)^d of a Poisson process with intensity
    2^-d Delta on the domain; its count is checked by :func:`expected_count`."""
    n = int(rng.poisson(expected_count(domain, Delta)))
    return rng.uniform(0.0, domain.L, size=(n, domain.d))


@dataclass
class PackingGraph:
    """Intersection graph over a point set, stored as a CSR adjacency.

    ``adj`` is symmetric with sorted indices, no diagonal and unit data.
    ``edge_gauges`` (U) is the upper triangle of the same pattern, built
    straight from the build's pairs, which come in (i, j) order: entry
    (i, j), i < j, holds the gauge of the edge's minimal-image difference,
    as an explicit entry even when it is 0 (coincident points).  It is None
    on subgraphs and on graphs made straight from an adjacency.  U costs
    12 bytes per edge (a float64 gauge and an int32 column); one symmetric
    adjacency that held the gauges instead measured worse on the
    exact_d3_large benchmark (2 cores, 10 alternating pairs): wall time
    0.0936 -> 0.1000 s (+6.8%, slower in 9 of 10) and peak RSS
    110.7 -> 120.0 MiB (+8.4%, higher in 10 of 10).  The pipeline reads
    the CSR arrays; ``neighbors`` is kept for readers outside it.  The
    threshold and largest codegree of the last :func:`codegree_pairs`
    product are kept until :func:`degree_codegree_stats` has read them.
    """

    points: np.ndarray
    adj: sp.csr_matrix
    domain: TorusDomain
    edge_gauges: sp.csr_matrix | None = None
    _hot_max_codegree: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_pairs(cls, points, pairs, domain: TorusDomain, gauges) -> "PackingGraph":
        """Graph on ``points`` whose edges are the rows (i, j) of ``pairs``,
        with one gauge per pair.

        The pairs must be distinct with i < j and in (i, j) order, as
        :func:`pairs_within_gauge` returns them: they are U's rows and
        columns as they stand, and the gauges become ``edge_gauges``.
        """
        n = len(points)
        i, j = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
        idx = np.int32 if max(n, len(j)) < 2**31 else np.int64
        indptr = np.zeros(n + 1, dtype=idx)
        np.cumsum(np.bincount(i, minlength=n), out=indptr[1:])
        indices = j.astype(idx)
        upper = sp.csr_matrix((np.asarray(gauges, dtype=float), indices, indptr), shape=(n, n))
        # (i, j) order: rows nondecreasing, columns strictly increasing in each
        if not ((i < j).all() and (i[1:] >= i[:-1]).all() and upper.has_canonical_format):
            raise ValueError("pairs must be distinct with i < j, in (i, j) order")
        # the pattern with unit data: sparse + would drop U's explicit zeros;
        # the two triangles share no entry, so the sum's data stays 1
        half = sp.csr_matrix((np.ones(len(j), dtype=np.float32), indices, indptr), shape=(n, n))
        return cls(points=points, adj=half + half.T, domain=domain, edge_gauges=upper)

    @property
    def n(self) -> int:
        return len(self.points)

    @cached_property
    def neighbors(self) -> list:
        """Read-only per-vertex views of the sorted CSR neighbor indices."""
        indices = self.adj.indices.view()
        indices.flags.writeable = False
        ptr = self.adj.indptr.tolist()
        return [indices[a:b] for a, b in zip(ptr[:-1], ptr[1:])]

    def degree(self) -> np.ndarray:
        return np.diff(self.adj.indptr)

    def edge_count(self) -> int:
        return self.adj.nnz // 2

    def subgraph(self, keep_mask: np.ndarray) -> "PackingGraph":
        keep = np.flatnonzero(keep_mask)
        adj = self.adj[keep][:, keep]
        adj.sort_indices()
        return PackingGraph(points=self.points[keep], adj=adj, domain=self.domain)


def in_parts(first, second) -> list:
    """[first(), second()], with ``second`` on a worker thread that holds a
    borrowed core token until it ends, or here after ``first`` when no
    token is free.

    The parts should spend their time in code that releases the
    interpreter lock.  An exception from either part propagates once both
    have ended.
    """
    if not CORE_TOKENS.acquire(blocking=False):
        return [first(), second()]
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
            later = pool.submit(second)
            return [first(), later.result()]
    finally:
        CORE_TOKENS.release()


def torus_pairs(wrapped: np.ndarray, L: float, radius: float, p: float = 2.0) -> np.ndarray:
    """The (m, 2) pairs i < j, in (i, j) order, of rows of ``wrapped`` (points
    in [0, L)^d) within Minkowski p-distance ``radius`` on the torus of
    side L.  Needs 2 radius < L; no periodic tree spans the whole set.

    The box is cut at x_0 = L/2 into two slabs.  One non-periodic KD tree
    per slab finds the pairs inside it whose direct difference is within
    ``radius``: with radius < L/2 that difference is the minimal image.
    A pair with such a difference across the cut has x_0 within radius
    of L/2 at both ends, and one non-periodic query between the bands
    within 2 radius of the cut on either side finds it; the margin keeps
    a pair that the tree accepts on a rounded difference.
    Every other pair crosses a face on some axis k, one end in the high
    band x_k >= L - radius and the other in the low band x_k <= radius.
    A query between the two bands, the low one moved by +L along k, with
    axis k not periodic and the others periodic, finds those pairs.  A
    pair is kept at the first axis it crosses: band k drops it when its
    direct difference exceeds L/2 on an earlier axis.  So no pair is found
    twice.  The queries run in two parts (:func:`in_parts`): one slab with
    the odd face bands, the other with the cut and the even ones.
    """
    if not 2.0 * radius < L:
        raise ValueError(f"pair radius {radius:.9g} needs 2 * radius < L = {L:.9g}")
    n, d = wrapped.shape
    x0, mid = wrapped[:, 0], 0.5 * L
    low = x0 < mid

    def direct(idx):
        """Codes of the pairs among rows ``idx`` within radius."""
        tree = cKDTree(wrapped[idx], balanced_tree=False, compact_nodes=False)
        i, j = tree.query_pairs(radius, p=p, output_type="ndarray").T
        return idx[i] * n + idx[j]

    def across(a, b, k=None):
        """Codes of the pairs (a[s], b[t]) within radius; with an axis k, of
        b moved by +L along k, the other axes periodic."""
        box, moved = None, wrapped[b]
        if k is not None:
            box = np.full(d, L)
            box[k] = 0.0  # not periodic along k
            moved[:, k] += L
        near = cKDTree(wrapped[a], boxsize=box).sparse_distance_matrix(
            cKDTree(moved, boxsize=box), radius, p=p, output_type="ndarray"
        )
        a, b = a[near["i"]], b[near["j"]]
        if k:
            first = (np.abs(wrapped[a, :k] - wrapped[b, :k]) <= 0.5 * L).all(axis=1)
            a, b = a[first], b[first]
        return np.minimum(a, b) * n + np.maximum(a, b)

    def face(k):
        return across(np.flatnonzero(wrapped[:, k] >= L - radius), np.flatnonzero(wrapped[:, k] <= radius), k)

    def cut():
        near = np.abs(x0 - mid) <= 2 * radius
        return across(np.flatnonzero(low & near), np.flatnonzero(~low & near))

    parts = in_parts(
        lambda: [direct(np.flatnonzero(~low)), *map(face, range(1, d, 2))],
        lambda: [direct(np.flatnonzero(low)), cut(), *map(face, range(0, d, 2))],
    )
    codes = np.concatenate([c for part in parts for c in part])
    del parts
    codes.sort()
    pairs = np.empty((2, len(codes)), dtype=np.int64)
    np.divmod(codes, n, out=(pairs[0], pairs[1]))
    return pairs.T  # each column contiguous


def pairs_within_gauge(
    points: np.ndarray, body: ConvexBody, domain: TorusDomain, gauge_limit: float
) -> tuple[np.ndarray, np.ndarray]:
    """(pairs, gauges): the (m, 2) pairs i < j, in (i, j) order, whose
    minimal-image difference has gauge at most ``gauge_limit``, and those
    m gauges.

    :func:`torus_pairs` finds the candidates, with no periodic tree: for an
    lp body with p in {1, 2, inf}, those within lp distance
    ``gauge_limit * scale``, which is the gauge itself; otherwise those
    within Euclidean distance ``gauge_limit * circumradius``.  The gauge
    filter then runs on the original coordinates, so the result does not
    depend on the query.  The query alone sees coordinates wrapped into
    [0, L), so points outside the box are accepted.
    """
    points = np.asarray(points, dtype=float)
    wrapped = points % domain.L
    wrapped[wrapped >= domain.L] = 0.0  # -1e-17 % L rounds to L
    if body.kind == "lp" and body.p in (1.0, 2.0, math.inf):
        # the KD tree has its own distance for these p; any other p costs a
        # pow per coordinate, ~4x the Euclidean query at d = 2..4
        p, radius = body.p, gauge_limit * body.scale
    else:
        p, radius = 2.0, gauge_limit * body.circumradius()
    pairs = torus_pairs(wrapped, domain.L, radius * (1.0 + QUERY_SLACK), p)
    i, j = pairs.T  # contiguous columns gather faster
    g = np.empty(len(pairs))
    for s in range(0, len(pairs), GAUGE_CHUNK):
        batch = slice(s, s + GAUGE_CHUNK)
        diff = points.take(i[batch], axis=0) - points.take(j[batch], axis=0)
        g[batch] = body.gauge(domain.min_image(diff))
    within = g <= gauge_limit
    if within.all():
        return pairs, g
    return np.array([i[within], j[within]]).T, g[within]


def edges_within_gauge(graph: PackingGraph, body: ConvexBody, gauge_limit: float) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols): the pairs i < j of the graph's points, in (i, j)
    order, whose minimal-image difference has gauge at most
    ``gauge_limit``.

    Up to gauge 2 these are edges, read off the build's ``edge_gauges``
    (CSR rows come in (i, j) order); beyond it :func:`pairs_within_gauge`
    finds them.
    """
    if gauge_limit > 2.0:
        return pairs_within_gauge(graph.points, body, graph.domain, gauge_limit)[0].T
    U = graph.edge_gauges
    if U is None:
        raise ValueError("the graph carries no edge gauges: build it with build_graph")
    at = np.flatnonzero(U.data <= gauge_limit)
    rows = np.searchsorted(U.indptr, at, side="right") - 1
    return rows, U.indices[at].astype(np.int64)


def build_graph(points: np.ndarray, body: ConvexBody, domain: TorusDomain) -> PackingGraph:
    """Intersection graph on the (n, d) ``points``: edge iff
    gauge(min image(x - y)) <= 2.

    Edges are the torus pairs within gauge 2, in (i, j) order; the graph
    is stored as a CSR adjacency and keeps their gauges as
    ``edge_gauges``.
    """
    domain.validate_for_body(body)
    pts = np.asarray(points, dtype=float)
    pairs, gauges = pairs_within_gauge(pts, body, domain, 2.0)
    return PackingGraph.from_pairs(pts, pairs, domain, gauges)


@dataclass(frozen=True)
class PruneReport:
    """Removal accounting for one prune pass.

    ``removed_x1/x2/x3`` count first-matching rule per vertex (rules
    ordered X1, X2, X3); ``removed_union`` is the size of the union.
    ``expected_sizes`` carries the theoretical expectation bounds for
    comparison (vacuous bounds reported as n).
    """

    n_initial: int
    removed_x1: int
    removed_x2: int
    removed_x3: int
    removed_union: int
    retained: int
    boundary_pairs: int
    expected_sizes: dict = field(default_factory=dict)


def _expectation_bounds(n, d, Delta, vol_ik, delta, coeff) -> dict:
    x1 = n * math.exp(-(max(Delta, 1.0) ** (2.0 / 3.0) - 1.0) / 3.0)
    x2 = n * min(1.0, Delta * vol_ik)
    m = delta * Delta  # codegree mean bound for pairs outside 2I
    k = coeff * Delta
    s3_tail = math.exp(-(k - m) / 3.0) if k >= 2.0 * m else 1.0
    s3 = min(float(n), n * 2.0**d * Delta * s3_tail)
    return {"x1_bound": x1, "x2_bound": x2, "s3_bound": s3}


def prune(
    graph: PackingGraph,
    ik: IkProfile,
    Delta: float,
    codegree_coeff: float,
    rng: np.random.Generator | None = None,
) -> tuple[PackingGraph, PruneReport]:
    """Apply the X1/X2/X3 removal rules and return the pruned graph.

    The body is the one ``ik`` was estimated for, the domain the graph's.
    Membership of a pair difference in 2 I_K is decided by the
    threshold test f((y - x)/2) > delta; boundary-ambiguous Monte Carlo
    classifications count as inside (removal), keeping the codegree
    guarantee sound.  Marking is a read-only pass over the original
    graph; the sweep rebuilds the subgraph afterwards.
    """
    body, domain = ik.body, graph.domain
    n = graph.n
    pts = graph.points
    clf = OverlapClassifier(body, ik.delta, rng)
    deg = graph.degree()
    mark_x1 = deg > Delta + Delta ** (2.0 / 3.0)

    # X2: endpoints of pairs with difference in 2I (f of half-difference > delta),
    # among the pairs within gauge 2 g_ik, sorted by (i, j)
    mark_x2 = np.zeros(n, dtype=bool)
    gi = gj = np.empty(0, dtype=np.int64)
    x2_inside = np.empty(0, dtype=bool)
    g_ik = ik_gauge_radius(body, ik.delta)
    if g_ik > 0.0:
        gi, gj = edges_within_gauge(graph, body, 2.0 * g_ik)
        if len(gi):
            x2_inside = clf.inside(domain.min_image(pts[gj] - pts[gi]) / 2.0)
            mark_x2[gi[x2_inside]] = mark_x2[gj[x2_inside]] = True

    # X3: pairs outside 2I with codegree >= coeff * Delta.  Pairs X2 already
    # classified reuse its decision; the rest go to the classifier in one batch.
    mark_x3 = np.zeros(n, dtype=bool)
    hi, hj, _ = codegree_pairs(graph, codegree_coeff * Delta)
    x2_codes, hot_codes = gi * n + gj, hi * n + hj  # X2 pairs are sorted by (i, j)
    known = np.isin(hot_codes, x2_codes)
    inside = np.empty(len(hi), dtype=bool)
    inside[known] = x2_inside[np.searchsorted(x2_codes, hot_codes[known])]
    new = ~known
    if new.any():
        inside[new] = clf.inside(domain.min_image(pts[hj[new]] - pts[hi[new]]) / 2.0)
    mark_x3[hi[~inside]] = mark_x3[hj[~inside]] = True

    removed = mark_x1 | mark_x2 | mark_x3
    first_x1 = int(mark_x1.sum())
    first_x2 = int((mark_x2 & ~mark_x1).sum())
    first_x3 = int((mark_x3 & ~mark_x1 & ~mark_x2).sum())
    pruned = graph.subgraph(~removed)
    report = PruneReport(
        n_initial=n,
        removed_x1=first_x1,
        removed_x2=first_x2,
        removed_x3=first_x3,
        removed_union=int(removed.sum()),
        retained=pruned.n,
        boundary_pairs=clf.boundary_count,
        expected_sizes=_expectation_bounds(n, body.d, Delta, ik.vol_ik, ik.delta, codegree_coeff),
    )
    return pruned, report


def _hot_codegrees(graph: PackingGraph, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(hot, row, col, count): the vertices of degree at least ``t``, and
    the entries of B B^T, row by row, for B the rows of A at those vertices.

    The off-diagonal entries are the codegrees of the hot pairs.  The
    product still sums over every vertex, so each count is exact; A^2 over
    all rows is never formed.  It runs as two blocks of B's rows
    (:func:`in_parts`); each block's rows are those of the whole product,
    and their entries are joined end to end.
    """
    hot = np.flatnonzero(graph.degree() >= t)
    B = graph.adj[hot]
    BT = B.T.tocsr()
    m = len(hot) // 2
    blocks = in_parts(lambda: B[:m] @ BT, lambda: B[m:] @ BT)
    row = np.repeat(np.arange(len(hot)), np.concatenate([np.diff(C.indptr) for C in blocks]))
    return hot, row, np.concatenate([C.indices for C in blocks]), np.concatenate([C.data for C in blocks])


def codegree_pairs(graph: PackingGraph, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairs i < j with codegree at least ``t`` (floored at 1), sorted by
    (i, j): (rows, cols, codegrees).

    Both endpoints of such a pair have degree at least t, so
    :func:`_hot_codegrees` at t holds them all.  The graph keeps t and the
    largest codegree of that product for :func:`degree_codegree_stats`.
    """
    t = max(t, 1)
    hot, row, col, count = _hot_codegrees(graph, t)
    upper = row < col
    graph._hot_max_codegree = (t, int(count[upper].max(initial=0)))
    keep = upper & (count >= t)
    rows, cols = hot[row[keep]], hot[col[keep]]
    order = np.argsort(rows * graph.n + cols)  # unique codes: (i, j) order
    return rows[order], cols[order], count[keep][order].astype(np.int64)


def _max_hot_codegree(graph: PackingGraph, t: float) -> int:
    """Largest codegree among the pairs of vertices of degree >= t (0 if none)."""
    _, row, col, count = _hot_codegrees(graph, t)
    return int(count[row != col].max(initial=0))


def degree_codegree_stats(graph: PackingGraph) -> dict:
    """Degree histogram plus max degree/codegree diagnostics.

    The maximum codegree M comes from at most two products over the rows
    of degree at least a threshold.  The first is the product of the last
    :func:`codegree_pairs` call, whose threshold s and largest codegree the
    graph keeps, when s is at most the 90th percentile t of the degrees
    (floored at 1), and otherwise a new one at s = t; the graph forgets the
    kept values here.  The largest
    codegree m1 of the first product is a real pair, so m1 <= M.  Every
    pair of codegree >= s lies among its vertices, so M = m1 once
    m1 + 1 >= s.  Otherwise M < s, and a second product over the vertices
    of degree >= m1 + 1 holds every pair that beats m1.
    """
    deg = graph.degree()
    kept, graph._hot_max_codegree = graph._hot_max_codegree, None
    if graph.n == 0:
        return {"n": 0, "max_degree": 0, "mean_degree": 0.0, "max_codegree": 0, "degree_histogram": {}}
    t = max(np.quantile(deg, 0.9), 1)
    s, max_codeg = kept if kept is not None and kept[0] <= t else (t, _max_hot_codegree(graph, t))
    if max_codeg + 1 < s:
        max_codeg = max(max_codeg, _max_hot_codegree(graph, max_codeg + 1))
    hist = {int(k): int(v) for k, v in zip(*np.unique(deg, return_counts=True))}
    return {
        "n": graph.n,
        "max_degree": int(deg.max()),
        "mean_degree": float(deg.mean()),
        "max_codegree": max_codeg,
        "degree_histogram": hist,
    }
