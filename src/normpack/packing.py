"""Poisson sampling on a flat torus, intersection graphs, and pruning.

The pipeline here mirrors the probabilistic construction: sample
Poisson points (an (n, d) array), connect points whose body translates
intersect (gauge of the minimal-image difference at most 2: torus pairs
from non-periodic KD-tree queries, one per slab of the box cut at
x_0 = L/2, one across that cut and one across each pair of opposite
faces; CSR graph that keeps its points and domain), then remove

* X1: points whose degree exceeds Delta + Delta^(2/3),
* X2: endpoints of pairs whose difference lies in 2 I_K, or in twice a
  region that holds I_K (deep overlap; :class:`OverlapClassifier`),
* X3: endpoints of pairs whose codegree reaches codegree_coeff * Delta
  (the paper's pairs outside 2 I_K: X2 holds both ends of one inside).

:func:`prune` takes the body from the I_K profile and the domain from
the graph.  By construction the surviving graph satisfies both the
degree and the codegree bound; tests re-verify this by brute force.

The pair queries and the hot-row codegree product run in scipy code that
releases the interpreter lock.  Each passes the work it is about to do to
``bodies.in_parts``: the query its expected pair count, the product the
nonzeros of its rows.  From the caller's crossover (``SPLIT_PAIRS``,
``SPLIT_NONZEROS``), and when one of the core tokens, one per core, is
free, one part runs on a worker thread; otherwise both run on the caller,
one after the other, and below its crossover the product runs as one.  A
pipeline run holds one token, so two sweep workers on two cores start no
more threads.  The arrays are the same either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .bodies import GAUGE_CHUNK, SPLIT_NONZEROS, SPLIT_PAIRS, ConvexBody, in_parts
from .volumetrics import IkProfile, OverlapClassifier

POINT_CAP = 2_000_000
# relative slack on every pair query radius: keeps pairs at exactly the gauge
# limit despite rounding
QUERY_SLACK = 1e-9


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

    ``adj`` is symmetric with sorted indices, no diagonal and 1-byte unit
    data (int8): 5 bytes per entry, so the graph keeps about 10 bytes per
    edge.  Products that count (:func:`_hot_codegrees`) cast it wider
    first.  A built graph also carries ``near_codes``: the sorted codes
    i n + j of its edges at gauge at most ``near_gauge``, X2's candidates,
    which :func:`build_graph` picks out in its gauge pass (8 bytes per
    such edge, a small share of them).  Both are None on graphs made any
    other way.  The pipeline reads the CSR arrays, in blocks of whole rows
    (:func:`row_blocks`) where a gather would copy a per-entry index:
    :meth:`subgraph` holds about 9 bytes per edge of the graph it reads
    beside it, the subgraph included.  ``neighbors`` is kept for readers
    outside the pipeline.
    """

    points: np.ndarray
    adj: sp.csr_matrix
    domain: TorusDomain
    near_gauge: float | None = None
    near_codes: np.ndarray | None = None

    @classmethod
    def from_pairs(cls, points, codes: np.ndarray, domain: TorusDomain) -> "PackingGraph":
        """Graph on the n ``points`` from the edges (i, j) as codes i n + j,
        as :func:`torus_pairs` and :func:`pairs_within_gauge` give them.

        The codes must lie in [0, n^2) and strictly increase, so that the
        pairs are distinct and in (i, j) order, and each must have i < j:
        the upper triangle takes its rows and columns from them as they
        stand.  They are let go once its columns are made; a caller that
        passes them in without keeping them frees them before ``adj`` is
        assembled.
        """
        codes = np.asarray(codes, dtype=np.int64).reshape(-1)
        n, m = len(points), len(codes)
        if m and not (codes[0] >= 0 and codes[-1] < n * n and (codes[1:] > codes[:-1]).all()):
            raise ValueError("pairs must be distinct with i < j, in (i, j) order")
        idx = np.int32 if max(n, m) < 2**31 else np.int64
        indptr = np.searchsorted(codes, np.arange(n + 1) * n).astype(idx)  # row i: codes in [i n, (i + 1) n)
        indices = np.empty(m, dtype=idx)
        np.remainder(codes, n, out=indices, casting="unsafe")  # in buffered chunks: no int64 copy
        del codes
        # each row's columns increase, so i < j holds when it holds for the first
        starts, filled = indptr[:-1], np.flatnonzero(np.diff(indptr))
        if not (indices[starts[filled]] > filled).all():
            raise ValueError("pairs must be distinct with i < j, in (i, j) order")
        # the two triangles share no entry, so the sum's data stays 1
        half = sp.csr_matrix((np.ones(m, dtype=np.int8), indices, indptr), shape=(n, n))
        return cls(points=points, adj=half + half.T, domain=domain)

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
        """The graph induced on the vertices in ``keep_mask``, numbered in
        order: its adjacency is ``adj[keep][:, keep]`` with sorted indices,
        and it carries no ``near_codes``.

        The adjacency is symmetric, so the removed rows alone say how many
        neighbors each kept vertex loses, and the new ``indptr`` is known
        before a kept row is read.  The kept rows are then read in blocks of
        :func:`row_blocks` and their kept columns, renumbered, are written
        into the preallocated arrays.  Beside the graph it reads and the one
        it returns (5 bytes per kept entry, about 10 per kept edge), it holds
        n-sized arrays and one block's temporaries.  The data is the unit
        int8 of every :class:`PackingGraph`.
        """
        keep_mask = np.asarray(keep_mask, dtype=bool)
        adj, n = self.adj, self.n
        ptr, cols = adj.indptr, adj.indices
        deg = np.diff(ptr)
        keep, removed = np.flatnonzero(keep_mask), np.flatnonzero(~keep_mask)
        new = np.full(n, -1, dtype=cols.dtype)  # each kept vertex's new number, -1 if removed
        new[keep] = np.arange(len(keep), dtype=cols.dtype)
        lost = np.zeros(n, dtype=np.int64)
        for a, b in row_blocks(deg[removed]):
            lost += np.bincount(adj[removed[a:b]].indices, minlength=n)
        indptr = np.zeros(len(keep) + 1, dtype=ptr.dtype)
        np.cumsum(deg[keep] - lost[keep], out=indptr[1:])
        del lost
        indices = np.empty(indptr[-1], dtype=cols.dtype)
        at = 0
        for a, b in row_blocks(deg):
            renamed = new.take(cols[ptr[a] : ptr[b]])  # numpy copies an int32 index to int64 first: one block's worth
            kept = renamed >= 0
            kept &= np.repeat(keep_mask[a:b], deg[a:b])
            k = at + np.count_nonzero(kept)
            np.compress(kept, renamed, out=indices[at:k])  # unlike renamed[kept], no slower on a random mask
            at = k
        data = np.ones(len(indices), dtype=adj.dtype)
        sub = sp.csr_matrix((data, indices, indptr), shape=(len(keep), len(keep)))
        sub.has_sorted_indices = True  # renumbering keeps the order of adj's sorted rows
        return PackingGraph(points=self.points[keep], adj=sub, domain=self.domain)


def row_blocks(counts: np.ndarray):
    """Yield the bounds (a, b) of consecutive runs of the rows with
    ``counts`` entries each, in order: a run holds at most
    :data:`GAUGE_CHUNK` entries, or is one row that holds more."""
    ends = np.cumsum(counts)
    a = 0
    while a < len(ends):
        start = ends[a] - counts[a]
        b = max(int(np.searchsorted(ends, start + GAUGE_CHUNK, side="right")), a + 1)
        yield a, b
        a = b


def expected_pairs(n: int, d: int, L: float, radius: float, p: float = 2.0) -> float:
    """Mean count of the pairs among n uniform points on the torus [0, L)^d
    within Minkowski p-distance ``radius`` < L/2: n (n - 1) / 2 times the
    share of the torus that the lp ball of that radius fills."""
    ball = math.exp(d * math.log(2.0) + d * math.lgamma(1.0 + 1.0 / p) - math.lgamma(1.0 + d / p))
    return 0.5 * n * (n - 1) * ball * (radius / L) ** d


def torus_pairs(wrapped: np.ndarray, L: float, radius: float, p: float = 2.0) -> np.ndarray:
    """The sorted int64 codes i n + j of the pairs i < j of the n rows of
    ``wrapped`` (points in [0, L)^d) within Minkowski p-distance ``radius``
    on the torus of side L: the pairs in (i, j) order, 8 bytes each.
    Needs 2 radius < L; no periodic tree spans the whole set.

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
    twice.  The queries run in two parts (:func:`in_parts`), one slab with
    the odd face bands, the other with the cut and the even ones, split
    from :data:`SPLIT_PAIRS` expected pairs (:func:`expected_pairs`).
    Below that both run here, one after the other: one query over the
    whole box would hold a transient buffer twice as large.
    """
    if not 2.0 * radius < L:
        raise ValueError(f"pair radius {radius:.9g} needs 2 * radius < L = {L:.9g}")
    n, d = wrapped.shape
    x0, mid = wrapped[:, 0], 0.5 * L
    low = x0 < mid

    def tree(rows, box=None):  # unbalanced, not compact: quicker to build, no slower to query here
        return cKDTree(rows, boxsize=box, balanced_tree=False, compact_nodes=False)

    def direct(idx):
        """Codes of the pairs among rows ``idx`` within radius."""
        i, j = tree(wrapped[idx]).query_pairs(radius, p=p, output_type="ndarray").T
        return idx[i] * n + idx[j]

    def across(a, b, k=None):
        """Codes of the pairs (a[s], b[t]) within radius; with an axis k, of
        b moved by +L along k, the other axes periodic."""
        box, moved = None, wrapped[b]
        if k is not None:
            box = np.full(d, L)
            box[k] = 0.0  # not periodic along k
            moved[:, k] += L
        near = tree(wrapped[a], box).sparse_distance_matrix(tree(moved, box), radius, p=p, output_type="ndarray")
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
        expected_pairs(n, d, L, radius, p),
        SPLIT_PAIRS,
        lambda: [direct(np.flatnonzero(~low)), *map(face, range(1, d, 2))],
        lambda: [direct(np.flatnonzero(low)), cut(), *map(face, range(0, d, 2))],
    )
    codes = np.concatenate([c for part in parts for c in part])
    del parts
    codes.sort()
    return codes


def pairs_within_gauge(
    points: np.ndarray, body: ConvexBody, domain: TorusDomain, gauge_limit: float
) -> tuple[np.ndarray, np.ndarray]:
    """(codes, gauges): the sorted codes i n + j, n = len(points), of the
    pairs i < j whose minimal-image difference has gauge at most
    ``gauge_limit``, and those gauges.

    :func:`torus_pairs` finds the candidates, with no periodic tree: for an
    lp body with p in {1, 2, inf}, those within lp distance
    ``gauge_limit * scale``, which is the gauge itself; otherwise those
    within Euclidean distance ``gauge_limit * circumradius``.  The gauge
    filter then runs on the original coordinates, so the result does not
    depend on the query.  The query alone sees coordinates wrapped into
    [0, L), so points outside the box are accepted.  Each chunk of codes
    is split into (i, j) by itself, so no (m, 2) pair array is formed.
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
    codes = torus_pairs(wrapped, domain.L, radius * (1.0 + QUERY_SLACK), p)
    del wrapped
    g = np.empty(len(codes))
    for s in range(0, len(codes), GAUGE_CHUNK):
        batch = slice(s, s + GAUGE_CHUNK)
        i, j = np.divmod(codes[batch], len(points))
        g[batch] = body.gauge(domain.min_image(points.take(i, axis=0) - points.take(j, axis=0)))
    within = g <= gauge_limit
    if within.all():
        return codes, g
    return codes[within], g[within]


def edges_within_gauge(graph: PackingGraph, body: ConvexBody, gauge_limit: float) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols): the pairs i < j of the graph's points, in (i, j)
    order, whose minimal-image difference has gauge at most
    ``gauge_limit``.

    At the graph's ``near_gauge`` these are its ``near_codes``, which the
    build picked out under the same body; at any other limit
    :func:`pairs_within_gauge` finds them.
    """
    if graph.near_codes is not None and graph.near_gauge == gauge_limit:
        codes = graph.near_codes
    else:
        codes = pairs_within_gauge(graph.points, body, graph.domain, gauge_limit)[0]
    return np.divmod(codes, graph.n)


def build_graph(
    points: np.ndarray, body: ConvexBody, domain: TorusDomain, near_gauge: float | None = None
) -> PackingGraph:
    """Intersection graph on the (n, d) ``points``: edge iff
    gauge(min image(x - y)) <= 2.

    Edges are the torus pairs within gauge 2, in (i, j) order, and the
    graph is stored as a CSR adjacency (:class:`PackingGraph`).  With a
    ``near_gauge`` of at most 2, the gauge pass also keeps the codes of the
    edges within it as the graph's ``near_codes``: prune reads X2's
    candidates there at 2 g_ik.  The graph keeps about 10 bytes per edge,
    and the build's traced peak is about 20: the codes (8) are freed once
    the upper triangle's columns (4) are made, and ``adj`` (10) is summed
    from that triangle and its transpose (5 and 5).
    """
    domain.validate_for_body(body)
    pts = np.asarray(points, dtype=float)
    codes, gauges = pairs_within_gauge(pts, body, domain, 2.0)
    if near_gauge is not None and near_gauge > 2.0:
        near_gauge = None  # pairs beyond gauge 2 are not edges
    near = None if near_gauge is None else codes[gauges <= near_gauge]
    del gauges
    # hand the codes over with no reference left here, so that from_pairs
    # frees them before adj is assembled
    handoff = [codes]
    del codes
    graph = PackingGraph.from_pairs(pts, handoff.pop(), domain)
    return replace(graph, near_gauge=near_gauge, near_codes=near)


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
    rng: np.random.Generator,
    mc_samples: int,
) -> tuple[PackingGraph, PruneReport]:
    """Apply the X1/X2/X3 removal rules and return the pruned graph.

    The body is the one ``ik`` was estimated for, the domain the graph's.
    A pair is deep when :class:`OverlapClassifier`, given ``rng`` and
    ``mc_samples`` for its Cauchy estimates, puts its half-difference
    inside; that region holds I_K, so the codegree guarantee stays sound.
    X3 reads every pair at the codegree threshold with an end that X1 and
    X2 leave off the hot-row product over those ends' rows, inside 2 I_K
    or not, and nothing else of X2: both ends of a pair inside are in X2
    already, so counts and survivors are the paper's.
    Marking is a read-only pass over the original graph; the sweep
    rebuilds the subgraph afterwards.
    """
    body, domain = ik.body, graph.domain
    n = graph.n
    pts = graph.points
    clf = OverlapClassifier(ik, rng, mc_samples)
    deg = graph.degree()
    mark_x1 = deg > Delta + Delta ** (2.0 / 3.0)

    # X2: endpoints of pairs whose half-difference the classifier puts inside,
    # among the pairs within gauge 2 g_ik
    mark_x2 = np.zeros(n, dtype=bool)
    gi, gj = edges_within_gauge(graph, body, 2.0 * ik.gauge_radius)
    x2_inside = clf.inside(domain.min_image(pts[gj] - pts[gi]) / 2.0)
    mark_x2[gi[x2_inside]] = mark_x2[gj[x2_inside]] = True

    # X3: endpoints of pairs with codegree >= max(coeff * Delta, 1); both are
    # hot.  The product's rows are the hot vertices X1 and X2 leave, its
    # columns every hot one, so each such end marks itself from its own row;
    # the removed ends need no mark
    t = max(codegree_coeff * Delta, 1)
    hot, row, col, count = _hot_codegrees(graph, t, ~(mark_x1 | mark_x2))
    mark_x3 = np.zeros(n, dtype=bool)
    mark_x3[hot[row[(row != col) & (count >= t)]]] = True
    del hot, row, col, count  # the product's entries: freed before the subgraph is built

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


def _hot_codegrees(
    graph: PackingGraph, t: float, rows: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(hot, row, col, count): the vertices of degree at least ``t``, and
    the entries of B H^T, row by row, for H the rows of A at those vertices
    and B those of H at the vertices in the mask ``rows`` (all of H without
    one).  ``row`` and ``col`` are places in ``hot``.

    The entries off the diagonal (row != col) are the codegrees of the hot
    pairs with a row end in B.  The product still sums over every vertex,
    so each count is exact; A^2 over all rows is never formed.  The 1-byte
    adjacency is cast to int32 first: a count is at most n, below 2^31.
    From :data:`SPLIT_NONZEROS` nonzeros of B on it runs as two blocks of
    B's rows (:func:`in_parts`) over views of B's arrays (:func:`_rows`);
    each block's rows are those of the whole product, and their entries
    are joined end to end.  Fewer nonzeros take one product on the caller.
    """
    hot = np.flatnonzero(graph.degree() >= t)
    H = graph.adj[hot].astype(np.int32)
    HT = H.T.tocsr()
    at = np.arange(len(hot)) if rows is None else np.flatnonzero(rows[hot])
    B = H if rows is None else H[at]
    del H  # a masked product keeps only its own rows
    if B.nnz < SPLIT_NONZEROS:  # both blocks would run here: one product
        blocks = [B @ HT]
    else:
        m = len(at) // 2
        blocks = in_parts(B.nnz, SPLIT_NONZEROS, lambda: _rows(B, 0, m) @ HT, lambda: _rows(B, m, len(at)) @ HT)
    row = np.repeat(at, np.concatenate([np.diff(C.indptr) for C in blocks]))
    return hot, row, np.concatenate([C.indices for C in blocks]), np.concatenate([C.data for C in blocks])


def _rows(M: sp.csr_matrix, a: int, b: int) -> sp.csr_matrix:
    """Rows a..b-1 of ``M`` over views of its ``indices`` and ``data``, with
    a rebased ``indptr``: no copy of the entries, which slicing ``M[a:b]``
    makes and the constructor makes of a view under half its base."""
    s, e = M.indptr[a], M.indptr[b]
    block = sp.csr_matrix((b - a, M.shape[1]), dtype=M.dtype)
    block.indptr, block.indices, block.data = M.indptr[a : b + 1] - s, M.indices[s:e], M.data[s:e]
    return block


def _max_hot_codegree(graph: PackingGraph, t: float) -> int:
    """Largest codegree among the pairs of vertices of degree >= t (0 if none)."""
    _, row, col, count = _hot_codegrees(graph, t)
    return int(count[row != col].max(initial=0))


def degree_codegree_stats(graph: PackingGraph) -> dict:
    """Degree histogram plus max degree/codegree diagnostics.

    The maximum codegree M comes from a descent of products over the rows
    of degree at least s, from the maximum degree down.  A pair with an
    endpoint of degree below s has codegree at most s - 1, so the largest
    codegree m of the product at s is M once m >= s - 1.  Otherwise s
    falls to max(m + 1, s - step), the step doubling each time; at m + 1
    the test holds.  So O(log(max degree)) products find M.
    """
    deg = graph.degree()
    if graph.n == 0:
        return {"n": 0, "max_degree": 0, "mean_degree": 0.0, "max_codegree": 0, "degree_histogram": {}}
    s, step = max(int(deg.max()), 1), 1
    while (max_codeg := _max_hot_codegree(graph, s)) < s - 1:
        s, step = max(max_codeg + 1, s - step), 2 * step
    hist = {int(k): int(v) for k, v in zip(*np.unique(deg, return_counts=True))}
    return {
        "n": graph.n,
        "max_degree": int(deg.max()),
        "mean_degree": float(deg.mean()),
        "max_codegree": max_codeg,
        "degree_histogram": hist,
    }
