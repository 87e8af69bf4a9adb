"""Independent-set extraction and packing verification.

Local-minimum rounds keyed by live degree stand in for the existential
graph-theoretic bound; the verifier re-derives disjointness from raw
coordinates.  The pipeline calls neither :func:`is_independent` nor
:func:`local_search_improve`; the benchmark's tracer looks both up by name.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bodies import ConvexBody
from .packing import PackingGraph, TorusDomain, pairs_within_gauge, row_blocks

DISJOINT_TOL = 1e-12


class OverlapError(Exception):
    """Two packing centers overlap; carries the offending pair."""

    def __init__(self, i: int, j: int, gauge_value: float):
        self.pair = (i, j)
        self.gauge_value = gauge_value
        super().__init__(f"centers {i} and {j} overlap: gauge {gauge_value:.6g} < 2")


def greedy_independent_set(graph: PackingGraph, rng: np.random.Generator) -> np.ndarray:
    """Maximal independent set by local-minimum rounds, sorted: each round,
    every live vertex whose (live degree, place in one ``rng.permutation``)
    is below all its live neighbors' joins, and it and its neighbors leave.
    A winner's live degree is at most each removed neighbor's, so the set
    meets the Caro–Wei bound sum_v 1/(deg v + 1) >= n/(max degree + 1).

    The pair is one key, degree n + place: int32 while (max degree + 1) n
    < 2^31.  Round one reads the CSR rows in blocks of :func:`row_blocks`,
    where a vertex wins when its key is below each neighbor's; a second
    pass keeps the edges i < j whose ends are both still live, and the
    later rounds run on that smaller list.  Beside the graph it holds
    n-sized arrays, one block's temporaries and that list (8 bytes per
    live edge) with each round's temporaries: about 11 traced bytes per
    edge of the graph at d = 3, where about 40% of the edges are left
    after round one.
    """
    n = graph.n
    ptr, cols = graph.adj.indptr, graph.adj.indices
    deg = np.diff(ptr)
    key_type = np.int32 if (int(deg.max(initial=0)) + 1) * n < 2**31 else np.int64
    place = np.empty(n, dtype=key_type)
    place[rng.permutation(n)] = np.arange(n, dtype=key_type)
    key = deg.astype(key_type)
    key *= n
    key += place
    chosen, live = np.zeros(n, dtype=bool), np.ones(n, dtype=bool)
    blocks = list(row_blocks(deg))
    for a, b in blocks:
        nb, has = cols[ptr[a] : ptr[b]], deg[a:b] > 0
        w = ~has  # an isolated vertex wins
        if len(nb):
            # numpy copies an int32 index to int64 first: one block's worth
            w[has] = key[a:b][has] < np.minimum.reduceat(key.take(nb), (ptr[a:b] - ptr[a])[has])
        chosen[a:b] = w
        live[nb[np.repeat(w, deg[a:b])]] = False  # a winner's neighbors leave
    live &= ~chosen
    ei, ej = [], []  # the edges i < j between live vertices, in (i, j) order
    for a, b in blocks:
        nb = cols[ptr[a] : ptr[b]]
        rows = np.repeat(np.arange(a, b, dtype=cols.dtype), deg[a:b])
        both = nb > rows
        both &= live.take(nb)
        both &= np.repeat(live[a:b], deg[a:b])
        ei.append(rows[both])
        ej.append(nb[both])
    ei = np.concatenate([*ei, cols[:0]])  # one list at a time: the lists and one whole array at the peak
    ej = np.concatenate([*ej, cols[:0]])
    while len(ei):
        deg = np.bincount(ei, minlength=n)
        deg += np.bincount(ej, minlength=n)
        key = deg.astype(key_type)
        key *= n
        key += place
        larger = key.take(ej) > key.take(ei)
        loser, other = np.where(larger, ej, ei), np.where(larger, ei, ej)  # each edge's larger key, and its smaller
        del larger
        win = live.copy()
        win[loser] = False
        chosen |= win
        live ^= win
        # a winner is the smaller end of each of its edges; the other end leaves
        live[loser[win.take(other)]] = False
        del loser, other
        alive = live.take(ei)
        alive &= live.take(ej)
        ei, ej = ei[alive], ej[alive]
    return np.flatnonzero(chosen | live)  # what is still live has no live neighbor


def is_independent(graph: PackingGraph, vertices) -> bool:
    """True when no edge of ``graph`` joins two of ``vertices`` (an iterable
    of vertex indices; repeats allowed)."""
    idx = np.fromiter(vertices, dtype=np.int64)
    chosen = np.zeros(graph.n, dtype=bool)
    chosen[idx] = True
    # the neighbors listed in the CSR rows of the chosen vertices
    return not chosen[graph.adj[idx].indices].any()


def local_search_improve(graph: PackingGraph, seed_set, budget: int) -> np.ndarray:
    """(1,2)-swap local search: replace one vertex by two of its private
    neighbors when they are mutually non-adjacent, then add every vertex
    left free.  Returns the set sorted.

    Never shrinks the set; every accepted move is checked at the two
    vertices it adds, and the result is re-verified in full.  Raises
    RuntimeError if either check fails.  ``budget`` caps the number of
    accepted swaps.
    """
    if not is_independent(graph, seed_set):
        raise ValueError("seed_set is not independent")
    ptr, indices = graph.adj.indptr.tolist(), graph.adj.indices

    def nb(v):
        return indices[ptr[v] : ptr[v + 1]]

    chosen = np.zeros(graph.n, dtype=bool)
    chosen[np.fromiter(seed_set, dtype=np.int64)] = True
    # conflict count: number of selected neighbors per vertex
    conflicts = np.bincount(graph.adj[np.flatnonzero(chosen)].indices, minlength=graph.n)
    moves = 0
    improved = True
    while improved and moves < budget:
        improved = False
        for v in np.flatnonzero(chosen).tolist():
            nb_v = nb(v)
            # neighbors whose only selected neighbor is v; none is selected,
            # since the set stays independent
            private = nb_v[conflicts[nb_v] == 1].tolist()
            found = None
            for ai in range(len(private)):
                a = private[ai]
                nb_a = set(nb(a).tolist())
                for b in private[ai + 1 :]:
                    if b not in nb_a:
                        found = (a, b)
                        break
                if found:
                    break
            if found is None:
                continue
            a, b = found
            chosen[v] = False
            conflicts[nb_v] -= 1
            for u in (a, b):
                chosen[u] = True
                conflicts[nb(u)] += 1
            # a swap can only create an edge at the two vertices it adds
            if chosen[nb(a)].any() or chosen[nb(b)].any():
                raise RuntimeError(f"swap of {v} for {a}, {b} broke independence")
            moves += 1
            improved = True
            if moves >= budget:
                break
    # maximalize: add the free vertices in ascending order; an addition only
    # raises conflicts, so no vertex outside this list becomes free
    for v in np.flatnonzero((conflicts == 0) & ~chosen).tolist():
        if conflicts[v] == 0:
            chosen[v] = True
            conflicts[nb(v)] += 1
    result = np.flatnonzero(chosen)
    if not is_independent(graph, result):
        raise RuntimeError("local search result is not independent")
    return result


@dataclass(frozen=True)
class PackingResult:
    """A verified packing: centers, measured density, and reference lines."""

    centers: np.ndarray
    density: float
    trivial_bound: float
    target_reference: float | None  # n_pre * log(Delta)/Delta prediction
    min_pairwise_gauge: float  # inf when no two centers lie within gauge 2.5
    count: int

    def summary(self) -> dict:
        """The record's packing entry; an infinite min_pairwise_gauge is
        null, since strict JSON has no Infinity."""
        return {
            "count": self.count,
            "density": self.density,
            "trivial_bound": self.trivial_bound,
            "target_reference": self.target_reference,
            "min_pairwise_gauge": self.min_pairwise_gauge if math.isfinite(self.min_pairwise_gauge) else None,
        }


def verify_packing(
    centers: np.ndarray,
    body: ConvexBody,
    domain: TorusDomain,
    body_volume: float,
    n_candidates: int | None = None,
    Delta: float | None = None,
) -> PackingResult:
    """Check pairwise disjointness of translates and measure density.

    Every pair must satisfy gauge(min image difference) >= 2 - tol
    (closed translates may touch).  Raises :class:`OverlapError` naming
    the pair of smallest gauge when any pair violates this, and a
    ValueError unless the centers are finite and of shape (m, d).  An
    empty array of any shape is no centers.
    """
    centers = np.asarray(centers, dtype=float)
    if centers.size == 0:
        centers = centers.reshape(0, body.d)
    if centers.ndim != 2 or centers.shape[1] != body.d:
        raise ValueError(f"centers must have shape (m, {body.d}), got {centers.shape}")
    if not np.isfinite(centers).all():
        raise ValueError("centers must be finite")
    m = len(centers)
    min_gauge = math.inf
    if m > 1:
        # search slightly beyond 2 so min_pairwise_gauge is informative; the
        # pairs come in (i, j) order, so the first smallest gauge is reported
        codes, g = pairs_within_gauge(centers, body, domain, 2.5)
        if len(g):
            worst = int(np.argmin(g))
            if g[worst] < 2.0 - DISJOINT_TOL * 2.0:
                i, j = divmod(int(codes[worst]), m)
                raise OverlapError(i, j, float(g[worst]))
            min_gauge = float(g[worst])
    density = m * body_volume / domain.volume
    target = None
    if n_candidates is not None and Delta is not None and Delta > 1.0:
        target = n_candidates * math.log(Delta) / Delta
    return PackingResult(
        centers=centers,
        density=density,
        trivial_bound=2.0**-domain.d,
        target_reference=target,
        min_pairwise_gauge=min_gauge,
        count=m,
    )


def export_packing(result: PackingResult, body_spec: dict, L: float, path) -> None:
    """Coordinate file: header line with body spec and L, one center per line."""
    with open(path, "w") as fh:
        fh.write("# " + json.dumps({"body": body_spec, "L": L}, sort_keys=True) + "\n")
        for c in result.centers:
            fh.write(" ".join(repr(float(x)) for x in c) + "\n")


def import_packing(path) -> tuple[np.ndarray, dict, float]:
    """Inverse of :func:`export_packing`; returns (centers, body_spec, L)."""
    centers = []
    header = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                header = json.loads(line[1:].strip())
                continue
            centers.append([float(x) for x in line.split()])
    if header is None:
        raise ValueError("missing packing header")
    if not isinstance(header, dict):
        raise ValueError("the packing header must be a JSON object")
    for key in ("body", "L"):
        if key not in header:
            raise ValueError(f"packing header has no key {key!r}")
    return np.asarray(centers), header["body"], float(header["L"])
