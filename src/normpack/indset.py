"""Independent-set extraction and packing verification.

Greedy insertion in a random order plus a (1,2)-swap local search
stand in for the existential graph-theoretic bound; the verifier
re-derives disjointness from raw coordinates rather than trusting the
graph.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bodies import ConvexBody
from .packing import PackingGraph, TorusDomain, pairs_within_gauge, sort_pairs

DISJOINT_TOL = 1e-12


class OverlapError(Exception):
    """Two packing centers overlap; carries the offending pair."""

    def __init__(self, i: int, j: int, gauge_value: float):
        self.pair = (i, j)
        self.gauge_value = gauge_value
        super().__init__(f"centers {i} and {j} overlap: gauge {gauge_value:.6g} < 2")


def greedy_independent_set(graph: PackingGraph, rng: np.random.Generator) -> np.ndarray:
    """Maximal independent set by sequential insertion in the order of
    ``rng.permutation``.

    The greedy guarantee |A| >= n / (max_degree + 1) always holds for the
    maximal output.
    """
    n = graph.n
    if n == 0:
        return np.empty(0, dtype=np.int64)
    blocked = np.zeros(n, dtype=bool)
    chosen = []
    for v in rng.permutation(n):
        if not blocked[v]:
            chosen.append(int(v))
            blocked[v] = True
            blocked[graph.neighbors[v]] = True
    return np.asarray(sorted(chosen), dtype=np.int64)


def is_independent(graph: PackingGraph, vertices) -> bool:
    """True when no edge of ``graph`` joins two of ``vertices`` (an iterable
    of vertex indices; repeats allowed)."""
    chosen = np.zeros(graph.n, dtype=bool)
    chosen[np.fromiter(vertices, dtype=np.int64)] = True
    # the neighbors listed in the CSR rows of the chosen vertices
    return not chosen[graph.adj.indices[np.repeat(chosen, graph.degree())]].any()


def local_search_improve(graph: PackingGraph, seed_set, budget: int) -> np.ndarray:
    """(1,2)-swap local search: replace one vertex by two of its private
    neighbors when they are mutually non-adjacent.

    Never shrinks the set; every accepted move is checked at the two
    vertices it adds, and the result is re-verified in full.  Raises
    RuntimeError if either check fails.  ``budget`` caps the number of
    accepted swaps.
    """
    if not is_independent(graph, seed_set):
        raise ValueError("seed_set is not independent")
    current = set(int(v) for v in seed_set)
    # conflict count: number of selected neighbors per outside vertex
    conflicts = np.zeros(graph.n, dtype=np.int64)
    for v in current:
        conflicts[graph.neighbors[v]] += 1
    moves = 0
    improved = True
    while improved and moves < budget:
        improved = False
        for v in sorted(current):
            nb_v = graph.neighbors[v]
            # neighbors whose only selected neighbor is v; none is selected,
            # since the set stays independent
            private = nb_v[conflicts[nb_v] == 1].tolist()
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
            # a swap can only create an edge at the two vertices it adds
            if any(current.intersection(graph.neighbors[u].tolist()) for u in (a, b)):
                raise RuntimeError(f"swap of {v} for {a}, {b} broke independence")
            moves += 1
            improved = True
            if moves >= budget:
                break
    # maximalize: sweep in free vertices
    for v in range(graph.n):
        if v not in current and conflicts[v] == 0:
            current.add(v)
            conflicts[graph.neighbors[v]] += 1
    if not is_independent(graph, current):
        raise RuntimeError("local search result is not independent")
    return np.asarray(sorted(current), dtype=np.int64)


@dataclass(frozen=True)
class PackingResult:
    """A verified packing: centers, measured density, and reference lines."""

    centers: np.ndarray
    density: float
    trivial_bound: float
    target_reference: float | None  # n_pre * log(Delta)/Delta prediction
    min_pairwise_gauge: float
    count: int

    def summary(self) -> dict:
        return {
            "count": self.count,
            "density": self.density,
            "trivial_bound": self.trivial_bound,
            "target_reference": self.target_reference,
            "min_pairwise_gauge": self.min_pairwise_gauge,
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
    the pair of smallest gauge when any pair violates this.
    """
    centers = np.asarray(centers, dtype=float)
    m = len(centers)
    min_gauge = math.inf
    if m > 1:
        # search slightly beyond 2 so min_pairwise_gauge is informative
        gi, gj = sort_pairs(pairs_within_gauge(centers, body, domain, 2.5), m).T
        g = np.asarray(body.gauge(domain.min_image(centers[gj] - centers[gi])))
        if len(g):
            worst = int(np.argmin(g))
            if g[worst] < 2.0 - DISJOINT_TOL * 2.0:
                raise OverlapError(int(gi[worst]), int(gj[worst]), float(g[worst]))
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
    return np.asarray(centers), header["body"], float(header["L"])
