import contextlib
import dataclasses
import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normpack.bodies as bodies
from normpack.bodies import body_from_spec, cube, hpolytope, lp_ball, normalize_to_unit_volume
from normpack.harness import default_config, run_pipeline
from normpack.indset import verify_packing
import normpack.packing as packing
from normpack.packing import (
    PackingGraph,
    TorusDomain,
    build_graph,
    degree_codegree_stats,
    prune,
    sample_poisson,
)
from normpack.volumetrics import IkProfile, McEstimate, OverlapClassifier, estimate_ik, ik_gauge_radius

from graph_oracles import (
    adjacency_reference,
    all_core_tokens_held,
    crossovers_at,
    brute_force_graph,
    brute_force_max_codegree,
    free_core_tokens,
    graph_from_edges,
    graphs_equal,
    min_image_reference,
    periodic_pairs_reference,
    periodic_query_reference,
    x2_pairs_reference,
)
from polytope_oracles import criterion4_hpolytope, cube_hpolytope

CORES = len(os.sched_getaffinity(0))


def decoded(codes, n):
    """The (m, 2) pairs (i, j) of the pair codes i n + j."""
    return np.stack(np.divmod(codes, n), axis=1)


class TestTorusDomain:
    def test_min_image_identity_inside(self):
        dom = TorusDomain(2, 10.0)
        v = np.array([1.0, -2.0])
        assert np.allclose(dom.min_image(v), v)

    def test_min_image_wraps(self):
        dom = TorusDomain(1, 10.0)
        assert dom.min_image(np.array([9.0]))[0] == pytest.approx(-1.0)
        assert dom.min_image(np.array([-7.0]))[0] == pytest.approx(3.0)

    def test_min_image_half_boundary(self):
        # representative lives in (-L/2, L/2]
        dom = TorusDomain(1, 10.0)
        assert dom.min_image(np.array([5.0]))[0] == pytest.approx(5.0)
        assert dom.min_image(np.array([-5.0]))[0] == pytest.approx(5.0)

    def test_min_image_batched(self):
        dom = TorusDomain(2, 4.0)
        out = dom.min_image(np.full((3, 5, 2), 3.5))
        assert out.shape == (3, 5, 2)
        assert np.allclose(out, -0.5)

    @pytest.mark.parametrize("L", [1.0, 6.0, 20.0, 22.0 / 7.0])
    def test_min_image_matches_reference(self, L):
        # bit for bit, on random input and on the rounding edges
        dom = TorusDomain(3, L)
        rng = np.random.default_rng(int(L * 7))
        edges = np.array([0.5, -0.5, 1.0, -1.0, 1.5, -1.5, 2.0, -3.0, 0.0, -0.0]) * L
        cases = [
            rng.uniform(-3 * L, 3 * L, size=(1000, 3)),
            rng.uniform(-L, L, size=(7, 5, 3)),
            edges.reshape(-1, 1) + np.zeros(3),
            np.array([-1e-17, 1e-17, -L / 2 * (1 - 1e-16)]),
            np.asarray(edges[0]),
            np.asarray(-1e-17),
            edges,
            [1.0, -L, 0.5 * L],
            -0.5 * L,
        ]
        for v in cases:
            got, want = dom.min_image(v), min_image_reference(dom, v)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_min_image_leaves_input(self):
        dom = TorusDomain(2, 4.0)
        v = np.array([[3.5, -2.0]])
        dom.min_image(v)
        assert v.tolist() == [[3.5, -2.0]]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            TorusDomain(0, 1.0)
        with pytest.raises(ValueError):
            TorusDomain(2, 0.0)

    @pytest.mark.parametrize("L", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_L_finite_and_positive(self, L):
        # NaN passes an L <= 0 test, and so does an infinite L
        with pytest.raises(ValueError, match=f"^L must be finite and positive, got {L}$"):
            TorusDomain(2, L)

    def test_validate_for_body(self):
        dom = TorusDomain(2, 5.0)
        dom.validate_for_body(lp_ball(2, 2, scale=0.5))
        with pytest.raises(ValueError, match="too small"):
            dom.validate_for_body(lp_ball(2, 2, scale=2.0))

    def test_floor_covers_the_widest_query(self):
        # a body without a closed-form f at delta < vol/2 has g_ik = 2, so X2
        # queries pairs within gauge 4: radius 4 R_c with the query slack
        body = normalize_to_unit_volume(lp_ball(2, 3))
        assert ik_gauge_radius(body, 0.1) == 2.0
        R = body.circumradius()
        floor = 8.0 * R * (1.0 + packing.QUERY_SLACK)
        for L in (8.0 * R, 8.0 * R * (1.0 + 1e-10), floor):
            with pytest.raises(ValueError, match="too small"):
                TorusDomain(2, L).validate_for_body(body)
        dom = TorusDomain(2, np.nextafter(floor, math.inf))
        dom.validate_for_body(body)
        pts = np.random.default_rng(5).uniform(0.0, dom.L, size=(60, 2))
        g = build_graph(pts, body, dom)
        rows, cols = packing.edges_within_gauge(g, body, 4.0)
        want_rows, want_cols = x2_pairs_reference(pts, body, dom, 4.0)
        assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)


class TestSamplePoisson:
    def test_mean_count(self):
        dom = TorusDomain(2, 10.0)
        Delta = 20.0
        counts = [
            len(sample_poisson(dom, Delta, np.random.default_rng(s))) for s in range(200)
        ]
        mean = Delta / 4.0 * 100.0  # lam * volume
        got = np.mean(counts)
        assert abs(got - mean) <= 4.0 * math.sqrt(mean / 200.0)

    def test_points_in_box(self):
        dom = TorusDomain(3, 7.0)
        ps = sample_poisson(dom, 30.0, np.random.default_rng(0))
        assert ps.shape == (len(ps), 3)
        assert np.all(ps >= 0.0) and np.all(ps < 7.0)

    def test_zero_intensity(self):
        dom = TorusDomain(2, 5.0)
        ps = sample_poisson(dom, 0.0, np.random.default_rng(0))
        assert len(ps) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sample_poisson(TorusDomain(2, 5.0), -1.0, np.random.default_rng(0))

    def test_point_cap(self):
        # expected count 1e9 / 4 * 100^2 = 2.5e12
        with pytest.raises(ValueError, match=f"^expected count 2.5e\\+12 exceeds cap {packing.POINT_CAP}$"):
            sample_poisson(TorusDomain(2, 100.0), 1e9, np.random.default_rng(0))

    def test_deterministic(self):
        dom = TorusDomain(2, 10.0)
        a = sample_poisson(dom, 20.0, np.random.default_rng(5))
        b = sample_poisson(dom, 20.0, np.random.default_rng(5))
        assert np.array_equal(a, b)


class TestFromPairs:
    @staticmethod
    def assert_same_csr(got, want):
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert got.has_canonical_format

    def test_matches_coo_reference(self):
        # random distinct pairs i < j in (i, j) order, isolated vertices included
        rng = np.random.default_rng(3)
        for trial in range(30):
            n = int(rng.integers(1, 60))
            m = int(rng.integers(0, 4 * n))
            i = rng.integers(0, n, size=m)
            j = (i + rng.integers(1, n + 1, size=m)) % n if n > 1 else i
            codes = np.unique(np.minimum(i, j) * n + np.maximum(i, j))
            codes = codes[codes // n < codes % n]
            g = PackingGraph.from_pairs(np.zeros((n, 2)), codes, TorusDomain(2, 10.0))
            self.assert_same_csr(g.adj, adjacency_reference(n, decoded(codes, n)))
            assert g.near_gauge is None and g.near_codes is None

    @pytest.mark.parametrize("n", [0, 5])
    def test_empty(self, n):
        for codes in ([], np.empty(0, dtype=np.int64)):
            g = PackingGraph.from_pairs(np.zeros((n, 2)), codes, TorusDomain(2, 10.0))
            self.assert_same_csr(g.adj, adjacency_reference(n, []))
            assert g.edge_count() == 0


class TestBuildGraph:
    @pytest.mark.parametrize("held", [False, True], ids=["split", "inline"])
    def test_traced_bytes_per_edge(self, held):
        # d = 3, L = 6, Delta = 300: about 8,000 points and 1.2M edges, below
        # the pair query's crossover, so "split" lowers it.  No (m, 2) pair
        # array is formed, the pair codes are freed before adj is assembled,
        # adj's data is 1 byte and no per-edge gauge is kept: about 20 traced
        # bytes per edge at the peak and 10 kept, with X2's few codes
        dom, body = TorusDomain(3, 6.0), normalize_to_unit_volume(lp_ball(3, 2))
        pts = sample_poisson(dom, 300.0, np.random.default_rng(1))
        near = 2.0 * ik_gauge_radius(body, 0.95)
        with all_core_tokens_held() if held else crossovers_at(0.0):
            tracemalloc.start()
            try:
                g = build_graph(pts, body, dom, near)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        m = g.edge_count()
        assert m > 1_000_000 and len(g.near_codes) > 0
        assert peak <= 22 * m and kept <= 11 * m

    def test_two_touching_points(self):
        dom = TorusDomain(2, 20.0)
        body = lp_ball(2, 2, scale=1.0)
        ps = np.asarray([[5.0, 5.0], [6.5, 5.0], [12.0, 12.0]])
        g = build_graph(ps, body, dom)
        assert g.neighbors[0].tolist() == [1]
        assert g.neighbors[1].tolist() == [0]
        assert g.neighbors[2].tolist() == []

    def test_wraparound_edge(self):
        dom = TorusDomain(2, 20.0)
        body = lp_ball(2, 2, scale=1.0)
        ps = np.asarray([[0.5, 10.0], [19.5, 10.0]])
        g = build_graph(ps, body, dom)
        assert g.neighbors[0].tolist() == [1]

    def test_empty(self):
        dom = TorusDomain(2, 20.0)
        g = build_graph(np.empty((0, 2)), lp_ball(2, 2), dom)
        assert g.n == 0 and g.edge_count() == 0

    def test_cluster_complete(self):
        # all points within gauge 2 of each other: complete graph
        dom = TorusDomain(2, 20.0)
        body = lp_ball(2, 2, scale=1.0)
        rng = np.random.default_rng(1)
        pts = 10.0 + rng.uniform(-0.4, 0.4, size=(12, 2))
        g = build_graph(pts, body, dom)
        assert g.edge_count() == 12 * 11 // 2

    def test_matches_brute_force_mixed_bodies(self):
        # exact agreement on 20 random instances across body types
        bodies = [
            lp_ball(2, 2, scale=0.8),
            lp_ball(2, 1),
            cube(2, side=1.4),
            lp_ball(3, 2, scale=0.6),
            lp_ball(3, 3, scale=0.7),
        ]
        for trial in range(20):
            body = bodies[trial % len(bodies)]
            rng = np.random.default_rng(100 + trial)
            L = 12.0 if body.d == 2 else 9.0
            dom = TorusDomain(body.d, L)
            n = int(rng.integers(50, 2001))
            pts = rng.uniform(0.0, L, size=(n, body.d))
            fast = build_graph(pts, body, dom)
            slow = brute_force_graph(pts, body, dom)
            assert graphs_equal(fast, slow), f"trial {trial} body {body.describe()}"

    def test_corner_contacts_match_brute_force(self):
        # a pair at gauge ~2 along the cube diagonal is ~2 circumradii apart,
        # at the edge of the KD-tree search radius
        dom = TorusDomain(3, 20.0)
        rng = np.random.default_rng(0)
        for _ in range(100):
            side = rng.uniform(0.5, 2.0)
            p = rng.uniform(0.0, dom.L, size=3)
            ps = np.asarray([p, p + side])
            body = cube(3, side=side)
            assert graphs_equal(build_graph(ps, body, dom), brute_force_graph(ps, body, dom))

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, math.inf])
    @pytest.mark.parametrize("d", [2, 3])
    def test_lp_query_matches_brute_force(self, d, p):
        # the pair query (in the lp distance for p = 1, inf; in the
        # circumscribed ball otherwise) must keep every pair of gauge <= 2,
        # also pairs placed at gauge 2 exactly, across the periodic boundary
        dom = TorusDomain(d, 10.0)
        rng = np.random.default_rng(int(10 * p) if math.isfinite(p) else 99)
        body = lp_ball(d, p, scale=0.7)
        for _ in range(3):
            pts = rng.uniform(0.0, dom.L, size=(600, d))
            u = rng.standard_normal((100, d))
            u /= np.asarray(body.gauge(u))[:, None]
            contacts = (pts[:100] + 2.0 * u) % dom.L
            ps = np.concatenate([pts, contacts])
            fast, slow = build_graph(ps, body, dom), brute_force_graph(ps, body, dom)
            assert graphs_equal(fast, slow)
            assert fast.edge_count() >= 100

    def test_degree_near_delta(self):
        # E[deg] = Delta * vol(2K)/2^d = Delta for a ball of gauge radius 1...
        # with intensity lam = Delta/2^d the mean degree is lam * vol(2K)
        dom = TorusDomain(2, 20.0)
        body = lp_ball(2, 2, scale=1.0)
        Delta = 10.0
        lam = Delta / 4.0
        expect = lam * math.pi * 4.0
        means = []
        for s in range(10):
            ps = sample_poisson(dom, Delta, np.random.default_rng(s))
            g = build_graph(ps, body, dom)
            means.append(g.degree().mean())
        assert np.mean(means) == pytest.approx(expect, rel=0.1)

    def test_subgraph_remap(self):
        dom = TorusDomain(2, 20.0)
        body = lp_ball(2, 2, scale=1.0)
        ps = np.asarray([[5.0, 5.0], [6.0, 5.0], [7.0, 5.0]])
        g = build_graph(ps, body, dom)
        sub = g.subgraph(np.array([True, False, True]))
        assert sub.n == 2
        # the outer pair is exactly gauge 2 apart, so they stay adjacent
        assert sub.neighbors[0].tolist() == [1]
        assert sub.neighbors[1].tolist() == [0]
        assert np.array_equal(sub.points, ps[[0, 2]])


class TestSubgraph:
    """subgraph against scipy's adj[keep][:, keep] with sorted indices."""

    MASKS = {
        "all": lambda n: np.ones(n, dtype=bool),
        "none": lambda n: np.zeros(n, dtype=bool),
        "first-removed": lambda n: np.arange(n) > 0,
        "last-removed": lambda n: np.arange(n) < n - 1,
        "even": lambda n: np.arange(n) % 2 == 0,
        "odd": lambda n: np.arange(n) % 2 == 1,
    }

    @staticmethod
    def assert_matches_slicing(g, keep_mask):
        keep = np.flatnonzero(keep_mask)
        want = g.adj[keep][:, keep]
        want.sort_indices()
        sub = g.subgraph(keep_mask)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(sub.adj, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert sub.adj.shape == want.shape and sub.adj.has_sorted_indices == want.has_sorted_indices
        assert np.array_equal(sub.points, g.points[keep]) and sub.domain == g.domain and sub.near_codes is None

    @pytest.mark.parametrize("mask", MASKS)
    @pytest.mark.parametrize("chunk", [7, bodies.GAUGE_CHUNK], ids=["blocks-of-few-rows", "one-block"])
    def test_random_graphs(self, mask, chunk, monkeypatch):
        # at 7 entries a block, many rows hold more than a block alone
        monkeypatch.setattr(packing, "GAUGE_CHUNK", chunk)
        self.assert_matches_slicing(graph_from_edges(0, []), np.zeros(0, dtype=bool))
        for seed in range(12):
            g = random_graph(seed)
            self.assert_matches_slicing(g, self.MASKS[mask](g.n))
            self.assert_matches_slicing(g, np.random.default_rng(seed).random(g.n) < 0.7)

    @pytest.mark.parametrize("mask", MASKS)
    def test_packing_graph(self, mask):
        # about 3,000 points and 100k entries: several blocks of whole rows
        dom, body = TorusDomain(3, 6.0), normalize_to_unit_volume(lp_ball(3, 2))
        g = build_graph(sample_poisson(dom, 100.0, np.random.default_rng(4)), body, dom)
        assert g.adj.nnz > 3 * bodies.GAUGE_CHUNK
        self.assert_matches_slicing(g, self.MASKS[mask](g.n))


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_min_image_gauge_symmetric(seed):
    # gauge of the minimal image is symmetric in the pair
    rng = np.random.default_rng(seed)
    dom = TorusDomain(3, 6.0)
    body = lp_ball(3, 2, scale=0.5)
    x, y = rng.uniform(0, 6.0, size=(2, 3))
    assert body.gauge(dom.min_image(x - y)) == pytest.approx(
        body.gauge(dom.min_image(y - x)), abs=1e-12
    )


class TestOutOfBoxCoordinates:
    """Coordinates outside [0, L) name the same torus points."""

    DOM = TorusDomain(2, 22.0)
    BODY = lp_ball(2, 2, scale=1.0)

    def moved(self, pts):
        # -1e-17 % L rounds to L, which a periodic KD tree rejects
        edge = pts.copy()
        edge[0, 0] = -1e-17
        return [pts - self.DOM.L, edge]

    def test_build_graph(self):
        pts = np.random.default_rng(7).uniform(0.0, self.DOM.L, size=(400, 2))
        pts[0, 0] = 0.0
        ref = build_graph(pts, self.BODY, self.DOM)
        assert ref.edge_count() > 0
        for moved in self.moved(pts):
            assert graphs_equal(build_graph(moved, self.BODY, self.DOM), ref)

    def test_verify_packing(self):
        grid = np.arange(10) * 2.2
        centers = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)
        ref = verify_packing(centers, self.BODY, self.DOM, math.pi)
        for moved in self.moved(centers):
            res = verify_packing(moved, self.BODY, self.DOM, math.pi)
            assert (res.count, res.density) == (ref.count, ref.density)
            assert res.min_pairwise_gauge == pytest.approx(ref.min_pairwise_gauge)


class TestPrune:
    @staticmethod
    def empty_ik(body):
        """An I_K profile at delta = vol(K), where I_K is empty: X2 marks nothing."""
        V = bodies.closed_form_volume(body)
        return IkProfile(body, V, McEstimate(0.0, 0.0, 1), math.inf, (0.0, 0.0), ik_gauge_radius(body, V))

    def test_codegrees_past_one_byte(self):
        # K_260, every point within distance 1 of the others: codegree 258,
        # past int8's 127 and uint8's 255, where a 1-byte count reads 2
        body = lp_ball(2, 2, scale=1.0)
        angle = np.linspace(0.0, 2.0 * math.pi, 260, endpoint=False)
        g = build_graph(10.0 + 0.5 * np.stack([np.cos(angle), np.sin(angle)], axis=1), body, TorusDomain(2, 20.0))
        assert g.adj.dtype == np.int8 and g.edge_count() == 260 * 259 // 2
        assert degree_codegree_stats(g)["max_codegree"] == 258 == brute_force_max_codegree(g)
        # X1 caps the degree at Delta + Delta^(2/3) > 290; X3's threshold is Delta
        for Delta, x3 in ((258.0, 260), (259.0, 0)):
            pruned, rep = prune(g, self.empty_ik(body), Delta, 1.0, np.random.default_rng(0), 500)
            assert (rep.removed_x1, rep.removed_x2, rep.removed_x3, pruned.n) == (0, 0, x3, 260 - x3)

    def test_x3_marks_the_live_end_of_a_removed_vertex_pair(self):
        # vertex 0 has 14 neighbors, past X1's cap 8 + 4; vertex 1 shares 5 of
        # them, at least t = 0.5 * 8.  B's rows hold vertex 1 alone, and it
        # marks itself from the pair (1, 0)
        edges = [(0, v) for v in range(2, 16)] + [(1, v) for v in range(2, 7)]
        codes = np.sort([i * 16 + j for i, j in edges])
        pts = np.arange(16.0)[:, None] * [1.0, 0.0]
        g = PackingGraph.from_pairs(pts, codes, TorusDomain(2, 100.0))
        pruned, rep = prune(g, self.empty_ik(lp_ball(2, 2, scale=1.0)), 8.0, 0.5, np.random.default_rng(0), 500)
        assert (rep.removed_x1, rep.removed_x2, rep.removed_x3) == (1, 0, 1)
        assert pruned.points[:, 0].tolist() == list(range(2, 16))

    def _setup(self, seed=0, Delta=30.0, delta=0.95):
        dom = TorusDomain(2, 20.0)
        body = lp_ball(2, 2, scale=1.0)
        rng = np.random.default_rng(seed)
        ik = estimate_ik(body, delta, 20_000, 500, rng)
        ps = sample_poisson(dom, Delta, rng)
        g = build_graph(ps, body, dom, 2.0 * ik.gauge_radius)  # X2's pairs kept, as in the pipeline
        return dom, body, rng, ik, g, Delta

    def test_traced_bytes_per_edge(self):
        # d = 3, L = 6, Delta = 300, built as in the pipeline: about 1.2M
        # edges.  The subgraph is filled block by block into arrays sized from
        # the removed rows, so beside the graph it gets prune holds about 9
        # traced bytes per edge at its peak, the pruned graph included
        dom, body = TorusDomain(3, 6.0), normalize_to_unit_volume(lp_ball(3, 2))
        rng = np.random.default_rng(1)
        ik = estimate_ik(body, 0.95, 20_000, 500, rng)
        g = build_graph(sample_poisson(dom, 300.0, rng), body, dom, 2.0 * ik.gauge_radius)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            pruned, rep = prune(g, ik, 300.0, 1.2, rng, 500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m = g.edge_count()
        assert m > 1_000_000 and rep.removed_union > 0 and peak - held <= 12 * m

    def test_empty_graph(self):
        dom, body, rng, ik, _, Delta = self._setup()
        g = build_graph(np.empty((0, 2)), body, dom)
        pruned, rep = prune(g, ik, Delta, 1.2, rng, 500)
        assert pruned.n == 0 and rep.retained == 0

    def test_postconditions_brute_force(self):
        dom, body, rng, ik, g, Delta = self._setup(seed=2)
        pruned, rep = prune(g, ik, Delta, 1.2, rng, 500)
        assert rep.retained == pruned.n
        assert rep.removed_x1 + rep.removed_x2 + rep.removed_x3 == rep.removed_union
        assert rep.n_initial == g.n
        deg_cap = Delta + Delta ** (2.0 / 3.0)
        assert pruned.degree().max(initial=0) <= deg_cap
        assert brute_force_max_codegree(pruned) == degree_codegree_stats(pruned)["max_codegree"]

    @staticmethod
    def assert_marks_match(g, ik, Delta, coeff, x2_rows, x2_cols, rep, pruned):
        """Compare prune's first-rule counts and survivors with brute-force
        marks: X1 by degree, X2 over the pairs (x2_rows, x2_cols), X3 by the
        paper's rule, over the pairs i < j of the full A @ A outside 2I.
        Returns the (X2, X3) counts and the number of hot pairs inside 2I,
        whose ends X2 holds, so that prune's X3 may mark them too."""
        clf = OverlapClassifier(ik)  # the cube's f is exact
        dom, pts = g.domain, g.points

        def inside(i, j):
            return clf.inside(dom.min_image(pts[j] - pts[i]) / 2.0)

        mark_x1 = g.degree() > Delta + Delta ** (2.0 / 3.0)
        deep = inside(x2_rows, x2_cols)
        mark_x2 = np.zeros(g.n, dtype=bool)
        mark_x2[x2_rows[deep]] = mark_x2[x2_cols[deep]] = True
        A = g.adj.toarray().astype(np.float64)  # BLAS product, exact for counts
        ci, cj = np.nonzero(np.triu(A @ A >= coeff * Delta, k=1))
        out = ~inside(ci, cj)
        mark_x3 = np.zeros(g.n, dtype=bool)
        mark_x3[ci[out]] = mark_x3[cj[out]] = True
        assert mark_x2[ci[~out]].all() and mark_x2[cj[~out]].all()
        x2, x3 = int((mark_x2 & ~mark_x1).sum()), int((mark_x3 & ~mark_x1 & ~mark_x2).sum())
        assert (rep.removed_x1, rep.removed_x2, rep.removed_x3) == (int(mark_x1.sum()), x2, x3)
        assert np.array_equal(pruned.points, pts[~(mark_x1 | mark_x2 | mark_x3)])
        return x2, x3, int(np.count_nonzero(~out))

    def test_marks_match_full_product_reference(self):
        # X2 over every edge and X3 from the full A @ A; the unit cube has a
        # vectorized exact f, so every edge can be classified
        dom = TorusDomain(2, 20.0)
        body = lp_ball(2, math.inf, scale=0.5)
        rng = np.random.default_rng(2)
        Delta = 30.0
        ik = estimate_ik(body, 0.95, 20_000, 500, rng)
        g = build_graph(sample_poisson(dom, Delta, np.random.default_rng(3)), body, dom)
        pruned, rep = prune(g, ik, Delta, 1.2, rng, 500)
        ei, ej = np.nonzero(np.triu(g.adj.toarray()))
        x2, x3, hot_inside = self.assert_marks_match(g, ik, Delta, 1.2, ei, ej, rep, pruned)
        assert x2 > 0 and x3 > 0 and hot_inside > 0  # 19 hot pairs lie inside 2I

    def test_marks_beyond_the_edges_match_dense_reference(self):
        # at ik_delta 0.3 the unit cube's g_ik is 1.4: X2's pairs reach gauge
        # 2.8, past the edges.  The reference classifies every pair within
        # gauge 4 from the dense gauge matrix.
        dom = TorusDomain(2, 30.0)
        body = lp_ball(2, math.inf, scale=0.5)
        rng = np.random.default_rng(2)
        Delta, coeff = 1.5, 0.6
        ik = estimate_ik(body, 0.3, 20_000, 500, rng)
        assert ik.gauge_radius == pytest.approx(1.4)
        # seed 27 places points where X3 fires (on 3 vertices)
        g = build_graph(sample_poisson(dom, Delta, np.random.default_rng(27)), body, dom)
        pruned, rep = prune(g, ik, Delta, coeff, rng, 500)
        pts = g.points
        gauge = body.gauge(dom.min_image(pts[:, None, :] - pts[None, :, :]))
        ei, ej = np.nonzero(np.triu(gauge <= 4.0, k=1))
        x2, x3, hot_inside = self.assert_marks_match(g, ik, Delta, coeff, ei, ej, rep, pruned)
        assert x2 > 0 and x3 > 0 and hot_inside > 0 and pruned.n > 0
        # some deep pair is not an edge
        beyond = gauge[ei, ej] > 2.0
        clf = OverlapClassifier(ik)
        assert clf.inside(dom.min_image(pts[ej[beyond]] - pts[ei[beyond]]) / 2.0).any()

    def test_outer_body_route_keeps_the_caps(self):
        # the hpoly cube decides pairs by Schmuckenschläger's outer body; at
        # delta 0.55 that body reaches past gauge g_ik = 1, where X2 reads no pair
        dom = TorusDomain(2, 30.0)
        body = cube_hpolytope(2)
        rng = np.random.default_rng(8)
        Delta, coeff = 1.5, 0.6
        ik = estimate_ik(body, 0.55, 20_000, 500, rng)
        g = build_graph(sample_poisson(dom, Delta, rng), body, dom)
        pruned, rep = prune(g, ik, Delta, coeff, rng, 500)
        assert rep.removed_x2 > 0 and rep.removed_x3 > 0 and pruned.n > 0 and rep.boundary_pairs == 0
        ref = brute_force_graph(pruned.points, body, dom)
        assert graphs_equal(ref, pruned)
        assert ref.degree().max() <= Delta + Delta ** (2.0 / 3.0)
        assert brute_force_max_codegree(ref) <= coeff * Delta

    def test_cluster_removed_by_x2(self):
        # a tight cluster has differences deep in 2I, so X2 clears it
        dom = TorusDomain(2, 20.0)
        body = lp_ball(2, 2, scale=1.0)
        rng = np.random.default_rng(4)
        ik = estimate_ik(body, 0.95, 20_000, 500, rng)
        pts = 10.0 + rng.uniform(-0.05, 0.05, size=(8, 2))
        g = build_graph(pts, body, dom)
        pruned, rep = prune(g, ik, 30.0, 1.2, rng, 500)
        assert pruned.n == 0
        assert rep.removed_x2 + rep.removed_x1 == 8

    def test_isolated_points_survive(self):
        dom = TorusDomain(2, 20.0)
        body = lp_ball(2, 2, scale=1.0)
        rng = np.random.default_rng(5)
        ik = estimate_ik(body, 0.95, 20_000, 500, rng)
        pts = np.array([[2.0, 2.0], [10.0, 10.0], [17.0, 4.0]])
        g = build_graph(pts, body, dom)
        pruned, rep = prune(g, ik, 30.0, 1.2, rng, 500)
        assert pruned.n == 3 and rep.removed_union == 0

    def test_expectation_bounds_present(self):
        dom, body, rng, ik, g, Delta = self._setup(seed=6)
        _, rep = prune(g, ik, Delta, 1.2, rng, 500)
        for key in ("x1_bound", "x2_bound", "s3_bound"):
            assert key in rep.expected_sizes
            assert rep.expected_sizes[key] >= 0.0

    def test_x1_expectation_bound_over_seeds(self):
        # across 200 seeds the X1 removal rate stays within the Chernoff
        # bound n exp(-(Delta^(2/3) - 1)/3), with generous slack
        dom = TorusDomain(2, 16.0)
        body = lp_ball(2, 2, scale=math.pi**-0.5)  # unit volume: mean degree Delta
        Delta = 30.0
        total_removed = 0
        total_bound = 0.0
        for s in range(200):
            rng = np.random.default_rng(1000 + s)
            ps = sample_poisson(dom, Delta, rng)
            g = build_graph(ps, body, dom)
            deg_cap = Delta + Delta ** (2.0 / 3.0)
            total_removed += int(np.count_nonzero(g.degree() > deg_cap))
            total_bound += len(ps) * math.exp(-(Delta ** (2.0 / 3.0) - 1.0) / 3.0)
        assert total_removed <= 2.0 * total_bound + 10.0

    def test_reproducible(self):
        outs = []
        for _ in range(2):
            dom, body, rng, ik, g, Delta = self._setup(seed=7)
            pruned, rep = prune(g, ik, Delta, 1.2, rng, 500)
            outs.append((pruned.n, rep.removed_x1, rep.removed_x2, rep.removed_x3,
                         pruned.points.tobytes()))
        assert outs[0] == outs[1]


class TestStats:
    def test_triangle(self):
        dom = TorusDomain(2, 20.0)
        body = lp_ball(2, 2, scale=1.0)
        ps = np.asarray([[5.0, 5.0], [6.0, 5.0], [5.5, 5.8]])
        g = build_graph(ps, body, dom)
        st = degree_codegree_stats(g)
        assert st["max_degree"] == 2
        assert st["max_codegree"] == 1  # each pair shares exactly one third vertex
        assert st["degree_histogram"] == {2: 3}

    def test_empty(self):
        st = degree_codegree_stats(
            build_graph(np.empty((0, 2)), lp_ball(2, 2), TorusDomain(2, 20.0))
        )
        assert st == {"n": 0, "max_degree": 0, "mean_degree": 0.0, "max_codegree": 0, "degree_histogram": {}}

    def test_brute_force_codegree_path(self):
        # path a-b-c-d: max codegree is 1 (a,c share b; b,d share c)
        dom = TorusDomain(2, 20.0)
        body = lp_ball(2, 2, scale=1.0)
        ps = np.asarray([[2.0, 2.0], [3.5, 2.0], [5.0, 2.0], [6.5, 2.0]])
        g = build_graph(ps, body, dom)
        assert brute_force_max_codegree(g) == 1


def full_product_pairs(g, t):
    """Pairs i < j, in (i, j) order, whose entry of the full A @ A reaches
    max(t, 1), with those entries."""
    A = g.adj.toarray().astype(np.int64)
    C = A @ A
    i, j = np.nonzero(np.triu(C >= max(t, 1), k=1))
    return i, j, C[i, j]


def random_graph(seed):
    # sparse random edges plus a few dense blocks, so that codegrees spread
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    pairs = [rng.integers(0, n, size=(int(rng.integers(0, 4 * n)), 2))]
    for _ in range(int(rng.integers(0, 3))):
        block = rng.choice(n, size=min(n, int(rng.integers(2, 12))), replace=False)
        pairs.append(np.array([(a, b) for a in block for b in block]))
    pairs = np.concatenate(pairs)
    return graph_from_edges(n, pairs[pairs[:, 0] != pairs[:, 1]])


def hot_pairs(g, t):
    """(upper, lower, marks) from one hot-row product at t' = max(t, 1):
    the pairs i < j of codegree at least t', with their codegrees, in (i, j)
    order, read off the entries above the diagonal and, mirrored, off those
    below it; and the vertices that prune's X3 marks, by row."""
    t = max(t, 1)
    hot, row, col, count = packing._hot_codegrees(g, t)

    def pairs(keep, i, j):
        i, j = hot[i[keep]], hot[j[keep]]
        order = np.lexsort((j, i))
        return i[order], j[order], count[keep][order]

    marks = np.zeros(g.n, dtype=bool)
    marks[hot[row[(row != col) & (count >= t)]]] = True
    return pairs((row < col) & (count >= t), row, col), pairs((row > col) & (count >= t), col, row), marks


class TestCodegreePairs:
    """The hot-row codegree product, which X3 and the stats read, against
    the full A @ A."""

    THRESHOLDS = (-1.0, 0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 4.7, 8.0, 100.0)

    @staticmethod
    def assert_matches_full(g, t):
        """The hot pairs at t are those of the full product, from either end
        of each, so X3's row marks are their endpoints."""
        upper, lower, marks = hot_pairs(g, t)
        want = full_product_pairs(g, t)
        for a, b, c in zip(upper, lower, want):
            assert np.array_equal(a, c) and np.array_equal(b, c)
        assert np.array_equal(np.flatnonzero(marks), np.union1d(want[0], want[1]))

    @pytest.mark.parametrize("seed", range(40))
    def test_random_graphs_match_full_product(self, seed):
        g = random_graph(seed)
        for t in self.THRESHOLDS:
            self.assert_matches_full(g, t)
        full_max = full_product_pairs(g, 1)[2].max(initial=0)
        assert degree_codegree_stats(g)["max_codegree"] == full_max
        assert brute_force_max_codegree(g) == full_max

    @pytest.mark.parametrize("n", [0, 6])
    def test_no_edges(self, n):
        g = graph_from_edges(n, np.empty((0, 2), dtype=np.int64))
        for t in self.THRESHOLDS:
            upper, lower, marks = hot_pairs(g, t)
            assert all(len(a) == 0 for a in (*upper, *lower)) and not marks.any()
        assert degree_codegree_stats(g)["max_codegree"] == 0

    def test_threshold_at_most_zero_selects_shared_neighbors_only(self):
        # path 0-1-2 plus the isolated vertex 3: only (0, 2) shares a neighbor
        g = graph_from_edges(4, [(0, 1), (1, 2)])
        for t in (0.0, -5.0, 0.3):
            (rows, cols, counts), _, marks = hot_pairs(g, t)
            assert rows.tolist() == [0] and cols.tolist() == [2] and counts.tolist() == [1]
            assert np.flatnonzero(marks).tolist() == [0, 2]

    def test_non_integer_threshold(self):
        # K5: every pair has codegree 3
        g = graph_from_edges(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
        assert len(hot_pairs(g, 2.01)[0][0]) == 10
        assert len(hot_pairs(g, 3.0)[0][0]) == 10
        assert len(hot_pairs(g, 3.01)[0][0]) == 0

    @pytest.fixture
    def thresholds_seen(self, monkeypatch):
        """Thresholds of every codegree product formed, in order."""
        seen = []
        real = packing._hot_codegrees

        def spy(graph, t):
            seen.append(t)
            return real(graph, t)

        monkeypatch.setattr(packing, "_hot_codegrees", spy)
        return seen

    @staticmethod
    def assert_descent(g, thresholds_seen, want_max, want_thresholds):
        assert degree_codegree_stats(g)["max_codegree"] == want_max == brute_force_max_codegree(g)
        assert thresholds_seen == want_thresholds

    def test_descent_beside_a_star(self, thresholds_seen):
        # a K5 (degree 4, codegree 3) beside a 20-leaf star (leaf pairs have
        # codegree 1): the products over the center alone find no pair, and
        # the step doubles until the descent reaches 1, where the K5 is hot
        clique = [(a, b) for a in range(5) for b in range(a + 1, 5)]
        star = [(5, leaf) for leaf in range(6, 26)]
        g = graph_from_edges(26, clique + star)
        self.assert_descent(g, thresholds_seen, 3, [20, 19, 17, 13, 5, 1])

    @staticmethod
    def centers_and_clique(k):
        """Four degree-8 centers on a cycle, consecutive ones sharing a block
        of 4 leaves (codegree 4), beside a K_k (codegree k - 2)."""
        edges = []
        for i in range(4):
            block = range(4 + 4 * i, 8 + 4 * i)
            edges += [(c, leaf) for leaf in block for c in (i, (i + 1) % 4)]
        clique = range(20, 20 + k)
        edges += [(a, b) for a in clique for b in clique if a < b]
        return graph_from_edges(20 + k, edges)

    @pytest.mark.parametrize("k,want", [(5, 4), (7, 5)])
    def test_descent_to_the_clique(self, thresholds_seen, k, want):
        # at s = 8 and 7 only the centers are hot, their codegree 4 below
        # s - 1; s falls to 4 + 1 = 5, where the K7's degree-6 rows join and
        # give 5, while the K5's codegree 3 stays below the centers' 4
        self.assert_descent(self.centers_and_clique(k), thresholds_seen, want, [8, 7, 5])

    def test_descent_stops_one_above_the_hot_maximum(self, thresholds_seen):
        # two degree-20 hubs sharing 5 leaves beside a K8 (degree 7, codegree
        # 6): from 13 the doubled step would reach 5, but s stops at 5 + 1
        hubs = [(0, leaf) for leaf in range(2, 22)] + [(1, leaf) for leaf in range(17, 37)]
        clique = [(a, b) for a in range(37, 45) for b in range(a + 1, 45)]
        self.assert_descent(graph_from_edges(45, hubs + clique), thresholds_seen, 6, [20, 19, 17, 13, 6])

    def test_descent_from_a_large_star(self, thresholds_seen):
        # only the center has a high degree: the steps double down to 1
        g = graph_from_edges(2001, [(0, leaf) for leaf in range(1, 2001)])
        assert degree_codegree_stats(g)["max_codegree"] == 1 == brute_force_max_codegree(g)
        assert thresholds_seen[0] == 2000 and thresholds_seen[-1] == 1
        assert len(thresholds_seen) <= math.ceil(math.log2(2000)) + 2

    @pytest.mark.parametrize("seed", range(12))
    def test_stats_ignore_an_earlier_pair_product(self, thresholds_seen, seed):
        # the stats are a function of the graph alone: a hot-row product
        # before them changes neither their record nor their products
        g = random_graph(seed)
        want = degree_codegree_stats(g)
        descent = thresholds_seen.copy()
        assert want["max_codegree"] == full_product_pairs(g, 1)[2].max(initial=0)
        assert len(descent) <= math.ceil(math.log2(max(want["max_degree"], 1))) + 2
        for t0 in self.THRESHOLDS:
            thresholds_seen.clear()
            self.assert_matches_full(g, t0)
            assert degree_codegree_stats(g) == want
            assert thresholds_seen == [max(t0, 1), *descent]

    def test_stats_ignore_prune(self):
        dom = TorusDomain(2, 20.0)
        body = lp_ball(2, 2, scale=1.0)
        g = build_graph(sample_poisson(dom, 30.0, np.random.default_rng(3)), body, dom)
        want = degree_codegree_stats(g)
        assert want["max_codegree"] == brute_force_max_codegree(g)
        packing._hot_codegrees(g, 36.0)
        assert degree_codegree_stats(g) == want
        ik = IkProfile(body, 0.95, McEstimate(1e-3, 0.0, 1), 1.0, (1e-3, 1e-3), ik_gauge_radius(body, 0.95))
        prune(g, ik, 30.0, 1.2, np.random.default_rng(0), 500)
        assert degree_codegree_stats(g) == want

    def test_graph_keeps_no_product_state(self):
        assert [f.name for f in dataclasses.fields(PackingGraph)] == ["points", "adj", "domain", "near_gauge", "near_codes"]


class TestCodegreePairsInline(TestCodegreePairs):
    """Every TestCodegreePairs case again with every core token held, so both
    row blocks of the hot-row product run on the caller."""

    @pytest.fixture(autouse=True)
    def tokens_held(self):
        with all_core_tokens_held():
            yield


class TestEdgeGauges:
    """X2 reads its candidate pairs off the codes that the build's gauge pass
    keeps at the graph's near gauge, and any other limit queries them; the
    oracle is X2's first KD-tree query, sorted by (i, j)."""

    @staticmethod
    def points(body, seed, n=1500, mean_degree=30.0, duplicates=25):
        """Uniform points at about ``mean_degree`` for a unit-volume body
        (fewer where the torus must be larger for the body), with the first
        ``duplicates`` repeated (edges of gauge 0)."""
        rng = np.random.default_rng(seed)
        d = body.d
        dom = TorusDomain(d, max((n * 2.0**d / mean_degree) ** (1.0 / d), 8.0 * body.circumradius() + 0.5))
        pts = rng.uniform(0.0, dom.L, size=(n, d))
        return dom, np.concatenate([pts, pts[:duplicates]])

    @staticmethod
    def assert_matches_reference(g, body, limit):
        rows, cols = packing.edges_within_gauge(g, body, limit)
        want_rows, want_cols = x2_pairs_reference(g.points, body, g.domain, limit)
        assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)

    @pytest.mark.parametrize("p", [2.0, math.inf])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_l2_and_cube_match_query(self, d, p):
        body = normalize_to_unit_volume(lp_ball(d, p))
        dom, pts = self.points(body, seed=10 * d + int(math.isinf(p)))
        limit = 2.0 * ik_gauge_radius(body, 0.95)
        assert 0.0 < limit < 2.0
        g = build_graph(pts, body, dom, limit)
        assert g.near_gauge == limit
        for lim in (limit, 0.5, 1.0, 2.0, 2.5):
            self.assert_matches_reference(g, body, lim)
        assert len(packing.edges_within_gauge(g, body, limit)[0]) >= 25

    @pytest.mark.parametrize(
        "d,p", [(2, 2.0), (3, 2.0), (2, 3.0), (3, 3.0)], ids=["l2-d2", "l2-d3", "lp3-d2", "lp3-d3"]
    )
    def test_build_keeps_the_x2_query(self, d, p):
        # the default config's points and X2 limit 2 g_ik, for l2 and lp3
        cfg = dataclasses.replace(default_config(d), body={"kind": "lp", "d": d, "p": p, "scale": 1.0})
        body = normalize_to_unit_volume(body_from_spec(cfg.body))
        dom = TorusDomain(d, cfg.L)
        pts = sample_poisson(dom, cfg.Delta, np.random.default_rng(cfg.seed))
        limit = 2.0 * ik_gauge_radius(body, cfg.ik_delta)
        g = build_graph(pts, body, dom, limit)
        want = packing.pairs_within_gauge(pts, body, dom, limit)[0]
        assert g.near_gauge == limit and g.near_codes.dtype == np.int64 and len(want) > 0
        assert np.array_equal(g.near_codes, want)

    @pytest.mark.parametrize("seed", range(5))
    def test_other_bodies_match_query(self, seed):
        bodies = [lp_ball(2, 3), lp_ball(3, 1.5), criterion4_hpolytope()]
        for body in bodies:
            body = normalize_to_unit_volume(body)
            dom, pts = self.points(body, seed=100 + seed, n=600)
            for near in (None, 0.3, 1.0, 2.0):
                g = build_graph(pts, body, dom, near)
                for lim in (0.3, 1.0, 2.0, 2.5):
                    self.assert_matches_reference(g, body, lim)

    def test_coincident_points_keep_a_gauge_zero_edge(self):
        dom = TorusDomain(2, 20.0)
        body = lp_ball(2, 2)
        pts = np.array([[3.0, 3.0], [3.0, 3.0], [8.0, 8.0], [8.0, 8.0], [8.0, 8.5]])
        g = build_graph(pts, body, dom, 0.1)
        assert g.edge_count() == 4
        assert g.near_codes.tolist() == [0 * 5 + 1, 2 * 5 + 3]  # both gauge-0 edges
        assert g.neighbors[0].tolist() == [1] and g.neighbors[1].tolist() == [0]
        assert build_graph(pts, body, dom, 0.0).near_codes.tolist() == [1, 13]
        rows, cols = packing.edges_within_gauge(g, body, 0.1)
        assert rows.tolist() == [0, 2] and cols.tolist() == [1, 3]
        self.assert_matches_reference(g, body, 0.1)

    @pytest.mark.parametrize(
        "body,diffs",
        [
            # dyadic coordinates: every gauge below is exactly 1
            (cube(2, side=1.0), [(0.5, 0.25), (-0.25, 0.5), (0.5, 0.5)]),
            (lp_ball(2, 2, scale=0.625), [(0.375, 0.5), (-0.5, 0.375), (0.625, 0.0)]),
        ],
    )
    def test_pairs_at_the_gauge_limit(self, body, diffs):
        dom = TorusDomain(2, 20.0)
        base = np.array([[4.0, 4.0], [10.0, 4.0], [19.75, 12.0]])  # the last wraps around
        pts = np.concatenate([base, (base + np.array(diffs)) % dom.L])
        below = np.nextafter(1.0, 0.0)
        g = build_graph(pts, body, dom, 1.0)
        assert g.edge_count() == 3 and g.near_codes.tolist() == [0 * 6 + 3, 1 * 6 + 4, 2 * 6 + 5]
        assert len(build_graph(pts, body, dom, below).near_codes) == 0
        rows, cols = packing.edges_within_gauge(g, body, 1.0)
        assert rows.tolist() == [0, 1, 2] and cols.tolist() == [3, 4, 5]
        assert len(packing.edges_within_gauge(g, body, below)[0]) == 0
        for lim in (1.0, below):
            self.assert_matches_reference(g, body, lim)

    def test_graph_without_gauges(self):
        # a graph with no codes kept, or kept at another gauge, answers from
        # its points: graph_from_edges puts every point at the origin
        g = graph_from_edges(3, [(0, 1)])
        assert g.near_codes is None
        rows, cols = packing.edges_within_gauge(g, lp_ball(2, 2), 1.0)
        assert rows.tolist() == [0, 0, 1] and cols.tolist() == [1, 2, 2]
        built = build_graph(np.array([[0.0, 0.0], [0.0, 1.5], [5.0, 5.0]]), lp_ball(2, 2), TorusDomain(2, 10.0), 1.0)
        assert built.near_codes.tolist() == [] and built.edge_count() == 1
        rows, cols = packing.edges_within_gauge(built, lp_ball(2, 2), 2.0)
        assert rows.tolist() == [0] and cols.tolist() == [1]
        sub = built.subgraph(np.array([True, True, False]))
        assert sub.near_gauge is None and sub.near_codes is None
        # above gauge 2 the pairs are not edges: the build keeps none
        assert build_graph(built.points, lp_ball(2, 2), built.domain, 2.5).near_codes is None

    def test_from_pairs_with_gauges(self):
        # from_pairs takes the codes alone: the gauges stay with the build,
        # whose gauge-0 edges test_coincident_points_keep_a_gauge_zero_edge covers
        pts, dom = np.zeros((4, 2)), TorusDomain(2, 10.0)
        pairs = np.array([[0, 1], [0, 3], [2, 3]])
        g = PackingGraph.from_pairs(pts, pairs[:, 0] * 4 + pairs[:, 1], dom)
        TestFromPairs.assert_same_csr(g.adj, adjacency_reference(4, pairs))
        assert g.adj.dtype == np.int8 and g.adj.data.nbytes == 6
        # the upper triangle is built from the pairs as they stand, so they must come in (i, j) order
        for bad in ([[1, 0]], [[0, 1], [0, 1]], [[1, 1]], [[2, 3], [0, 1], [0, 3]], [[0, 3], [0, 1]], [[3, 3]]):
            bad = np.array(bad)
            with pytest.raises(ValueError, match="distinct with i < j"):
                PackingGraph.from_pairs(pts, bad[:, 0] * 4 + bad[:, 1], dom)
        # codes outside [0, n^2) name no pair of the points
        for bad in ([-1], [16], [1, 2, 3, 16]):
            with pytest.raises(ValueError, match="distinct with i < j"):
                PackingGraph.from_pairs(pts, np.array(bad), dom)

    @pytest.mark.parametrize(
        "body",
        [lp_ball(2, 2), cube(2), lp_ball(2, 3), criterion4_hpolytope()],
        ids=["l2", "cube", "lp3", "hpoly"],
    )
    def test_prune_builds_no_tree(self, body, monkeypatch):
        # unit volume and delta 0.95 >= vol/2: g_ik <= 1, so X2's pairs are edges
        body = normalize_to_unit_volume(body)
        d = body.d
        pts = np.zeros((4, d))
        pts[2:] = 3.0
        pts[3, 0] += 1.5 / body.gauge(np.eye(d)[0])  # gauge 1.5 apart
        dom = TorusDomain(d, 12.0)
        ik = IkProfile(body, 0.95, McEstimate(1e-3, 0.0, 1), 1.0, (1e-3, 1e-3), ik_gauge_radius(body, 0.95))
        g = build_graph(pts, body, dom, 2.0 * ik.gauge_radius)

        def no_tree(*args, **kwargs):
            raise AssertionError("prune built a KD tree")

        monkeypatch.setattr(packing, "cKDTree", no_tree)
        pruned, rep = prune(g, ik, 30.0, 1.2, np.random.default_rng(0), 500)
        assert rep.removed_x2 == 2 and np.array_equal(pruned.points, pts[2:])


class TestTorusPairs:
    """Torus pairs from non-periodic queries must equal one periodic KD-tree
    query over every point, pair for pair and in (i, j) order."""

    @staticmethod
    def points(d, L, r, seed, n=300):
        """Uniform points, points on the faces x_k in {0, r, L - r}, points
        on and beside the cut x_0 = L/2 between the slabs, points near the
        corner that cross 2 and 3 axes at once, and repeats."""
        rng = np.random.default_rng(seed)
        pts = [rng.uniform(0.0, L, size=(n, d))]
        faces = rng.uniform(0.0, L, size=(6 * d, d))
        for k in range(d):
            faces[6 * k : 6 * k + 6, k] = [0.0, r, L - r, 0.0, r, L - r]
        pts.append(faces)
        # the first five share their other coordinates, so the cut's pairs sit at about r;
        # with r > L/4, a point one ulp below L/2 - r is less than an ulp of r beyond r
        # from L/2, so its rounded difference can read r
        cut = np.vstack([np.tile(rng.uniform(0.0, L, size=(1, d)), (5, 1)), rng.uniform(0.0, L, size=(5, d))])
        at = [L / 2 - r, np.nextafter(L / 2 - r, -math.inf), np.nextafter(L / 2, 0.0), L / 2, L / 2 + r]
        cut[:, 0] = np.array(2 * at) % L
        pts.append(cut)
        eps = rng.uniform(0.0, r / (2 * d), size=(8 * d, d))
        corner = np.where(rng.integers(0, 2, size=eps.shape) == 1, eps, L - eps)
        pts.append(corner)
        pts = np.concatenate(pts)
        return np.concatenate([pts, pts[:: 7]])  # repeated points

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_periodic_query(self, d, p):
        L = 8.0
        for r in (0.5, 1.75, 3.0, np.nextafter(L / 2, 0.0)):
            pts = self.points(d, L, r, seed=d + int(p if math.isfinite(p) else 9))
            got = packing.torus_pairs(pts, L, r, p)
            want = periodic_query_reference(pts, L, r, p)
            assert got.dtype == np.int64 and np.array_equal(decoded(got, len(pts)), want)
            assert (np.diff(got) > 0).all()

    @pytest.mark.parametrize("slab", ["low", "high"])
    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_every_point_in_one_slab(self, d, p, slab):
        L = 8.0
        for r in (0.5, 1.75, np.nextafter(L / 2, 0.0)):
            pts = self.points(d, L, r, seed=d)
            pts[:, 0] = pts[:, 0] / 2 + (L / 2 if slab == "high" else 0.0)
            got = decoded(packing.torus_pairs(pts, L, r, p), len(pts))
            assert np.array_equal(got, periodic_query_reference(pts, L, r, p)) and len(got) > 0

    def test_pairs_across_several_faces(self):
        # (0, 1) crosses axis 0, (0, 2) axes 0 and 1, (0, 3) all three and
        # (1, 3) axes 1 and 2: each pair comes once, from its first axis
        L, r = 10.0, 1.0
        pts = np.array([[0.25, 0.25, 0.25], [9.75, 0.25, 0.25], [9.75, 9.75, 0.25], [9.75, 9.75, 9.75]])
        got = decoded(packing.torus_pairs(pts, L, r), len(pts))
        assert got.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
        assert np.array_equal(got, periodic_query_reference(pts, L, r))

    def test_pair_at_the_radius_across_a_face(self):
        # x = L - r and x = 0 are exactly r apart around the torus (dyadic values)
        L, r = 8.0, 1.75
        pts = np.array([[3.0, 6.25], [3.0, 0.0], [6.25, 5.0], [0.0, 5.0], [6.25, 1.0], [0.125, 1.0]])
        got = decoded(packing.torus_pairs(pts, L, r), len(pts))
        assert got.tolist() == [[0, 1], [2, 3]]
        assert np.array_equal(got, periodic_query_reference(pts, L, r))

    def test_expected_pairs(self):
        # n (n - 1) / 2 times the ball's share of the torus: pi r^2 for l2 at
        # d = 2, 2 r^2 for l1, (2 r)^2 for the cube, 4/3 pi r^3 for l2 at d = 3
        n, L, r = 500, 10.0, 1.5
        pairs = n * (n - 1) / 2
        for d, p, ball in ((2, 2.0, math.pi * r**2), (2, 1.0, 2 * r**2), (2, math.inf, (2 * r) ** 2),
                           (3, 2.0, 4 / 3 * math.pi * r**3), (1, 3.0, 2 * r)):
            assert packing.expected_pairs(n, d, L, r, p) == pytest.approx(pairs * ball / L**d, rel=1e-12)
        # and the mean count of the query over uniform points
        rng = np.random.default_rng(7)
        for d, p in ((2, 2.0), (3, 1.0), (3, math.inf)):
            counts = [len(packing.torus_pairs(rng.uniform(0.0, L, size=(n, d)), L, 2.0 * r, p)) for _ in range(20)]
            assert np.mean(counts) == pytest.approx(packing.expected_pairs(n, d, L, 2.0 * r, p), rel=0.05)
        assert packing.expected_pairs(0, 3, L, r) == packing.expected_pairs(1, 3, L, r) == 0.0

    @pytest.mark.parametrize("n", [0, 1])
    def test_no_pairs(self, n):
        assert packing.torus_pairs(np.zeros((n, 3)), 10.0, 1.0).shape == (0,)

    def test_radius_must_stay_below_half_the_side(self):
        pts = np.zeros((3, 2))
        for r in (5.0, 6.0):
            with pytest.raises(ValueError, match=r"radius .* 2 \* radius < L = 10"):
                packing.torus_pairs(pts, 10.0, r)
        assert packing.torus_pairs(pts, 10.0, np.nextafter(5.0, 0.0)).tolist() == [1, 2, 5]

    @pytest.mark.parametrize(
        "body",
        [lp_ball(1, 2), lp_ball(2, 1), lp_ball(2, math.inf), lp_ball(3, 2), lp_ball(3, 1),
         lp_ball(3, math.inf), lp_ball(4, 2), lp_ball(4, math.inf), lp_ball(2, 3), lp_ball(3, 3),
         criterion4_hpolytope()],
        ids=["l2-d1", "l1-d2", "cube-d2", "l2-d3", "l1-d3", "cube-d3", "l2-d4", "cube-d4",
             "lp3-d2", "lp3-d3", "hpoly"],
    )
    def test_pairs_within_gauge_matches_periodic(self, body):
        body = normalize_to_unit_volume(body)
        d = body.d
        rng = np.random.default_rng(d)
        if body.kind == "lp" and body.p in (1.0, 2.0, math.inf):
            R = body.scale
        else:
            R = body.circumradius()
        for limit, L in ((2.0, 8.0 * body.circumradius() * 1.01), (2.5, 5.0 * R * (1.0 + 1e-6))):
            dom = TorusDomain(d, L)
            n = int(min(400, 25 * (L / R) ** d / 4))
            pts = self.points(d, L, limit * R, seed=int(rng.integers(1 << 30)), n=n)
            # points just outside the box are accepted as well
            pts[:5] -= L
            codes, g = packing.pairs_within_gauge(pts, body, dom, limit)
            pairs = decoded(codes, len(pts))
            want_pairs, want_g = periodic_pairs_reference(pts, body, dom, limit)
            assert np.array_equal(pairs, want_pairs) and np.array_equal(g, want_g)
            assert len(pairs) > 0


class TestTorusPairsInline(TestTorusPairs):
    """Every TestTorusPairs case again with every core token held, so both
    slabs and every band are queried on the caller."""

    @pytest.fixture(autouse=True)
    def tokens_held(self):
        with all_core_tokens_held():
            yield


class TestInParts:
    """Kernels run in two parts, the second on a worker thread only with a
    borrowed core token and work at or above the caller's crossover, else
    after the first here; the arrays are the same."""

    @staticmethod
    def threads_of_parts(work=1.0, crossover=1.0):
        """{part: thread it ran on} for the parts :func:`in_parts` ran."""
        ran = {}

        def part(name):
            return lambda: ran.setdefault(name, threading.get_ident()) and name

        assert bodies.in_parts(work, crossover, part("first"), part("second")) == ["first", "second"]
        return ran

    def test_second_part_on_a_worker_with_a_free_token(self):
        ran = self.threads_of_parts()
        assert ran["first"] == threading.get_ident() != ran["second"]
        assert free_core_tokens() == CORES

    def test_both_parts_here_without_a_free_token(self):
        with all_core_tokens_held():
            assert set(self.threads_of_parts().values()) == {threading.get_ident()}
        assert free_core_tokens() == CORES

    def test_both_parts_here_below_the_crossover(self):
        for work, crossover in ((0.0, 1.0), (np.nextafter(4e6, 0.0), 4e6), (1.0, math.inf)):
            assert set(self.threads_of_parts(work, crossover).values()) == {threading.get_ident()}
        assert free_core_tokens() == CORES

    def test_worker_holds_the_borrowed_token(self):
        assert bodies.in_parts(1, 1, free_core_tokens, free_core_tokens) == [CORES - 1, CORES - 1]

    @pytest.mark.parametrize("held", [False, True], ids=["token-free", "tokens-held"])
    @pytest.mark.parametrize("failing", ["first", "second"])
    def test_an_exception_propagates_and_the_token_returns(self, failing, held):
        def fail():
            raise ZeroDivisionError(failing)

        parts = (fail, lambda: 0) if failing == "first" else (lambda: 0, fail)
        with all_core_tokens_held() if held else contextlib.nullcontext():
            with pytest.raises(ZeroDivisionError, match=f"^{failing}$"):
                bodies.in_parts(1, 1, *parts)
        assert free_core_tokens() == CORES

    def test_runs_never_take_more_cores_than_there_are(self):
        # more pipeline-like threads than cores, each holding a token while it
        # runs kernels in parts: at no time do more parts run than there are
        # tokens, and every borrowed token comes back
        lock, running, peak = threading.Lock(), [0], [0]

        def part():
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            time.sleep(1e-4)
            with lock:
                running[0] -= 1

        def run():
            for _ in range(30):
                with bodies.CORE_TOKENS:
                    part()
                    bodies.in_parts(1, 1, part, part)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run) for _ in range(CORES + 2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert 1 <= peak[0] <= CORES and running[0] == 0
        assert free_core_tokens() == CORES

    @staticmethod
    def routes(fn, held=True):
        """fn() split wherever a core token is free (every crossover at 0),
        on the caller alone (every crossover at inf) and, for a kernel,
        with every token held, which must agree array for array."""
        with crossovers_at(0.0) as seconds:
            outs = [fn()]
        assert CORES == 1 or any(t != threading.get_ident() for t in seconds)
        with crossovers_at(math.inf) as seconds:
            outs.append(fn())
        assert seconds == [threading.get_ident()] * len(seconds)
        if held:
            with all_core_tokens_held():
                outs.append(fn())
        for other in outs[1:]:
            for a, b in zip(outs[0], other):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        return outs[0]

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_torus_pairs_routes_agree(self, d):
        L = 10.0
        pts = TestTorusPairs.points(d, L, 2.0, seed=40 + d, n=2000)
        codes = self.routes(lambda: [packing.torus_pairs(pts, L, 2.0)])[0]
        assert len(codes) > 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_record_routes_agree(self, seed):
        # a run holds one core token throughout, so it cannot run with every
        # token held; with two cores its kernels split only when the
        # crossovers are lowered
        cfg = dataclasses.replace(default_config(3), seed=seed)
        record = self.routes(lambda: [np.frombuffer(run_pipeline(cfg).to_json().encode(), dtype=np.uint8)], held=False)
        assert len(record[0]) > 0

    @classmethod
    def hot_codegrees_both_routes(cls, g, t, rows=None):
        """_hot_codegrees on every route, which must agree."""
        return cls.routes(lambda: packing._hot_codegrees(g, t, rows))

    @pytest.mark.parametrize(
        "edges,t,want_hot",
        [
            ([(0, 1), (1, 2)], 3.0, []),
            ([(0, 1), (0, 2), (0, 3)], 3.0, [0]),
            ([(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)], 3.0, [0, 1]),
        ],
        ids=["no-hot-row", "one-hot-row", "two-hot-rows"],
    )
    def test_hot_codegrees_on_few_rows(self, edges, t, want_hot):
        g = graph_from_edges(5, edges)
        hot, row, col, count = self.hot_codegrees_both_routes(g, t)
        assert hot.tolist() == want_hot
        A = g.adj.toarray()
        got = np.zeros((len(hot), len(hot)))
        got[row, col] = count
        assert np.array_equal(got, (A @ A)[np.ix_(hot, hot)])
        assert len(set(zip(row.tolist(), col.tolist()))) == len(row) and np.all(count > 0)

    def test_product_blocks_view_the_rows(self):
        # _hot_codegrees' two row blocks of B read B's entries, not copies of them
        B = random_graph(3).adj.astype(np.int32)
        n = B.shape[0]
        assert B.nnz > 0
        for a, b in ((0, n // 2), (n // 2, n), (0, n), (n - 1, n), (n, n)):
            block, want = packing._rows(B, a, b), B[a:b]
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(block, name), getattr(want, name)), name
            views = np.shares_memory(block.data, B.data) and np.shares_memory(block.indices, B.indices)
            assert block.nnz == 0 or views

    @pytest.mark.parametrize("seed", range(6))
    def test_hot_codegrees_routes_agree(self, seed):
        g = random_graph(seed)
        for t in (1.0, 3.0, 6.0):
            self.hot_codegrees_both_routes(g, t)

    @pytest.mark.parametrize("seed", range(6))
    def test_hot_codegrees_over_masked_rows(self, seed):
        # B's rows at the mask's hot vertices: the whole product's entries in those rows
        g = random_graph(seed)
        mask = np.random.default_rng(seed).random(g.n) < 0.5
        for t in (1.0, 3.0, 6.0):
            hot, row, col, count = self.hot_codegrees_both_routes(g, t)
            keep = mask[hot[row]]
            got = self.hot_codegrees_both_routes(g, t, mask)
            for a, b in zip(got, (hot, row[keep], col[keep], count[keep])):
                assert a.dtype == b.dtype and np.array_equal(a, b)
