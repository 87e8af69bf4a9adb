import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from normpack.bodies import body_to_spec, lp_ball, normalize_to_unit_volume
from normpack.harness import default_config, run_stages
from normpack.indset import (
    OverlapError,
    export_packing,
    greedy_independent_set,
    import_packing,
    is_independent,
    local_search_improve,
    verify_packing,
)
from normpack.packing import TorusDomain, build_graph, sample_poisson

from graph_oracles import (
    exhaustive_max_independent,
    graph_from_edges,
    is_independent_reference,
    local_search_reference,
    rounds_reference,
)
from indset_oracles import max_independent_set


def random_graph(rng, n, p):
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return edges


class TestGreedy:
    def test_edgeless(self):
        g = graph_from_edges(5, [])
        out = greedy_independent_set(g, np.random.default_rng(0))
        assert out.tolist() == [0, 1, 2, 3, 4]

    def test_complete(self):
        g = graph_from_edges(4, list(itertools.combinations(range(4), 2)))
        out = greedy_independent_set(g, np.random.default_rng(0))
        assert len(out) == 1

    def test_empty_graph(self):
        g = graph_from_edges(0, [])
        assert len(greedy_independent_set(g, np.random.default_rng(0))) == 0

    def test_output_independent_and_maximal(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            n = int(rng.integers(5, 30))
            edges = random_graph(rng, n, 0.25)
            g = graph_from_edges(n, edges)
            out = greedy_independent_set(g, rng)
            assert is_independent(g, out)
            chosen = set(out.tolist())
            for v in range(n):  # maximality
                if v not in chosen:
                    assert chosen.intersection(g.neighbors[v].tolist())

    def test_turan_type_guarantee(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            n = int(rng.integers(5, 40))
            g = graph_from_edges(n, random_graph(rng, n, 0.3))
            out = greedy_independent_set(g, rng)
            dmax = int(g.degree().max())
            assert len(out) >= n / (dmax + 1)

    def test_caro_wei_bound(self):
        # each winner's live degree is at most that of every neighbor it removes
        rng = np.random.default_rng(12)
        for trial in range(60):
            n = int(rng.integers(1, 80))
            g = graph_from_edges(n, random_graph(rng, n, float(rng.uniform(0.0, 0.6))))
            out = greedy_independent_set(g, np.random.default_rng(trial))
            assert len(out) >= np.sum(1.0 / (g.degree() + 1.0)) - 1e-9

    def test_star_gives_its_leaves(self):
        # random-order greedy takes the center alone whenever it comes first
        g = graph_from_edges(21, [(0, leaf) for leaf in range(1, 21)])
        for seed in range(200):
            assert greedy_independent_set(g, np.random.default_rng(seed)).tolist() == list(range(1, 21))

    def test_draws_one_permutation(self):
        g = graph_from_edges(30, random_graph(np.random.default_rng(13), 30, 0.2))
        used, want = np.random.default_rng(14), np.random.default_rng(14)
        greedy_independent_set(g, used)
        want.permutation(30)
        assert used.bit_generator.state == want.bit_generator.state

    def test_matches_sequential_reference_on_random_graphs(self):
        # the per-vertex loop of the same rounds, bit for bit
        rng = np.random.default_rng(11)
        for trial in range(60):
            n = int(rng.integers(0, 80))
            g = graph_from_edges(n, random_graph(rng, n, float(rng.uniform(0.0, 0.5))))
            got = greedy_independent_set(g, np.random.default_rng(trial))
            want = rounds_reference(g, np.random.default_rng(trial))
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("p", [2.0, math.inf])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_sequential_reference_on_packing_graphs(self, d, p):
        body = normalize_to_unit_volume(lp_ball(d, p))
        dom = TorusDomain(d, {2: 20.0, 3: 10.0, 4: 8.5}[d])
        g = build_graph(sample_poisson(dom, 30.0, np.random.default_rng(d)), body, dom)
        for seed in range(3):
            got = greedy_independent_set(g, np.random.default_rng(seed))
            assert np.array_equal(got, rounds_reference(g, np.random.default_rng(seed)))

    @pytest.mark.parametrize(
        "n,edges",
        [(0, []), (1, []), (6, [(1, 2)]), (7, [(0, 3), (3, 6), (0, 6)]), (9, [(1, 2), (2, 3), (5, 6)])],
        ids=["empty", "one-vertex", "isolated-around-an-edge", "isolated-ends", "isolated-between"],
    )
    def test_matches_sequential_reference_with_isolated_vertices(self, n, edges):
        g = graph_from_edges(n, edges)
        for seed in range(5):
            got = greedy_independent_set(g, np.random.default_rng(seed))
            want = rounds_reference(g, np.random.default_rng(seed))
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_star_past_int32_keys(self):
        # K_{1,m} with (m + 1)^2 >= 2^31: the center's key, m (m + 1) + place,
        # does not fit in int32, and a wrapped key would make the center win
        m = 46_341
        assert (m + 1) ** 2 >= 2**31
        g = graph_from_edges(m + 1, [(0, leaf) for leaf in range(1, m + 1)])
        got = greedy_independent_set(g, np.random.default_rng(0))
        assert np.array_equal(got, np.arange(1, m + 1))
        assert np.array_equal(got, rounds_reference(g, np.random.default_rng(0)))

    def test_traced_bytes_per_edge(self):
        # d = 3, L = 6, Delta = 300: about 1.2M edges.  Round one reads the
        # CSR rows in blocks and the later rounds run on the live edges i < j,
        # so beside the graph greedy holds about 11 traced bytes per edge
        dom, body = TorusDomain(3, 6.0), normalize_to_unit_volume(lp_ball(3, 2))
        g = build_graph(sample_poisson(dom, 300.0, np.random.default_rng(1)), body, dom)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            greedy_independent_set(g, np.random.default_rng(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m = g.edge_count()
        assert m > 1_000_000 and peak - held <= 12 * m

    def test_deterministic_given_seed(self):
        edges = random_graph(np.random.default_rng(3), 25, 0.2)
        g = graph_from_edges(25, edges)
        a = greedy_independent_set(g, np.random.default_rng(7))
        b = greedy_independent_set(g, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestIsIndependent:
    def test_matches_set_reference(self):
        rng = np.random.default_rng(8)
        for trial in range(40):
            n = int(rng.integers(1, 40))
            g = graph_from_edges(n, random_graph(rng, n, 0.15))
            greedy = greedy_independent_set(g, rng)
            subsets = [
                greedy,
                set(greedy.tolist()),
                np.concatenate([greedy, greedy[:2]]),  # repeated vertices
                rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False),
                rng.integers(0, n, size=5).tolist(),
                [],
            ]
            for vs in subsets:
                assert is_independent(g, vs) == is_independent_reference(g, vs)

    def test_dependent_and_empty(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        assert not is_independent(g, [0, 1])
        assert not is_independent(g, {3, 0, 2})
        assert is_independent(g, [0, 2, 0, 2])
        assert is_independent(g, [])
        assert is_independent(graph_from_edges(0, []), [])


class TestLocalSearch:
    def test_matches_per_neighbor_reference(self):
        rng = np.random.default_rng(6)
        for trial in range(40):
            n = int(rng.integers(4, 60))
            g = graph_from_edges(n, random_graph(rng, n, float(rng.uniform(0.05, 0.4))))
            seed = greedy_independent_set(g, rng)
            budget = int(rng.integers(0, 20))
            out = local_search_improve(g, seed, budget)
            assert np.array_equal(out, local_search_reference(g, seed, budget))

    def test_path_swap(self):
        # path 0-1-2: seeding with the center swaps to the two endpoints
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        out = local_search_improve(g, [1], budget=10)
        assert out.tolist() == [0, 2]

    def test_never_shrinks(self):
        rng = np.random.default_rng(4)
        for trial in range(30):
            n = int(rng.integers(4, 25))
            g = graph_from_edges(n, random_graph(rng, n, 0.3))
            seed = greedy_independent_set(g, rng)
            out = local_search_improve(g, seed, budget=50)
            assert len(out) >= len(seed)
            assert is_independent(g, out)

    def test_budget_zero_still_maximalizes(self):
        g = graph_from_edges(4, [(0, 1)])
        out = local_search_improve(g, [0], budget=0)
        assert set(out.tolist()) == {0, 2, 3}

    def test_rejects_dependent_seed(self):
        g = graph_from_edges(2, [(0, 1)])
        with pytest.raises(ValueError, match="independent"):
            local_search_improve(g, [0, 1], budget=5)

    def test_not_worse_than_exhaustive(self):
        # optimality cap on 50 small random graphs, plus the greedy bound
        rng = np.random.default_rng(5)
        for trial in range(50):
            n = int(rng.integers(4, 15))
            edges = random_graph(rng, n, 0.35)
            g = graph_from_edges(n, edges)
            opt = exhaustive_max_independent(n, edges)
            seed = greedy_independent_set(g, rng)
            out = local_search_improve(g, seed, budget=100)
            dmax = int(g.degree().max(initial=0))
            assert n / (dmax + 1) <= len(out) <= opt


class TestTrueAlpha:
    # alpha of the pruned graph of default_config(2) at a smaller L, seed 1,
    # proved optimal by the MILP oracle in seconds; no d = 3 graph is pinned yet
    ALPHA = {5.0: 16, 6.0: 23, 8.0: 41}

    @pytest.mark.parametrize("L", sorted(ALPHA))
    def test_pipeline_set_reaches_085_alpha(self, L):
        run = run_stages(replace(default_config(2), L=L))
        best = max_independent_set(run.pruned)
        assert len(best) == self.ALPHA[L] and is_independent(run.pruned, best)
        assert run.packing.count >= 0.85 * len(best)


class TestVerifyPacking:
    DOM = TorusDomain(2, 20.0)
    BODY = lp_ball(2, 2, scale=1.0)

    def test_valid_packing(self):
        centers = np.array([[2.0, 2.0], [4.2, 2.0], [2.0, 8.0]])
        res = verify_packing(centers, self.BODY, self.DOM, math.pi)
        assert res.count == 3
        assert res.density == pytest.approx(3 * math.pi / 400.0)
        assert res.trivial_bound == 0.25
        assert res.min_pairwise_gauge == pytest.approx(2.2)

    def test_touching_allowed(self):
        centers = np.array([[5.0, 5.0], [7.0, 5.0]])
        res = verify_packing(centers, self.BODY, self.DOM, math.pi)
        assert res.min_pairwise_gauge == pytest.approx(2.0)

    def test_overlap_raises_with_pair(self):
        centers = np.array([[5.0, 5.0], [12.0, 12.0], [6.0, 5.0]])
        with pytest.raises(OverlapError) as exc:
            verify_packing(centers, self.BODY, self.DOM, math.pi)
        assert exc.value.pair == (0, 2)
        assert exc.value.gauge_value == pytest.approx(1.0)

    def test_wraparound_overlap_detected(self):
        centers = np.array([[0.5, 10.0], [19.8, 10.0]])
        with pytest.raises(OverlapError):
            verify_packing(centers, self.BODY, self.DOM, math.pi)

    def test_single_center(self):
        res = verify_packing(np.array([[1.0, 1.0]]), self.BODY, self.DOM, math.pi)
        assert res.count == 1 and math.isinf(res.min_pairwise_gauge)

    def test_target_reference(self):
        centers = np.array([[2.0, 2.0]])
        res = verify_packing(centers, self.BODY, self.DOM, math.pi, n_candidates=100, Delta=20.0)
        assert res.target_reference == pytest.approx(100 * math.log(20.0) / 20.0)

    def test_export_import_round_trip(self, tmp_path):
        centers = np.array([[2.0, 2.0], [6.0, 2.0]])
        res = verify_packing(centers, self.BODY, self.DOM, math.pi)
        path = tmp_path / "pack.txt"
        export_packing(res, body_to_spec(self.BODY), self.DOM.L, path)
        c2, spec, L = import_packing(path)
        assert np.array_equal(c2, centers)
        assert spec == body_to_spec(self.BODY)
        assert L == 20.0

    def test_import_requires_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 2.0\n")
        with pytest.raises(ValueError, match="header"):
            import_packing(path)
