"""Acceptance suite: one test per criterion, one printed verdict line each.

Each test prints "[PASS] criterion-N ..." (or FAIL) on the live terminal
before asserting, so a `pytest -v` run shows a line per criterion even
with output capture enabled.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from normpack import volumetrics
from normpack.bodies import (
    body_to_spec,
    closed_form_volume,
    cube,
    hpolytope,
    lp_ball,
    normalize_to_unit_volume,
)
from normpack.checks import (
    check_logconcavity,
    check_minkowski_equivalence,
    check_poisson_tail,
    check_rogers_shephard,
    check_schmuckenschlager,
)
from normpack.harness import child_rng, default_config, run_pipeline, run_stages, sweep
from normpack.indset import greedy_independent_set
from normpack.packing import PackingGraph, TorusDomain, build_graph
from normpack.volumetrics import (
    analytic_polar_proj_volume,
    intersection_volume,
    mc_volume,
    polar_proj_ball_volume,
    polar_proj_volume_mc,
)

from estimates import ball_lens_scalar, brackets
from graph_oracles import brute_force_graph, exhaustive_max_independent, graph_from_edges, graphs_equal
from polytope_oracles import criterion4_hpolytope


@pytest.fixture
def conclude(capsys):
    def _conclude(name, ok, detail=""):
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        assert ok, f"{name}: {detail}"

    return _conclude


def _brute_force_degree_codegree(pruned: PackingGraph, body, domain):
    """Chunked O(n^2) adjacency rebuild; also re-verifies the stored adjacency.

    Each unordered pair is gauged once: every 256-row chunk against the
    points from its own start on.  The codegrees come from the exact sparse
    product of the rebuilt matrix with itself, independent of the
    pipeline's codegree path.
    """
    pts = pruned.points
    n = pruned.n
    if n == 0:
        return 0, 0
    rows, cols = [], []
    for start in range(0, n, 256):
        chunk = pts[start : start + 256]
        diffs = domain.min_image(chunk[:, None, :] - pts[None, start:, :])
        i, j = np.nonzero(np.triu(np.asarray(body.gauge(diffs)) <= 2.0, 1))  # j > i: the pairs above the diagonal
        rows.append(start + i)
        cols.append(start + j)
    i, j = np.concatenate(rows), np.concatenate(cols)
    A = sp.csr_matrix((np.ones(2 * len(i), dtype=np.int64), (np.r_[i, j], np.r_[j, i])), shape=(n, n))
    A.sort_indices()
    if not (np.array_equal(A.indptr, pruned.adj.indptr) and np.array_equal(A.indices, pruned.adj.indices)):
        raise AssertionError("stored adjacency disagrees with brute force")
    C = (A @ A).tocoo()
    off = C.row != C.col
    return int(A.sum(axis=1).max()), int(C.data[off].max(initial=0))


# -- criteria ----------------------------------------------------------


def test_c01_mc_volume_matches_closed_forms(conclude):
    cases = [(2, 1), (2, 2), (3, 2), (4, 3), (6, math.inf)]
    worst = 0.0
    slowest = 0.0
    for i, (d, p) in enumerate(cases):
        body = lp_ball(d, p)
        truth = closed_form_volume(body)
        t0 = time.perf_counter()
        est = mc_volume(body, 1_000_000, np.random.default_rng(101 + i))
        elapsed = time.perf_counter() - t0
        slowest = max(slowest, elapsed)
        pulls = abs(est.value - truth) / est.std_error if est.std_error else 0.0
        worst = max(worst, pulls)
        assert elapsed < 10.0, f"(d={d}, p={p}) took {elapsed:.1f}s"
        assert brackets(est, truth), f"(d={d}, p={p}): {est.value} vs {truth}"
    conclude(
        "criterion-1 mc-volume-closed-forms",
        True,
        f"5 bodies within 3 sigma (worst {worst:.2f} sigma, slowest {slowest:.2f}s)",
    )


def test_c02_intersection_volume_oracles(conclude):
    rng = np.random.default_rng(247)
    failures = 0
    checked = 0
    for d in (2, 3, 4, 5):
        body = cube(d, side=1.0)
        xs = rng.uniform(-1.1, 1.1, size=(100, d))
        for x in xs:
            truth = float(np.prod(np.maximum(1.0 - np.abs(x), 0.0)))
            est = intersection_volume(body, x, 50_000, rng)
            checked += 1
            if not brackets(est, truth):
                failures += 1
    ball = lp_ball(3, 2)
    for s in rng.uniform(0.0, 2.2, size=100):
        x = np.array([s, 0.0, 0.0])
        truth = ball_lens_scalar(3, 1.0, s)
        est = intersection_volume(ball, x, 50_000, rng)
        checked += 1
        if not brackets(est, truth):
            failures += 1
    conclude(
        "criterion-2 intersection-oracles",
        failures == 0,
        f"{checked} comparisons at 3 sigma, {failures} outside",
    )


def test_c03_schmuckenschlager_containment(conclude):
    total_viol = 0
    combos = 0
    for d in (2, 3, 4):
        bodies = (normalize_to_unit_volume(lp_ball(d, 2)), cube(d, side=1.0))
        for body in bodies:
            for delta in (0.05, 0.5):
                rep = check_schmuckenschlager(
                    body, delta, 1000, child_rng(303, f"{d}:{body.p}:{delta}"), slack=0.05
                )
                total_viol += rep.violations
                combos += 1
    conclude(
        "criterion-3 schmuckenschlager",
        total_viol == 0,
        f"{combos} body/delta combos x 1000 points, slack 5%, {total_viol} violations",
    )


def test_c04_petty_maximizer(conclude):
    # analytic cube value below the ball value for d = 2..8
    for d in range(2, 9):
        cube_val = analytic_polar_proj_volume(cube(d, side=1.0))
        assert cube_val == pytest.approx(2.0**d / math.factorial(d))
        assert cube_val <= polar_proj_ball_volume(d)
    # one random symmetric H-polytope, normalized to unit volume by MC
    rng = np.random.default_rng(404)
    dirs = rng.normal(size=(5, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    normals = np.vstack([dirs, -dirs])
    body = hpolytope(normals, np.ones(10))
    vol = mc_volume(body, 400_000, rng).value
    body = normalize_to_unit_volume(body, vol)
    est = polar_proj_volume_mc(body, rng, n_directions=32, support_samples=20_000)
    bound = polar_proj_ball_volume(3)
    ok = est.value <= bound + 3.0 * est.std_error
    conclude(
        "criterion-4 petty",
        ok,
        f"cube d=2..8 analytic, hpoly MC {est.value:.4f} <= ball {bound:.4f} + 3 sigma",
    )


def test_c05_polar_proj_ball_bound(conclude):
    for d in range(1, 65):
        assert polar_proj_ball_volume(d) <= (2.0 * math.pi / d) ** (0.5 * d) * (1 + 1e-12)
    v2 = polar_proj_ball_volume(2)
    v3 = polar_proj_ball_volume(3)
    assert abs(v2 - 2.467401) <= 1e-6
    assert abs(v3 - 2.370370) <= 1e-6
    conclude(
        "criterion-5 polar-proj-ball",
        True,
        f"bound holds for d<=64; d=2: {v2:.6f}, d=3: {v3:.6f}",
    )


def test_c06_logconcavity_and_slope(conclude):
    total_viol = 0
    slope_fail = 0
    for d in (2, 3, 4):
        for body in (normalize_to_unit_volume(lp_ball(d, 2)), cube(d, side=1.0)):
            slope_dirs = 10 if d == 3 else 0  # 20 slope directions total
            rep = check_logconcavity(
                body,
                200,
                child_rng(606, f"{d}:{body.p}"),
                slope_directions=slope_dirs,
            )
            assert rep.params["slope_tol"] == 0.05
            total_viol += rep.violations - rep.extra["slope_failures"]
            slope_fail += rep.extra["slope_failures"]
    ok = total_viol == 0 and slope_fail == 0
    conclude(
        "criterion-6 log-concavity",
        ok,
        f"6 bodies x 200 ray triples: {total_viol} violations; "
        f"20 slope directions at 5%: {slope_fail} failures",
    )


# bodies with no closed-form f, at default sizes: pairs are decided by
# Schmuckenschläger's outer body
OUTER_BODY_RUNS = (
    ("lp3", {"kind": "lp", "d": 2, "p": 3, "scale": 1.0}),
    ("lp3", {"kind": "lp", "d": 3, "p": 3, "scale": 1.0}),
    ("lp1.5", {"kind": "lp", "d": 4, "p": 1.5, "scale": 1.0}),
    ("simplex_diff", {"kind": "simplex_diff", "d": 3, "scale": 1.0}),
    ("criterion-4 hpoly", body_to_spec(criterion4_hpolytope())),
)


def test_c07_prune_bounds_brute_force(conclude, monkeypatch):
    runs = [default_config(d, seed=s) for d, last in ((2, 17), (3, 17), (4, 16)) for s in range(1, last + 1)]
    assert len(runs) == 50

    def no_f_samples(*args, **kwargs):
        raise AssertionError("the pipeline sampled f")

    monkeypatch.setattr(volumetrics, "intersection_volume", no_f_samples)
    runs += [replace(default_config(spec["d"], seed=1), body=spec) for _, spec in OUTER_BODY_RUNS]
    violations = 0
    for cfg in runs:
        run = run_stages(cfg)
        deg_cap = cfg.Delta + cfg.Delta ** (2.0 / 3.0)
        codeg_cap = cfg.codegree_coeff * cfg.Delta
        max_deg, max_codeg = _brute_force_degree_codegree(run.pruned, run.body, run.domain)
        if max_deg > deg_cap or max_codeg > codeg_cap:
            violations += 1
    # X2 removes endpoints of pairs in twice the outer body, whose volume x2_bound is built on
    simplex = replace(default_config(3), body=OUTER_BODY_RUNS[3][1])
    reports = [run_pipeline(replace(simplex, seed=s)).prune_report for s in range(101, 201)]
    mean_x2 = np.mean([r["removed_x2"] for r in reports])
    mean_bound = np.mean([r["expected_sizes"]["x2_bound"] for r in reports])
    conclude(
        "criterion-7 prune-bounds",
        violations == 0 and mean_x2 <= mean_bound,
        f"50 l2-ball runs d=2..4 and 5 outer-body runs ({', '.join(n for n, _ in OUTER_BODY_RUNS)}), "
        f"brute-force degree/codegree within caps, {violations} violations; simplex_diff d=3 over "
        f"100 seeds: mean removed_x2 {mean_x2:.1f} <= mean x2_bound {mean_bound:.1f}",
    )


def test_c08_packing_verifies_and_beats_trivial(conclude):
    worst = {2: math.inf, 3: math.inf, 4: math.inf}
    for d in (2, 3, 4):
        for seed in range(1, 21):
            # run_pipeline re-verifies the packing from raw coordinates
            density = run_pipeline(default_config(d, seed=seed)).packing["density"]
            worst[d] = min(worst[d], density)
            assert density >= 2.0**-d, f"d={d} seed={seed}: {density}"
    conclude(
        "criterion-8 packing-density",
        True,
        "60 verified packings; worst densities "
        + ", ".join(f"d={d}: {worst[d]:.3f} (bound {2.0 ** -d})" for d in (2, 3, 4)),
    )


def test_c09_spatial_hash_equals_brute_force(conclude):
    bodies = [
        lp_ball(2, 2, scale=0.8),
        lp_ball(2, 1),
        cube(2, side=1.4),
        lp_ball(3, 2, scale=0.6),
        lp_ball(3, 3, scale=0.7),
    ]
    mismatches = 0
    for trial in range(20):
        body = bodies[trial % len(bodies)]
        rng = np.random.default_rng(909 + trial)
        L = 12.0 if body.d == 2 else 9.0
        domain = TorusDomain(body.d, L)
        n = int(rng.integers(100, 2001))
        ps = rng.uniform(0.0, L, size=(n, body.d))
        if not graphs_equal(build_graph(ps, body, domain), brute_force_graph(ps, body, domain)):
            mismatches += 1
    conclude(
        "criterion-9 hash-vs-brute-force",
        mismatches == 0,
        f"20 instances (n up to 2000, 5 body types), {mismatches} adjacency mismatches",
    )


def test_c10_independent_set_vs_exhaustive(conclude):
    rng = np.random.default_rng(1010)
    bad = 0
    for trial in range(50):
        n = int(rng.integers(4, 19))
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35
        ]
        graph = graph_from_edges(n, edges)
        opt = exhaustive_max_independent(n, edges)
        out = greedy_independent_set(graph, rng)
        caro_wei = float(np.sum(1.0 / (graph.degree() + 1.0)))
        if not (caro_wei - 1e-9 <= len(out) <= opt):
            bad += 1
    conclude(
        "criterion-10 independent-set",
        bad == 0,
        "50 graphs n<=18: min-degree rounds between the Caro-Wei bound sum 1/(deg+1) and the exhaustive optimum",
    )


def test_c11_minkowski_equivalence(conclude):
    total = 0
    both = True
    for d in (2, 3):
        rep = check_minkowski_equivalence(d, 100, child_rng(1111, f"d{d}"))
        total += rep.violations
        both = both and rep.extra["packing_true_sets"] > 0 and rep.extra["packing_false_sets"] > 0
    conclude(
        "criterion-11 minkowski-equivalence",
        total == 0 and both,
        f"200 center sets (d=2,3), {total} predicate disagreements, both verdicts exercised",
    )


def test_c12_rogers_shephard(conclude):
    rep2 = check_rogers_shephard(2, 2_000_000, np.random.default_rng(1212))
    rep3 = check_rogers_shephard(3, 2_000_000, np.random.default_rng(1213))
    ok2 = abs(rep2.value - 6.0) <= 0.03 * 6.0
    ok3 = abs(rep3.value - 20.0) <= 0.05 * 20.0
    cube_ok = rep2.extra["cube_strict"] and rep3.extra["cube_strict"]
    conclude(
        "criterion-12 rogers-shephard",
        ok2 and ok3 and cube_ok,
        f"triangle ratio {rep2.value:.3f} (target 6 +-3%), "
        f"tetrahedron ratio {rep3.value:.3f} (target 20 +-5%), cube strictly below",
    )


def test_c13_poisson_tail(conclude):
    rep = check_poisson_tail(20.0, 1.0, 100_000, np.random.default_rng(1313))
    ok = rep.value <= rep.bound + 3.0 * rep.std_error
    conclude(
        "criterion-13 poisson-tail",
        ok and rep.violations == 0,
        f"P[Z>40] = {rep.value:.2e} <= {rep.bound:.2e} + 3 sigma over 1e5 draws",
    )


def test_c14_worker_count_invariance(conclude, tmp_path):
    # the records come from the pool's threads at workers=8
    cfg = default_config(2, seed=14)
    rows, records = {}, {}
    for workers in (1, 8):
        out = tmp_path / f"w{workers}"
        rows[workers] = sweep(replace(cfg, out_dir=str(out)), deltas=[15.0, 25.0], workers=workers)
        records[workers] = {p.name: p.read_bytes() for p in out.glob("run_*.jsonl")}
    same_records = len(records[1]) == 2 and records[1] == records[8]
    ok = same_records and rows[1] == rows[8]
    conclude(
        "criterion-14 determinism",
        ok,
        "run records and sweep rows byte-identical at workers=1 and workers=8",
    )
