import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import null_space

from normpack import harness, packing, volumetrics
from normpack.bodies import (
    GAUGE_CHUNK,
    ball_volume,
    body_to_spec,
    closed_form_volume,
    cube,
    hpolytope,
    lp_ball,
    normalize_to_unit_volume,
    sample_uniform,
    simplex_difference,
    uniform_box,
)
from normpack.harness import default_config, run_pipeline
from normpack.volumetrics import (
    McEstimate,
    OverlapClassifier,
    _uniform_directions,
    analytic_polar_proj_volume,
    analytic_proj_support,
    ball_lens_volume,
    estimate_ik,
    exact_intersection_volume,
    ik_gauge_radius,
    intersection_volume,
    mc_volume,
    polar_proj_ball_volume,
    polar_proj_volume_mc,
    proj_body_support,
    proj_support_rows,
    row_norms,
)
from estimates import ball_cap_volume, ball_ik_radius_loop, ball_lens_scalar, brackets
from graph_oracles import all_core_tokens_held, crossovers_at
from polytope_oracles import criterion4_hpolytope, cube_hpolytope
from verifier_oracles import h_proj_point


class TestMcVolume:
    def test_disk_calibration(self):
        est = mc_volume(lp_ball(2, 2), 500_000, np.random.default_rng(0))
        assert brackets(est, math.pi)
        assert est.std_error < 0.01

    def test_cube_is_noise_free(self):
        # bounding box equals the body, every sample hits
        est = mc_volume(cube(3, side=2.0), 1000, np.random.default_rng(0))
        assert est.value == pytest.approx(8.0)
        assert est.std_error == 0.0

    def test_minimum_samples_enforced(self):
        with pytest.raises(ValueError):
            mc_volume(lp_ball(2, 2), 10, np.random.default_rng(0))

    def test_std_error_scaling(self):
        # quadrupling samples should roughly halve the reported error
        a = mc_volume(lp_ball(3, 1), 50_000, np.random.default_rng(1))
        b = mc_volume(lp_ball(3, 1), 200_000, np.random.default_rng(1))
        assert b.std_error == pytest.approx(a.std_error / 2.0, rel=0.15)

    def test_chunks_match_one_draw(self):
        # 1M rows in cache-sized chunks: the estimate and the generator's end
        # state of one uniform_box call over all rows
        body = simplex_difference(4)
        a, b = np.random.default_rng(21), np.random.default_rng(21)
        got = mc_volume(body, 1_000_000, a)
        half = body.bounding_halfwidths()
        box_vol = float(np.prod(2.0 * half))
        p = np.count_nonzero(body.gauge(uniform_box(b, half, 1_000_000)) <= 1.0) / 1_000_000
        assert got == McEstimate(box_vol * p, box_vol * math.sqrt(p * (1.0 - p) / 1_000_000), 1_000_000)
        assert a.bit_generator.state == b.bit_generator.state

    @staticmethod
    def one_draw(body, samples, rng):
        """mc_volume as one uniform_box draw of every row."""
        half = body.bounding_halfwidths()
        box_vol = float(np.prod(2.0 * half))
        p = np.count_nonzero(body.gauge(uniform_box(rng, half, samples)) <= 1.0) / samples
        return McEstimate(box_vol * p, box_vol * math.sqrt(p * (1.0 - p) / samples), samples)

    @pytest.mark.parametrize("samples", [1000, GAUGE_CHUNK, GAUGE_CHUNK + 1, 1_000_000])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_parts_match_one_draw_with_and_without_a_free_core(self, d, samples):
        # the second part draws from a copy moved past the first part's rows;
        # a buffered 32-bit half must survive both jumps
        body = simplex_difference(d)
        gens = [np.random.default_rng(100 * d + samples % 97) for _ in range(3)]
        for g in gens:
            g.integers(2**32, dtype=np.uint32)
        want = self.one_draw(body, samples, gens[0])
        with crossovers_at(0.0):  # split wherever there is a second part
            free = mc_volume(body, samples, gens[1])
        with all_core_tokens_held():
            held = mc_volume(body, samples, gens[2])
        assert free == held == want
        states = [g.bit_generator.state for g in gens]
        assert states[0] == states[1] == states[2]

    def test_parts_match_one_draw_without_a_jump_ahead(self):
        # MT19937 has no advance: the copy and the caller draw the rows they skip
        body = lp_ball(3, 3)
        a, b = (np.random.Generator(np.random.MT19937(5)) for _ in range(2))
        assert mc_volume(body, 3 * GAUGE_CHUNK, a) == self.one_draw(body, 3 * GAUGE_CHUNK, b)
        assert np.array_equal(a.random(5), b.random(5))

    def test_resampled_spread_matches_reported_error(self):
        ests = [mc_volume(lp_ball(2, 2), 20_000, np.random.default_rng(s)) for s in range(40)]
        spread = np.std([e.value for e in ests], ddof=1)
        reported = np.mean([e.std_error for e in ests])
        assert spread == pytest.approx(reported, rel=0.45)


class TestCapAndLens:
    def test_cap_limits(self):
        assert ball_cap_volume(3, 1.0, 1.0) == 0.0
        assert ball_cap_volume(3, 1.0, 0.0) == pytest.approx(0.5 * ball_volume(3))
        assert ball_cap_volume(3, 1.0, -1.0) == pytest.approx(ball_volume(3))

    def test_cap_3d_closed_form(self):
        # pi h^2 (3r - h) / 3 with h = r - a
        r, a = 1.0, 0.4
        h = r - a
        assert ball_cap_volume(3, r, a) == pytest.approx(math.pi * h * h * (3 * r - h) / 3.0)

    def test_lens_vs_quadrature(self):
        # slice the 3-ball lens into disks and integrate
        r, s = 1.0, 0.7
        def disk_area(t):
            rho2 = r * r - t * t
            return math.pi * max(rho2, 0.0)
        truth, _ = quad(disk_area, s / 2, r)
        assert ball_lens_scalar(3, r, s) == pytest.approx(2.0 * truth, rel=1e-10)

    def test_lens_2d_vs_quadrature(self):
        r, s = 1.3, 1.1
        def chord(t):
            return 2.0 * math.sqrt(max(r * r - t * t, 0.0))
        truth, _ = quad(chord, s / 2, r)
        assert ball_lens_scalar(2, r, s) == pytest.approx(2.0 * truth, rel=1e-9)

    def test_lens_edge_cases(self):
        assert ball_lens_scalar(4, 1.0, 2.0) == 0.0
        assert ball_lens_scalar(4, 1.0, 0.0) == pytest.approx(ball_volume(4))


class TestExactIntersection:
    def test_cube_product_formula(self):
        b = cube(3, side=2.0)
        f = exact_intersection_volume(b, np.array([0.5, 0.0, 1.0]))
        assert f == pytest.approx(1.5 * 2.0 * 1.0)

    def test_cube_vanishes_outside(self):
        b = cube(2, side=2.0)
        assert exact_intersection_volume(b, np.array([2.5, 0.0])) == 0.0

    def test_unknown_body_returns_none(self):
        assert exact_intersection_volume(lp_ball(2, 3), np.zeros(2)) is None
        assert exact_intersection_volume(simplex_difference(2), np.zeros(2)) is None

    def test_symmetry_f_even(self):
        rng = np.random.default_rng(7)
        for b in (lp_ball(3, 2), cube(3)):
            xs = rng.uniform(-1.5, 1.5, size=(50, 3))
            assert np.allclose(
                exact_intersection_volume(b, xs), exact_intersection_volume(b, -xs)
            )

    @pytest.mark.parametrize(
        "body", [lp_ball(3, 3), simplex_difference(2), cube(2)], ids=["lp3", "simplex_diff", "cube"]
    )
    def test_rows_share_one_sample(self, body):
        # one row: the draw and the hit fraction of a per-point estimate, bit for bit; each row
        # of a batch: the value that row alone gets from the same generator state
        xs = np.random.default_rng(9).uniform(-0.8, 0.8, size=(5, body.d))
        for x in xs:
            a, b = np.random.default_rng(4), np.random.default_rng(4)
            est = intersection_volume(body, x, 5_000, a)
            hits = int(np.count_nonzero(body.gauge(sample_uniform(body, b, 5_000) - x) <= 1.0))
            p, V = hits / 5_000, closed_form_volume(body)
            assert (est.value, est.std_error) == (V * p, V * math.sqrt(p * (1.0 - p) / 5_000))
            assert type(est.value) is float and type(est.std_error) is float
            assert a.bit_generator.state == b.bit_generator.state
        a = np.random.default_rng(4)
        batch = intersection_volume(body, xs, 5_000, a)
        assert batch.value.shape == batch.std_error.shape == (5,)
        for i, x in enumerate(xs):
            one = intersection_volume(body, x, 5_000, np.random.default_rng(4))
            assert (batch.value[i], batch.std_error[i]) == (one.value, one.std_error)
        assert a.bit_generator.state == b.bit_generator.state

    def test_mc_matches_exact(self):
        rng = np.random.default_rng(8)
        b = lp_ball(3, 2)
        x = np.array([0.6, 0.2, -0.3])
        est = intersection_volume(b, x, 200_000, rng)
        assert brackets(est, exact_intersection_volume(b, x))

    def test_ray_monotone(self):
        # f is nonincreasing along rays from the origin
        for b in (lp_ball(3, 2), cube(3)):
            u = np.array([0.4, -0.3, 0.5])
            ts = np.linspace(0.0, 3.0, 40)
            vals = [float(exact_intersection_volume(b, t * u)) for t in ts]
            assert all(a >= c - 1e-12 for a, c in zip(vals, vals[1:]))


def profile(body, delta):
    """The body's IkProfile from a small net: the classifier reads body, delta and g_ik."""
    return estimate_ik(body, delta, 2, 2, np.random.default_rng(0))


class TestOverlapClassifier:
    def test_exact_route(self):
        clf = OverlapClassifier(profile(cube(2), 0.5))
        assert clf.exact
        out = clf.inside(np.array([[0.0, 0.0], [1.9, 1.9]]))
        assert out.tolist() == [True, False]

    def test_reads_the_profile(self):
        # body, delta and g_ik come from the profile, not from new bisections
        ik = replace(profile(cube_hpolytope(2), 0.55), gauge_radius=0.5)
        clf = OverlapClassifier(ik)
        assert (clf.body, clf.delta, clf.gauge_radius) == (ik.body, 0.55, 0.5)
        # gauge 0.4 and 0.6, both in the outer body: g_ik = 0.5 in place of the profile's 1.0 cuts the second
        x = np.array([[0.2, 0.0], [0.3, 0.0]])
        assert clf.inside(x).tolist() == [True, False]

    def test_outer_body_route_holds_ik(self):
        # the hpoly cube takes the outer-body route, and cube(d) gives its
        # exact f: every row of I_K is inside, and every inside row lies in
        # Schmuckenschläger's outer body, within gauge g_ik
        rng = np.random.default_rng(9)
        for d in (2, 3):
            body, ref = cube_hpolytope(d), cube(d)
            # radii spread over two decades, so that I_K holds many rows at delta 0.95
            x = rng.uniform(-1.0, 1.0, size=(100_000, d)) * 10.0 ** rng.uniform(-2.0, 0.0, size=(100_000, 1))
            for delta in (0.95, 0.55, 0.3):
                clf = OverlapClassifier(profile(body, delta))
                inside = clf.inside(x)
                deep = exact_intersection_volume(ref, x) > delta
                assert not clf.exact and clf.boundary_count == 0
                assert deep.sum() > 1000 and inside[deep].all()
                h = analytic_proj_support(ref, x[inside])
                assert (h <= math.log(1.0 / delta) * (1.0 + 1e-12)).all()
                assert (ref.gauge(x[inside]) <= ik_gauge_radius(body, delta) * (1.0 + 1e-12)).all()

    def test_cauchy_rows_counted_as_boundary(self):
        # lp3 at d = 3 has no closed-form h_PiK: a row past the width bound
        # is out with no estimate, a row near 0 takes Cauchy's formula
        body = normalize_to_unit_volume(lp_ball(3, 3))
        clf = OverlapClassifier(profile(body, 0.95), np.random.default_rng(10), 2000)
        assert clf.inside(np.array([[0.01, 0.0, 0.0], [0.5, 0.0, 0.0]])).tolist() == [True, False]
        assert clf.boundary_count == 1

    def test_empty_once_delta_reaches_the_volume(self):
        for body in (cube_hpolytope(2), cube(2)):  # the outer-body and the exact route
            clf = OverlapClassifier(profile(body, 1.0 + 1e-9))
            assert clf.gauge_radius == 0.0
            assert not clf.inside(np.zeros((3, 2))).any()

    def test_rng_required_for_mc(self):
        with pytest.raises(ValueError):
            OverlapClassifier(profile(lp_ball(3, 3), 0.5))


class TestEstimateIk:
    def test_delta_ge_one_degenerate(self):
        # f <= f(0) = vol(K) = 1, so I_K is empty
        prof = estimate_ik(cube(2), 1.0, 1000, 500, np.random.default_rng(0))
        assert prof.vol_ik == 0.0 and prof.bracket == (0.0, 0.0)
        assert math.isinf(prof.delta_k)

    @pytest.mark.parametrize("body", [lp_ball(2, 2), cube(2, side=2.0), lp_ball(2, 3), simplex_difference(2)])
    def test_empty_exactly_from_the_volume(self, body):
        # I_K = {f > delta} is empty exactly when delta >= f(0) = vol(K), whatever vol(K) is
        V = closed_form_volume(body)
        assert V > 1.0
        assert estimate_ik(body, 1.0, 1000, 2000, np.random.default_rng(0)).vol_ik > 0.0
        assert estimate_ik(body, V, 1000, 2000, np.random.default_rng(0)).vol_ik == 0.0

    @pytest.mark.parametrize(
        "body", [lp_ball(2, 2), lp_ball(3, 2), lp_ball(4, 2), cube(3)], ids=["l2_d2", "l2_d3", "l2_d4", "cube"]
    )
    def test_unit_volume_at_delta_one(self, body):
        # the unit-volume l2 ball's closed-form volume reads 1 + 2.2e-16 at d = 2 and 4: delta = 1
        # within a few ulps of it leaves I_K empty, not a sliver of volume 1e-16
        unit = normalize_to_unit_volume(body)
        prof = estimate_ik(unit, 1.0, 1000, 500, np.random.default_rng(0))
        assert prof.vol_ik == 0.0 and math.isinf(prof.delta_k)
        assert ik_gauge_radius(unit, 1.0) == 0.0
        record = run_pipeline(replace(default_config(unit.d, seed=1), body=body_to_spec(unit), ik_delta=1.0, L=8.0))
        assert record.ik["vol_ik"] == 0.0 and record.ik["delta_k"] is None

    def test_delta_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            estimate_ik(lp_ball(2, 2), 0.0, 1000, 500, np.random.default_rng(0))

    def test_small_delta_recovers_2k(self):
        # as delta -> 0, I_K -> interior of 2K, so vol -> 2^d vol(K)
        b = lp_ball(2, 2)
        prof = estimate_ik(b, 1e-6, 40_000, 500, np.random.default_rng(1))
        assert prof.vol_ik == pytest.approx(4.0 * math.pi, rel=0.02)

    def test_ball_d3_vs_radius_oracle(self):
        # I_K for a ball is the ball of gauge radius g(delta); compare volumes
        b = lp_ball(3, 2)
        delta = 0.9
        prof = estimate_ik(b, delta, 60_000, 500, np.random.default_rng(2))
        g = ik_gauge_radius(b, delta)
        oracle = ball_volume(3) * g**3
        assert prof.vol_ik == pytest.approx(oracle, rel=0.05)
        assert prof.delta_k == pytest.approx(1.0 / (3.0 * oracle), rel=0.05)

    def test_vol_monotone_in_delta(self):
        b = cube(3)
        vols = [
            estimate_ik(b, dl, 20_000, 500, np.random.default_rng(3)).vol_ik
            for dl in (0.05, 0.3, 0.8)
        ]
        assert vols[0] > vols[1] > vols[2]

    def test_delta_k_grows_with_dimension(self):
        # for the unit-volume ball at fixed delta the cap should increase with d
        vals = []
        for d in (2, 3, 4, 5, 6):
            b = lp_ball(d, 2, scale=ball_volume(d) ** (-1.0 / d))
            prof = estimate_ik(b, 0.5, 20_000, 500, np.random.default_rng(4))
            vals.append(prof.delta_k)
        assert vals[-1] > vals[0]
        assert all(b > a * 0.9 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("d,vol", [(2, 0.0061717), (3, 2.9663e-4), (4, 1.206e-5)])
    def test_unit_ball_exact(self, d, vol):
        # I_K of the unit-volume ball at delta 0.95 is the ball of radius g_ik
        prof = estimate_ik(normalize_to_unit_volume(lp_ball(d, 2)), 0.95, 20_000, 500, np.random.default_rng(0))
        assert prof.vol_ik == pytest.approx(vol, rel=1e-4)
        assert prof.volume_estimate.std_error == 0.0
        assert prof.delta_k == 1.0 / (d * prof.vol_ik)

    @pytest.mark.parametrize("d,side,delta", [(2, 1.0, 0.95), (3, 1.0, 0.95), (3, 1.3, 0.5 * 1.3**3)])
    def test_cube_vs_hit_or_miss(self, d, side, delta):
        # 2M points uniform in a box around log(V/delta) V Pi* K, which holds I_K,
        # classified by the cube's exact f
        body = cube(d, side=side)
        prof = estimate_ik(body, delta, 20_000, 0, np.random.default_rng(1))
        V = side**d
        half = V * math.log(V / delta) / side ** (d - 1)  # h_PiK(theta) >= side^(d-1) on unit theta
        rng = np.random.default_rng(2)
        n, hits = 2_000_000, 0
        for _ in range(8):
            x = uniform_box(rng, np.full(d, half), n // 8)
            hits += int(np.count_nonzero(exact_intersection_volume(body, x) > delta))
        box, p = (2.0 * half) ** d, hits / n
        se = box * math.sqrt(p * (1.0 - p) / n)
        assert abs(prof.vol_ik - box * p) <= 3.0 * math.hypot(se, prof.volume_estimate.std_error)
        assert prof.volume_estimate.std_error < 0.01 * prof.vol_ik

    @pytest.mark.parametrize("side", [0.5, 1.0, 1.7])
    @pytest.mark.parametrize("d", [1, 2])
    def test_cube_elementary_forms(self, d, side):
        # vol(I_K) = 2^d V P(Gamma(d, 1) < log(V/delta)): at d = 1, 2V (1 - delta/V); at d = 2,
        # 4V [1 - (delta/V)(1 + log(V/delta))].  delta runs below and above V/2.
        body = cube(d, side=side)
        V = side**d
        polar = analytic_polar_proj_volume(body)
        for q in (0.05, 0.3, 0.7, 0.95):
            delta, rng = q * V, np.random.default_rng(11)
            before = rng.bit_generator.state
            prof = estimate_ik(body, delta, 20_000, 500, rng)
            assert rng.bit_generator.state == before  # the cube draws nothing
            want = 2.0 * V * (1.0 - q) if d == 1 else 4.0 * V * (1.0 - q * (1.0 + math.log(1.0 / q)))
            assert prof.vol_ik == pytest.approx(want, rel=1e-12)
            assert prof.volume_estimate.std_error == 0.0
            assert prof.delta_k == 1.0 / (d * prof.vol_ik)
            assert prof.gauge_radius == 2.0 * (1.0 - delta / V)
            lo, hi = prof.bracket
            assert lo == pytest.approx((V - delta) ** d * polar, rel=1e-12)
            assert hi == pytest.approx((V * math.log(V / delta)) ** d * polar, rel=1e-12)
            assert 0.0 < lo <= prof.vol_ik <= hi  # at d = 1, f = V - h_PiK: vol(I_K) is the lower end

    def test_one_gauge_bisection_per_l2_run(self, monkeypatch):
        # estimate_ik computes g_ik once; prune and its classifier read it from the profile
        calls, real = [], volumetrics.ik_gauge_radius

        def counted(body, delta):
            calls.append(delta)
            return real(body, delta)

        for module in (volumetrics, packing, harness):
            if hasattr(module, "ik_gauge_radius"):
                monkeypatch.setattr(module, "ik_gauge_radius", counted)
        record = run_pipeline(default_config(2, seed=1))
        assert record.prune_report["removed_x2"] > 0
        assert len(calls) == 1

    def test_lp3_default_sizes_in_bounded_time(self):
        # the default config's 20k directions and shadow points: 103 s on the 2K sampler
        cfg = default_config(2)
        body = normalize_to_unit_volume(lp_ball(2, 3))
        t0 = time.perf_counter()
        prof = estimate_ik(body, cfg.ik_delta, cfg.ik_outer_samples, cfg.mc_samples, np.random.default_rng(5))
        assert time.perf_counter() - t0 < 2.0
        assert prof.volume_estimate.samples == cfg.ik_outer_samples  # closed-form h_PiK at d = 2
        assert prof.volume_estimate.std_error < 0.002 * prof.vol_ik

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("p", [3.0, 1.5])
    def test_lp_d2_takes_every_direction(self, p, seed):
        # every body at d = 2 has a closed-form h_PiK, so the net takes all
        # ik_outer_samples directions, as polytopes do
        cfg = default_config(2)
        body = normalize_to_unit_volume(lp_ball(2, p))
        prof = estimate_ik(body, cfg.ik_delta, cfg.ik_outer_samples, cfg.mc_samples, np.random.default_rng(seed))
        est = prof.volume_estimate
        assert est.samples == cfg.ik_outer_samples
        assert est.std_error < 0.002 * prof.vol_ik
        lo, hi = prof.bracket
        assert 0.0 < lo <= prof.vol_ik <= hi
        # the upper end of the bracket, kappa_2 E[h_PiK^-2] (V log(V/delta))^2,
        # over 4096 equally spaced directions
        V = closed_form_volume(body)
        t = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        polar = math.pi * np.mean(analytic_proj_support(body, np.column_stack([np.cos(t), np.sin(t)])) ** -2.0)
        assert abs(prof.vol_ik - (V * math.log(V / cfg.ik_delta)) ** 2 * polar) <= 3.0 * est.std_error

    def test_lp3_d3_keeps_the_default_net(self):
        # each Monte Carlo h_PiK costs inner_samples draws: max(2 d^2, 32) directions
        body = normalize_to_unit_volume(lp_ball(3, 3))
        prof = estimate_ik(body, 0.95, 20_000, 2000, np.random.default_rng(1))
        assert prof.volume_estimate.samples == 32

    SANDWICH = {
        "l2": normalize_to_unit_volume(lp_ball(3, 2)),
        "cube": cube(3),
        "lp3_d2": normalize_to_unit_volume(lp_ball(2, 3)),
        "lp3_d3": normalize_to_unit_volume(lp_ball(3, 3)),
        "lp1.5_d4": normalize_to_unit_volume(lp_ball(4, 1.5)),
        "simplex_diff": normalize_to_unit_volume(simplex_difference(3)),
        "hpoly": normalize_to_unit_volume(criterion4_hpolytope()),
    }

    @pytest.mark.parametrize("name", sorted(SANDWICH))
    def test_vol_inside_sandwich(self, name):
        # (1 - delta)^d vol(Pi* K) <= vol(I_K) <= log(1/delta)^d vol(Pi* K) for unit volume
        body = self.SANDWICH[name]
        delta, d = 0.95, body.d
        prof = estimate_ik(body, delta, 2000, 5000, np.random.default_rng(3))
        lo, hi = prof.bracket
        assert 0.0 < lo <= prof.vol_ik <= hi and math.isfinite(prof.delta_k)
        assert hi / lo == pytest.approx((math.log(1.0 / delta) / (1.0 - delta)) ** d, rel=1e-9)
        polar = hi / math.log(1.0 / delta) ** d  # vol(Pi* K) the profile used
        se = prof.volume_estimate.std_error / math.log(1.0 / delta) ** d
        exact = analytic_polar_proj_volume(body)
        if exact is not None:  # balls and cubes
            assert polar == pytest.approx(exact, abs=3.0 * se + 1e-12 * exact)
        elif body.polytope is not None:  # Cauchy's h_PiK, on another direction net
            other = polar_proj_volume_mc(body, np.random.default_rng(4), n_directions=400, support_samples=0)
            assert abs(polar - other.value) <= 3.0 * math.hypot(se, other.std_error)
            assert prof.vol_ik == hi
        else:  # Pi is monotone under inclusion, and the polar reverses it
            assert prof.vol_ik == hi
            s = body.scale
            balls = [analytic_polar_proj_volume(lp_ball(d, q, scale=s)) for q in (2.0, math.inf)]
            if body.p < 2.0:  # K lies in the l2 ball of the same scale, so Pi* K holds its polar
                assert polar >= balls[0] - 3.0 * se
            else:  # between the l2 ball and the cube of the same scale
                assert balls[1] - 3.0 * se <= polar <= balls[0] + 3.0 * se


class TestIkGaugeRadius:
    def test_cube_closed_form(self):
        b = cube(2, side=2.0)  # vol 4
        # f along an axis: (2 - |x|) * 2 = 1 at |x| = 1.5, gauge 1.5
        assert ik_gauge_radius(b, 1.0) == 2.0 * (1.0 - 1.0 / 4.0)

    def test_cube_delta_above_volume(self):
        assert ik_gauge_radius(cube(2), 5.0) == 0.0

    @pytest.mark.parametrize(
        "body",
        [lp_ball(2, 2), cube(3, side=1.3), lp_ball(3, 3), simplex_difference(3), criterion4_hpolytope()],
        ids=["l2", "cube", "lp3", "simplex_diff", "hpoly"],
    )
    def test_empty_from_the_volume(self, body):
        # f <= f(0) = vol(K), so I_K is empty once delta >= vol(K)
        V = closed_form_volume(body)
        assert ik_gauge_radius(body, V) == ik_gauge_radius(body, 2.0 * V) == 0.0
        assert ik_gauge_radius(body, 0.99 * V) > 0.0

    def test_ball_bisection_brackets(self):
        b = lp_ball(3, 2)
        delta = 0.7
        g = ik_gauge_radius(b, delta)
        assert exact_intersection_volume(b, np.array([g - 1e-6, 0, 0])) > delta
        assert exact_intersection_volume(b, np.array([g + 1e-6, 0, 0])) < delta

    def test_generic_fallback(self):
        assert ik_gauge_radius(lp_ball(2, 3), 0.5) == 2.0

    @pytest.mark.parametrize("d", range(1, 7))
    def test_ball_equals_scalar_bisection(self, d):
        # the bisection makes the same probes as the scalar while-loop;
        # once delta >= vol(K), I_K is empty and no bisection runs
        for scale in (0.5, 1.0, ball_volume(d) ** (-1.0 / d)):
            b = lp_ball(d, 2, scale=scale)
            V = closed_form_volume(b)
            for delta in (0.05, 0.3, 0.5, 0.95):
                for dl in (delta, delta * V):
                    assert ik_gauge_radius(b, dl) == (ball_ik_radius_loop(b, dl) if dl < V else 0.0)

    CERTIFIED = [
        lp_ball(3, 3),
        simplex_difference(3),
        criterion4_hpolytope(),
        lp_ball(2, 1.5),
    ]

    @pytest.mark.parametrize("body", CERTIFIED, ids=["lp3", "simplex_diff", "hpoly", "lp1.5"])
    def test_half_volume_certificate(self, body):
        # f <= vol(K)/2 beyond gauge 1, so delta >= vol/2 confines I_K to gauge 1
        unit = normalize_to_unit_volume(body)
        assert ik_gauge_radius(unit, 0.95) == 1.0
        assert ik_gauge_radius(unit, 0.51) == 1.0
        assert ik_gauge_radius(unit, 0.49) == 2.0
        # the threshold scales with the volume
        assert ik_gauge_radius(unit.scaled(2.0), 0.95 * 2.0**unit.d) == 1.0
        assert ik_gauge_radius(unit.scaled(2.0), 0.49 * 2.0**unit.d) == 2.0

    @pytest.mark.parametrize("body", CERTIFIED, ids=["lp3", "simplex_diff", "hpoly", "lp1.5"])
    def test_f_at_most_half_beyond_gauge_one(self, body):
        # Monte Carlo: f(x) <= 1/2 + 3 sigma at random points of gauge 1 and 1.1
        unit = normalize_to_unit_volume(body)
        rng = np.random.default_rng(7)
        u = rng.standard_normal((12, unit.d))
        u /= np.asarray(unit.gauge(u))[:, None]
        for x in np.concatenate([u, 1.1 * u]):
            est = intersection_volume(unit, x, 20_000, rng)
            assert est.value <= 0.5 + 3.0 * est.std_error + 1e-12


class TestProjSupport:
    def test_ball_analytic(self):
        h = analytic_proj_support(lp_ball(3, 2, scale=0.5), np.array([0, 0, 1.0]))
        assert h == pytest.approx(math.pi * 0.25)

    def test_cube_analytic(self):
        h = analytic_proj_support(cube(3, side=2.0), np.array([1.0, 1.0, 0.0]))
        assert h == pytest.approx(4.0 * 2.0)

    @pytest.mark.parametrize(
        "body",
        [lp_ball(3, 2, scale=0.8), cube(3, side=1.3), normalize_to_unit_volume(criterion4_hpolytope())],
        ids=["ball", "cube", "criterion4_hpoly"],
    )
    def test_rows_match_one_vector(self, body):
        # rows of any length, the zero row included: h is 1-homogeneous
        us = np.random.default_rng(17).normal(size=(50, 3)) * np.geomspace(1e-3, 1e3, 50)[:, None]
        us[7] = 0.0
        rows = analytic_proj_support(body, us)
        assert rows.shape == (50,) and rows[7] == 0.0
        one = [analytic_proj_support(body, u) for u in us]
        assert all(type(h) is float for h in one)
        assert rows == pytest.approx(one, rel=1e-12, abs=0.0)

    def test_row_norms_equal_linalg_norm(self):
        # bit for bit, so batched and one-point h_PiK of the ball agree exactly
        xs = np.random.default_rng(18).uniform(-2.0, 2.0, size=(2000, 3))
        assert row_norms(xs).tolist() == [np.linalg.norm(x) for x in xs]
        assert row_norms(xs[0]) == np.linalg.norm(xs[0])

    def test_mc_ball_matches_analytic(self):
        rng = np.random.default_rng(11)
        u = np.array([[0.0, 1.0, 0.0]])
        est = proj_body_support(lp_ball(3, 2), u, 100_000, rng)
        assert brackets(est, math.pi)

    def test_mc_cube_diagonal_vs_hull_oracle(self):
        # project the cube vertices onto an orthonormal basis of u-perp and
        # take the exact 2-D hull area
        from scipy.spatial import ConvexHull

        u = np.ones(3) / math.sqrt(3.0)
        verts = np.array(
            [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
            dtype=float,
        )
        hull = ConvexHull(verts @ null_space(u[None]))
        rng = np.random.default_rng(12)
        est = proj_body_support(cube(3, side=2.0), u[None], 200_000, rng)
        assert hull.volume == pytest.approx(4.0 * math.sqrt(3.0), rel=1e-9)
        assert brackets(est, hull.volume)

    def test_generic_cauchy_route(self):
        # l_4 ball shadow is close to but above the l_2 shadow
        rng = np.random.default_rng(13)
        u = np.array([1.0, 0.0, 0.0])
        est = proj_body_support(lp_ball(3, 4), u[None], 100_000, rng)
        low = analytic_proj_support(lp_ball(3, 2), u)
        assert est.value[0] - 3.0 * est.std_error[0] > low
        assert est.value[0] < 4.0  # below the circumscribing square

    @pytest.mark.parametrize("d", [3, 8])
    def test_equals_row_sum_form(self, d):
        # fold_columns' column sums against numpy's row sums: left to right
        # below 8 terms, numpy's pairwise sum from 8 on; <u, grad g> left to
        # right at any d.  A mean over thousands of rows can hide a last-bit
        # change, so few samples too
        body = lp_ball(d, 3)
        us = np.vstack([np.eye(d)[:1], _uniform_directions(np.random.default_rng(99), 4, d)])
        for samples in (2, 3, 5, 10, 5000):
            a, b = np.random.default_rng(d), np.random.default_rng(d)
            got = proj_body_support(body, us, samples, a)
            theta = _uniform_directions(b, samples, d)
            grad = body.gauge_gradient(theta)
            scale = 0.5 * d * ball_volume(d) / (theta * grad).sum(axis=1) ** d
            for i, u in enumerate(us):
                w = np.abs(sum(grad[:, k] * u[k] for k in range(d))) * scale
                assert got.value[i] == float(w.mean())
                assert got.std_error[i] == float(w.std(ddof=1)) / math.sqrt(samples)
            assert a.bit_generator.state == b.bit_generator.state

    def test_unit_vector_required(self):
        with pytest.raises(ValueError):
            proj_body_support(lp_ball(2, 2), np.array([[1.0, 0.0], [1.0, 1.0]]), 1000, np.random.default_rng(0))

    @pytest.mark.parametrize("samples", [0, 1])
    def test_two_samples_required(self, samples):
        # one direction has no standard error
        with pytest.raises(ValueError, match="samples must be >= 2"):
            proj_body_support(lp_ball(3, 3), np.array([[1.0, 0.0, 0.0]]), samples, np.random.default_rng(0))

    def test_cauchy_formula_on_hpoly_cube(self):
        eye = np.eye(3)
        body = hpolytope(np.vstack([eye, -eye]), np.ones(6), scale=0.7)
        rng = np.random.default_rng(15)
        for u in np.vstack([eye, rng.normal(size=(10, 3))]):
            assert analytic_proj_support(body, u) == pytest.approx(
                analytic_proj_support(cube(3, side=1.4), u), rel=1e-12
            )

    @pytest.mark.parametrize(
        "body",
        [normalize_to_unit_volume(criterion4_hpolytope()), simplex_difference(3)],
        ids=["criterion4_hpoly", "simplex_diff_d3"],
    )
    def test_cauchy_formula_vs_shadow_mc(self, body):
        rng = np.random.default_rng(16)
        us = random_directions(3, 3, rng)
        est = proj_body_support(body, us, 400_000, rng)
        assert brackets(est, analytic_proj_support(body, us))

    def test_simplex_diff_shadow_positive(self):
        rng = np.random.default_rng(14)
        u = np.array([[1.0, 0.0]])
        est = proj_body_support(simplex_difference(2), u, 50_000, rng)
        assert 0.0 < est.value[0] < 2.0 * simplex_difference(2).circumradius()

    EXACT = {
        "ball": lp_ball(3, 2, scale=0.8),
        "cube": cube(3, side=1.3),
        "criterion4_hpoly": normalize_to_unit_volume(criterion4_hpolytope()),
        "simplex_diff_d3": simplex_difference(3),
        "simplex_diff_d4": simplex_difference(4, scale=1.2),
    }

    @pytest.mark.parametrize("name", sorted(EXACT))
    def test_mc_brackets_closed_form(self, name):
        # the radial Cauchy estimate within 3 sigma of the closed form, on
        # the coordinate axes and random directions
        body = self.EXACT[name]
        rng = np.random.default_rng(41)
        us = np.vstack([np.eye(body.d)[:2], random_directions(body.d, 3, rng)])
        est = proj_body_support(body, us, 200_000, rng)
        assert est.samples == 200_000 and np.all(est.std_error < 0.01 * est.value)
        assert brackets(est, analytic_proj_support(body, us))

    def test_lp1_matches_octahedron(self):
        # lp with p = 1 has no closed form here; as the octahedron hpoly it
        # has Cauchy's
        eye = np.eye(3)
        signs = np.array([[sx, sy, 1.0] for sx in (-1, 1) for sy in (-1, 1)])
        octahedron = hpolytope(np.vstack([signs, -signs]), np.ones(8), scale=0.9)
        lp1 = lp_ball(3, 1, scale=0.9)
        assert analytic_proj_support(lp1, eye[0]) is None
        rng = np.random.default_rng(42)
        us = np.vstack([eye[:1], random_directions(3, 3, rng)])
        assert brackets(proj_body_support(lp1, us, 200_000, rng), analytic_proj_support(octahedron, us))

    @pytest.mark.parametrize("p", [3.0, 1.5])
    def test_d2_closed_form_is_the_width(self, p):
        # at d = 2 the shadow on u-perp is a segment: h_PiK(u) = 2 h_K(u-perp),
        # against the width of 200k boundary points projected on u-perp
        body = lp_ball(2, p, scale=0.8)
        us = random_directions(2, 5, np.random.default_rng(43))
        perp = us @ np.array([[0.0, 1.0], [-1.0, 0.0]])
        rows = analytic_proj_support(body, us)
        np.testing.assert_allclose(rows, [2.0 * body.support(w) for w in perp], rtol=1e-15)
        np.testing.assert_allclose(rows, [analytic_proj_support(body, u) for u in us], rtol=1e-15)
        phi = np.linspace(0.0, 2.0 * math.pi, 200_000, endpoint=False)
        theta = np.column_stack([np.cos(phi), np.sin(phi)])
        edge = theta / body.gauge(theta)[:, None]
        np.testing.assert_allclose(rows, 2.0 * (edge @ perp.T).max(axis=0), rtol=1e-9)


def random_directions(d, n, rng):
    u = rng.normal(size=(n, d))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


class TestLensVectorized:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
    def test_equals_scalar_elementwise(self, d):
        rng = np.random.default_rng(d)
        for r in (0.3, 0.62, 1.0, 1.7):
            edges = [0.0, 2.0 * r, np.nextafter(2.0 * r, 0.0), np.nextafter(2.0 * r, 5.0), 3.0 * r]
            s = np.concatenate([edges, rng.uniform(0.0, 2.5 * r, 5000)])
            got = ball_lens_volume(d, r, s)
            for si, gi in zip(s, got):
                assert gi == ball_lens_scalar(d, r, si)
            assert got[0] == ball_lens_scalar(d, r, 0.0) > 0.0
            assert got[1] == got[4] == 0.0

    def test_exact_intersection_volume_uses_it(self):
        b = lp_ball(3, 2, scale=0.7)
        xs = np.random.default_rng(5).normal(scale=0.5, size=(200, 3))
        f = exact_intersection_volume(b, xs)
        expected = [ball_lens_scalar(3, 0.7, si) for si in np.sqrt((xs * xs).sum(axis=1))]
        assert f.tolist() == expected
        assert exact_intersection_volume(b, xs[0]) == expected[0]
        assert isinstance(exact_intersection_volume(b, xs[0]), float)


class TestProjSupportRows:
    """The one h_PiK route at points equals the per-point routes."""

    @staticmethod
    def _rows(d):
        xs = np.random.default_rng(d).uniform(-1.5, 1.5, size=(7, d))
        xs[3] = 0.0
        return xs

    @pytest.mark.parametrize("d", [3, 4])
    def test_lp3_is_one_shared_draw(self, d):
        # proj_body_support over the unit rows, rescaled: one draw of 2000
        # directions for the whole batch
        body = normalize_to_unit_volume(lp_ball(d, 3))
        xs = self._rows(d)
        a, b, c = (np.random.default_rng(31) for _ in range(3))
        got = proj_support_rows(body, xs, 2000, a)
        nz = np.flatnonzero(row_norms(xs))
        n = row_norms(xs[nz])
        want = proj_body_support(body, xs[nz] / n[:, None], 2000, b).value * n
        np.testing.assert_allclose(got[nz], want, rtol=1e-12, atol=0.0)
        assert got[3] == 0.0
        _uniform_directions(c, 2000, d)
        assert a.bit_generator.state == b.bit_generator.state == c.bit_generator.state

    @pytest.mark.parametrize("d", [3, 4])
    def test_lp3_row_order(self, d):
        # a permutation of the rows permutes the values bit for bit
        body = normalize_to_unit_volume(lp_ball(d, 3))
        xs = np.random.default_rng(d).uniform(-1.5, 1.5, size=(40, d))
        got = proj_support_rows(body, xs, 20_000, np.random.default_rng(32))
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(len(xs))
            again = proj_support_rows(body, xs[perm], 20_000, np.random.default_rng(32))
            assert again.tolist() == got[perm].tolist()

    @pytest.mark.parametrize("d", [3, 4])
    def test_lp3_blocks(self, d):
        # a batch of more than one block of rows equals the same rows in
        # calls of one block each
        body = normalize_to_unit_volume(lp_ball(d, 3))
        step = 4 * GAUGE_CHUNK // 2000
        xs = np.random.default_rng(d).uniform(-1.5, 1.5, size=(2 * step + 7, d))
        got = proj_support_rows(body, xs, 2000, np.random.default_rng(33))
        blocks = (xs[:step], xs[step : 2 * step], xs[2 * step :])
        parts = [proj_support_rows(body, block, 2000, np.random.default_rng(33)) for block in blocks]
        assert got.tolist() == np.concatenate(parts).tolist()

    @pytest.mark.parametrize("d", [3, 4])
    def test_lp3_empty_batch_draws_nothing(self, d):
        # no rows, or only zero rows: no Cauchy draw
        body = normalize_to_unit_volume(lp_ball(d, 3))
        rng = np.random.default_rng(34)
        state = rng.bit_generator.state
        assert proj_support_rows(body, np.empty((0, d)), 2000, rng).shape == (0,)
        assert proj_support_rows(body, np.zeros((2, d)), 2000, rng).tolist() == [0.0, 0.0]
        assert len(proj_body_support(body, np.empty((0, d)), 2000, rng).value) == 0
        assert rng.bit_generator.state == state

    def test_lp3_d2_is_closed_form(self):
        # every body at d = 2 has a closed form: no draws
        body = normalize_to_unit_volume(lp_ball(2, 3))
        xs = self._rows(2)
        rng = np.random.default_rng(31)
        state = rng.bit_generator.state
        got = proj_support_rows(body, xs, 2000, rng)
        np.testing.assert_allclose(got, [analytic_proj_support(body, x) for x in xs], rtol=1e-15, atol=0.0)
        assert got[3] == 0.0
        assert rng.bit_generator.state == state

    def test_hpoly_is_cauchy_per_point(self):
        body = normalize_to_unit_volume(criterion4_hpolytope())
        xs = self._rows(body.d)
        got = proj_support_rows(body, xs, 0, np.random.default_rng(0))
        np.testing.assert_allclose(got, [h_proj_point(body, x) for x in xs], rtol=1e-12, atol=0.0)
        assert got[3] == 0.0

    @pytest.mark.parametrize("n", [2, 32, 500])
    @pytest.mark.parametrize("name", ["hpoly", "simplex_diff"])
    def test_polytope_polar_volume_is_cauchy_mean(self, name, n):
        # kappa_d mean(h^-d) of Cauchy's h over the same direction net
        body = normalize_to_unit_volume(criterion4_hpolytope() if name == "hpoly" else simplex_difference(3))
        d = body.d
        est = polar_proj_volume_mc(body, np.random.default_rng(n), n_directions=n, support_samples=0)
        theta = _uniform_directions(np.random.default_rng(n), n, d)
        w = ball_volume(d) * analytic_proj_support(body, theta) ** -float(d)
        assert est.value == pytest.approx(w.mean(), rel=1e-12)
        assert est.std_error == pytest.approx(w.std(ddof=1) / math.sqrt(n), rel=1e-12)
        assert est.samples == n


class TestUniformDirections:
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 12])
    def test_equals_broadcast_norm(self, d):
        # the per-column divide by fold_columns' norm against np.linalg.norm
        # over rows: numpy's pairwise sum from d = 8 on
        got = _uniform_directions(np.random.default_rng(d), 5000, d)
        theta = np.random.default_rng(d).normal(size=(5000, d))
        want = theta / np.linalg.norm(theta, axis=1, keepdims=True)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestPolarProjVolumes:
    def test_ball_small_d_values(self):
        assert polar_proj_ball_volume(1) == pytest.approx(2.0)
        assert polar_proj_ball_volume(2) == pytest.approx(math.pi / 4.0 * math.pi)
        assert polar_proj_ball_volume(2) == pytest.approx(2.4674011003, abs=1e-9)
        assert polar_proj_ball_volume(3) == pytest.approx(64.0 / 27.0, abs=1e-12)

    def test_bound_holds_through_64(self):
        for d in range(1, 65):
            v = polar_proj_ball_volume(d)
            assert isinstance(v, float)
            assert v <= (2.0 * math.pi / d) ** (0.5 * d) * (1 + 1e-12)

    def test_bound_violation_raises(self, monkeypatch):
        # a raise, not an assert, so that python -O keeps the check
        from normpack import volumetrics

        monkeypatch.setattr(volumetrics, "gammaln", lambda x: 5.0 if x < 1.9 else 0.0)
        with pytest.raises(RuntimeError, match="exceeds its bound"):
            polar_proj_ball_volume(2)

    def test_cube_analytic_value(self):
        # unit cube: Pi = 2 [-1,1]^d at side 2, polar is an l1 ball
        d = 3
        v = analytic_polar_proj_volume(cube(d, side=2.0))
        assert v == pytest.approx((2.0**d / math.factorial(d)) / 2.0 ** (d * (d - 1)))

    def test_ball_analytic_matches_exact(self):
        # the (gamma_d / gamma_{d-1})^d value is for the unit-volume ball
        for d in (2, 3, 5):
            b = lp_ball(d, 2, scale=ball_volume(d) ** (-1.0 / d))
            v = analytic_polar_proj_volume(b)
            assert v == pytest.approx(polar_proj_ball_volume(d))

    def test_mc_matches_analytic_ball(self):
        rng = np.random.default_rng(15)
        b = lp_ball(3, 2, scale=ball_volume(3) ** (-1.0 / 3.0))
        est = polar_proj_volume_mc(b, rng, n_directions=40, support_samples=0)
        assert est.value == pytest.approx(polar_proj_ball_volume(3), rel=1e-9)

    def test_mc_matches_analytic_cube(self):
        rng = np.random.default_rng(16)
        est = polar_proj_volume_mc(cube(3), rng, n_directions=200, support_samples=0)
        truth = analytic_polar_proj_volume(cube(3))
        assert est.value == pytest.approx(truth, rel=3.5 * est.std_error / truth + 0.02)


class TestMcEstimate:
    def test_brackets(self):
        e = McEstimate(1.0, 0.1, 100)
        assert brackets(e, 1.25)
        assert not brackets(e, 1.5)

    def test_zero_error_exact(self):
        e = McEstimate(2.0, 0.0, 0)
        assert brackets(e, 2.0)
        assert not brackets(e, 2.0 + 1e-9)
