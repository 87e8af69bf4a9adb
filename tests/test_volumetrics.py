import math

import numpy as np
import pytest
from scipy.integrate import quad

from normpack.bodies import (
    ball_volume,
    cube,
    hpolytope,
    lp_ball,
    normalize_to_unit_volume,
    simplex_difference,
    uniform_box,
)
from normpack.volumetrics import (
    McEstimate,
    OverlapClassifier,
    _ball_lens_volumes,
    _line_hits_convex,
    _orthonormal_complement,
    analytic_polar_proj_volume,
    analytic_proj_support,
    ball_cap_volume,
    ball_lens_volume,
    estimate_ik,
    exact_intersection_volume,
    ik_gauge_radius,
    intersection_volume,
    mc_volume,
    polar_proj_ball_volume,
    polar_proj_volume_mc,
    proj_body_support,
    row_norms,
)
from polytope_oracles import criterion4_hpolytope


class TestMcVolume:
    def test_disk_calibration(self):
        est = mc_volume(lp_ball(2, 2), 500_000, np.random.default_rng(0))
        assert est.brackets(math.pi)
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
        assert ball_lens_volume(3, r, s) == pytest.approx(2.0 * truth, rel=1e-10)

    def test_lens_2d_vs_quadrature(self):
        r, s = 1.3, 1.1
        def chord(t):
            return 2.0 * math.sqrt(max(r * r - t * t, 0.0))
        truth, _ = quad(chord, s / 2, r)
        assert ball_lens_volume(2, r, s) == pytest.approx(2.0 * truth, rel=1e-9)

    def test_lens_edge_cases(self):
        assert ball_lens_volume(4, 1.0, 2.0) == 0.0
        assert ball_lens_volume(4, 1.0, 0.0) == pytest.approx(ball_volume(4))


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

    def test_mc_matches_exact(self):
        rng = np.random.default_rng(8)
        b = lp_ball(3, 2)
        x = np.array([0.6, 0.2, -0.3])
        est = intersection_volume(b, x, 200_000, rng)
        assert est.brackets(exact_intersection_volume(b, x))

    def test_ray_monotone(self):
        # f is nonincreasing along rays from the origin
        for b in (lp_ball(3, 2), cube(3)):
            u = np.array([0.4, -0.3, 0.5])
            ts = np.linspace(0.0, 3.0, 40)
            vals = [float(exact_intersection_volume(b, t * u)) for t in ts]
            assert all(a >= c - 1e-12 for a, c in zip(vals, vals[1:]))


class TestOverlapClassifier:
    def test_exact_route(self):
        clf = OverlapClassifier(cube(2), delta=0.5)
        assert clf.exact
        out = clf.inside(np.array([[0.0, 0.0], [1.9, 1.9]]))
        assert out.tolist() == [True, False]

    def test_mc_route_agrees_far_from_boundary(self):
        rng = np.random.default_rng(9)
        clf = OverlapClassifier(lp_ball(2, 2), delta=0.5, rng=rng, force_mc=True)
        assert not clf.exact
        out = clf.inside(np.array([[0.1, 0.0], [1.8, 0.0]]))
        assert out.tolist() == [True, False]

    def test_boundary_counted_inside(self):
        # a point with f(x) = delta exactly can never be resolved
        rng = np.random.default_rng(10)
        b = cube(2, side=2.0)
        x = np.array([1.0, 0.0])  # f(x) = (2 - 1) * 2 = delta exactly
        clf = OverlapClassifier(b, delta=2.0, rng=rng, force_mc=True, base_samples=500)
        assert bool(clf.inside(x)[0])
        assert clf.boundary_count == 1

    def test_rng_required_for_mc(self):
        with pytest.raises(ValueError):
            OverlapClassifier(lp_ball(2, 3), delta=0.5)


class TestEstimateIk:
    def test_delta_ge_one_degenerate(self):
        prof = estimate_ik(lp_ball(2, 2), 1.0, 1000, 500, np.random.default_rng(0))
        assert prof.degenerate
        assert prof.vol_ik == 0.0
        assert math.isinf(prof.delta_k)

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


class TestIkGaugeRadius:
    def test_cube_closed_form(self):
        b = cube(2, side=2.0)  # vol 4
        g = ik_gauge_radius(b, 1.0)
        # f along an axis: (2 - |x|) * 2 = 1 at |x| = 1.5, gauge 1.5
        assert g == pytest.approx(2.0 * (1.0 - 1.0 / 4.0))

    def test_cube_delta_above_volume(self):
        assert ik_gauge_radius(cube(2), 5.0) == 0.0

    def test_ball_bisection_brackets(self):
        b = lp_ball(3, 2)
        delta = 0.7
        g = ik_gauge_radius(b, delta)
        assert exact_intersection_volume(b, np.array([g - 1e-6, 0, 0])) > delta
        assert exact_intersection_volume(b, np.array([g + 1e-6, 0, 0])) < delta

    def test_generic_fallback(self):
        assert ik_gauge_radius(lp_ball(2, 3), 0.5) == 2.0

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
        u = np.array([0.0, 1.0, 0.0])
        est = proj_body_support(lp_ball(3, 2), u, 100_000, rng, force_mc=True)
        assert est.brackets(math.pi)

    def test_mc_cube_diagonal_vs_hull_oracle(self):
        # project the cube vertices and take the exact 2-D hull area
        from scipy.spatial import ConvexHull

        u = np.ones(3) / math.sqrt(3.0)
        verts = np.array(
            [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
            dtype=float,
        )
        V = _orthonormal_complement(u)
        hull = ConvexHull(verts @ V)
        rng = np.random.default_rng(12)
        est = proj_body_support(cube(3, side=2.0), u, 200_000, rng, force_mc=True)
        assert hull.volume == pytest.approx(4.0 * math.sqrt(3.0), rel=1e-9)
        assert est.brackets(hull.volume)

    def test_generic_golden_section_route(self):
        # l_4 ball shadow is close to but above the l_2 shadow
        rng = np.random.default_rng(13)
        u = np.array([1.0, 0.0, 0.0])
        est = proj_body_support(lp_ball(3, 4), u, 100_000, rng)
        low = analytic_proj_support(lp_ball(3, 2), u)
        assert est.value > low
        assert est.value < 4.0  # below the circumscribing square

    def test_unit_vector_required(self):
        with pytest.raises(ValueError):
            proj_body_support(lp_ball(2, 2), np.array([1.0, 1.0]), 1000, np.random.default_rng(0))

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
        for u in random_directions(3, 3, rng):
            exact = proj_body_support(body, u, 1000, rng)
            assert exact.std_error == 0.0 and exact.value == analytic_proj_support(body, u)
            est = proj_body_support(body, u, 400_000, rng, force_mc=True)
            assert est.brackets(exact.value)

    def test_simplex_diff_shadow_positive(self):
        rng = np.random.default_rng(14)
        u = np.array([1.0, 0.0])
        est = proj_body_support(simplex_difference(2), u, 50_000, rng)
        assert 0.0 < est.value < 2.0 * simplex_difference(2).circumradius()


def golden_section_line_hits(body, base, u, t_max):
    """Reference: 80 golden-section steps on every row, no certificates."""
    a = np.full(len(base), -t_max)
    b = np.full(len(base), t_max)
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1 = body.gauge(base + x1[:, None] * u)
    f2 = body.gauge(base + x2[:, None] * u)
    for _ in range(80):
        left = f1 <= f2
        b = np.where(left, x2, b)
        a = np.where(left, a, x1)
        x1 = b - phi * (b - a)
        x2 = a + phi * (b - a)
        f1 = body.gauge(base + x1[:, None] * u)
        f2 = body.gauge(base + x2[:, None] * u)
    return np.minimum(f1, f2) <= 1.0 + 1e-10


def interval_line_hits(body, base, u):
    """Reference for balls and boxes: does the line z + t*u meet the body?

    A ball of radius r: the quadratic |z + t u|^2 = r^2 has a real root.
    A box of half-side s: the slabs |z_i + t u_i| <= s share some t.
    """
    if body.p == 2.0:
        b = base @ u
        c = (base * base).sum(axis=1) - body.scale**2
        return b * b - c >= 0.0
    s = body.scale
    lo = np.full(len(base), -np.inf)
    hi = np.full(len(base), np.inf)
    for i in range(body.d):
        ui = u[i]
        if abs(ui) < 1e-15:
            lo = np.where(np.abs(base[:, i]) <= s, lo, np.inf)
            continue
        t1 = (-s - base[:, i]) / ui
        t2 = (s - base[:, i]) / ui
        lo = np.maximum(lo, np.minimum(t1, t2))
        hi = np.minimum(hi, np.maximum(t1, t2))
    return lo <= hi


def shadow_lines(body, u, rows, rng):
    """Base points orthogonal to u, uniform over the shadow's bounding box,
    as ``proj_body_support`` draws them, and the search half-length."""
    V = _orthonormal_complement(u)
    half = np.asarray([body.support(V[:, j]) for j in range(body.d - 1)])
    z = rng.uniform(-half, half, size=(rows, body.d - 1))
    return z @ V.T, float(body.support(u)) + 1e-9


def random_directions(d, n, rng):
    u = rng.normal(size=(n, d))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


class TestLineHits:
    @pytest.mark.parametrize(
        "body",
        [lp_ball(3, 3), lp_ball(4, 1.5), lp_ball(3, 4), simplex_difference(3), criterion4_hpolytope()],
        ids=["lp3_d3", "lp1.5_d4", "lp4_d3", "simplex_diff_d3", "criterion4_hpoly"],
    )
    def test_certified_route_matches_golden_section(self, body):
        rng = np.random.default_rng(21)
        for u in random_directions(body.d, 10, rng):
            base, t_max = shadow_lines(body, u, 3000, rng)
            hits = _line_hits_convex(body, base, u, t_max)
            assert 0 < hits.sum() < len(base)
            np.testing.assert_array_equal(hits, golden_section_line_hits(body, base, u, t_max))

    @pytest.mark.parametrize("body", [lp_ball(3, 2, scale=0.8), cube(3, side=1.4)], ids=["lp2", "lpinf"])
    def test_generic_path_matches_interval_branch(self, body):
        rng = np.random.default_rng(22)
        dirs = np.vstack([np.eye(3), random_directions(3, 10, rng)])
        misses = 0
        for u in dirs:
            base, t_max = shadow_lines(body, u, 3000, rng)
            expected = interval_line_hits(body, base, u)
            assert expected.any()
            misses += int(np.count_nonzero(~expected))
            np.testing.assert_array_equal(_line_hits_convex(body, base, u, t_max), expected)
        assert misses > 0

    @pytest.mark.parametrize("body", [lp_ball(3, 3), simplex_difference(3)], ids=["lp3", "simplex_diff"])
    def test_degenerate_rows(self, body):
        rng = np.random.default_rng(23)
        for u in np.vstack([np.eye(3), -np.eye(3)[:1]]):
            base, t_max = shadow_lines(body, u, 500, rng)
            base[:5] = 0.0
            hits = _line_hits_convex(body, base, u, t_max)
            assert hits[:5].all()
            np.testing.assert_array_equal(hits, golden_section_line_hits(body, base, u, t_max))

    def test_no_row_left_to_search(self):
        # every row is certified: near the origin (hit) or far out (miss)
        body = lp_ball(3, 3)
        u = np.array([0.0, 0.0, 1.0])
        V = _orthonormal_complement(u)
        z = np.vstack([np.full((4, 2), 0.1), np.full((4, 2), 5.0)])
        hits = _line_hits_convex(body, z @ V.T, u, body.support(u) + 1e-9)
        np.testing.assert_array_equal(hits, [True] * 4 + [False] * 4)
        assert _line_hits_convex(body, np.zeros((0, 3)), u, 1.0).shape == (0,)


class TestLensVectorized:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
    def test_equals_scalar_elementwise(self, d):
        rng = np.random.default_rng(d)
        for r in (0.3, 0.62, 1.0, 1.7):
            edges = [0.0, 2.0 * r, np.nextafter(2.0 * r, 0.0), np.nextafter(2.0 * r, 5.0), 3.0 * r]
            s = np.concatenate([edges, rng.uniform(0.0, 2.5 * r, 5000)])
            got = _ball_lens_volumes(d, r, s)
            for si, gi in zip(s, got):
                assert gi == ball_lens_volume(d, r, si)
            assert got[0] == ball_lens_volume(d, r, 0.0) > 0.0
            assert got[1] == got[4] == 0.0

    def test_exact_intersection_volume_uses_it(self):
        b = lp_ball(3, 2, scale=0.7)
        xs = np.random.default_rng(5).normal(scale=0.5, size=(200, 3))
        f = exact_intersection_volume(b, xs)
        expected = [ball_lens_volume(3, 0.7, si) for si in np.sqrt((xs * xs).sum(axis=1))]
        assert f.tolist() == expected
        assert exact_intersection_volume(b, xs[0]) == expected[0]
        assert isinstance(exact_intersection_volume(b, xs[0]), float)


class TestPolarProjVolumes:
    def test_ball_small_d_values(self):
        assert polar_proj_ball_volume(1).value == pytest.approx(2.0)
        assert polar_proj_ball_volume(2).value == pytest.approx(math.pi / 4.0 * math.pi)
        assert polar_proj_ball_volume(2).value == pytest.approx(2.4674011003, abs=1e-9)
        assert polar_proj_ball_volume(3).value == pytest.approx(64.0 / 27.0, abs=1e-12)

    def test_bound_holds_through_64(self):
        for d in range(1, 65):
            pb = polar_proj_ball_volume(d)
            assert pb.value <= pb.bound * (1 + 1e-12)

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
            assert v == pytest.approx(polar_proj_ball_volume(d).value)

    def test_mc_matches_analytic_ball(self):
        rng = np.random.default_rng(15)
        b = lp_ball(3, 2, scale=ball_volume(3) ** (-1.0 / 3.0))
        est = polar_proj_volume_mc(b, rng, n_directions=40, support_samples=0)
        assert est.value == pytest.approx(polar_proj_ball_volume(3).value, rel=1e-9)

    def test_mc_matches_analytic_cube(self):
        rng = np.random.default_rng(16)
        est = polar_proj_volume_mc(cube(3), rng, n_directions=200, support_samples=0)
        truth = analytic_polar_proj_volume(cube(3))
        assert est.value == pytest.approx(truth, rel=3.5 * est.std_error / truth + 0.02)


class TestMcEstimate:
    def test_brackets(self):
        e = McEstimate(1.0, 0.1, 100)
        assert e.brackets(1.25)
        assert not e.brackets(1.5)

    def test_zero_error_exact(self):
        e = McEstimate(2.0, 0.0, 0)
        assert e.brackets(2.0)
        assert not e.brackets(2.0 + 1e-9)
