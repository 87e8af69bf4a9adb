import json
import math

import numpy as np
import pytest

from normpack import checks, volumetrics
from normpack.bodies import cube, lp_ball, normalize_to_unit_volume, sample_uniform, simplex_difference
from normpack.checks import (
    CheckReport,
    check_logconcavity,
    check_minkowski_equivalence,
    check_petty,
    check_poisson_tail,
    check_rogers_shephard,
    check_schmuckenschlager,
    regular_simplex_volume,
    write_reports_csv,
    write_reports_jsonl,
)
from normpack.volumetrics import exact_intersection_volume, intersection_volume, proj_support_rows
import verifier_oracles
from verifier_oracles import (
    h_proj_point,
    logconcavity_per_point,
    minkowski_per_set,
    schmuckenschlager_per_point,
    simplex_diff_membership_dual,
)


MC_BODIES = [normalize_to_unit_volume(lp_ball(3, 3)), normalize_to_unit_volume(simplex_difference(3))]


def count_calls(monkeypatch, module, name):
    """Patch module.name, a function (body, a, n, ...), to record the n of each call; returns that list."""
    seen, real = [], getattr(module, name)

    def spy(body, *args):
        seen.append(args[1])
        return real(body, *args)

    monkeypatch.setattr(module, name, spy)
    return seen


class TestSchmuckenschlager:
    @pytest.mark.parametrize("delta", [0.05, 0.5])
    @pytest.mark.parametrize("d", [2, 3])
    def test_ball_no_violations(self, d, delta):
        body = normalize_to_unit_volume(lp_ball(d, 2))
        rep = check_schmuckenschlager(body, delta, 300, np.random.default_rng(0))
        assert rep.violations == 0
        assert rep.extra["outer_checked"] > 0
        assert rep.extra["inner_checked"] > 0

    def test_cube_no_violations(self):
        rep = check_schmuckenschlager(cube(3), 0.5, 300, np.random.default_rng(1))
        assert rep.violations == 0

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            check_schmuckenschlager(cube(2), 1.5, 10, np.random.default_rng(0))

    def test_zero_slack_inner_still_holds(self):
        # the inner inclusion holds without slack; only the outer needs it
        body = normalize_to_unit_volume(lp_ball(2, 2))
        rep = check_schmuckenschlager(body, 0.3, 300, np.random.default_rng(2), slack=0.0)
        assert rep.extra["inner_violations"] == 0

    def test_lp3_h_in_one_call(self):
        # the trial points, one Cauchy draw for h_PiK at all of them, then f at all of them from one sample of K
        body = normalize_to_unit_volume(lp_ball(3, 3))
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        rep = check_schmuckenschlager(body, 0.5, 6, a)
        xs = sample_uniform(body.scaled(2.0), b, 6)
        hx = proj_support_rows(body, xs, checks.CHECK_MC_SAMPLES, b)
        fx = intersection_volume(body, xs, checks.CHECK_MC_SAMPLES, b).value
        assert rep.extra["outer_checked"] == np.count_nonzero(fx > 0.5)
        assert rep.extra["inner_checked"] == np.count_nonzero(hx <= 0.5 * 0.95)
        assert a.bit_generator.state == b.bit_generator.state

    def test_lp3_f_from_one_sample(self, monkeypatch):
        draws = count_calls(monkeypatch, volumetrics, "sample_uniform")
        check_schmuckenschlager(normalize_to_unit_volume(lp_ball(3, 3)), 0.5, 10, np.random.default_rng(5))
        assert draws == [checks.CHECK_MC_SAMPLES]


class TestLogconcavity:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_ball(self, d):
        body = normalize_to_unit_volume(lp_ball(d, 2))
        rep = check_logconcavity(body, 100, np.random.default_rng(0))
        assert rep.violations == 0

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_cube(self, d):
        rep = check_logconcavity(cube(d), 100, np.random.default_rng(1))
        assert rep.violations == 0

    def test_mc_route(self):
        body = lp_ball(2, 3)
        vol = 4.0 * math.gamma(4.0 / 3.0) ** 2 / math.gamma(5.0 / 3.0)
        body = normalize_to_unit_volume(body, None)
        rep = check_logconcavity(body, 30, np.random.default_rng(2), mc_samples=5_000)
        assert rep.violations == 0

    def test_mc_error_propagation(self):
        # rhs = f1^lam f2^(1-lam) carries the errors of f1 and f2 weighted by
        # lam rhs / f1 and (1-lam) rhs / f2; weighting them by f2 and f1
        # made the slack too narrow and flagged one ray of this seed
        body = normalize_to_unit_volume(simplex_difference(3))
        rep = check_logconcavity(body, 50, np.random.default_rng(1023923122))
        assert rep.violations == 0

    def test_slope_identity(self):
        body = normalize_to_unit_volume(lp_ball(3, 2))
        rep = check_logconcavity(body, 10, np.random.default_rng(3), slope_directions=10)
        assert rep.params["slope_tol"] == 0.05
        assert rep.extra["slope_failures"] == 0
        assert rep.extra["max_slope_rel_err"] <= 0.05

    @pytest.mark.parametrize("slope_directions", [0, 4])
    @pytest.mark.parametrize("body", MC_BODIES, ids=["lp3", "simplex_diff"])
    def test_mc_body_draws_once_per_batch(self, body, slope_directions, monkeypatch):
        # one sample of K for the rays' f, one for the slope directions' f and, where h_PiK has no
        # closed form (lp3, not the polytope), one Cauchy draw for their h_PiK
        draws = count_calls(monkeypatch, volumetrics, "sample_uniform")
        cauchy = count_calls(monkeypatch, volumetrics, "proj_body_support")
        check_logconcavity(body, 20, np.random.default_rng(6), mc_samples=5_000, slope_directions=slope_directions)
        assert draws == [5_000] + [200_000] * (slope_directions > 0)
        assert cauchy == [5_000] * (slope_directions > 0 and body.polytope is None)

    @pytest.mark.parametrize("body", MC_BODIES, ids=["lp3", "simplex_diff"])
    def test_mc_ray_test_holds(self, body):
        # the 3-sigma slack sums the errors of estimates that share one sample of K
        for seed in range(9101, 9121):
            assert check_logconcavity(body, 50, np.random.default_rng(seed)).violations == 0

    def test_rays_required(self):
        with pytest.raises(ValueError):
            check_logconcavity(cube(2), 0, np.random.default_rng(0))


def closed_form_body(kind, d):
    return normalize_to_unit_volume(lp_ball(d, 2)) if kind == "ball" else cube(d)


class TestBatchedMatchesPerPoint:
    """Balls and cubes take f and h_PiK in one call; the reports must equal
    those of the per-point loops in ``verifier_oracles``."""

    @pytest.mark.parametrize("delta", [0.05, 0.5])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("kind", ["ball", "cube"])
    def test_schmuckenschlager(self, kind, d, delta):
        body = closed_form_body(kind, d)
        for seed in range(3):
            # a negative slack makes both tests fail on some points, so
            # nonzero violation counts are compared too
            for slack in (0.05, -0.5):
                got = check_schmuckenschlager(body, delta, 300, np.random.default_rng(seed), slack=slack, seed=seed)
                want = schmuckenschlager_per_point(body, delta, 300, np.random.default_rng(seed), slack=slack, seed=seed)
                assert got.to_record() == want.to_record()

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["ball", "cube"])
    def test_logconcavity(self, kind, d, monkeypatch):
        # the batch scales rng.random as Generator.uniform does, so the
        # rays and the generator's end state are those of the loop.  The
        # report holds only counts, so the points f is taken at are
        # compared too, bit for bit
        body = closed_form_body(kind, d)
        points = {}
        for module in (checks, verifier_oracles):
            monkeypatch.setattr(
                module,
                "exact_intersection_volume",
                lambda b, x, seen=points.setdefault(module, []): seen.append(np.reshape(x, (-1, d)))
                or exact_intersection_volume(b, x),
            )
        for seed in range(3):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            got = check_logconcavity(body, 100, a, slope_directions=5, seed=seed)
            want = logconcavity_per_point(body, 100, b, slope_directions=5, seed=seed)
            assert got.to_record() == want.to_record()
            assert a.bit_generator.state == b.bit_generator.state
        batch, loop = (np.concatenate(points[m]) for m in (checks, verifier_oracles))
        assert len(batch) == 3 * (3 * 100 + 5)
        assert np.array_equal(batch.view(np.uint64), loop.view(np.uint64))

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("kind", ["ball", "cube"])
    def test_zero_row(self, kind, d):
        body = closed_form_body(kind, d)
        xs = np.random.default_rng(d).uniform(-1.0, 1.0, size=(6, d))
        xs[2] = 0.0
        h = proj_support_rows(body, xs, 0, np.random.default_rng(0))
        assert h[2] == 0.0
        assert h.tolist() == [h_proj_point(body, x) for x in xs]
        f = exact_intersection_volume(body, xs)
        assert f.tolist() == [float(exact_intersection_volume(body, x)) for x in xs]
        assert f[2] == pytest.approx(1.0, rel=1e-12)  # f(0) = vol K


class TestPetty:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_cube_analytic(self, d):
        rep = check_petty(normalize_to_unit_volume(cube(d)), np.random.default_rng(0))
        assert rep.violations == 0
        assert rep.std_error == 0.0
        assert rep.conclusive

    def test_ball_attains_bound(self):
        from normpack.bodies import ball_volume

        d = 3
        b = lp_ball(d, 2, scale=ball_volume(d) ** (-1.0 / d))
        rep = check_petty(b, np.random.default_rng(0))
        assert rep.value == pytest.approx(rep.bound)
        assert rep.violations == 0

    def test_mc_body_below_bound(self):
        rep = check_petty(
            normalize_to_unit_volume(simplex_difference(2)),
            np.random.default_rng(1),
            n_directions=64,
        )
        assert rep.violations == 0
        assert rep.std_error > 0.0

    def test_inconclusive_never_pass(self):
        # a fat noise band straddling the bound must not report a pass
        rep = CheckReport(
            check="petty", body="x", d=2, params={}, value=2.46, std_error=0.5,
            bound=2.4674, violations=0, trials=1, seed=None, conclusive=False,
        )
        assert not rep.conclusive


class TestRogersShephard:
    def test_interval(self):
        rep = check_rogers_shephard(1, 100_000, np.random.default_rng(0))
        assert rep.value == pytest.approx(2.0, rel=0.02)
        assert rep.violations == 0

    def test_triangle(self):
        rep = check_rogers_shephard(2, 400_000, np.random.default_rng(1))
        assert rep.value == pytest.approx(6.0, rel=0.03)
        assert rep.violations == 0

    def test_tetrahedron(self):
        rep = check_rogers_shephard(3, 400_000, np.random.default_rng(2))
        assert rep.value == pytest.approx(20.0, rel=0.05)
        assert rep.violations == 0

    def test_cube_control_strict(self):
        rep = check_rogers_shephard(3, 100_000, np.random.default_rng(3))
        assert rep.extra["cube_ratio"] == 8.0
        assert rep.extra["cube_strict"]

    def test_regular_simplex_volume(self):
        assert regular_simplex_volume(1) == pytest.approx(math.sqrt(2.0))
        assert regular_simplex_volume(2) == pytest.approx(math.sqrt(3.0) / 2.0)
        assert regular_simplex_volume(3) == pytest.approx(math.sqrt(4.0) / 6.0)


class TestMinkowskiEquivalence:
    @pytest.mark.parametrize("d", [2, 3])
    def test_no_disagreements(self, d):
        rep = check_minkowski_equivalence(d, 60, np.random.default_rng(0))
        assert rep.violations == 0
        # the sampler must exercise both verdicts or the test is vacuous
        assert rep.extra["packing_true_sets"] > 0
        assert rep.extra["packing_false_sets"] > 0

    @pytest.mark.parametrize("n_sets", [1, 30])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_batch_matches_per_set(self, d, n_sets):
        for seed in range(5):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            got = check_minkowski_equivalence(d, n_sets, a, seed=seed)
            want = minkowski_per_set(d, n_sets, b, seed=seed)
            assert got.to_record() == want.to_record()
            assert a.bit_generator.state == b.bit_generator.state

    def test_dual_membership_matches_gauge(self):
        rng = np.random.default_rng(1)
        for d in (2, 3):
            body = simplex_difference(d)
            z = rng.uniform(-1.2, 1.2, size=(400, d))
            # S - S = 2 * (S - S)/2, so membership is gauge <= 2
            dual = simplex_diff_membership_dual(d, z)
            gauge = body.gauge(z) <= 2.0 + 1e-12
            assert np.array_equal(dual, gauge)


class TestPoissonTail:
    def test_holds(self):
        rep = check_poisson_tail(20.0, 1.0, 100_000, np.random.default_rng(0))
        assert rep.violations == 0
        assert rep.value <= rep.bound + 3.0 * rep.std_error
        assert rep.bound == pytest.approx(math.exp(-20.0 / 3.0))

    def test_t_below_one_rejected(self):
        with pytest.raises(ValueError):
            check_poisson_tail(20.0, 0.5, 1000, np.random.default_rng(0))

    def test_empirical_rate_sane(self):
        # at lambda = 20, P[Z > 40] is about 6e-6; far below the 1.3e-3 bound
        rep = check_poisson_tail(20.0, 1.0, 200_000, np.random.default_rng(1))
        assert rep.value < 1e-3


class TestReportSerialization:
    def _reports(self):
        return [
            check_poisson_tail(20.0, 1.0, 10_000, np.random.default_rng(0), seed=0),
            check_rogers_shephard(2, 10_000, np.random.default_rng(1), seed=1),
        ]

    def test_jsonl(self, tmp_path):
        path = tmp_path / "reports.jsonl"
        reports = self._reports()
        write_reports_jsonl(reports, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        rec = json.loads(lines[0])
        assert rec["check"] == "poisson_tail"
        assert set(rec) >= {"check", "value", "bound", "violations", "trials", "seed"}

    def test_csv(self, tmp_path):
        import csv

        path = tmp_path / "reports.csv"
        write_reports_csv(self._reports(), path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[1]["check"] == "rogers_shephard"
        assert json.loads(rows[0]["params"]) == {"lambda": 20.0, "t": 1.0}
