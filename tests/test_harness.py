import json
import math
import os
import re
import time
from dataclasses import replace

import numpy as np
import pytest

from normpack.bodies import body_from_spec, body_to_spec, closed_form_volume, hpolytope, normalize_to_unit_volume
from normpack.cli import pack_main, verify_main, vol_main
from normpack.harness import (
    OUTPUT_DIR_ENV,
    ExperimentConfig,
    PipelineStageError,
    child_rng,
    child_seed,
    default_config,
    run_pipeline,
    run_stages,
    sweep,
    verify_suite,
    write_sweep_csv,
)
from normpack.indset import import_packing, verify_packing
import normpack.harness as harness
import normpack.packing as packing
from normpack.packing import QUERY_SLACK, TorusDomain, build_graph, pairs_within_gauge
from graph_oracles import free_core_tokens
from polytope_oracles import criterion4_hpolytope


UNIT_BALL_2 = normalize_to_unit_volume(body_from_spec(default_config(2).body))
SQUARE = hpolytope(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))


def hpoly_config() -> ExperimentConfig:
    """A tiny pipeline on the criterion-4 H-polytope: L just above the
    no-self-wrap floor 8 R of the unit-volume body (R = 1.16)."""
    body = criterion4_hpolytope()
    return ExperimentConfig(
        body=body_to_spec(body),
        d=3,
        L=9.5,
        Delta=0.5,
        ik_delta=0.95,
        codegree_coeff=1.2,
        mc_samples=1000,
        seed=1,
        ik_outer_samples=50,
    )


class TestChildSeed:
    def test_stable(self):
        assert child_seed(1, "poisson") == child_seed(1, "poisson")

    def test_label_separates(self):
        assert child_seed(1, "poisson") != child_seed(1, "prune")

    def test_master_separates(self):
        assert child_seed(1, "poisson") != child_seed(2, "poisson")

    def test_rng_streams_independent(self):
        a = child_rng(1, "a").uniform(size=5)
        b = child_rng(1, "b").uniform(size=5)
        assert not np.allclose(a, b)


class TestConfig:
    def test_round_trip_identity(self):
        cfg = default_config(2, seed=9)
        text = cfg.to_json()
        again = ExperimentConfig.from_json(text)
        assert again == cfg
        assert again.to_json() == text

    def test_hash_ignores_workers_and_out_dir(self):
        cfg = default_config(2)
        assert replace(cfg, out_dir="/tmp/x").hash() == cfg.hash()
        # the worker count is an argument of sweep, never part of a config
        assert "workers" not in json.loads(cfg.to_json())

    def test_hash_sensitive_to_science_fields(self):
        cfg = default_config(2)
        assert replace(cfg, Delta=31.0).hash() != cfg.hash()
        assert replace(cfg, seed=2).hash() != cfg.hash()

    def test_validation(self):
        cfg = default_config(2)
        with pytest.raises(ValueError):
            replace(cfg, Delta=-1.0)
        with pytest.raises(ValueError):
            replace(cfg, ik_delta=0.0)
        with pytest.raises(ValueError, match="seed"):
            replace(cfg, seed=1.5)
        for name in ("L", "Delta", "ik_delta", "codegree_coeff", "mc_samples"):
            with pytest.raises(ValueError, match=name):
                replace(cfg, **{name: math.nan})
        with pytest.raises(ValueError, match="ik_outer_samples"):
            replace(cfg, ik_outer_samples=0)
        assert replace(cfg, ik_outer_samples=1).ik_outer_samples == 1

    @pytest.mark.parametrize(
        "name,value,kind",
        [
            ("L", "20", "a real number"),
            ("d", 2.0, "an integer"),
            ("seed", True, "an integer"),
            ("mc_samples", 2.0e4, "an integer"),
            ("ik_outer_samples", "100", "an integer"),
            ("seed", None, "an integer"),
            ("Delta", False, "a real number"),
            ("ik_delta", [0.95], "a real number"),
            ("codegree_coeff", "1.2", "a real number"),
        ],
    )
    def test_field_types(self, name, value, kind):
        with pytest.raises(ValueError, match="^" + re.escape(f"{name} must be {kind}, got {value!r}")):
            replace(default_config(2), **{name: value})

    def test_numeric_types_accepted(self):
        cfg = replace(default_config(2), d=np.int64(2), seed=np.uint32(5), L=20, Delta=np.float64(30.0))
        assert cfg.L == 20 and cfg.seed == 5

    def test_default_config_unknown_d(self):
        with pytest.raises(ValueError):
            default_config(7)

    def test_from_dict_names_unknown_and_missing_keys(self):
        data = json.loads(default_config(2).to_json())
        with pytest.raises(ValueError, match="unknown keys: workers$"):
            ExperimentConfig.from_dict({**data, "workers": 1})
        # a field the config no longer has is unknown like any other key
        with pytest.raises(ValueError, match="unknown keys: local_search_budget$"):
            ExperimentConfig.from_dict({**data, "local_search_budget": 100})
        del data["seed"], data["L"]
        with pytest.raises(ValueError, match="unknown keys: extra; missing keys: L, seed"):
            ExperimentConfig.from_dict({**data, "extra": 0})


class TestRunPipeline:
    def test_smoke_d2(self):
        rec = run_pipeline(default_config(2, seed=3))
        assert rec.n_points > 0
        assert rec.packing["count"] > 0
        assert rec.packing["density"] > rec.packing["trivial_bound"]
        assert rec.prune_report["retained"] <= rec.prune_report["n_initial"]
        assert rec.preconditions == {
            "d_gt_10": False,
            "Delta_gt_d12": False,
            "Delta_le_Delta_K": True,
        }

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_removed_x2_within_its_bound(self, d):
        # x2_bound = n Delta vol(I_K) bounds the expected number of points with a
        # neighbor in 2 I_K; X2 marks both ends of a pair, so the count has about
        # twice the variance of a Poisson count with that mean
        for seed in range(1, 11):
            rec = run_pipeline(default_config(d, seed))
            bound = rec.prune_report["expected_sizes"]["x2_bound"]
            assert rec.ik["delta_k"] is not None and math.isfinite(rec.ik["delta_k"]) and bound > 0.0
            assert rec.preconditions["Delta_le_Delta_K"] is True
            assert rec.prune_report["removed_x2"] <= bound + 3.0 * math.sqrt(2.0 * bound)

    def test_deterministic_records(self):
        a = run_pipeline(default_config(3, seed=4))
        b = run_pipeline(default_config(3, seed=4))
        assert a.to_json() == b.to_json()

    def test_timing_excluded_from_json(self):
        rec = run_pipeline(default_config(2, seed=5))
        assert rec.timing  # populated
        assert "timing" not in json.loads(rec.to_json())

    def test_small_L_fails_before_sampling(self):
        cfg = replace(default_config(2), L=1.0)
        with pytest.raises(PipelineStageError) as exc:
            run_pipeline(cfg)
        assert exc.value.stage == "validate"

    def test_body_dimension_mismatch(self):
        cfg = replace(default_config(2), body={"kind": "lp", "d": 3, "p": 2, "scale": 1.0})
        with pytest.raises(PipelineStageError) as exc:
            run_pipeline(cfg)
        assert exc.value.stage == "normalize"

    def test_exact_d3_large_config_removes_x3(self):
        # the benchmark's exact_d3_large config at seed 1, about 30k points,
        # whose X3 product has about 0.12M nonzeros in B
        rec = run_pipeline(replace(default_config(3), L=20.0))
        assert rec.prune_report["removed_x3"] > 0

    def test_runs_just_above_the_floor(self):
        # simplex_diff queries pairs within its circumscribed ball, whose
        # radius at the smallest L validate takes is just below L / 2
        spec = {"kind": "simplex_diff", "d": 3, "scale": 1.0}
        floor = 8.0 * normalize_to_unit_volume(body_from_spec(spec)).circumradius() * (1.0 + QUERY_SLACK)
        cfg = replace(default_config(3), body=spec, Delta=2.0, L=math.nextafter(floor, math.inf),
                      ik_outer_samples=200, mc_samples=2000)
        assert run_pipeline(cfg).packing["count"] > 0

    @pytest.mark.parametrize(
        "cfg",
        [
            replace(default_config(3), L=6.0, Delta=300.0),
            replace(default_config(3), L=20.0, body={"kind": "lp", "d": 3, "p": 3, "scale": 1.0}),
        ],
        ids=["d3_Delta300", "lp3_L20"],
    )
    def test_pruned_graph_within_the_caps(self, cfg):
        # the paper's caps at Delta = 300 (about 8100 points), and on lp3 at
        # L = 20, whose Cauchy estimates of h_PiK run in row blocks on about 30k points
        stats = run_pipeline(cfg).stats_post
        assert stats["max_degree"] <= cfg.Delta + cfg.Delta ** (2.0 / 3.0)
        assert stats["max_codegree"] < cfg.codegree_coeff * cfg.Delta

    def test_persists_record(self, tmp_path):
        cfg = replace(default_config(2, seed=6), out_dir=str(tmp_path))
        rec = run_pipeline(cfg)
        path = tmp_path / f"run_{cfg.hash()[:12]}.jsonl"
        assert path.exists()
        assert path.read_text().strip() == rec.to_json()

    def test_output_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
        cfg = default_config(2, seed=7)
        run_pipeline(cfg)
        assert (tmp_path / f"run_{cfg.hash()[:12]}.jsonl").exists()

    def test_hpoly_end_to_end(self):
        cfg = hpoly_config()
        t0 = time.perf_counter()
        rec = run_pipeline(cfg)
        assert time.perf_counter() - t0 < 2.0
        assert rec.packing["count"] > 0
        assert rec.packing["density"] == rec.packing["count"] / cfg.L**3

    def test_stages_match_record(self):
        cfg = default_config(2, seed=6)
        run = run_stages(cfg)
        assert run.record.to_json() == run_pipeline(cfg).to_json()
        assert run.pruned.n == run.record.prune_report["retained"]
        assert run.packing.summary() == run.record.packing
        assert run.domain == TorusDomain(2, cfg.L)


class TestSweep:
    def test_single_point_matches_run(self):
        template = default_config(2, seed=8)
        rows = sweep(template, deltas=[20.0])
        assert len(rows) == 1 and rows[0]["status"] == "ok"
        cfg = replace(
            template, Delta=20.0, seed=child_seed(template.seed, "sweep:0") % 2**31
        )
        rec = run_pipeline(cfg)
        assert rows[0]["density"] == rec.packing["density"]
        assert rows[0]["independent_set"] == rec.packing["count"]

    def test_axis_exclusive(self):
        template = default_config(2)
        with pytest.raises(ValueError):
            sweep(template, deltas=[20.0], ds=[2])
        with pytest.raises(ValueError):
            sweep(template)

    def test_error_rows_flagged(self):
        template = replace(default_config(2), L=20.0)
        rows = sweep(template, deltas=[20.0, 1e9])  # second exceeds point cap
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"] == "error: validate: ValueError: expected count 1e+11 exceeds cap 2000000"
        assert rows[1]["density"] is None

    def test_worker_count_invariant(self):
        template = default_config(2, seed=10)
        rows1 = sweep(template, deltas=[15.0, 25.0], workers=1)
        rows8 = sweep(template, deltas=[15.0, 25.0], workers=8)
        assert rows1 == rows8

    def test_records_byte_identical_across_workers(self, tmp_path):
        # with 3 workers on 2 cores the third run waits for a core token, and
        # a run splits its kernels only while a token is free
        records = {}
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}"
            rows = sweep(replace(default_config(2, seed=12), out_dir=str(out)), deltas=[15.0, 20.0, 25.0], workers=workers)
            assert [row["status"] for row in rows] == ["ok"] * 3
            records[workers] = {path.name: path.read_bytes() for path in out.iterdir()}
        assert len(records[1]) == 3 and records[1] == records[2] == records[3]

    def test_a_run_holds_one_core_token(self, monkeypatch):
        free = []

        def spy(*args):
            free.append(free_core_tokens())
            return build_graph(*args)

        monkeypatch.setattr(harness, "build_graph", spy)
        run_pipeline(default_config(2, seed=3))
        assert free == [len(os.sched_getaffinity(0)) - 1]

    @pytest.mark.parametrize("d", [2, 3])
    def test_prune_reads_the_x2_codes_of_the_build(self, monkeypatch, d):
        # 2 g_ik < 2 for the unit ball: the build's gauge pass keeps X2's
        # pairs, so the run's one pair query in packing is the build's
        limits = []

        def spy(points, body, domain, gauge_limit):
            limits.append(gauge_limit)
            return pairs_within_gauge(points, body, domain, gauge_limit)

        monkeypatch.setattr(packing, "pairs_within_gauge", spy)
        run = run_stages(default_config(d, seed=3))
        assert limits == [2.0] and run.record.prune_report["removed_x2"] > 0

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
            sweep(default_config(2), deltas=[15.0], workers=workers)

    def test_dimension_axis(self):
        rows = sweep(default_config(2, seed=11), ds=[2, 3.0])  # `--grid d=2,3` gives floats
        assert [r["d"] for r in rows] == [2, 3]
        assert all(r["status"] == "ok" for r in rows)

    @pytest.mark.parametrize("d, shown", [(2.5, "2.5"), (math.inf, "inf"), (math.nan, "nan")])
    def test_dimension_axis_rejects_non_integral_d(self, monkeypatch, d, shown):
        # before any run: d = 2.5 must not run d = 2, nor inf end in an OverflowError
        monkeypatch.setattr(harness, "run_pipeline", lambda cfg: pytest.fail(f"ran d = {cfg.d}"))
        with pytest.raises(ValueError, match=f"^a sweep over d needs integral d, got {shown}$"):
            sweep(default_config(2), ds=[2, d])

    def test_dimension_axis_keeps_out_dir(self, tmp_path):
        sweep(replace(default_config(2, seed=11), out_dir=str(tmp_path)), ds=[2])
        assert len(list(tmp_path.glob("run_*.jsonl"))) == 1

    def test_dimension_axis_rejects_other_bodies(self):
        cube = {"kind": "lp", "d": 2, "p": "inf", "scale": 1.0}
        for body in (cube, {"kind": "lp", "d": 2, "p": 3, "scale": 1.0}, {"kind": "simplex_diff", "d": 2}):
            with pytest.raises(ValueError, match="l2"):
                sweep(replace(default_config(2), body=body), ds=[2, 3])

    def test_rows_carry_delta_k(self):
        # Delta_K of the unit-volume d = 3 ball at delta 0.95, whatever the row's Delta
        rows = sweep(default_config(3, seed=12), deltas=[20.0, 30.0])
        assert [row["delta_k"] for row in rows] == [pytest.approx(1123.75, rel=1e-5)] * 2

    def test_csv(self, tmp_path):
        rows = sweep(default_config(2, seed=12), deltas=[20.0])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        header = path.read_text().splitlines()[0]
        assert header == "d,Delta,n_pre,n_post,independent_set,density,trivial_bound,log_delta_over_delta,delta_k,status"


class TestVerifySuite:
    def test_fast_all_conclusive_no_violations(self):
        reports = verify_suite("fast", seed=1)
        assert len(reports) > 0
        assert all(r.violations == 0 for r in reports)
        assert all(r.conclusive for r in reports)

    def test_selector(self):
        reports = verify_suite("fast", seed=1, which="poisson")
        assert len(reports) == 1
        assert reports[0].check == "poisson_tail"

    def test_bad_level(self):
        with pytest.raises(ValueError):
            verify_suite("medium")

    def test_unknown_check(self):
        with pytest.raises(ValueError, match="petyy"):
            verify_suite("fast", which="petyy")


class TestCli:
    def _write_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(default_config(2, seed=13).to_json())
        return str(path)

    def _write_body(self, tmp_path):
        path = tmp_path / "body.json"
        path.write_text(json.dumps({"kind": "lp", "d": 2, "p": 2, "scale": 1.0}))
        return str(path)

    def _check_record_and_packing(self, tmp_path, capsys, cfg_path):
        out_dir = tmp_path / "out"
        rc = pack_main(["run", cfg_path, "--out", str(out_dir)])
        assert rc == 0
        rec = json.loads(capsys.readouterr().out)
        tag = rec["config_hash"][:12]
        assert json.loads((out_dir / f"run_{tag}.jsonl").read_text()) == rec
        # the packing file alone re-verifies: it carries the unit-volume body
        centers, spec, L = import_packing(out_dir / f"packing_{tag}.txt")
        body = normalize_to_unit_volume(body_from_spec(rec["config"]["body"]))
        assert spec == body_to_spec(body)
        assert L == rec["config"]["L"]
        result = verify_packing(centers, body_from_spec(spec), TorusDomain(spec["d"], L), 1.0)
        assert result.count == rec["packing"]["count"]
        assert result.density == rec["packing"]["density"]

    def test_pack_run(self, tmp_path, capsys):
        rc = pack_main(["run", self._write_config(tmp_path)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["packing"]["count"] > 0

    def test_pack_run_writes_record_and_packing(self, tmp_path, capsys):
        self._check_record_and_packing(tmp_path, capsys, self._write_config(tmp_path))

    def _write_packing(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert pack_main(["run", self._write_config(tmp_path), "--out", str(out_dir)]) == 0
        rec = json.loads(capsys.readouterr().out)
        return out_dir / f"packing_{rec['config_hash'][:12]}.txt", rec

    def test_verify_packing_clean(self, tmp_path, capsys):
        path, rec = self._write_packing(tmp_path, capsys)
        assert verify_main(["packing", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["count"] == rec["packing"]["count"]
        assert out["density"] == pytest.approx(rec["packing"]["density"], rel=1e-12)  # vol(K) of the spec
        assert out["min_pairwise_gauge"] == rec["packing"]["min_pairwise_gauge"]

    def test_verify_packing_names_the_overlap(self, tmp_path, capsys):
        path, _ = self._write_packing(tmp_path, capsys)
        header, *rows = path.read_text().splitlines()
        centers = np.array([[float(x) for x in row.split()] for row in rows])
        # gauge 0.5 from center 3, so at least 1.5 from every other center
        centers[7] = centers[3] + np.array([0.5, 0.0]) * UNIT_BALL_2.scale
        bad = tmp_path / "overlap.txt"
        bad.write_text("\n".join([header] + [" ".join(repr(float(x)) for x in c) for c in centers]) + "\n")
        with pytest.raises(SystemExit) as exc:
            verify_main(["packing", str(bad)])
        assert str(exc.value) == f"verify packing: {bad}: centers 3 and 7 overlap: gauge 0.5 < 2"

    @pytest.mark.parametrize(
        "edit,rows,message",
        [
            (lambda h: {"body": h["body"]}, None, "packing header has no key 'L'"),
            (lambda h: {"L": h["L"]}, None, "packing header has no key 'body'"),
            (lambda h: [1], None, "the packing header must be a JSON object"),
            (lambda h: {**h, "body": {"kind": "lp", "d": 2}}, None, "body spec has no key 'p'"),
            (lambda h: {**h, "L": math.nan}, None, "L must be finite and positive, got nan"),
            (lambda h: {**h, "L": math.inf}, None, "L must be finite and positive, got inf"),
            # no pair of these d = 3 centers comes near enough to reach the gauge
            (lambda h: h, ["1 2 3", "5 5 5"], "centers must have shape (m, 2), got (2, 3)"),
            (lambda h: h, ["inf 1.0"], "centers must be finite"),
        ],
        ids=["no_L", "no_body", "not_object", "body_missing_key", "nan_L", "inf_L", "wrong_width", "inf_center"],
    )
    def test_verify_packing_bad_header(self, tmp_path, capsys, edit, rows, message):
        # the header edited, and the centers' rows replaced unless rows is None
        path, _ = self._write_packing(tmp_path, capsys)
        header, *written = path.read_text().splitlines()
        bad = tmp_path / "bad_header.txt"
        bad.write_text("\n".join(["# " + json.dumps(edit(json.loads(header[1:])))] + (rows or written)) + "\n")
        with pytest.raises(SystemExit) as exc:
            verify_main(["packing", str(bad)])
        assert str(exc.value) == f"verify packing: {bad}: {message}"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["packing"], "a FILE goes with `verify packing`, and only there"),
            (["poisson", "file.txt"], "a FILE goes with `verify packing`, and only there"),
            (["packing", "file.txt", "--out", "r.csv"], "takes no --out$"),
            # given at their defaults, still refused
            (["packing", "file.txt", "--level", "fast", "--seed", "1"], "takes no --level, --seed$"),
        ],
        ids=["argv0", "argv1", "argv2", "argv3"],
    )
    def test_verify_file_only_with_packing(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            verify_main(argv)
        assert exc.value.code == 2
        assert re.search(message, capsys.readouterr().err.strip().splitlines()[-1])

    def test_pack_run_hpoly_packing_reverifies(self, tmp_path, capsys):
        path = tmp_path / "hpoly_cfg.json"
        path.write_text(hpoly_config().to_json())
        self._check_record_and_packing(tmp_path, capsys, str(path))

    def test_pack_run_record_is_strict_json(self, tmp_path, capsys):
        # at ik_delta 0.3 X2 removes every point: no pair of centers, so no
        # finite min_pairwise_gauge, and the record writes null, not Infinity
        path = tmp_path / "ik03.json"
        path.write_text(replace(default_config(2), ik_delta=0.3).to_json())
        assert pack_main(["run", str(path), "--out", str(tmp_path)]) == 0

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        text = capsys.readouterr().out
        rec = json.loads(text, parse_constant=reject)
        assert rec["packing"]["count"] == 0
        assert rec["packing"]["min_pairwise_gauge"] is None
        tag = rec["config_hash"][:12]
        assert json.loads((tmp_path / f"run_{tag}.jsonl").read_text(), parse_constant=reject) == rec
        # its packing file is a header alone, and still verifies
        assert verify_main(["packing", str(tmp_path / f"packing_{tag}.txt")]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 0

    def test_pack_sweep(self, tmp_path, capsys):
        rc = pack_main(
            ["sweep", self._write_config(tmp_path), "--grid", "Delta=15,25", "--out", str(tmp_path)]
        )
        assert rc == 0
        assert (tmp_path / "sweep.csv").exists()
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2

    def test_vol_body_info(self, tmp_path, capsys):
        rc = vol_main(["body-info", self._write_body(tmp_path)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["volume"] == pytest.approx(math.pi)
        assert out["unit_volume_scale"] == pytest.approx(math.pi**-0.5)

    def test_vol_body_info_hpoly(self, tmp_path, capsys):
        path = tmp_path / "hpoly.json"
        body = criterion4_hpolytope()
        path.write_text(json.dumps(body_to_spec(body)))
        assert vol_main(["body-info", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["volume"] == closed_form_volume(body)
        assert out["circumradius"] == body.circumradius()
        assert "volume_std_error" not in out
        with pytest.raises(SystemExit):
            vol_main(["body-info", str(path), "--samples", "1000"])

    def test_vol_intersection(self, tmp_path, capsys):
        rc = vol_main(["intersection", self._write_body(tmp_path), "--x", "0,0", "--samples", "10000"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == pytest.approx(math.pi, rel=0.05)

    def test_verify_poisson(self, tmp_path, capsys):
        out_path = tmp_path / "reports.jsonl"
        rc = verify_main(["poisson", "--level", "fast", "--out", str(out_path)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "poisson_tail" in text
        assert "total violations: 0" in text
        assert out_path.exists()

    def test_verify_csv(self, tmp_path, capsys):
        out_path = tmp_path / "r.csv"
        assert verify_main(["poisson", "--out", str(out_path)]) == 0
        header, row = out_path.read_text().splitlines()
        assert header == "check,body,d,value,std_error,bound,violations,trials,seed,conclusive,params"
        assert row.startswith("poisson_tail,")

    def test_bad_grid_axis(self, tmp_path):
        with pytest.raises(SystemExit):
            pack_main(["sweep", self._write_config(tmp_path), "--grid", "gamma=1,2"])

    @pytest.mark.parametrize("grid, value", [("Delta=abc", "'abc'"), ("d=2:x", "'2:x'")])
    def test_bad_grid_value(self, tmp_path, grid, value):
        with pytest.raises(SystemExit, match=value):
            pack_main(["sweep", self._write_config(tmp_path), "--grid", grid])

    @pytest.mark.parametrize("cmd", [["run"], ["sweep", "--grid", "Delta=15"]])
    def test_config_with_unknown_key(self, tmp_path, cmd):
        # e.g. a config file that still carries the sweep's worker count
        path = tmp_path / "old.json"
        path.write_text(json.dumps({**json.loads(default_config(2).to_json()), "workers": 1}))
        with pytest.raises(SystemExit, match="unknown keys: workers"):
            pack_main([cmd[0], str(path), *cmd[1:], "--out", str(tmp_path)])
        assert not list(tmp_path.glob("run_*.jsonl"))

    @pytest.mark.parametrize("key,value,message", [("L", "20", "L must be a real number"), ("d", 2.0, "d must be an integer")])
    def test_config_with_wrong_type(self, tmp_path, key, value, message):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps({**json.loads(default_config(2).to_json()), key: value}))
        with pytest.raises(SystemExit, match=message):
            pack_main(["run", str(path), "--out", str(tmp_path)])
        assert not list(tmp_path.glob("run_*.jsonl"))

    @pytest.mark.parametrize(
        "edit,message",
        [
            # L exactly at the no-self-wrap floor of the unit-volume d=2 ball
            ({"L": 4.0 * UNIT_BALL_2.scaled(2.0).circumradius() * (1.0 + QUERY_SLACK)}, "validate: L=4.51"),
            ({"body": {"kind": "ellipse", "d": 2}}, "normalize: unknown body kind 'ellipse'"),
            ({"body": {"kind": "lp", "d": 2}}, "normalize: body spec has no key 'p'$"),
            ({"d": 3}, "normalize: config d does not match body dimension"),
            ({"L": math.inf}, "validate: L must be finite and positive, got inf$"),
            # the expected point count Delta / 4 * L^2 exceeds packing.POINT_CAP
            ({"Delta": 1e9}, "validate: expected count 1e\\+11 exceeds cap 2000000$"),
            ({"body": {**body_to_spec(SQUARE), "scale": -1.0}}, "normalize: scale must be finite and positive, got -1.0$"),
        ],
        ids=["L_at_floor", "unknown_kind", "missing_key", "d_mismatch", "inf_L", "over_point_cap", "hpoly_negative_scale"],
    )
    def test_pack_run_config_fault(self, tmp_path, edit, message):
        path = tmp_path / "fault.json"
        path.write_text(json.dumps({**json.loads(default_config(2).to_json()), **edit}))
        with pytest.raises(SystemExit, match=f"^pack run: {re.escape(str(path))}: {message}"):
            pack_main(["run", str(path), "--out", str(tmp_path)])
        assert not list(tmp_path.glob("run_*.jsonl"))

    def test_pack_run_later_stage_keeps_traceback(self, tmp_path, monkeypatch):
        def fail(*args):
            raise RuntimeError("graph build failed")

        monkeypatch.setattr(harness, "build_graph", fail)
        with pytest.raises(PipelineStageError, match="build_graph"):
            pack_main(["run", self._write_config(tmp_path)])

    def test_pack_sweep_help_says_extra_workers_wait(self, capsys):
        with pytest.raises(SystemExit, match="^0$"):
            pack_main(["sweep", "--help"])
        assert "threads beyond the core count wait for one" in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_pack_sweep_workers_below_one(self, tmp_path, workers):
        with pytest.raises(SystemExit, match=f"^pack sweep: workers must be at least 1, got {workers}$"):
            pack_main(["sweep", self._write_config(tmp_path), "--grid", "Delta=15", "--workers", workers,
                       "--out", str(tmp_path)])
        assert not (tmp_path / "sweep.csv").exists()

    def test_vol_intersection_wrong_length(self, tmp_path):
        path = tmp_path / "ball3.json"
        path.write_text(json.dumps({"kind": "lp", "d": 3, "p": 2, "scale": 1.0}))
        with pytest.raises(SystemExit, match="--x has 2 coordinates, the body has d=3"):
            vol_main(["intersection", str(path), "--x", "0.5,0"])

    @pytest.mark.parametrize(
        "text,message",
        [
            (None, "No such file"),
            ("{", "Expecting property name"),
            ('{"kind": "blob", "d": 2}', "unknown body kind 'blob'"),
            ('{"kind": "lp", "d": 2}', "body spec has no key 'p'"),
            ("[1]", "a body spec must be a JSON object"),
            ('{"kind": "lp", "d": null, "p": 2}', "body spec key 'd' must be an integer, got None"),
            ('{"kind": "lp", "d": 2.7, "p": 2}', "body spec key 'd' must be an integer, got 2.7"),
            ('{"kind": "simplex_diff", "d": 2, "scale": NaN}', "scale must be finite and positive, got nan"),
            # JSON reads 1e400 as inf
            ('{"kind": "lp", "d": 2, "p": 2, "scale": 1e400}', "scale must be finite and positive, got inf"),
            ('{"kind": "lp", "d": 2, "p": 2, "scale": "2"}', "body spec key 'scale' must be a real number, got '2'"),
            ('{"kind": "lp", "d": 2, "p": "3"}', "body spec key 'p' must be a real number or 'inf', got '3'"),
        ],
        ids=["missing", "bad_json", "unknown_kind", "missing_key", "not_object", "null_d", "fractional_d", "nan_scale",
             "huge_scale", "str_scale", "str_p"],
    )
    @pytest.mark.parametrize("cmd", [["body-info"], ["intersection", "--x", "0,0"]], ids=["body-info", "intersection"])
    def test_vol_unreadable_body(self, tmp_path, cmd, text, message):
        path = tmp_path / "blob.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(SystemExit, match=f"^vol {cmd[0]}: {re.escape(str(path))}: [^\n]*{message}[^\n]*$"):
            vol_main([cmd[0], str(path), *cmd[1:]])

    def test_vol_intersection_no_samples(self, tmp_path):
        path = self._write_body(tmp_path)
        with pytest.raises(SystemExit, match=f"^vol intersection: {re.escape(path)}: n must be >= 1$"):
            vol_main(["intersection", path, "--x", "0,0", "--samples", "0"])

    @pytest.mark.parametrize("value", ["2.5", "inf"])
    def test_sweep_d_grid_rejects_non_integral_d(self, tmp_path, capsys, value):
        cfg = self._write_config(tmp_path)
        with pytest.raises(SystemExit, match=f"^pack sweep: a sweep over d needs integral d, got {value}$"):
            pack_main(["sweep", cfg, "--grid", f"d={value}", "--out", str(tmp_path)])
        assert capsys.readouterr().out == ""

    def test_sweep_d_grid_of_floats(self, tmp_path, capsys):
        assert pack_main(["sweep", self._write_config(tmp_path), "--grid", "d=2,3", "--out", str(tmp_path)]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [(row["d"], row["status"]) for row in rows] == [(2, "ok"), (3, "ok")]

    def test_sweep_d_grid_rejects_cube(self, tmp_path):
        path = tmp_path / "cube.json"
        cfg = replace(default_config(2), body={"kind": "lp", "d": 2, "p": "inf", "scale": 1.0})
        path.write_text(cfg.to_json())
        with pytest.raises(SystemExit, match="l2"):
            pack_main(["sweep", str(path), "--grid", "d=2:3", "--out", str(tmp_path)])
