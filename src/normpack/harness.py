"""Experiment orchestration: configs, the full pipeline, sweeps, suites.

Every stochastic stage draws from a child generator derived by hashing
the stage label into the master seed, so results are bitwise
reproducible for a given config.  The worker count is an argument of
:func:`sweep` alone; no config field or record depends on it.
"""

from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import json
import math
import numbers
import os
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from . import checks as checks_mod
from .bodies import CORE_TOKENS, ConvexBody, body_from_spec, cube, is_number, lp_ball, normalize_to_unit_volume
from .checks import CheckReport
from .indset import PackingResult, greedy_independent_set, verify_packing
from .packing import (
    PackingGraph,
    TorusDomain,
    build_graph,
    degree_codegree_stats,
    expected_count,
    prune,
    sample_poisson,
)
from .volumetrics import estimate_ik

OUTPUT_DIR_ENV = "PACK_OUTPUT_DIR"


def child_seed(master: int, label: str) -> int:
    """Stable per-stage seed: sha256 of "<master>:<label>", first 8 bytes."""
    digest = hashlib.sha256(f"{master}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def child_rng(master: int, label: str) -> np.random.Generator:
    return np.random.default_rng(child_seed(master, label))


# (fields, type, name of the type), read by bodies.is_number: bool is neither here
_FIELD_TYPES = (
    (("d", "seed", "mc_samples", "ik_outer_samples"), numbers.Integral, "an integer"),
    (("L", "Delta", "ik_delta", "codegree_coeff"), numbers.Real, "a real number"),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One pipeline run.  ``out_dir`` is an execution detail excluded from
    the config hash and the persisted record."""

    body: dict
    d: int
    L: float
    Delta: float
    ik_delta: float
    codegree_coeff: float
    mc_samples: int
    seed: int
    ik_outer_samples: int = 20_000
    out_dir: str | None = None

    def __post_init__(self):
        for names, kind, label in _FIELD_TYPES:
            for name in names:
                value = getattr(self, name)
                if not is_number(value, kind):
                    raise ValueError(f"{name} must be {label}, got {value!r}")
        for name in ("L", "Delta", "ik_delta", "codegree_coeff", "mc_samples"):
            if not getattr(self, name) > 0:  # NaN fails this test too
                raise ValueError(f"{name} must be positive")
        if not self.ik_outer_samples >= 1:
            raise ValueError("ik_outer_samples must be at least 1")

    def canonical(self) -> dict:
        d = asdict(self)
        d.pop("out_dir")
        return d

    def hash(self) -> str:
        return hashlib.sha256(json.dumps(self.canonical(), sort_keys=True).encode()).hexdigest()

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        """Raises ValueError naming any unknown or missing keys."""
        known = fields(ExperimentConfig)
        unknown = sorted(set(data) - {f.name for f in known})
        missing = [f.name for f in known if f.default is MISSING and f.name not in data]
        problems = [f"{kind} keys: {', '.join(names)}" for kind, names in (("unknown", unknown), ("missing", missing)) if names]
        if problems:
            raise ValueError("config has " + "; ".join(problems))
        return ExperimentConfig(**data)

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        return ExperimentConfig.from_dict(json.loads(text))


def default_config(d: int, seed: int = 1) -> ExperimentConfig:
    """Desk-scale defaults: unit-volume l2 ball, thresholds overridden
    from their asymptotic values so every pruning rule stays active
    without gutting the sample (the literal constants are meaningless
    at small d)."""
    delta_by_d = {2: 30.0, 3: 30.0, 4: 32.0}
    L_by_d = {2: 20.0, 3: 10.0, 4: 7.0}
    if d not in delta_by_d:
        raise ValueError(f"no default config for d={d} (supported: 2, 3, 4)")
    return ExperimentConfig(
        body={"kind": "lp", "d": d, "p": 2, "scale": 1.0},
        d=d,
        L=L_by_d[d],
        Delta=delta_by_d[d],
        ik_delta=0.95,
        codegree_coeff=1.2,
        mc_samples=20_000,
        seed=seed,
    )


@dataclass
class RunRecord:
    """Result of one pipeline run.

    ``timing`` is informational only and excluded from the canonical
    serialization so identical configs give byte-identical records.
    """

    config: dict
    config_hash: str
    n_points: int
    ik: dict
    prune_report: dict
    stats_pre: dict
    stats_post: dict
    packing: dict
    preconditions: dict
    timing: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {k: v for k, v in self.__dict__.items() if k != "timing"}
        return json.dumps(payload, sort_keys=True)


class PipelineStageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        super().__init__(f"pipeline stage {stage!r} failed: {cause}")


def _stage(name, timings, fn):
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # annotate with the stage name
        raise PipelineStageError(name, exc) from exc
    timings[name] = time.perf_counter() - t0
    return out


@dataclass(frozen=True)
class PipelineRun:
    """One run's record beside what its stages produced.

    The stage timings are ``record.timing``.  Callers that keep many
    records (sweeps, benchmarks) call :func:`run_pipeline`, which drops
    the pruned graph and the packing here.
    """

    record: RunRecord
    body: ConvexBody  # the unit-volume body every stage used
    domain: TorusDomain
    pruned: PackingGraph
    packing: PackingResult


def output_dir(config: ExperimentConfig) -> str | None:
    """Where a run writes its files: ``config.out_dir``, else $PACK_OUTPUT_DIR."""
    return config.out_dir or os.environ.get(OUTPUT_DIR_ENV)


def run_stages(config: ExperimentConfig) -> PipelineRun:
    """normalize -> estimate_ik -> sample -> graph -> prune -> independent
    set -> verify; deterministic given the config.

    The only place that knows the order of the stages.  With an output
    directory, the record is written there as ``run_<hash12>.jsonl``.
    The run holds one of ``bodies.CORE_TOKENS`` throughout, and waits for
    one when every core is taken.
    """
    with CORE_TOKENS:
        return _run_stages(config)


def _run_stages(config: ExperimentConfig) -> PipelineRun:
    timings: dict[str, float] = {}
    seed = config.seed

    def normalize():
        body = body_from_spec(config.body)
        if body.d != config.d:
            raise ValueError("config d does not match body dimension")
        return normalize_to_unit_volume(body)

    def validate():  # a point count over the cap is a config fault too
        domain = TorusDomain(config.d, config.L)
        domain.validate_for_body(body)
        expected_count(domain, config.Delta)
        return domain

    body = _stage("normalize", timings, normalize)
    domain = _stage("validate", timings, validate)
    ik = _stage(
        "estimate_ik",
        timings,
        lambda: estimate_ik(
            body, config.ik_delta, config.ik_outer_samples, config.mc_samples, child_rng(seed, "ik")
        ),
    )
    points = _stage(
        "sample_poisson",
        timings,
        lambda: sample_poisson(domain, config.Delta, child_rng(seed, "poisson")),
    )
    # the build keeps X2's candidates, the edges within gauge 2 g_ik, for prune
    graph = _stage("build_graph", timings, lambda: build_graph(points, body, domain, 2.0 * ik.gauge_radius))
    pruned, report = _stage(
        "prune",
        timings,
        lambda: prune(graph, ik, config.Delta, config.codegree_coeff, child_rng(seed, "prune"), config.mc_samples),
    )
    # both only read the graph, so their records do not depend on prune having run
    stats_pre = _stage("stats_pre", timings, lambda: degree_codegree_stats(graph))
    del graph  # nothing later reads the unpruned graph; free it before the set's arrays
    stats_post = _stage("stats_post", timings, lambda: degree_codegree_stats(pruned))
    indep = _stage("greedy", timings, lambda: greedy_independent_set(pruned, child_rng(seed, "greedy")))
    result = _stage(
        "verify_packing",
        timings,
        lambda: verify_packing(
            pruned.points[indep], body, domain, 1.0, n_candidates=pruned.n, Delta=config.Delta
        ),
    )
    preconditions = {
        "d_gt_10": config.d > 10,
        "Delta_gt_d12": config.Delta > config.d**12,
        "Delta_le_Delta_K": config.Delta <= ik.delta_k,
    }
    record = RunRecord(
        config=config.canonical(),
        config_hash=config.hash(),
        n_points=len(points),
        ik={
            "delta": ik.delta,
            "vol_ik": ik.vol_ik,
            "vol_ik_std_error": ik.volume_estimate.std_error,
            "vol_ik_bracket": list(ik.bracket),
            "delta_k": ik.delta_k if math.isfinite(ik.delta_k) else None,
        },
        prune_report=asdict(report),
        stats_pre=stats_pre,
        stats_post=stats_post,
        packing=result.summary(),
        preconditions=preconditions,
        timing=timings,
    )
    out_dir = output_dir(config)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"run_{config.hash()[:12]}.jsonl")
        with open(path, "w") as fh:
            fh.write(record.to_json() + "\n")
    return PipelineRun(record=record, body=body, domain=domain, pruned=pruned, packing=result)


def run_pipeline(config: ExperimentConfig) -> RunRecord:
    """The record of :func:`run_stages`, without the graphs it produced."""
    return run_stages(config).record


SWEEP_COLUMNS = [
    "d",
    "Delta",
    "n_pre",
    "n_post",
    "independent_set",
    "density",
    "trivial_bound",
    "log_delta_over_delta",
    "delta_k",
    "status",
]


def sweep(
    template: ExperimentConfig,
    deltas=None,
    ds=None,
    workers: int = 1,
) -> list[dict]:
    """One pipeline run per grid point; failures become flagged rows.

    Exactly one of ``deltas`` / ``ds`` selects the grid axis.  Each grid
    point gets its own child seed, so results do not depend on
    ``workers`` (the size of the thread pool, at least 1) or completion
    order.  Each run holds a core token (``bodies.CORE_TOKENS``), so
    workers beyond the core count wait for one.

    A ``deltas`` point is the template with its Delta replaced.  A ``ds``
    point is ``default_config(d)`` (unit-volume l2 ball, default L and
    Delta) with the template's ``ik_delta``, ``codegree_coeff`` and
    ``out_dir``; since it runs the l2 ball, the template body must be an
    l2 ball too, and d must be integral (2.0 runs d = 2; 2.5 and inf
    raise a ValueError).
    """
    if (deltas is None) == (ds is None):
        raise ValueError("specify exactly one of deltas / ds")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    points = []
    if deltas is not None:
        for i, D in enumerate(deltas):
            points.append(replace(template, Delta=float(D), seed=child_seed(template.seed, f"sweep:{i}") % 2**31))
    else:
        body = body_from_spec(template.body)
        if body.kind != "lp" or body.p != 2:
            raise ValueError(f"a sweep over d runs l2 balls, not the template body {body.describe()}")
        kept = {k: getattr(template, k) for k in ("ik_delta", "codegree_coeff", "out_dir")}
        for i, d in enumerate(ds):
            if not float(d).is_integer():
                raise ValueError(f"a sweep over d needs integral d, got {d!r}")
            base = default_config(int(d), seed=child_seed(template.seed, f"sweep:{i}") % 2**31)
            points.append(replace(base, **kept))

    def run_one(cfg):
        try:
            rec = run_pipeline(cfg)
            return {
                "d": cfg.d,
                "Delta": cfg.Delta,
                "n_pre": rec.prune_report["n_initial"],
                "n_post": rec.prune_report["retained"],
                "independent_set": rec.packing["count"],
                "density": rec.packing["density"],
                "trivial_bound": rec.packing["trivial_bound"],
                "log_delta_over_delta": math.log(cfg.Delta) / cfg.Delta if cfg.Delta > 1 else None,
                "delta_k": rec.ik["delta_k"],
                "status": "ok",
            }
        except Exception as exc:
            stage, cause = "run_pipeline", exc  # raised outside any stage
            if isinstance(exc, PipelineStageError):
                stage, cause = exc.stage, exc.__cause__
            return {
                **dict.fromkeys(SWEEP_COLUMNS),
                "d": cfg.d,
                "Delta": cfg.Delta,
                "trivial_bound": 2.0**-cfg.d,
                "status": f"error: {stage}: {type(cause).__name__}: {cause}",
            }

    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_one, points))


def write_sweep_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        w.writeheader()
        for row in rows:
            w.writerow(row)


# -- verification suite -----------------------------------------------

FAST = "fast"
FULL = "full"
SUITE_CHECKS = ("all", "schmuck", "logconc", "petty", "rs", "minkowski", "poisson")


def verify_suite(level: str = FAST, seed: int = 1, which: str = "all") -> list[CheckReport]:
    """Run the volumetric verifiers plus the Minkowski equivalence and
    Poisson tail checks; verdicts live in the reports, never exceptions.

    ``which`` is one of :data:`SUITE_CHECKS`."""
    if level not in (FAST, FULL):
        raise ValueError("level must be 'fast' or 'full'")
    if which not in SUITE_CHECKS:
        raise ValueError(f"which must be one of {SUITE_CHECKS}, got {which!r}")
    big = level == FULL
    trials = 1000 if big else 200
    rays = 200 if big else 50
    samples = 1_000_000 if big else 100_000
    reports: list[CheckReport] = []

    def want(name):
        return which in ("all", name)

    if want("schmuck"):
        for d in (2, 3):
            for body in (normalize_to_unit_volume(lp_ball(d, 2)), cube(d)):
                for delta in (0.05, 0.5):
                    rng = child_rng(seed, f"schmuck:{d}:{body.kind}:{delta}")
                    reports.append(
                        checks_mod.check_schmuckenschlager(body, delta, trials, rng, seed=seed)
                    )
    if want("logconc"):
        for d in (2, 3):
            body = normalize_to_unit_volume(lp_ball(d, 2))
            rng = child_rng(seed, f"logconc:{d}")
            reports.append(
                checks_mod.check_logconcavity(body, rays, rng, slope_directions=5, seed=seed)
            )
    if want("petty"):
        for d in (2, 3, 4):
            rng = child_rng(seed, f"petty:{d}")
            reports.append(checks_mod.check_petty(cube(d), rng, seed=seed))
    if want("rs"):
        for d in (1, 2, 3):
            rng = child_rng(seed, f"rs:{d}")
            reports.append(checks_mod.check_rogers_shephard(d, samples, rng, seed=seed))
    if want("minkowski"):
        for d in (2, 3):
            rng = child_rng(seed, f"minkowski:{d}")
            reports.append(
                checks_mod.check_minkowski_equivalence(d, 100 if big else 30, rng, seed=seed)
            )
    if want("poisson"):
        rng = child_rng(seed, "poisson_tail")
        reports.append(
            checks_mod.check_poisson_tail(20.0, 1.0, 100_000 if big else 20_000, rng, seed=seed)
        )
    return reports
