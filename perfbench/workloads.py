"""The benchmark's workloads: inputs from a seed, bodies to set up, and
one iteration of operations.

Every call into normpack goes through a module attribute looked up at call
time (``harness.run_pipeline``, ``checks.check_petty``), so the traced
pass sees the wrappers and the untraced pass the originals.  An iteration
returns one :class:`Op` per output the program produced; the same inputs
give the same outputs on every iteration.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass, replace

import numpy as np
from normpack import bodies, checks, harness, packing
from normpack.volumetrics import mc_volume


def derive_seed(seed: int, label: str) -> int:
    """31-bit seed for one input, from the benchmark seed and a label."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


@dataclass
class Op:
    """One checked output: a run record, a sweep row or a verifier report."""

    kind: str  # "pipeline" | "sweep_row" | "report"
    label: str
    value: object = None
    error: str | None = None  # exception type and message if the call raised
    record: str | None = None  # RunRecord.to_json() of a pipeline or sweep point


def _pipeline_op(label: str, cfg) -> Op:
    try:
        rec = harness.run_pipeline(cfg)
    except harness.PipelineStageError as exc:
        return Op("pipeline", label, error=f"{exc.stage}: {type(exc.__cause__).__name__}: {exc}")
    return Op("pipeline", label, value=rec, record=rec.to_json())


def _mc_config(body: dict, seed: int, toy: bool) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(
        body=body,
        d=2,
        L=7.0,
        Delta=2.0 if toy else 8.0,
        ik_delta=0.95,
        codegree_coeff=1.2,
        mc_samples=2000,
        seed=seed,
        ik_outer_samples=50 if toy else 500,
    )


CRITERION4_SEED = 404  # the acceptance suite's criterion-4 H-polytope


def random_hpolytope(seed: int) -> bodies.ConvexBody:
    """Symmetric H-polytope on 5 random direction pairs in d=3, unit volume
    by a 400k-sample Monte Carlo volume; seed 404 gives the acceptance
    suite's criterion-4 body."""
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(5, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    body = bodies.hpolytope(np.vstack([dirs, -dirs]), np.ones(10))
    return bodies.normalize_to_unit_volume(body, mc_volume(body, 400_000, rng).value)


class Workload:
    """Base: subclasses set ``name`` and implement inputs / setup / iterate."""

    name = ""
    workers = 1

    def __init__(self, seed: int, toy: bool = False, out_dir: str = ".perfbench_out"):
        self.seed = seed
        self.toy = toy
        self.out_dir = out_dir

    def setup(self) -> None:
        """Build and unit-volume-normalize every body the workload uses."""
        for spec in self.body_specs():
            bodies.normalize_to_unit_volume(bodies.body_from_spec(spec))

    def body_specs(self) -> list[dict]:
        return []

    def iterate(self, tag: str) -> list[Op]:
        raise NotImplementedError

    def collect(self, ops: list[Op], tag: str) -> None:
        """Gather outputs the program wrote to files; runs outside the timed region."""


class ExactD3Large(Workload):
    name = "exact_d3_large"

    def config(self):
        return replace(harness.default_config(3, seed=derive_seed(self.seed, self.name)), L=6.0 if self.toy else 20.0)

    def body_specs(self):
        return [self.config().body]

    def iterate(self, tag):
        return [_pipeline_op("d3", self.config())]


class McRouteD2(Workload):
    """Both bodies share one config seed, hence one point set.

    The MC work grows with the square of the Poisson point count, whose
    spread at 93 points would move wall_s by about 20% from seed to seed.
    So the config seed is the first one drawn from ``--seed`` whose sample
    has exactly the mean count; the seed still places every point and
    drives every MC draw.
    """

    name = "mc_route_d2"
    SPECS = (
        {"kind": "lp", "d": 2, "p": 3, "scale": 1.0},
        {"kind": "simplex_diff", "d": 2, "scale": 1.0},
    )

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        probe = _mc_config(self.SPECS[0], 0, self.toy)
        domain = packing.TorusDomain(probe.d, probe.L)
        mean = round(probe.Delta / 2**probe.d * domain.volume)
        for k in range(10_000):
            seed = derive_seed(self.seed, f"{self.name}:{k}")
            points = packing.sample_poisson(domain, probe.Delta, harness.child_rng(seed, "poisson"))
            if len(points) == mean:
                self.config_seed = seed
                return
        raise RuntimeError(f"no config seed with {mean} points")

    def body_specs(self):
        return list(self.SPECS)

    def iterate(self, tag):
        return [_pipeline_op(spec["kind"], _mc_config(spec, self.config_seed, self.toy)) for spec in self.SPECS]


class VerifiersMc(Workload):
    """The verifiers on bodies with no closed form, plus the full suite.

    ``check_logconcavity`` runs only inside the suite, on exact bodies.  On
    an MC body its ray test weighs the error of f(t1)^lam f(t2)^(1-lam) by
    f instead of by that product over f, so near the support edge its
    3-sigma slack is too narrow and it reports false violations (simplex_diff,
    d=3, 50 rays: 1 at seed 69545225).

    ``check_petty`` runs on the criterion-4 body for every seed; the seed
    draws its direction net.  A body drawn from the seed would be needle-like
    now and then: h_PiK^-d over 32 directions is then heavy-tailed, its
    reported standard error too small, and the report inconclusive (5 of
    150 seeds, e.g. 23889904).
    """

    name = "verifiers_mc"

    def setup(self):
        self.lp3 = bodies.normalize_to_unit_volume(bodies.lp_ball(3, 3))
        self.hpoly = random_hpolytope(CRITERION4_SEED)
        bodies.normalize_to_unit_volume(bodies.body_from_spec(self.config().body))

    def config(self):
        """Default d=2 pipeline.  100k outer samples (not 20k) give vol_ik
        ~150 hits, so vol_ik_rel_se spreads a few percent across seeds."""
        cfg = harness.default_config(2, seed=derive_seed(self.seed, "density"))
        return replace(cfg, L=8.0) if self.toy else replace(cfg, ik_outer_samples=100_000)

    def iterate(self, tag):
        toy = self.toy

        def rng(label):
            return np.random.default_rng(derive_seed(self.seed, label))

        ops = [
            Op("report", f"suite[{i}]:{r.check}:{r.body}", value=r)
            for i, r in enumerate(harness.verify_suite("fast" if toy else "full", seed=derive_seed(self.seed, "suite")))
        ]
        reports = [
            checks.check_schmuckenschlager(self.lp3, 0.5, 2 if toy else 10, rng("schmuck")),
            checks.check_petty(self.hpoly, rng("petty"), n_directions=8 if toy else 32),
            checks.check_rogers_shephard(4, 100_000 if toy else 1_000_000, rng("rs")),
        ]
        ops += [Op("report", f"{r.check}:{r.body}", value=r) for r in reports]
        ops.append(_pipeline_op("density_d2", self.config()))
        return ops


class SweepD2W2(Workload):
    name = "sweep_d2_w2"
    workers = 2

    def template(self, tag):
        cfg = harness.default_config(2, seed=derive_seed(self.seed, self.name))
        return replace(cfg, L=12.0 if self.toy else 40.0, out_dir=os.path.join(self.out_dir, f"sweep-{tag}"))

    def body_specs(self):
        return [self.template("setup").body]

    def deltas(self):
        return [10.0, 15.0] if self.toy else [15.0, 20.0, 25.0, 30.0]

    def iterate(self, tag):
        rows = harness.sweep(self.template(tag), deltas=self.deltas(), workers=self.workers)
        return [Op("sweep_row", f"Delta={row['Delta']}", value=row) for row in rows]

    def collect(self, ops, tag):
        """Pair each row with the record the sweep wrote, then delete the
        records so the next iteration cannot read stale ones.  Runs outside
        the timed region."""
        out_dir = self.template(tag).out_dir
        by_delta = {}
        for path in glob.glob(os.path.join(out_dir, "run_*.jsonl")):
            with open(path) as fh:
                text = fh.read().rstrip("\n")
            by_delta[json.loads(text)["config"]["Delta"]] = text
        shutil.rmtree(out_dir, ignore_errors=True)
        for op in ops:
            op.record = by_delta.get(op.value["Delta"])


WORKLOADS = {w.name: w for w in (ExactD3Large, McRouteD2, VerifiersMc, SweepD2W2)}

# Tiny end-to-end runs, one per body kind the package claims.
KIND_SPECS = {
    "lp2": {"kind": "lp", "d": 2, "p": 2, "scale": 1.0},
    "lpinf": {"kind": "lp", "d": 2, "p": "inf", "scale": 1.0},
    "lp3": {"kind": "lp", "d": 2, "p": 3, "scale": 1.0},
    "simplex_diff": {"kind": "simplex_diff", "d": 2, "scale": 1.0},
}


def kind_smoke(seed: int) -> dict:
    """name -> None on success, or {"stage", "error"} of the failing stage.

    The torus side is 8.5 circumradii of the unit-volume body, just above
    the no-self-wrap floor, so every run stays tiny at Delta = 2.
    """
    kinds = {name: bodies.normalize_to_unit_volume(bodies.body_from_spec(spec)) for name, spec in KIND_SPECS.items()}
    kinds["hpoly"] = random_hpolytope(CRITERION4_SEED)
    results = {}
    for name, body in kinds.items():
        cfg = harness.ExperimentConfig(
            body=bodies.body_to_spec(body),
            d=body.d,
            L=float(math.ceil(8.5 * body.circumradius())),
            Delta=2.0,
            ik_delta=0.95,
            codegree_coeff=1.2,
            mc_samples=1000,
            seed=derive_seed(seed, f"smoke:{name}"),
            ik_outer_samples=50,
        )
        try:
            harness.run_pipeline(cfg)
            results[name] = None
        except harness.PipelineStageError as exc:
            results[name] = {"stage": exc.stage, "error": type(exc.__cause__).__name__}
    return results
