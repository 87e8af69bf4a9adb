"""normpack benchmark: one workload, an untraced pass, then a traced pass.

    python3 perfbench/run.py --workload exact_d3_large --seed 1 --seconds 10 --trace 0

The untraced pass repeats one iteration of the workload, with the same
inputs, until ``--seconds`` have passed; it gives the end-to-end metrics.
One traced iteration follows, with normpack's public functions wrapped
from outside (see tracing.py); it gives the per-layer metrics.  Every
output of both passes is checked (oracle.py), the traced outputs must be
byte-identical to the untraced ones, and a tiny pipeline runs once per
body kind.  Set-up time is the median over fresh processes.

Earlier lines of standard output hold the environment, both metric sets
and the check results; the last line is the result, with the end-to-end
metrics under ``--trace 0`` and the per-layer metrics under ``--trace 1``.
The same is written to ``.perfbench_out/``, with the spans under
``--trace 1``.  Everything runs in this process, one operation at a time;
only the sweep workload starts threads (two).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_RUNS = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "density": "fraction",
    "vol_ik_rel_se": "ratio",
    "ok_frac": "fraction",
    "kinds_ok": "count",
}


def setup_seconds(workload: str, seed: int, toy: bool, runs: int) -> list[float]:
    """Set-up time of ``runs`` fresh processes, one after another."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), "--workload", workload, "--seed", str(seed)]
    if toy:
        cmd.append("--toy")
    times = []
    for _ in range(runs):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(res.stdout.split()[-1]))
    return times


def check_outputs(passes: list, traced: list, tracer) -> tuple[int, dict]:
    """(operations attempted, {operation: problems}) over both passes.

    Each output is checked alone, against the first untraced iteration
    (repeats and the traced pass must be byte-identical), and, in the
    traced pass, by brute force over the packing captured at verify_packing.
    """
    import oracle

    reference = {op.label: oracle.output_key(op) for op in passes[0]}
    packings = {}
    for _, root, capture in tracer.captured("verify_packing"):
        packings.setdefault(root, []).append(capture)
    run_ids = {record: sid for sid, _, record in tracer.captured("run_pipeline")}
    attempted, problems = 0, {}
    for n, ops in enumerate(passes + [traced]):
        tag = "traced" if n == len(passes) else f"untraced[{n}]"
        for op in ops:
            attempted += 1
            found = oracle.check_op(op)
            if oracle.output_key(op) != reference.get(op.label):
                found.append("output differs from the first untraced iteration")
            if tag == "traced" and op.record is not None:
                caps = packings.get(run_ids.get(op.record), [])
                if len(caps) != 1:
                    found.append(f"{len(caps)} packings captured for this run")
                for cap in caps:
                    found += oracle.check_packing(cap, json.loads(op.record))
            if found:
                problems[f"{tag} {op.label}"] = found
    return attempted, problems


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "normpack", "__init__.py")):
        print(f"normpack sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD_ENV)
    sys.path[:0] = [SRC, HERE]
    import normpack
    import oracle
    import tracing
    import workloads

    if os.path.dirname(os.path.abspath(normpack.__file__)) != os.path.join(SRC, "normpack"):
        print(f"imported normpack from {normpack.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    env["loadavg_start"] = os.getloadavg()
    setup_times = setup_seconds(args.workload, args.seed, args.toy, 1 if args.toy else SETUP_RUNS)
    wl = workloads.WORKLOADS[args.workload](args.seed, toy=args.toy, out_dir=OUT_DIR)
    wl.setup()
    tracer = tracing.Tracer()

    # -- untraced pass: original functions, repeated for --seconds
    tracer.assert_original()
    walls, passes = [], []
    start = time.perf_counter()
    while True:
        gc.collect()  # start each iteration from the same heap state
        t0 = time.perf_counter()
        ops = wl.iterate("untraced")
        walls.append(time.perf_counter() - t0)
        wl.collect(ops, "untraced")
        passes.append(ops)
        if time.perf_counter() - start >= args.seconds:
            break
    tracer.assert_original()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    smoke = workloads.kind_smoke(args.seed)

    # -- traced pass: one iteration with every target wrapped
    gc.collect()
    with tracer:
        t0 = time.perf_counter()
        traced = wl.iterate("traced")
        traced_wall = time.perf_counter() - t0
    wl.collect(traced, "traced")
    tracer.assert_original()

    attempted, problems = check_outputs(passes, traced, tracer)
    failed = len(problems)

    records = [json.loads(op.record) for op in passes[0] if op.record is not None]
    if not records:
        raise RuntimeError(f"workload {args.workload} produced no run records")
    end_to_end = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "density": statistics.fmean(r["packing"]["density"] for r in records),
        "vol_ik_rel_se": statistics.fmean(oracle.rel_se(r) for r in records),
        "ok_frac": 1.0 - failed / attempted,
        "kinds_ok": sum(1 for v in smoke.values() if v is None),
    }
    per_layer = tracing.layer_metrics(tracer.spans, traced_wall, statistics.median(walls), wl.workers)
    env["loadavg_end"] = os.getloadavg()

    detail = {
        "workload": args.workload,
        "env": env,
        "wall_s_samples": walls,
        "setup_s_samples": setup_times,
        "traced_wall_s": traced_wall,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "kinds_failed": {k: v for k, v in smoke.items() if v is not None},
        "problems": problems,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    if args.trace:
        tracer.dump(stem + ".spans.jsonl")
    for key in ("env", "end_to_end", "per_layer", "kinds_failed", "problems"):
        print(json.dumps({key: detail[key]}, sort_keys=True))

    if args.trace:
        metrics = {k: {"value": v, "unit": tracing.LAYER_METRICS[k][0]} for k, v in per_layer.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
