"""Command-line entry points.

Three commands are installed:

* ``pack run <config> [--seed S] [--out DIR]`` and
  ``pack sweep <config> --grid <spec> [--workers N]`` for pipeline runs;
  with an output directory, ``pack run`` writes the record and the
  packing's centers; a config or grid they cannot read, a config whose
  body, L or expected point count fails the ``normalize`` or
  ``validate`` stage, and a ``--workers`` below 1 end them with a
  message,
* ``vol body-info <body>`` and ``vol intersection <body> --x <vec>``
  for one-off volumetrics; a body spec they cannot read, a vector whose
  length is not the body's d and a ``--samples`` below 1 end them with
  a message,
* ``verify all|schmuck|logconc|petty|rs|minkowski|poisson [--level]
  [--out PATH]`` for the verification suite; PATH ending in ``.csv``
  gets CSV, any other PATH JSON lines,
* ``verify packing FILE`` re-verifies a packing file that ``pack run``
  wrote, from its raw coordinates, body and L; an overlap, or an L the
  body cannot take, ends it non-zero with a message naming the fault.

Grid specs look like ``Delta=20,30,40`` or ``d=2:4``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .bodies import body_from_spec, body_to_spec, closed_form_volume, normalize_to_unit_volume
from .harness import (
    OUTPUT_DIR_ENV,
    SUITE_CHECKS,
    ExperimentConfig,
    PipelineStageError,
    output_dir,
    run_stages,
    sweep,
    verify_suite,
    write_sweep_csv,
)
from .checks import write_reports_csv, write_reports_jsonl
from .indset import OverlapError, export_packing, import_packing, verify_packing
from .packing import TorusDomain
from .volumetrics import intersection_volume


def _load_config(path: str, seed: int | None, out: str | None) -> ExperimentConfig:
    with open(path) as fh:
        cfg = ExperimentConfig.from_json(fh.read())
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if out is not None:
        cfg = replace(cfg, out_dir=out)
    return cfg


def _parse_grid(spec: str):
    name, _, values = spec.partition("=")
    name = name.strip()
    if name not in ("Delta", "d"):
        raise SystemExit(f"grid axis must be Delta or d, got {name!r}")
    try:
        if ":" in values:
            lo, hi = values.split(":")
            grid = list(range(int(lo), int(hi) + 1))
        else:
            grid = [float(v) for v in values.split(",") if v.strip()]
    except ValueError as exc:
        raise SystemExit(f"bad grid values for {name}: {values!r} ({exc})") from exc
    if not grid:
        raise SystemExit("empty grid")
    return name, grid


def pack_main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="pack", description="packing pipeline runs")
    sub = ap.add_subparsers(dest="cmd", required=True)
    run_p = sub.add_parser("run", help="run the pipeline once")
    run_p.add_argument("config")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", default=None, help=f"output directory (default ${OUTPUT_DIR_ENV})")
    sweep_p = sub.add_parser("sweep", help="run a parameter sweep")
    sweep_p.add_argument("config")
    sweep_p.add_argument("--grid", required=True, help="e.g. Delta=20,30,40 or d=2:4")
    sweep_p.add_argument("--seed", type=int, default=None)
    sweep_p.add_argument("--out", default=None)
    sweep_p.add_argument(
        "--workers", type=int, default=1,
        help="sweep threads (default 1); each run holds a core token, so threads beyond the core count wait for one",
    )
    args = ap.parse_args(argv)

    try:  # malformed JSON, unknown or missing keys, invalid values
        cfg = _load_config(args.config, args.seed, args.out)
    except ValueError as exc:
        raise SystemExit(f"pack {args.cmd}: {args.config}: {exc}") from exc
    if args.cmd == "run":
        try:
            run = run_stages(cfg)
        except PipelineStageError as exc:  # a body, L or point count the config cannot take
            if exc.stage not in ("normalize", "validate"):
                raise
            raise SystemExit(f"pack run: {args.config}: {exc.stage}: {exc.__cause__}") from exc
        out_dir = output_dir(cfg)
        if out_dir:  # run_stages wrote the record there
            path = os.path.join(out_dir, f"packing_{run.record.config_hash[:12]}.txt")
            export_packing(run.packing, body_to_spec(run.body), run.domain.L, path)
        print(run.record.to_json())
        return 0
    axis, grid = _parse_grid(args.grid)
    deltas, ds = (grid, None) if axis == "Delta" else (None, grid)
    try:  # a grid the template cannot take, workers < 1; failed runs become rows instead
        rows = sweep(cfg, deltas=deltas, ds=ds, workers=args.workers)
    except ValueError as exc:
        raise SystemExit(f"pack sweep: {exc}") from exc
    out_dir = output_dir(cfg) or "."
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "sweep.csv")
    write_sweep_csv(rows, path)
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    print(f"wrote {path}", file=sys.stderr)
    return 0


def vol_main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="vol", description="convex-body volumetrics")
    sub = ap.add_subparsers(dest="cmd", required=True)
    info_p = sub.add_parser("body-info", help="volume, circumradius, unit-volume scale")
    info_p.add_argument("body", help="body specification JSON file")
    int_p = sub.add_parser("intersection", help="vol(K cap (K + x))")
    int_p.add_argument("body")
    int_p.add_argument("--x", required=True, help="comma-separated translation vector")
    int_p.add_argument("--samples", type=int, default=200_000)
    int_p.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    try:  # a missing or malformed body spec, an unknown body kind, --samples below 1
        with open(args.body) as fh:
            body = body_from_spec(json.load(fh))
        if args.cmd == "body-info":
            out = {
                "body": body.describe(),
                "d": body.d,
                "volume": closed_form_volume(body),
                "circumradius": body.circumradius(),
                "unit_volume_scale": normalize_to_unit_volume(body).scale,
            }
        else:
            x = np.asarray([float(v) for v in args.x.split(",")])
            if len(x) != body.d:
                raise SystemExit(f"vol intersection: --x has {len(x)} coordinates, the body has d={body.d}")
            est = intersection_volume(body, x, args.samples, np.random.default_rng(args.seed))
            out = {"x": list(map(float, x)), "value": est.value, "std_error": est.std_error}
    except (OSError, ValueError) as exc:
        raise SystemExit(f"vol {args.cmd}: {args.body}: {exc}") from exc
    print(json.dumps(out, sort_keys=True))
    return 0


def verify_main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="verify", description="numerical verification suite")
    ap.add_argument("which", choices=SUITE_CHECKS + ("packing",))
    ap.add_argument("file", nargs="?", help="the packing file of `verify packing FILE`")
    ap.add_argument("--level", choices=["fast", "full"], default="fast")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default=None, help="write reports: CSV if PATH ends in .csv, else JSON lines")
    args = ap.parse_args(argv)
    if (args.which == "packing") != (args.file is not None):
        ap.error("a FILE goes with `verify packing`, and only there")
    if args.which == "packing":
        return _verify_packing_file(args.file)
    reports = verify_suite(args.level, args.seed, args.which)
    bad = 0
    for rep in reports:
        status = "ok" if rep.violations == 0 and rep.conclusive else (
            "inconclusive" if not rep.conclusive else "VIOLATION"
        )
        bad += rep.violations
        print(f"{rep.check:24s} {rep.body:32s} d={rep.d} violations={rep.violations} [{status}]")
    if args.out:
        write = write_reports_csv if args.out.endswith(".csv") else write_reports_jsonl
        write(reports, args.out)
    print(f"total violations: {bad}")
    return 0 if bad == 0 else 1


def _verify_packing_file(path: str) -> int:
    try:
        centers, spec, L = import_packing(path)
        body = body_from_spec(spec)
        domain = TorusDomain(body.d, L)
        domain.validate_for_body(body)
        result = verify_packing(centers, body, domain, closed_form_volume(body))
    except (OSError, OverlapError, ValueError) as exc:
        raise SystemExit(f"verify packing: {path}: {exc}") from exc
    summary = result.summary()
    print(json.dumps({k: summary[k] for k in ("count", "density", "min_pairwise_gauge")}, sort_keys=True))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(pack_main())
