"""Outside-in span tracing of normpack's public functions.

A :class:`Tracer` replaces each target function at every attribute a
caller reads it through (the defining module, every module that imported
it by name, the package namespace) with a wrapper that records a span,
and puts the originals back on exit.  No file of the program changes.

A :class:`Span`'s parent is the innermost open span of the same thread,
so the stack is thread-local and the sweep's worker threads never
interleave spans.  ``root`` is the outermost span of the thread's current
call tree: spans of one pipeline run share it.  ``info`` is what the
target's probe extracted from the call (rows evaluated, samples drawn,
captured output).
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np


def _rows(args, kwargs, out):
    """Rows of a batched (..., d) argument: ``gauge(self, x)``, ``support(self, u)``."""
    x = args[1] if len(args) > 1 else next(iter(kwargs.values()))
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _samples(args, kwargs, out):
    """``intersection_volume(body, x, samples, rng, volume=None)``."""
    return args[2] if len(args) > 2 else kwargs["samples"]


def _classify(args, kwargs, out):
    clf = args[0]
    return (len(out), not clf.exact, clf.boundary_count)


def _classify_before(args, kwargs):
    return args[0].boundary_count


def _edges(args, kwargs, out):
    return sum(len(a) for a in out.neighbors) // 2


def _verify_capture(args, kwargs, out):
    centers, body, domain = args[0], args[1], args[2]
    return (np.array(centers, dtype=float), body, domain, out.count, out.density)


def _record_capture(args, kwargs, out):
    return out.to_json()


class Span(NamedTuple):
    id: int
    parent: int  # 0 for a root
    root: int
    name: str
    start: float  # perf_counter seconds
    end: float
    cpu: float  # CPU seconds of the calling thread inside the span
    thread: int
    info: object


# (module, attribute, span name, probe).  A dotted attribute is a method,
# patched once on its class; a plain one is patched wherever it is bound.
TARGETS = (
    ("bodies", "ConvexBody.gauge", "gauge", _rows),
    ("bodies", "ConvexBody.support", "support", _rows),
    ("bodies", "sample_uniform", "sample_uniform", lambda a, k, out: len(out)),
    ("volumetrics", "estimate_ik", "estimate_ik", None),
    ("volumetrics", "OverlapClassifier.inside", "classify", _classify),
    ("volumetrics", "intersection_volume", "intersection_volume", _samples),
    ("volumetrics", "proj_body_support", "proj_support", None),
    ("volumetrics", "mc_volume", "mc_volume", None),
    ("packing", "build_graph", "build_graph", _edges),
    ("packing", "prune", "prune", None),
    ("packing", "degree_codegree_stats", "codegree_stats", None),
    ("indset", "greedy_independent_set", "greedy", None),
    ("indset", "local_search_improve", "local_search", None),
    ("indset", "is_independent", "is_independent", None),
    ("indset", "verify_packing", "verify_packing", _verify_capture),
    ("checks", "check_schmuckenschlager", "schmuckenschlager", None),
    ("checks", "check_logconcavity", "logconcavity", None),
    ("checks", "check_petty", "petty", None),
    ("checks", "check_rogers_shephard", "rogers_shephard", None),
    ("harness", "verify_suite", "suite", None),
    ("harness", "run_pipeline", "run_pipeline", _record_capture),
    ("harness", "sweep", "sweep", None),
)

PACKAGE = "normpack"
BEFORE = {"classify": _classify_before}
CAPTURES = {"verify_packing", "run_pipeline"}  # spans whose info holds outputs


def _patch_sites():
    """Every (owner, attribute, original, span name, probe) to patch."""
    mods = {n: m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")}
    sites = []
    for mod_name, attr, span, probe in TARGETS:
        owner = mods[f"{PACKAGE}.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            sites.append((cls, meth, cls.__dict__[meth], span, probe))
            continue
        orig = getattr(owner, attr)
        for mod in mods.values():
            sites += [(mod, name, orig, span, probe) for name, value in vars(mod).items() if value is orig]
    return sites


class Tracer:
    """Context manager: patch on enter, restore on exit, spans in memory."""

    def __init__(self):
        self.sites = _patch_sites()
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def assert_original(self) -> None:
        """Raise unless every patch site holds its original function."""
        for owner, name, orig, _, _ in self.sites:
            current = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            if current is not orig:
                raise RuntimeError(f"{getattr(owner, '__name__', owner)}.{name} is still wrapped")

    def _wrap(self, fn, span_name, probe):
        before = BEFORE.get(span_name)
        local = self._local
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            root = stack[0] if stack else sid
            pre = before(args, kwargs) if before else None
            stack.append(sid)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                t1 = time.perf_counter()
                stack.pop()
                spans.append(Span(sid, parent, root, span_name, t0, t1, time.thread_time() - c0,
                                  threading.get_ident(), None))
                raise
            t1 = time.perf_counter()
            cpu = time.thread_time() - c0
            stack.pop()
            info = probe(args, kwargs, out) if probe else None
            if pre is not None:
                info = info[:2] + (info[2] - pre,)
            spans.append(Span(sid, parent, root, span_name, t0, t1, cpu, threading.get_ident(), info))
            return out

        return wrapper

    def __enter__(self):
        wrappers = {}
        for owner, name, orig, span, probe in self.sites:
            if id(orig) not in wrappers:
                wrappers[id(orig)] = self._wrap(orig, span, probe)
            setattr(owner, name, wrappers[id(orig)])
        return self

    def __exit__(self, *exc):
        for owner, name, orig, _, _ in self.sites:
            setattr(owner, name, orig)
        self.assert_original()
        return False

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines; captured outputs are left out."""
        with open(path, "w") as fh:
            for span in self.spans:
                row = span._asdict()
                if span.name in CAPTURES:
                    row["info"] = None
                fh.write(json.dumps(row) + "\n")

    def captured(self, span_name: str) -> list[tuple]:
        """(span id, root id, info) of every completed span with that name."""
        return [(s.id, s.root, s.info) for s in self.spans if s.name == span_name and s.info is not None]


# -- per-layer metrics --------------------------------------------------

# name -> (unit, better, layer, (end-to-end metric, workloads) it should move)
LAYER_METRICS = {
    "gauge_rows": ("count", "lower", "bodies", "wall_s on mc_route_d2, exact_d3_large"),
    "gauge_s": ("s", "lower", "bodies", "wall_s on mc_route_d2, exact_d3_large"),
    "support_calls": ("count", "lower", "bodies", "wall_s on verifiers_mc; setup_s"),
    "support_s": ("s", "lower", "bodies", "wall_s on verifiers_mc; setup_s"),
    "sample_uniform_s": ("s", "lower", "bodies", "wall_s on mc_route_d2, verifiers_mc"),
    "sample_accept_ratio": ("ratio", "higher", "bodies", "wall_s on mc_route_d2, verifiers_mc"),
    "estimate_ik_s": ("s", "lower", "volumetrics", "wall_s, vol_ik_rel_se on all pipeline workloads"),
    "classify_points": ("count", "lower", "volumetrics", "wall_s on mc_route_d2"),
    "classify_mc_points": ("count", "lower", "volumetrics", "wall_s on mc_route_d2"),
    "classify_s": ("s", "lower", "volumetrics", "wall_s on mc_route_d2"),
    "intersection_volume_calls": ("count", "lower", "volumetrics", "wall_s on mc_route_d2"),
    "mc_samples": ("count", "lower", "volumetrics", "wall_s on mc_route_d2"),
    "escalation_ratio": ("ratio", "lower", "volumetrics", "wall_s on mc_route_d2"),
    "boundary_points": ("count", "lower", "volumetrics", "wall_s on mc_route_d2"),
    "proj_support_calls": ("count", "lower", "volumetrics", "wall_s on verifiers_mc; setup_s on mc_route_d2"),
    "proj_support_s": ("s", "lower", "volumetrics", "wall_s on verifiers_mc; setup_s on mc_route_d2"),
    "mc_volume_s": ("s", "lower", "volumetrics", "wall_s on verifiers_mc; setup_s on mc_route_d2"),
    "build_graph_s": ("s", "lower", "packing", "wall_s on exact_d3_large, sweep_d2_w2"),
    "edges": ("count", "lower", "packing", "wall_s on exact_d3_large, sweep_d2_w2"),
    "build_gauge_rows": ("count", "lower", "packing", "wall_s on exact_d3_large, sweep_d2_w2"),
    "pair_accept_ratio": ("ratio", "higher", "packing", "wall_s on exact_d3_large, sweep_d2_w2"),
    "prune_s": ("s", "lower", "packing", "wall_s on exact_d3_large, sweep_d2_w2"),
    "prune_gauge_rows": ("count", "lower", "packing", "wall_s on exact_d3_large, sweep_d2_w2"),
    "codegree_stats_s": ("s", "lower", "packing", "wall_s on exact_d3_large, sweep_d2_w2"),
    "greedy_s": ("s", "lower", "indset", "wall_s on exact_d3_large"),
    "local_search_s": ("s", "lower", "indset", "wall_s on exact_d3_large"),
    "is_independent_calls": ("count", "lower", "indset", "wall_s on exact_d3_large"),
    "is_independent_s": ("s", "lower", "indset", "wall_s on exact_d3_large"),
    "verify_packing_s": ("s", "lower", "indset", "wall_s on exact_d3_large"),
    "verify_gauge_rows": ("count", "lower", "indset", "wall_s on exact_d3_large"),
    "suite_s": ("s", "lower", "checks", "wall_s on verifiers_mc"),
    "schmuckenschlager_s": ("s", "lower", "checks", "wall_s on verifiers_mc"),
    "logconcavity_s": ("s", "lower", "checks", "wall_s on verifiers_mc"),
    "petty_s": ("s", "lower", "checks", "wall_s on verifiers_mc"),
    "rogers_shephard_s": ("s", "lower", "checks", "wall_s on verifiers_mc"),
    "run_pipeline_s": ("s", "lower", "harness", "wall_s on every pipeline workload"),
    "glue_s": ("s", "lower", "harness", "wall_s on every pipeline workload"),
    # threads' CPU in run_pipeline / (workers x sweep wall): span durations
    # would count waiting for the interpreter lock as work
    "sweep_parallel_eff": ("ratio", "higher", "harness", "wall_s on sweep_d2_w2 only"),
    "trace.overhead_s": ("s", "lower", "harness", "none: cost of this trace, not of the program"),
}


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 where the workload never reaches the layer."""
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], traced_wall: float, untraced_wall: float, workers: int) -> dict:
    """Per-layer figures of one traced iteration, keyed as in LAYER_METRICS."""
    by_id = {s.id: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent:
            child_time[s.parent] += s.end - s.start
    total = defaultdict(float)
    self_time = defaultdict(float)
    cpu = defaultdict(float)
    calls = defaultdict(int)
    info = defaultdict(list)
    for s in spans:
        dur = s.end - s.start
        total[s.name] += dur
        self_time[s.name] += dur - child_time[s.id]
        cpu[s.name] += s.cpu
        calls[s.name] += 1
        if s.info is not None:
            info[s.name].append(s.info)

    def ancestors(s):
        while s.parent:
            s = by_id[s.parent]
            yield s.name

    rows_under = defaultdict(int)  # gauge rows by enclosing layer
    iv_under_classify = 0
    for s in spans:
        if s.name == "gauge" and s.info is not None:
            for name in set(ancestors(s)) & {"sample_uniform", "build_graph", "prune", "verify_packing"}:
                rows_under[name] += s.info
        elif s.name == "intersection_volume" and "classify" in ancestors(s):
            iv_under_classify += 1
    classify = info["classify"]
    mc_points = sum(n for n, mc, _ in classify if mc)
    edges = sum(info["build_graph"])
    gauge_rows = sum(info["gauge"])
    out = {
        "gauge_rows": gauge_rows,
        "gauge_s": self_time["gauge"],
        "support_calls": calls["support"],
        "support_s": self_time["support"],
        "sample_uniform_s": self_time["sample_uniform"],
        "sample_accept_ratio": _ratio(sum(info["sample_uniform"]), rows_under["sample_uniform"]),
        "estimate_ik_s": total["estimate_ik"],
        "classify_points": sum(n for n, _, _ in classify),
        "classify_mc_points": mc_points,
        "classify_s": total["classify"],
        "intersection_volume_calls": calls["intersection_volume"],
        "mc_samples": sum(info["intersection_volume"]),
        "escalation_ratio": _ratio(iv_under_classify, mc_points),
        "boundary_points": sum(b for _, _, b in classify),
        "proj_support_calls": calls["proj_support"],
        "proj_support_s": total["proj_support"],
        "mc_volume_s": total["mc_volume"],
        "build_graph_s": total["build_graph"],
        "edges": edges,
        "build_gauge_rows": rows_under["build_graph"],
        "pair_accept_ratio": _ratio(2 * edges, rows_under["build_graph"]),
        "prune_s": total["prune"],
        "prune_gauge_rows": rows_under["prune"],
        "codegree_stats_s": total["codegree_stats"],
        "greedy_s": total["greedy"],
        "local_search_s": total["local_search"],
        "is_independent_calls": calls["is_independent"],
        "is_independent_s": total["is_independent"],
        "verify_packing_s": total["verify_packing"],
        "verify_gauge_rows": rows_under["verify_packing"],
        "suite_s": total["suite"],
        "schmuckenschlager_s": total["schmuckenschlager"],
        "logconcavity_s": total["logconcavity"],
        "petty_s": total["petty"],
        "rogers_shephard_s": total["rogers_shephard"],
        "run_pipeline_s": total["run_pipeline"],
        "glue_s": self_time["run_pipeline"],
        "sweep_parallel_eff": _ratio(cpu["run_pipeline"], workers * total["sweep"]),
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    if set(out) != set(LAYER_METRICS):
        raise RuntimeError("per-layer metrics out of step with LAYER_METRICS")
    return out
