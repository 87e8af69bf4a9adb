"""Checks of normpack's outputs that do not go through its own verifiers.

Packings are re-checked by brute force over every center pair, with the
benchmark's own minimal-image reduction and no spatial index, so a bug in
``indset``'s cell index cannot hide an overlap.
"""

from __future__ import annotations

import json
import math

import numpy as np

GAUGE_FLOOR = 2.0 - 2e-12
_CHUNK = 256


def min_pair_gauge(centers: np.ndarray, body, L: float) -> float:
    """Smallest gauge of a minimal-image center difference, over all pairs."""
    m, d = centers.shape
    best = math.inf
    for lo in range(0, m - 1, _CHUNK):
        block = centers[lo : lo + _CHUNK]
        diff = block[:, None, :] - centers[None, :, :]
        diff -= L * np.round(diff / L)
        g = np.asarray(body.gauge(diff.reshape(-1, d))).reshape(len(block), m)
        rows = np.arange(len(block))
        g[rows, lo + rows] = math.inf  # a center against itself
        best = min(best, float(g.min()))
    return best


def check_packing(capture: tuple, record: dict) -> list[str]:
    """Problems with one packing captured at ``verify_packing``."""
    centers, body, domain, count, density = capture
    problems = []
    if len(centers) != count or count != record["packing"]["count"]:
        problems.append(f"center count {len(centers)} vs result {count} vs record {record['packing']['count']}")
    if len(centers) > 1:
        g = min_pair_gauge(centers, body, domain.L)
        if not g >= GAUGE_FLOOR:
            problems.append(f"overlap: minimal pair gauge {g!r} < {GAUGE_FLOOR!r}")
    return problems


def _check_record(rec: dict) -> list[str]:
    pk = rec["packing"]
    cfg = rec["config"]
    problems = []
    expect = pk["count"] / cfg["L"] ** cfg["d"]  # unit-volume body
    if pk["count"] < 1 or not math.isclose(pk["density"], expect, rel_tol=1e-12):
        problems.append(f"density {pk['density']} != count / L^d = {expect}")
    return problems


def check_op(op) -> list[str]:
    """Problems with one operation's output, from the output alone."""
    if op.error:
        return [op.error]
    if op.kind == "report":
        r = op.value
        problems = []
        if r.violations != 0:
            problems.append(f"{r.violations} violations")
        if not r.conclusive:
            problems.append("inconclusive")
        return problems
    if op.kind == "sweep_row":
        if op.value["status"] != "ok":
            return [f"sweep row status {op.value['status']!r}"]
        if op.record is None:
            return ["sweep wrote no record for this row"]
        rec = json.loads(op.record)
        if rec["packing"]["density"] != op.value["density"]:
            return [f"row density {op.value['density']} != record density {rec['packing']['density']}"]
        return _check_record(rec)
    return _check_record(json.loads(op.record))


def output_key(op) -> str:
    """Canonical text of an operation's output, for comparing runs."""
    if op.error:
        return op.error
    if op.record is not None:
        return op.record
    if op.kind == "report":
        return json.dumps(op.value.to_record(), sort_keys=True)
    return json.dumps(op.value, sort_keys=True)


MIN_HITS = 5  # the normal approximation behind vol_ik_std_error needs ~5 hits


def rel_se(rec: dict) -> float:
    """vol_ik standard error over vol_ik; 1.0 when estimate_ik got fewer
    than MIN_HITS hits, where that ratio is noise (2 hits read 0.71)."""
    ik = rec["ik"]
    if ik["vol_ik"] <= 0:
        return 1.0
    rel = ik["vol_ik_std_error"] / ik["vol_ik"]
    n = rec["config"]["ik_outer_samples"]
    hits = n / (1.0 + n * rel * rel)  # inverts rel^2 = (1 - p) / (n p)
    return rel if hits >= MIN_HITS - 0.5 else 1.0
