"""Golden run records and verifier reports: fixed inputs must give
byte-identical output.

The run hashes pin ``RunRecord.to_json()`` of the default l2-ball configs,
and of lp3 at d = 2 and 3 and simplex_diff at d = 3 at the same sizes.  The
report hashes pin the ``write_reports_jsonl`` bytes of the verify suite
and of two Monte Carlo checks.  A refactor must keep them; re-pin one only
when a change fixes a bug in the output, and say why in CHANGES.md.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from normpack.bodies import lp_ball, normalize_to_unit_volume
from normpack.checks import check_rogers_shephard, check_schmuckenschlager, write_reports_jsonl
from normpack.harness import default_config, run_pipeline, verify_suite

GOLDEN = {
    (2, 1): "678c9b2d61ed1fe243fd4ecbb48d7fdc82b23b09ddecdd7c1f9da5d82cbbcb40",
    (2, 2): "6bcd2b145a886083fa71151df54ec8ba38d54c102ef1b1186cc6d6941013ddff",
    (3, 1): "a15cda9c9550737df09fcce7209f65fbd386f7a9a868c5998ab33ceddd8565b7",
    (3, 2): "44af22396b918296d344a87cd9a9c95f8feb670c9e1185b332d69a38d5a1a76a",
    (4, 1): "f2927146109ffe066e659af9b4b4e5a5514a14b7e86fc2e9475443aa60ce6a05",
    (4, 2): "0c6200e1f04ff9b6665bd8e0037b50074f82185ad1b930858812158e014f16a0",
}

# default sizes, seed 1, another body: decided by the outer body, with a closed-form
# h_PiK, or at lp3 d = 3 with Cauchy estimates that share one draw
GOLDEN_BODIES = {
    "lp3_d2": (
        {"kind": "lp", "d": 2, "p": 3, "scale": 1.0},
        "ac2f860f42f86c8b76c8f163d5198aa6b9a21d9779833bf5f099a82a0ee7057f",
    ),
    "lp3_d3": (
        {"kind": "lp", "d": 3, "p": 3, "scale": 1.0},
        "22f0aaab089db830ededc5596ff68b5b03f4e3a3998edb3cedd7c7d0871e2e25",
    ),
    "simplex_diff_d3": (
        {"kind": "simplex_diff", "d": 3, "scale": 1.0},
        "a5d8d64c063d3c4e7fded5a167bc091ba935af0e7b28e4dde6eaf2eded6d24f6",
    ),
}

GOLDEN_REPORTS = {
    "suite_full_1": "9f8dc1e767b5ab23be058745130adf19700f8a824bd5191dae0a677dac8e6174",
    "suite_full_2": "c022f7ca744bc71dd22f450f73e0093cdbe0cae06f7b4eec523fbad6e4e2a73b",
    "schmuck_lp3_d3": "94b9b1c0ae95171c6f2d4ff68bececc4ebccee829f8de0ff356c0824fd54ff85",
    "rogers_shephard_d4": "0663785177307525185b537464f5a8095f0f971a4630d8a05e3993df54ac3898",
}


def _reports(name):
    if name.startswith("suite_full_"):
        return verify_suite("full", seed=int(name.rsplit("_", 1)[1]))
    rng = np.random.default_rng(7)
    if name == "schmuck_lp3_d3":
        body = normalize_to_unit_volume(lp_ball(3, 3))
        return [check_schmuckenschlager(body, 0.5, 10, rng, seed=7)]
    return [check_rogers_shephard(4, 1_000_000, rng, seed=7)]


@pytest.mark.parametrize("d,seed", sorted(GOLDEN))
def test_default_record_hash(d, seed):
    record = run_pipeline(default_config(d, seed)).to_json()
    assert hashlib.sha256(record.encode()).hexdigest() == GOLDEN[(d, seed)]


@pytest.mark.parametrize("name", sorted(GOLDEN_BODIES))
def test_body_record_hash(name):
    spec, digest = GOLDEN_BODIES[name]
    record = run_pipeline(replace(default_config(spec["d"], 1), body=spec)).to_json()
    assert hashlib.sha256(record.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_report_hash(name, tmp_path):
    path = tmp_path / "reports.jsonl"
    write_reports_jsonl(_reports(name), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_REPORTS[name]
