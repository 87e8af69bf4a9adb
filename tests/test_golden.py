"""Golden run records and verifier reports: fixed inputs must give
byte-identical output.

The run hashes pin ``RunRecord.to_json()`` of the default l2-ball configs,
and of lp3 at d = 2 and 3, simplex_diff at d = 3 and the cube at d = 3 at
the same sizes.  The report hashes pin the ``write_reports_jsonl`` bytes
of the verify suite and of two Monte Carlo checks.  A refactor must keep them; re-pin one only
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
    (2, 1): "931f7b1459f0a9859736f659eb5a7b29a6a381160145ee45894993387109ab25",
    (2, 2): "8f49a3762a38b67dea6bd553567db6a627701ca2c3cba9725af2cab8bb298404",
    (3, 1): "4c02ec5e654baf7e8b4c2ba8d6d782f79f8f087e740ba35313f0f24131831582",
    (3, 2): "4b0ca193775bf470d6a202bd0d9a7827085a21962b5dff9d0dbdff343c1f3c98",
    (4, 1): "017a8daad04719005cd3a6e2447683674d7c64c2214c768b5682b40c7256792b",
    (4, 2): "e523134906ac9607d55bbf368c81d7d433e2370a59f1d9ca0679541f89c00e30",
}

# default sizes, seed 1, another body: decided by the outer body, with a closed-form
# h_PiK, or at lp3 d = 3 with Cauchy estimates that share one draw; or the cube,
# with its exact f and its vol(I_K) in closed form
GOLDEN_BODIES = {
    "lp3_d2": (
        {"kind": "lp", "d": 2, "p": 3, "scale": 1.0},
        "69c4cd76dbcc0af006067bf87323916f225514d773ebf7cf33d99424bbe298d0",
    ),
    "lp3_d3": (
        {"kind": "lp", "d": 3, "p": 3, "scale": 1.0},
        "a11120c5160694bcb363395e916197da09c4e01a53077ce1441161d836700167",
    ),
    "simplex_diff_d3": (
        {"kind": "simplex_diff", "d": 3, "scale": 1.0},
        "2fbc780d0727afe74af59b10ca9d19944ac6bc76221391564d3f7ee0dfa28e9b",
    ),
    "cube_d3": (
        {"kind": "lp", "d": 3, "p": "inf"},
        "b6f3c78d4c6a92e2581416751bc552a07d8c76eef1dee1a6a0b47ea956d6a9f2",
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
