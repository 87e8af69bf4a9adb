"""Golden run records: a fixed config must give a byte-identical record.

The hashes pin ``RunRecord.to_json()`` of the default l2-ball configs.
A refactor must keep them; re-pin one only when a change fixes a bug in
the record, and say why in CHANGES.md.  Bodies whose pair classification
draws Monte Carlo samples are not pinned here: their records depend on
the order in which candidate pairs are visited.
"""

import hashlib

import pytest

from normpack.harness import default_config, run_pipeline

GOLDEN = {
    (2, 1): "078afe91e01bb583154fc33422cdeb9eed736c29cd95ffad772eb7f7fab2ba4f",
    (2, 2): "824c676286edfe4645197f4de63a082604b566d09ec6a67a131a95b74c72af52",
    (3, 1): "eb2c01e04bb6b438e9b35adcc8aabeffc66338b6a44aff8f9acf369ee7e442e4",
    (3, 2): "7b380f42dd41aeefa6553d63b9df0c87b92cc25b9c23db294d8422671efdc5a9",
    (4, 1): "cf2453f601d1ed64c842e2e4c3384ed7130e76c21f7ede1cf0426bcc4b0eecf2",
    (4, 2): "bd2d06ab37495138aa6734b2285aac90c31142aba22d019312f9eba1f924a237",
}


@pytest.mark.parametrize("d,seed", sorted(GOLDEN))
def test_default_record_hash(d, seed):
    record = run_pipeline(default_config(d, seed)).to_json()
    assert hashlib.sha256(record.encode()).hexdigest() == GOLDEN[(d, seed)]
