"""Golden certificates: the sha256 of ``json.dumps(cert)`` for small runs.

The runs cover every certificate kind of both engines, so a change to the
engines or to the certificate layout that alters a single byte fails here.
Regenerate the digests only with a deliberate, versioned format change.
"""

import hashlib
import json

import pytest

from fiberbound import partition_engine
from fiberbound.oracles import min_block_oracle, pool_set_oracle, truncate_oracle
from fiberbound.partition_engine import PartitionDiagEngine
from fiberbound.perm_engine import PermDiagEngine


def _perm_diag(monkeypatch):
    # opportunistic, 20 steps of which 3 are fresh-transposition fallbacks
    return PermDiagEngine(2, 8, truncate_oracle(2), mode="opportunistic", seed_count=4).run(20)


def _perm_violation(monkeypatch):
    # opportunistic, violated after 10 steps, one of them a fallback
    return PermDiagEngine(2, 4, truncate_oracle(2), mode="opportunistic", seed_count=8,
                          instance_id=1).run(20)


def _perm_strict_n1(monkeypatch):
    # strict n=1: the m0 + 1 = 257 seeds all land on the identity
    return PermDiagEngine(1, 1, truncate_oracle(1)).run(1)


def _perm_stuck(monkeypatch):
    engine = PermDiagEngine(2, 8, truncate_oracle(2), mode="opportunistic", seed_count=4)
    engine.mode = "strict"          # the first stalled family now counts as inconsistent
    return engine.run(3)


def _part_diag(monkeypatch):
    return PartitionDiagEngine(1, min_block_oracle).run(3)


def _part_violation(monkeypatch):
    # min-block at k=1 is violated after 3 steps
    return PartitionDiagEngine(1, min_block_oracle, instance_id=2).run(10)


def _part_pool_violation(monkeypatch):
    return PartitionDiagEngine(1, pool_set_oracle(6), instance_id=3).run(2)


def _part_stuck(monkeypatch):
    monkeypatch.setattr(partition_engine, "iter_partitions_ranked", lambda l: iter(()))
    return PartitionDiagEngine(1, min_block_oracle).run(2)


GOLDEN = {
    "perm-diag": (_perm_diag, "perm-diag",
                  "17d50580cd19c8613b7534e126da445030ccc167be68fbad5db5201f703e35d9"),
    "perm-violation": (_perm_violation, "ledger-violation",
                       "90d446b8530003eee81ac084f0896ff50d5cce87e28c6f4f18c1fb6ee7029dc1"),
    "perm-strict-n1": (_perm_strict_n1, "ledger-violation",
                       "8132dbe3ae4ec26112b08e7cce8316fe88afbdaca94dc6e33d67617604d54d87"),
    "perm-stuck": (_perm_stuck, "stuck",
                   "0281fd68da9733fee2f18a83eb41ade1bd2b5228de9bf820c9fb7c1f8622cc3f"),
    "part-diag": (_part_diag, "part-diag",
                  "f39e08bc1c9606c520a67f8e2ba56b484eba3cbd539ca26210e0915639ae1a1a"),
    "part-violation": (_part_violation, "ledger-violation",
                       "7a9d929c92431878912d4221bac0fbe00f3ffbdc157d8b9fd82603fb3b07f440"),
    "part-pool-violation": (_part_pool_violation, "ledger-violation",
                            "10de8743d3675979d630ba16686528ef7220665d47a8fe41836eb1dd601b5ae2"),
    "part-stuck": (_part_stuck, "stuck",
                   "c5094f0fed7b7362d3ff3a67b2bae760f4518f9ae26880e4ca6ab51c66df6524"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_certificate_bytes_pinned(name, monkeypatch):
    run, kind, digest = GOLDEN[name]
    cert = run(monkeypatch)
    assert cert["kind"] == kind
    assert hashlib.sha256(json.dumps(cert).encode()).hexdigest() == digest
