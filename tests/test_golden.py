"""Golden certificates: sha256 digests of ``json.dumps`` for small runs.

The runs cover every certificate kind of both engines, so a change to the
engines or to the certificate layout that alters a single byte fails here.
Each run pins two digests: the format-1 certificate that ``format1.expand``
rebuilds, unchanged since format 1 was current, and the format-3 bytes the
engines write.  Regenerate the digests only with a deliberate, versioned
format change.
"""

import hashlib
import json

import pytest

from fiberbound import partition_engine
from fiberbound.auditing import WitnessEngine
from fiberbound.oracles import min_block_oracle, pool_set_oracle, truncate_oracle
from fiberbound.partition_engine import PartitionDiagEngine
from fiberbound.perm_engine import PermDiagEngine
from format1 import expand


def _perm_diag(monkeypatch):
    # opportunistic, 20 steps of which 3 are fresh-transposition fallbacks
    return PermDiagEngine(2, 8, truncate_oracle(2), mode="opportunistic", seed_count=4).run(20)


def _perm_violation(monkeypatch):
    # opportunistic, violated after 10 steps, one of them a fallback
    return PermDiagEngine(2, 4, truncate_oracle(2), mode="opportunistic", seed_count=8,
                          instance_id=1).run(20)


def _perm_strict_n1(monkeypatch):
    # strict n=1: the m0 + 1 = 2 seeds both land on the identity
    return PermDiagEngine(1, 1, truncate_oracle(1)).run(1)


def _perm_strict_n2(monkeypatch):
    # strict n=2: 4,562 seeds, violated after 14 steps
    return PermDiagEngine(2, 1, truncate_oracle(2)).run(50)


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
                  "17d50580cd19c8613b7534e126da445030ccc167be68fbad5db5201f703e35d9",
                  "4f61d115795bc9c90ab6750bc74bb7f3c8a79de491fbba607ed7ecde7bee07d7"),
    "perm-violation": (_perm_violation, "ledger-violation",
                       "90d446b8530003eee81ac084f0896ff50d5cce87e28c6f4f18c1fb6ee7029dc1",
                       "07cc17a2f198b8740c13812ba635c8a2cef770e5afc547b9869a0382fd126c53"),
    "perm-strict-n1": (_perm_strict_n1, "ledger-violation",
                       "c2906bcd310436471ba125b66b27b0edec6f8967b74c12f20733cd47c777ae39",
                       "1665f0ec83b55993ba6a22bf8269cf1eefd6f9dc7e92827cc566abb6329822e9"),
    "perm-strict-n2": (_perm_strict_n2, "ledger-violation",
                       "c876d93a133e6c08d7a542405f2bb8dcef7071efb638d7559400b90066913a87",
                       "bf1a732779290353808627f746cf4f7127ba9af4ece0857b5bd80ca6db6bcd65"),
    "perm-stuck": (_perm_stuck, "stuck",
                   "0281fd68da9733fee2f18a83eb41ade1bd2b5228de9bf820c9fb7c1f8622cc3f",
                   "a0ed548ba52d47c34d05ebf1a91ed21cab40a8d6de23d37c809f14fcbf28fdf7"),
    "part-diag": (_part_diag, "part-diag",
                  "f39e08bc1c9606c520a67f8e2ba56b484eba3cbd539ca26210e0915639ae1a1a",
                  "1e0a2be8f69e4f66f01f4e5c9d4bbf3ac83d99af71bad92f2381706ae7474349"),
    "part-violation": (_part_violation, "ledger-violation",
                       "7a9d929c92431878912d4221bac0fbe00f3ffbdc157d8b9fd82603fb3b07f440",
                       "d2ca099fa1486bc02e8bac06463cb6ec209183ad59506e5355d49e6d0b85e7ff"),
    "part-pool-violation": (_part_pool_violation, "ledger-violation",
                            "10de8743d3675979d630ba16686528ef7220665d47a8fe41836eb1dd601b5ae2",
                            "d4fafef0ea344ca2ea62d94f61abc05a0ac80fe729fda89dd092f5d253ab78bb"),
    "part-stuck": (_part_stuck, "stuck",
                   "c5094f0fed7b7362d3ff3a67b2bae760f4518f9ae26880e4ca6ab51c66df6524",
                   "8f9cba3a3fdfca0fd7e0dcfe1f0479ba70ac9c419aa5eea8ad472423c0cfbffe"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_certificate_bytes_pinned(name, monkeypatch):
    run, kind, format1_digest, digest = GOLDEN[name]
    cert = run(monkeypatch)
    assert cert["kind"] == kind
    # the outputs hold every witness and the ranked stream every part candidate
    assert not any({"result", "q"} & trace.keys() for trace in cert["traces"])
    assert hashlib.sha256(json.dumps(cert).encode()).hexdigest() == digest
    assert hashlib.sha256(json.dumps(expand(cert)).encode()).hexdigest() == format1_digest


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_are_every_witness_text(name, monkeypatch):
    # the certificate writes the seeds from their atom pairs and the steps'
    # outputs from their witnesses; together they must be the text of every
    # witness, seeds first, stuck and violated runs included
    engines = []
    run = WitnessEngine.run

    def recording_run(self, steps):
        engines.append(self)
        return run(self, steps)

    monkeypatch.setattr(WitnessEngine, "run", recording_run)
    cert = GOLDEN[name][0](monkeypatch)
    [engine] = engines
    assert cert["outputs"] == [str(x) for x in engine.g]


@pytest.mark.parametrize("make", [
    lambda: PartitionDiagEngine(2, min_block_oracle),
    lambda: PermDiagEngine(2, 8, truncate_oracle(2), mode="opportunistic", seed_count=4),
], ids=["part", "perm"])
def test_outputs_after_caller_steps(make):
    engine = make()
    for _ in range(3):
        engine.step()
    cert = engine.run(4)
    assert cert["steps"] == 7
    assert cert["outputs"] == [str(x) for x in engine.g]
