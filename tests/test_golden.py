"""The pin table: every pinned certificate and ``fraenkel`` report is a row of ``PINS``.

A change that alters one byte of a run fails exactly its rows, under ``python -O`` too.
A row's ``run`` is an in-process call, whose digest is the sha256 of
``json.dumps(cert)``, or a command line that ``cli.main`` runs with ``--json``,
whose digest is that of the file it writes: that text and a newline.  ``kind``
is ``None`` for a report; ``format1`` is the digest of ``format1.expand``'s
rebuild, recorded while format 1 was current; ``max_bytes`` and ``seconds``
bound the record's size and the run's wall time.

To add a row, give its run and kind and the digest of its bytes before the
change that adds it.  Change a digest only with a deliberate, versioned format
change.  ``benchmarks/pins.json`` is the benchmark's own and is not here.
"""

import hashlib
import json
import time
from collections import namedtuple

import pytest

from fiberbound import partition_engine, perm_engine
from fiberbound.auditing import WitnessEngine
from fiberbound.cli import main
from fiberbound.oracles import min_block_oracle, pool_set_oracle, truncate_oracle
from fiberbound.partition_engine import PartitionDiagEngine
from fiberbound.perm_engine import PermDiagEngine
from fiberbound.perms import FinPerm
import format1


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
    # with every count N(L) read as 0, the first stalled family is a forbidden stall
    monkeypatch.setattr(perm_engine, "stuck_answer_bound", lambda n, level: 0)
    return PermDiagEngine(2, 8, truncate_oracle(2), mode="opportunistic", seed_count=4).run(3)


def _agreeing_three_cycles(s):
    # (a b c): a is s's least moved atom mod 10**6, b one of the 3 atoms kept
    # for a, picked by md5, and c s's greatest moved atom, or (a b) when that
    # is b.  A witness moves only family atoms, so a and c are mostly occupied
    # and b free: the answer escapes nowhere, and the answers on one a send it
    # to one of only 3 free atoms, so many live answers agree there
    if not s._map:
        return s
    a = min(s._map) % 10**6
    b = 10**6 + 3 * a + hashlib.md5(str(s).encode()).digest()[0] % 3
    c = max(s._map)
    return FinPerm.cycle([a, b] if c == b else [a, b, c])


def _perm_n3_agreeing(monkeypatch):
    # opportunistic n=3, 300 steps, 3 of them fallbacks; its case-2 levels walk
    # past live answers that agree with the first at an occupied atom
    return PermDiagEngine(3, 1000, _agreeing_three_cycles, mode="opportunistic",
                          seed_count=4).run(300)


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


def _grow_thirds(p):
    # min-block, except that a block whose size is a multiple of three gains
    # one atom, so some steps split the frame's classes and some do not
    b = min_block_oracle(p)
    return b | {max(b) + 1} if b and len(b) % 3 == 0 else b


def _part_splitting(monkeypatch):
    # after the seeds, min-block answers are all unions of the frame's classes;
    # grow-thirds mixes such answers with ones that split a class, so this run
    # goes through both the union test and the refinement loop
    return PartitionDiagEngine(2, _grow_thirds).run(40)


Pin = namedtuple("Pin", "run kind digest format1 max_bytes seconds", defaults=(None, None, None))


PINS = {
    "perm-diag": Pin(_perm_diag, "perm-diag",
                     "4f61d115795bc9c90ab6750bc74bb7f3c8a79de491fbba607ed7ecde7bee07d7",
                     "17d50580cd19c8613b7534e126da445030ccc167be68fbad5db5201f703e35d9"),
    "perm-violation": Pin(_perm_violation, "ledger-violation",
                          "07cc17a2f198b8740c13812ba635c8a2cef770e5afc547b9869a0382fd126c53",
                          "90d446b8530003eee81ac084f0896ff50d5cce87e28c6f4f18c1fb6ee7029dc1"),
    "perm-strict-n1": Pin(_perm_strict_n1, "ledger-violation",
                          "1665f0ec83b55993ba6a22bf8269cf1eefd6f9dc7e92827cc566abb6329822e9",
                          "c2906bcd310436471ba125b66b27b0edec6f8967b74c12f20733cd47c777ae39"),
    "perm-strict-n2": Pin(_perm_strict_n2, "ledger-violation",
                          "bf1a732779290353808627f746cf4f7127ba9af4ece0857b5bd80ca6db6bcd65",
                          "c876d93a133e6c08d7a542405f2bb8dcef7071efb638d7559400b90066913a87"),
    "perm-n3-agreeing": Pin(_perm_n3_agreeing, "perm-diag",
                            "1e2170859cf7bb9fbc1cc4a28828d7fa7d8899e35ce0b05f8bdaf7e04734d6f5",
                            seconds=2),
    "perm-stuck": Pin(_perm_stuck, "stuck",
                      "a0ed548ba52d47c34d05ebf1a91ed21cab40a8d6de23d37c809f14fcbf28fdf7",
                      "0281fd68da9733fee2f18a83eb41ade1bd2b5228de9bf820c9fb7c1f8622cc3f"),
    "part-diag": Pin(_part_diag, "part-diag",
                     "1e0a2be8f69e4f66f01f4e5c9d4bbf3ac83d99af71bad92f2381706ae7474349",
                     "f39e08bc1c9606c520a67f8e2ba56b484eba3cbd539ca26210e0915639ae1a1a"),
    "part-violation": Pin(_part_violation, "ledger-violation",
                          "d2ca099fa1486bc02e8bac06463cb6ec209183ad59506e5355d49e6d0b85e7ff",
                          "7a9d929c92431878912d4221bac0fbe00f3ffbdc157d8b9fd82603fb3b07f440"),
    "part-pool-violation": Pin(_part_pool_violation, "ledger-violation",
                               "d4fafef0ea344ca2ea62d94f61abc05a0ac80fe729fda89dd092f5d253ab78bb",
                               "10de8743d3675979d630ba16686528ef7220665d47a8fe41836eb1dd601b5ae2"),
    "part-stuck": Pin(_part_stuck, "stuck",
                      "8f9cba3a3fdfca0fd7e0dcfe1f0479ba70ac9c419aa5eea8ad472423c0cfbffe",
                      "c5094f0fed7b7362d3ff3a67b2bae760f4518f9ae26880e4ca6ab51c66df6524"),
    "part-splitting": Pin(_part_splitting, "part-diag",
                          "fcead6432a9249288efdab46c0091366df367e8cded1468df448276fa8b5d742",
                          "2c1a746bae77b4c9168b93b0f263a6b0eb68e6e22b272bb5e6c4488cc562db76"),
    "fraenkel3": Pin("fraenkel --atoms 64 --support {0} --n 3", None,
                     "6e60214b42151de8cbc3e2dc4acaa6f2f223b5fd7075508b7620883a9858b8db"),
    "fraenkel4": Pin("fraenkel --atoms 64 --support {0,1,2} --n 4", None,
                     "05ebb099388d26ba748fbb0500ffdfd3aa2dc1262ea717e9602459ff2e2c7d49",
                     seconds=30),
    "strict2": Pin("diag-perm --n 2 --k 2 --steps 50", "ledger-violation",
                   "444ea40e60e7cbf2199e53d23ee142b67ed24873b82377ac7fdc4c625b78d9ec",
                   "c8baa36b53aaaca6584424668ec5a23d411586a47a90f06aea53d49cf65e81ff"),
    # violated after 23 steps
    "strict5": Pin("diag-perm --n 2 --k 5 --steps 50", "ledger-violation",
                   "0f1c05fffd4e2ea276d1c883710ee98d4ed6df6105d1ec9123a28b672eead7f5",
                   seconds=60),
    "opp200": Pin("diag-perm --n 2 --k 200 --mode opportunistic --steps 400", "perm-diag",
                  "b74688b9485a38c8fbe8ca44ad05a7e89b3a29b13ab5a8b5c4ba35575d372eb4",
                  "aff7eeef2341c0403b0d8fb55e537373bdcfd7e796fad49dac2f0b385fa90b6d"),
    # violated after 42 of the 2,000 steps
    "opp20": Pin("diag-perm --n 2 --k 20 --mode opportunistic --steps 2000", "ledger-violation",
                 "b0e18e23f5f03525d2b432d6deae6c2a535b20c3330ed5dcfd76afafdabad1a8"),
    "pool1": Pin("diag-perm --n 2 --k 80 --oracle pool:1 --mode opportunistic --steps 50",
                 "ledger-violation",
                 "563131c4097cdd2d213a3f4a3d18c82f131aeb17efe31635f3807b8c8873c3d0"),
    # one seed, violated after 8 steps; traces (fallback, |B_new|) read F1 T1 F1 T0 T0
    # T1 T0 T0, so its stalls both reuse a stuck family and rebuild one on a new answer
    "pool10": Pin("diag-perm --n 2 --k 3 --oracle pool:10 --mode opportunistic --seeds 1 "
                  "--steps 50", "ledger-violation",
                  "ee45a61806b7f8a31b05f7139e57c35b4201a562d9aa7ca6d200c18ff11997de"),
    "part": Pin("diag-part --k 2 --steps 100", "part-diag",
                "02a858b33ceec7dbabf449ecdcbf822f0bdd32c5a7751ac353b78ed8e52183c8",
                max_bytes=300000),
    "part3": Pin("diag-part --k 3 --steps 300", "part-diag",
                 "aab3a2d327c751d8e8859684f9028ec421ba308831224057e79e2618386ec0db",
                 "b7a2cc52e3b786d073118b73219323e1e4e167f6d5aa893133a160305983273d"),
    "part5": Pin("diag-part --k 5 --steps 300", "part-diag",
                 "a33ab23c3d7fd92ae56507680c7b6b4f3fa7add6d6b3150dfe4275c59f674db4",
                 seconds=20),
    # violated among the seeds
    "seeds3": Pin("diag-part --k 3 --oracle pool:2 --steps 1", "ledger-violation",
                  "4079047de19d4cca7058bc05ec6e61b9d26079b9c27587a5253d170cf6f1f863",
                  "98704a3536f1b0689876e9ab647423e6df05694b130e7af5bf96ae4afecb1fc7"),
}

IN_PROCESS = sorted(name for name, pin in PINS.items() if callable(pin.run))


def _written_bytes(run, monkeypatch, tmp_path):
    if callable(run):
        return json.dumps(run(monkeypatch)).encode()
    path = tmp_path / "pinned.json"
    assert main(run.split() + ["--json", str(path)]) == 0
    return path.read_bytes()


@pytest.mark.parametrize("name", sorted(PINS))
def test_certificate_bytes_pinned(name, monkeypatch, tmp_path):
    pin = PINS[name]
    start = time.perf_counter()
    data = _written_bytes(pin.run, monkeypatch, tmp_path)
    elapsed = time.perf_counter() - start
    assert hashlib.sha256(data).hexdigest() == pin.digest
    record = json.loads(data)
    assert record.get("kind") == pin.kind
    if pin.kind is not None:
        assert record["format"] == 3
        # the outputs hold every witness and the ranked stream every part candidate
        assert not any({"result", "q"} & trace.keys() for trace in record["traces"])
    if pin.format1 is not None:
        assert format1.digest(record) == pin.format1
    if pin.max_bytes is not None:
        assert len(data) < pin.max_bytes
    if pin.seconds is not None:
        assert elapsed < pin.seconds


@pytest.mark.parametrize("name", IN_PROCESS)
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
    cert = PINS[name].run(monkeypatch)
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
