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
from helpers import seed_witnesses


def _perm_diag(monkeypatch):
    # opportunistic, 20 steps of which 5 are fallbacks to the next seed pair
    return PermDiagEngine(2, 8, truncate_oracle(2), mode="opportunistic", seed_count=4).run(20)


def _perm_violation(monkeypatch):
    # opportunistic, violated after 11 steps, one of them a fallback
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
    # opportunistic n=3, 300 steps, 2 of them fallbacks; its case-2 levels walk
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
                     "4a09920765c8f837f24fc9abd9ec2a8b0ce65055dade77672962f5f392f2fd3e",
                     "d37ea7f0901a0ecfa88d94227954096c01bb0e4190ee086f3a0c2cc24b8e4a70"),
    "perm-violation": Pin(_perm_violation, "ledger-violation",
                          "07fa7fa76141cd66b1f3605db81e3c09a4cb04585594fd449c727848d874f54b",
                          "5773997d65a5eac59c3bf47446938dbb99d46408dde9bfa6c30b388772782ae6"),
    "perm-strict-n1": Pin(_perm_strict_n1, "ledger-violation",
                          "6452a168a379c7ac6b299fa8c4c72e660ea3914cd650939b12be47d62761ebc5",
                          "c2906bcd310436471ba125b66b27b0edec6f8967b74c12f20733cd47c777ae39"),
    "perm-strict-n2": Pin(_perm_strict_n2, "ledger-violation",
                          "0b1ee06978ab521e4716181e89e9a081a0a98e4c805eea00287a5a23d79d8d37",
                          "c876d93a133e6c08d7a542405f2bb8dcef7071efb638d7559400b90066913a87"),
    "perm-n3-agreeing": Pin(_perm_n3_agreeing, "perm-diag",
                            "721476cad1bd6eecf24220974cae4d913aa267095443c84fb02e0d644d9798b4",
                            seconds=2),
    "perm-stuck": Pin(_perm_stuck, "stuck",
                      "cc505c4765270a433b819bb053151e0ad6ff0ab6e4f6afba35c4200dbc311cfb",
                      "0281fd68da9733fee2f18a83eb41ade1bd2b5228de9bf820c9fb7c1f8622cc3f"),
    "part-diag": Pin(_part_diag, "part-diag",
                     "70e8ed795e7175fca51fec1663e6681447c0ade46c2557a5f8d92ce35168c948",
                     "f39e08bc1c9606c520a67f8e2ba56b484eba3cbd539ca26210e0915639ae1a1a"),
    "part-violation": Pin(_part_violation, "ledger-violation",
                          "28f2fa740a67773bedddeb12870ef667edee380f2042ffc9ff30e58aa13b9f76",
                          "7a9d929c92431878912d4221bac0fbe00f3ffbdc157d8b9fd82603fb3b07f440"),
    "part-pool-violation": Pin(_part_pool_violation, "ledger-violation",
                               "9739f2f1fa4312ad70b2b75df89afe3c8672b2fd8b9adbf36fcbf161d4f42965",
                               "10de8743d3675979d630ba16686528ef7220665d47a8fe41836eb1dd601b5ae2"),
    "part-stuck": Pin(_part_stuck, "stuck",
                      "9eb4579154f526d3378f798bfee09b37b9ebc9529746afea7f88fd6b02b94106",
                      "c5094f0fed7b7362d3ff3a67b2bae760f4518f9ae26880e4ca6ab51c66df6524"),
    "part-splitting": Pin(_part_splitting, "part-diag",
                          "4d1cb7487bd096f2815b0c381727bbdffe85555f458ceefd3a71fbffbbcdbaec",
                          "2c1a746bae77b4c9168b93b0f263a6b0eb68e6e22b272bb5e6c4488cc562db76"),
    "fraenkel3": Pin("fraenkel --atoms 64 --support {0} --n 3", None,
                     "6e60214b42151de8cbc3e2dc4acaa6f2f223b5fd7075508b7620883a9858b8db"),
    "fraenkel4": Pin("fraenkel --atoms 64 --support {0,1,2} --n 4", None,
                     "05ebb099388d26ba748fbb0500ffdfd3aa2dc1262ea717e9602459ff2e2c7d49",
                     seconds=30),
    "strict2": Pin("diag-perm --n 2 --k 2 --steps 50", "ledger-violation",
                   "cf48776db63c2a49b88de939a03663b380ab9ddae4313b5cb7be3e00f0761dc8",
                   "c8baa36b53aaaca6584424668ec5a23d411586a47a90f06aea53d49cf65e81ff"),
    # violated after 23 steps
    "strict5": Pin("diag-perm --n 2 --k 5 --steps 50", "ledger-violation",
                   "e0d8a6ec5d8213d4c3cd6ae609f5a8513fd33a434186cb6a35cc70695c5c1201",
                   seconds=60),
    "opp200": Pin("diag-perm --n 2 --k 200 --mode opportunistic --steps 400", "perm-diag",
                  "276a2651738e6009bd453bd1b8a0fbc6bc1b9a8e32b6b9aec267b1a914ca3ebd",
                  "aff7eeef2341c0403b0d8fb55e537373bdcfd7e796fad49dac2f0b385fa90b6d"),
    # violated after 42 of the 2,000 steps
    "opp20": Pin("diag-perm --n 2 --k 20 --mode opportunistic --steps 2000", "ledger-violation",
                 "e3353dfbb41b4e08baa3ab9e6d11864d92558218b40978ed750adc54a219305f"),
    "pool1": Pin("diag-perm --n 2 --k 80 --oracle pool:1 --mode opportunistic --steps 50",
                 "ledger-violation",
                 "54ba10ae344484d3d7e344d657ef663355e5ebb03a6d4d58eed9342be375d17e"),
    # one seed, violated after 16 steps; traces (fallback, |B_new|) read F1 T1 F1 T1 T0
    # F1 F1 T0 F1 F1 F0 F0 F0 F0 F1 F0, so its stalls both reuse a stuck family
    # and rebuild one on a new answer
    "pool10": Pin("diag-perm --n 2 --k 3 --oracle pool:10 --mode opportunistic --seeds 1 "
                  "--steps 50", "ledger-violation",
                  "5341f498b4352f72afd675cf3f8d4dc75b1e3d49fb4fa28964a3c1825f39b00c"),
    # one seed, violated after 2,554 steps; 1,619 of them are unstuck and gain no
    # answer, so they keep every built level of the family
    "pool1024": Pin("diag-perm --n 2 --k 10 --oracle pool:1024 --mode opportunistic --seeds 1 "
                    "--steps 3000", "ledger-violation",
                    "0aa670cbbda111a6f36edd8233bbc8caa3b532d2324c67376baf2612372d1a18"),
    # n=4 at k=1, past compute_bounds' guard, which the run never reads; violated after 11 steps
    "opp-n4": Pin("diag-perm --n 4 --k 1 --mode opportunistic --steps 20", "ledger-violation",
                  "cb5ef821199b9e4537c70a2822bb68e6cf6f85b44cfbfe81509caa791d384b6e"),
    "part": Pin("diag-part --k 2 --steps 100", "part-diag",
                "4366be4c2747f65229f1f0081fe1e37b80e4ccafeecb2861125f08d43e2a7bcd",
                max_bytes=300000),
    "part3": Pin("diag-part --k 3 --steps 300", "part-diag",
                 "e30e4ae896d0ead0bf33ee4413710f2ae3834d1e1d61b2ee8212d133ba2f408d",
                 "b7a2cc52e3b786d073118b73219323e1e4e167f6d5aa893133a160305983273d"),
    "part5": Pin("diag-part --k 5 --steps 300", "part-diag",
                 "99d6afa37ac66df653e8de6c1f96cbf3ed2e635fd5e9e375f0fb32a4c11afb86",
                 seconds=20),
    # violated among the seeds
    "seeds3": Pin("diag-part --k 3 --oracle pool:2 --steps 1", "ledger-violation",
                  "020e92bf1bac0bb2a7366e8bcf909a424cdb1b9d785ffd688bc7bbf50facc01b",
                  "98704a3536f1b0689876e9ab647423e6df05694b130e7af5bf96ae4afecb1fc7"),
    # strict, violated among the first 35 of its 35,706 seeds; the record
    # still lists every seed's text
    "strict5-pool10": Pin("diag-perm --n 2 --k 5 --oracle pool:10 --steps 1", "ledger-violation",
                          "b04c60c6ec04182985594809676ca6d636d1e744c45f9a1a3e4e7ad40fa531a6"),
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
        assert record["format"] == 4
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
    assert cert["outputs"] == [str(x) for x in seed_witnesses(engine) + engine.g]


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
    assert cert["outputs"] == [str(x) for x in seed_witnesses(engine) + engine.g]
