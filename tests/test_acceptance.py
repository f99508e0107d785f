"""Acceptance suite.

One test per criterion; each prints a single pass line with its timing
(run with ``pytest -s`` to see them) and enforces its runtime budget.
"""

import itertools
import json
import random
import time

from fiberbound.auditing import compute_bounds
from fiberbound.cli import main
from fiberbound.fraenkel import (ForcedFixedPoint, SupportConfig, classify,
                                 perms_moving_exactly, scan)
from fiberbound.inject import Tableau, decode, encode
from fiberbound.oracles import min_block_oracle, truncate_oracle
from fiberbound.partitions import bell, build_frame
from fiberbound.partition_engine import PartitionDiagEngine
from fiberbound.perm_engine import PermDiagEngine
from fiberbound.perms import FinPerm
from format1 import expand_traces
from helpers import masks


class Budget:
    def __init__(self, number, seconds, label):
        self.number = number
        self.seconds = seconds
        self.label = label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} overran: {elapsed:.2f}s >= {self.seconds}s")
            print(f"criterion {self.number}: PASS ({elapsed:.2f}s < {self.seconds}s) {self.label}")
        else:
            print(f"criterion {self.number}: FAIL {self.label}")
        return False


def test_criterion_1_encode_decode_round_trip():
    with Budget(1, 5, "encode/decode round trip, exhaustive"):
        expected_counts = {(2, 4): 153, (2, 5): 300, (3, 5): 11968}
        for (n, m), expected in expected_counts.items():
            tab = Tableau(n, m)
            atoms = sorted(tab.reserved) + list(range(len(tab.reserved),
                                                      len(tab.reserved) + 4))
            pool = list(perms_moving_exactly(iter(atoms), n))
            assert len(pool) == expected
            images = set()
            for s in pool:
                image, _ = encode(s, tab)
                assert len(image.moved) == m
                assert decode(image, tab) == s
                images.add(image)
            assert len(images) == len(pool)


def test_criterion_2_bound_computation():
    with Budget(2, 1, "threshold parameters"):
        for (n, k), (l0, m0) in {(1, 1): (8, 256), (1, 2): (9, 648)}.items():
            params = compute_bounds(n, k)
            assert (params.l0, params.m0) == (l0, m0)
            for l in range(l0 + 1, l0 + 101):
                assert k * (2 * n * l) ** (2 * n) < 2**l
            assert not (k * (2 * n * l0) ** (2 * n) < 2**l0)


def test_criterion_3_bell_numbers_and_lower_bound():
    with Budget(3, 1, "Bell numbers and exponential lower bound"):
        def triangle(l):
            row = [1]
            for _ in range(l):
                nxt = [row[-1]]
                for x in row:
                    nxt.append(nxt[-1] + x)
                row = nxt
            return row[0]

        for l in range(13):
            assert bell(l) == triangle(l)
        assert bell(12) == 4213597
        for l in range(1, 13):
            assert bell(l) * 72 > 4**l


def test_criterion_4_pair_collapse_injectivity():
    with Budget(4, 60, "restricted-pair injectivity, exhaustive over 6 atoms"):
        universe = range(6)
        small = list(perms_moving_exactly(iter(universe), 0)) + \
            list(perms_moving_exactly(iter(universe), 2))
        assert len(small) == 16
        checked = 0
        for size in range(5):
            for c_atoms in itertools.combinations(universe, size):
                region = frozenset(c_atoms)

                def eligible(s):
                    return all(s(x) in region for x in s.moved - region)

                pool = [s for s in small if eligible(s)]
                sig = {s: (s.deflate(s.moved - region),
                           frozenset(x for x in region if s(x) not in region))
                       for s in pool}
                for s, s2 in itertools.product(pool, pool):
                    compatible = all(
                        s(x) == s2(x)
                        for x in region
                        if s(x) not in region and s2(x) not in region)
                    if not compatible:
                        continue
                    checked += 1
                    if sig[s] == sig[s2]:
                        assert s == s2, f"collision: {s} vs {s2} with C={sorted(region)}"
        assert checked > 0


def test_criterion_5_strict_low_n_violation():
    with Budget(5, 1, "strict run refutes any bound-1 oracle below two moved points"):
        cert = PermDiagEngine(1, 1, truncate_oracle(1), mode="strict").run(1)
        assert cert["kind"] == "ledger-violation"
        assert len(cert["outputs"]) == 2
        assert cert["violation"]["output"] == "()"
        assert len(cert["violation"]["witnesses"]) == 2
        assert cert["all_distinct"]


def test_criterion_6_opportunistic_permutation_run():
    with Budget(6, 60, "opportunistic permutation engine, 200 steps or violation"):
        cert = PermDiagEngine(2, 1, truncate_oracle(2), mode="opportunistic",
                              seed_count=64).run(200)
        if cert["kind"] == "perm-diag":
            assert cert["steps"] == 200
        else:
            assert cert["kind"] == "ledger-violation"
            assert len(cert["violation"]["witnesses"]) == 2
        assert cert["all_distinct"]
        assert len(cert["outputs"]) == len(set(cert["outputs"]))
        for trace in expand_traces(cert):
            claimed = set()
            for entry in trace["family"]:
                member = FinPerm.parse(entry["t"])
                assert member.moved, "family members are nontrivial"
                assert len(member.moved) <= 4
                assert not (member.moved & claimed)
                assert len(claimed) <= 4 * entry["l"]
                claimed |= member.moved


def test_criterion_7_partition_engine_run():
    with Budget(7, 60, "partition engine, 100 steps or violation"):
        cert = PartitionDiagEngine(1, min_block_oracle).run(100)
        if cert["kind"] == "part-diag":
            assert cert["steps"] == 100
        else:
            assert cert["kind"] == "ledger-violation"
            assert len(cert["violation"]["witnesses"]) == 2
        assert cert["all_distinct"]
        for trace in expand_traces(cert):
            m, l, values = trace["m"], trace["l"], trace["C"]
            assert m <= len(values)          # k == 1
            assert len(values) <= 2**l
            if m > 72:
                assert 72 < 2**l


def test_criterion_8_quotient_machinery():
    with Budget(8, 5, "quotient frame worked example and properties"):
        frame = build_frame([frozenset({1, 2}), frozenset({2, 3})])
        assert frame.classes == (frozenset({3}), frozenset({1}), frozenset({2}))
        assert frame.l == 3
        rng = random.Random(8)
        for _ in range(300):
            count = rng.randint(0, 5)
            values = []
            seen = set()
            for _ in range(count):
                v = frozenset(rng.sample(range(10), rng.randint(0, 4)))
                if v not in seen:
                    seen.add(v)
                    values.append(v)
            fr = build_frame(values)
            union = set().union(*values) if values else set()
            assert sorted(a for cls in fr.classes for a in cls) == sorted(union)
            assert all(a < b for a, b in zip(masks(fr), masks(fr)[1:]))
            for cls, mask in zip(fr.classes, masks(fr)):
                for a in cls:
                    assert mask == sum(1 << (len(values) - 1 - i)
                                       for i, v in enumerate(values) if a in v)
            contained = [frozenset(i for i in range(fr.l) if fr.classes[i] <= v)
                         for v in values]
            assert len(set(contained)) == len(values)


def test_criterion_9_support_probe_scans():
    with Budget(9, 10, "support probe scans with verified conjugation witnesses"):
        report = scan(SupportConfig(frozenset({0}), 2, 6))
        assert report["pairs"] == 400
        assert report["escapes"] == 0
        assert (report["missing_moved"] + report["extra_outside"]
                + report["forced_fixed_point"]) == 400

        report7 = scan(SupportConfig(frozenset({0}), 3, 7))
        assert report7["pairs"] == 12600
        assert report7["escapes"] == 0
        assert (report7["missing_moved"] + report7["extra_outside"]
                + report7["forced_fixed_point"]) == 12600

        for cfg in (SupportConfig(frozenset({0}), 2, 6),
                    SupportConfig(frozenset({0}), 3, 7)):
            carrier = range(cfg.carrier_size)
            s_pool = perms_moving_exactly(
                (a for a in carrier if a not in cfg.support), cfg.n)
            t_pool = list(perms_moving_exactly(iter(carrier), cfg.n + 1))
            branch3 = 0
            for s in s_pool:
                s_inv = s.inverse()
                for t in t_pool:
                    verdict = classify(s, t, cfg)
                    if not isinstance(verdict, ForcedFixedPoint):
                        continue
                    branch3 += 1
                    conj = verdict.conjugate
                    probe_atoms = t.moved | conj.moved | {verdict.support_atom}
                    for a in probe_atoms:
                        assert conj(a) == s(t(s_inv(a)))
                    assert any(conj(a) != t(a) for a in probe_atoms)
                    assert verdict.image == t(verdict.support_atom)
                    assert verdict.image in s.moved
            assert branch3 > 0


def test_criterion_10_restriction_operator():
    with Budget(10, 1, "orbit restriction, randomized and worked cases"):
        c = FinPerm.cycle
        s = c([1, 2, 3])
        assert s.deflate(s.moved - {1, 3}) == c([1, 3])
        assert c([1, 2]).deflate(()) == c([1, 2])
        assert c([1, 2, 3, 4]).deflate({2}) == c([1, 3, 4])

        rng = random.Random(10)
        for _ in range(1000):
            size = rng.randint(0, 8)
            if size == 1:
                size = 2
            support = rng.sample(range(20), size)
            image = support[:]
            rng.shuffle(image)
            s = FinPerm(dict(zip(support, image)))
            marked = frozenset(rng.sample(range(20), rng.randint(0, 10)))
            # the region is the complement of marked or marked itself, and
            # deflating onto it pushes off marked or the moved atoms outside it
            cofinite = rng.random() < 0.5
            result = s.deflate(marked if cofinite else s.moved - marked)
            region = {a for a in s.moved | result.moved if (a in marked) != cofinite}
            assert all(a in region for a in result.moved)
            for a in s.moved | result.moved:
                if a not in region:
                    assert result(a) == a
                else:
                    assert result(a) in region
            assert s.deflate(()) == s


def test_criterion_11_cli_determinism(tmp_path, capsys):
    with Budget(11, 5, "byte-identical JSON on repeated runs"):
        commands = [
            ["inject", "--n", "2", "--m", "4", "--perm", "(20;21)"],
            ["decode", "--n", "2", "--m", "4", "--perm", "(0;1)(20;21)"],
            ["diag-perm", "--n", "1", "--k", "1", "--oracle", "truncate",
             "--mode", "strict", "--steps", "1"],
            ["diag-perm", "--n", "2", "--k", "1", "--oracle", "truncate",
             "--mode", "opportunistic", "--seeds", "16", "--steps", "8"],
            ["diag-part", "--k", "1", "--oracle", "min-block", "--steps", "3"],
            ["fraenkel", "--atoms", "6", "--support", "{0}", "--n", "2"],
            ["bell", "--upto", "6"],
            ["bounds", "--n", "1", "--k", "1"],
        ]
        for idx, args in enumerate(commands):
            first = tmp_path / f"{idx}_a.json"
            second = tmp_path / f"{idx}_b.json"
            assert main(args + ["--json", str(first)]) == 0
            assert main(args + ["--json", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes()
            json.loads(first.read_text())
        capsys.readouterr()
