import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fiberbound import oracles
from fiberbound.atoms import fresh_atoms, parse_atom_set
from fiberbound.auditing import OracleLedger, compute_bounds
from fiberbound.cli import main
from fiberbound.errors import (BadParametersError, BudgetExceededError, OracleCodomainError,
                               ParseError)
from fiberbound.fraenkel import SupportConfig, perms_moving_exactly
from fiberbound.inject import Tableau
from fiberbound.oracles import (POOL_CAP, _stable_index, from_spec, min_block_oracle,
                                pool_perm_oracle, pool_set_oracle, truncate_oracle)
from fiberbound.partition_engine import PartitionDiagEngine
from fiberbound.partitions import (FinitaryPartition, bell, build_frame, derangement,
                                   iter_partitions_ranked)
from fiberbound.perm_engine import (FamilyIndex, PermDiagEngine, build_family,
                                    stuck_answer_bound)
from fiberbound.perms import FinPerm

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bell(capsys):
    code, out, _ = run_cli(["bell", "--upto", "6"], capsys)
    assert code == 0
    assert out.strip() == "1 1 2 5 15 52 203"


def test_bounds(capsys):
    code, out, _ = run_cli(["bounds", "--n", "1", "--k", "1"], capsys)
    assert code == 0
    assert "l0 = 8" in out and "m0 = 256" in out


@pytest.mark.parametrize("n, m, perm, record", [
    (2, 4, "(20;21)", {"image": "(0;1)(20;21)", "level": 0, "swap": "()",
                       "conjugated": "(20;21)", "marker_cycle": "(0;1)"}),
    (3, 5, "(1;40;41)", {"image": "(2;3)(5;40;41)", "level": 1, "swap": "(1;5)",
                         "conjugated": "(5;40;41)", "marker_cycle": "(2;3)"}),
    (2, 4, "(0;2)", {"image": "(6;7)(8;10)", "level": 2, "swap": "(0;8)(2;10)",
                     "conjugated": "(8;10)", "marker_cycle": "(6;7)"}),
    (3, 5, "(0;2;6)", {"image": "(14;15)(16;18;22)", "level": 3,
                       "swap": "(0;16)(2;18)(6;22)", "conjugated": "(16;18;22)",
                       "marker_cycle": "(14;15)"}),
], ids=["level-0", "level-1", "level-2", "level-3"])
def test_inject_golden_records(n, m, perm, record, capsys, tmp_path):
    path = tmp_path / "inject.json"
    code, out, _ = run_cli(["inject", "--n", str(n), "--m", str(m), "--perm", perm,
                            "--json", str(path)], capsys)
    assert code == 0
    full = {"kind": "inject", "n": n, "m": m, "perm": perm, **record}
    assert path.read_text() == json.dumps(full) + "\n"
    assert out == (f"image: {record['image']}\nlevel: {record['level']}\n"
                   f"swap: {record['swap']}\nconjugated: {record['conjugated']}\n"
                   f"marker cycle: {record['marker_cycle']}\n")
    code, out, _ = run_cli(["decode", "--n", str(n), "--m", str(m), "--perm", record["image"]],
                           capsys)
    assert code == 0
    assert out == f"decoded: {perm}\n"


def test_decode_domain_error(capsys):
    # (2;3) is level 1's marker cycle, but (30;31) encodes at level 0, as (0;1)(30;31)
    for perm, message in [("()", "permutation moves no reserved level"),
                          ("(2;3)(30;31)", "re-encoding the reconstruction differs")]:
        code, out, err = run_cli(["decode", "--n", "2", "--m", "4", "--perm", perm], capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")


def test_parse_error_is_domain_error(capsys):
    code, _, err = run_cli(["inject", "--n", "2", "--m", "4", "--perm", "(1)"], capsys)
    assert code == 1
    assert "error:" in err


INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(INT_DIGITS == 0, reason="int() reads decimal strings of any length")
@pytest.mark.parametrize("command", ["inject", "decode"])
def test_over_long_atom_is_a_parse_error(command, capsys):
    # one digit past the limit of int() on a decimal string
    perm = "(" + "9" * (INT_DIGITS + 1) + ";1)"
    code, out, err = run_cli([command, "--n", "2", "--m", "4", "--perm", perm], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: bad atom in cycle notation")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("args", [
    ["diag-part", "--k", "1"],
    ["diag-perm", "--n", "2", "--k", "1", "--mode", "opportunistic"],
], ids=["diag-part", "diag-perm"])
def test_over_long_pool_size_is_over_the_cap(args, capsys):
    # past the limit of int() on a decimal string, so refused by its length
    digits = "9" * 5000
    code, out, err = run_cli(args + ["--oracle", "pool:" + digits, "--steps", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: pool size of 5000 digits is over the cap 1024\n"
    assert "Traceback" not in err and "99999" not in err


def test_pool_size_length_ignores_leading_zeros():
    # 5,001 digits, past the limit of int(), but the size is 7
    spec = "pool:" + "0" * 5000 + "7"
    oracle, reference = from_spec("part", spec), pool_set_oracle(7)
    for x in FROM_SPEC_INPUTS["part"]:
        assert oracle(x) == reference(x)


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["inject", "--n", "2"])
    assert exc.value.code == 2


def test_unknown_oracle(capsys):
    code, _, err = run_cli(["diag-perm", "--n", "1", "--k", "1",
                            "--oracle", "nope"], capsys)
    assert code == 1
    assert "unknown" in err


@pytest.mark.parametrize("args, message", [
    (["diag-perm", "--n", "2", "--k", "0"], "error: k must be at least 1"),
    (["bounds", "--n", "1", "--k", "0"], "error: k must be at least 1"),
    (["diag-perm", "--n", "2", "--k", "1", "--oracle", "pool:abc"], "pool size"),
    (["diag-part", "--k", "1", "--oracle", "pool:abc"], "pool size"),
    (["bell", "--upto", "-1"], "error: upto must be non-negative"),
    (["inject", "--n", "40", "--m", "42", "--perm", "(1;2)"], "reserves more than"),
    (["fraenkel", "--atoms", "8", "--support", "{}", "--n", "6"], "over the cap"),
    (["fraenkel", "--atoms", "2000002", "--support", "{}", "--n", "2000000"], "over the cap 10000"),
    (["diag-part", "--k", "1000", "--steps", "1"],
     "error: the run needs 72000001 seeds, over the cap 1000000"),
    (["diag-perm", "--n", "2", "--k", "1", "--mode", "opportunistic", "--seeds", "2000000",
      "--steps", "1"], "error: the run needs 2000000 seeds, over the cap 1000000"),
    (["diag-perm", "--n", "2", "--k", "1", "--mode", "opportunistic", "--seeds", "0"],
     "error: seed count must be at least 1"),
    (["diag-part", "--k", "1", "--oracle", "bogus"], "error: unknown diag-part oracle 'bogus'"),
    (["diag-part", "--k", "1", "--oracle", "pool:100000", "--steps", "1"],
     "error: pool size 100000 is over the cap 1024"),
    (["diag-perm", "--n", "2", "--k", "1", "--oracle", "pool:100000000", "--mode", "opportunistic"],
     "error: pool size 100000000 is over the cap 1024"),
    # int() reads each of these as a pool size; only ASCII digits spell one
    (["diag-part", "--k", "1", "--oracle", "pool: 5"],
     "error: pool size must be an integer, got 'pool: 5'"),
    (["diag-part", "--k", "1", "--oracle", "pool:+5"],
     "error: pool size must be an integer, got 'pool:+5'"),
    (["diag-part", "--k", "1", "--oracle", "pool:1_0"],
     "error: pool size must be an integer, got 'pool:1_0'"),
    (["diag-part", "--k", "1", "--oracle", "pool:\u0661\u0660"],
     "error: pool size must be an integer, got 'pool:\u0661\u0660'"),
    # int() reads each of these as an atom; only ASCII digits spell one
    (["fraenkel", "--atoms", "8", "--support", "{+1}", "--n", "2"],
     "error: bad atom in set: '{+1}'"),
    (["fraenkel", "--atoms", "16", "--support", "{1_0}", "--n", "2"],
     "error: bad atom in set: '{1_0}'"),
    (["fraenkel", "--atoms", "8", "--support", "{\u0663}", "--n", "2"],
     "error: bad atom in set: '{\u0663}'"),
    (["fraenkel", "--atoms", "8", "--support", "{ 1 , 2 }", "--n", "2"],
     "error: bad atom in set: '{ 1 , 2 }'"),
    (["fraenkel", "--atoms", "8", "--support", " {0} ", "--n", "2"],
     "error: bad atom in set: ' {0} '"),
    (["bounds", "--n", "10000000", "--k", "1"],
     "error: m0 exceeds the 2**63-1 guard for n=10000000, k=1"),
    # the permutation is read before the tableau is built
    (["inject", "--n", "2", "--m", "5", "--perm", "(5;5)"],
     "error: repeated atom in cycle '(5;5)' in '(5;5)'"),
    (["decode", "--n", "2", "--m", "5", "--perm", "(1;2)(2;3)"],
     "error: atom repeated across cycles in '(1;2)(2;3)'"),
], ids=["diag-perm-k0", "bounds-k0", "diag-perm-pool-abc", "diag-part-pool-abc", "bell-negative",
        "inject-tableau-too-large", "fraenkel-work-too-large", "fraenkel-huge-n",
        "diag-part-seed-cap", "diag-perm-seed-cap", "diag-perm-seeds-0", "diag-part-bogus-oracle",
        "diag-part-pool-cap", "diag-perm-pool-cap", "diag-part-pool-space", "diag-part-pool-plus",
        "diag-part-pool-underscore", "diag-part-pool-arabic-indic", "fraenkel-support-plus",
        "fraenkel-support-underscore", "fraenkel-support-arabic-indic",
        "fraenkel-support-spaces", "fraenkel-support-outer-spaces", "bounds-huge-n", "inject-repeated-in-cycle", "decode-repeated-across-cycles"])
def test_bad_parameters_are_domain_errors(args, message, capsys, monkeypatch):
    # a refused run is refused at once, before any seed is built: the seed
    # constructors the engines pass to the driver are never called, nor is
    # FinPerm.cycle, which builds the tableau's levels and the pool oracle
    def no_seeds(*_):
        raise AssertionError("seeds built for a refused run")

    monkeypatch.setattr("fiberbound.partition_engine.FinitaryPartition", no_seeds)
    monkeypatch.setattr("fiberbound.perm_engine._transposition", no_seeds)
    monkeypatch.setattr(FinPerm, "cycle", no_seeds)
    start = time.perf_counter()
    code, out, err = run_cli(args, capsys)
    assert time.perf_counter() - start < 10
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and message in err
    assert len(err.strip().splitlines()) == 1


LIBRARY_GUARDS = {
    # library entry points whose argument checks no command-line run reaches
    "bounds-negative-n": (lambda: compute_bounds(-1, 1), BadParametersError,
                          "n must be non-negative"),
    "ledger-k0": (lambda: OracleLedger(0, str), BadParametersError, "k must be at least 1"),
    "truncate-negative-n": (lambda: truncate_oracle(-1), BadParametersError,
                            "n must be non-negative"),
    "perm-pool-empty": (lambda: pool_perm_oracle(0, 2), BadParametersError,
                        "pool size must be at least 1"),
    "set-pool-empty": (lambda: pool_set_oracle(0), BadParametersError,
                       "pool size must be at least 1"),
    "perm-pool-over-cap": (lambda: pool_perm_oracle(POOL_CAP + 1, 2), BudgetExceededError,
                           "pool size 1025 is over the cap 1024"),
    "set-pool-over-cap": (lambda: pool_set_oracle(POOL_CAP + 1), BudgetExceededError,
                          "pool size 1025 is over the cap 1024"),
    "family-no-values": (lambda: build_family([], 0, FamilyIndex()), BadParametersError,
                         "need at least one value"),
    "family-float-m": (lambda: build_family([], 1.5, FamilyIndex()), BadParametersError,
                       "m must be an int, got 1.5"),
    "family-bool-m": (lambda: build_family([], True, FamilyIndex()), BadParametersError,
                      "m must be an int, got True"),
    "engine-bogus-mode": (lambda: PermDiagEngine(2, 1, truncate_oracle(2), mode="bogus"),
                          BadParametersError, "unknown mode 'bogus'"),
    "atom-set-unbalanced": (lambda: parse_atom_set("{1,2"), ParseError,
                            "unbalanced braces in atom set: '{1,2'"),
    "atom-set-negative": (lambda: parse_atom_set("{-1}"), ParseError,
                          "negative atom in set: '{-1}'"),
    # engine parameters are ints exactly: a bool or a float is refused before any seed
    "bounds-float-k": (lambda: compute_bounds(2, 1.5), BadParametersError,
                       "k must be an int, got 1.5"),
    "part-engine-bool-k": (lambda: PartitionDiagEngine(True, min_block_oracle),
                           BadParametersError, "k must be an int, got True"),
    "part-engine-float-k": (lambda: PartitionDiagEngine(1.5, min_block_oracle),
                            BadParametersError, "k must be an int, got 1.5"),
    "strict-engine-bool-n": (lambda: PermDiagEngine(True, True, truncate_oracle(1)),
                             BadParametersError, "n must be an int, got True"),
    "engine-float-n": (lambda: PermDiagEngine(2.0, 1, truncate_oracle(2), "opportunistic"),
                       BadParametersError, "n must be an int, got 2.0"),
    "engine-float-seed-count": (lambda: PermDiagEngine(2, 1, truncate_oracle(2), "opportunistic",
                                                       4.0),
                                BadParametersError, "seed count must be an int, got 4.0"),
    "ledger-float-k": (lambda: OracleLedger(1.5, str), BadParametersError,
                       "k must be an int, got 1.5"),
    "ledger-bool-k": (lambda: OracleLedger(True, str), BadParametersError,
                      "k must be an int, got True"),
    "run-float-steps": (lambda: PartitionDiagEngine(1, min_block_oracle).run(2.5),
                        BadParametersError, "steps must be an int, got 2.5"),
    # every other public count is an int exactly too, refused where it enters
    "truncate-float-n": (lambda: truncate_oracle(2.5), BadParametersError,
                         "n must be an int, got 2.5"),
    "from-spec-truncate-no-n": (lambda: from_spec("perm", "truncate"), BadParametersError,
                                "n must be an int, got None"),
    "perm-pool-float-size": (lambda: pool_perm_oracle(2.5, 2), BadParametersError,
                             "pool size must be an int, got 2.5"),
    "perm-pool-float-n": (lambda: pool_perm_oracle(3, 2.5), BadParametersError,
                          "n must be an int, got 2.5"),
    "set-pool-float-size": (lambda: pool_set_oracle(2.5), BadParametersError,
                            "pool size must be an int, got 2.5"),
    "tableau-float-n": (lambda: Tableau(2.0, 4), BadParametersError, "n must be an int, got 2.0"),
    "tableau-bool-n": (lambda: Tableau(True, 3), BadParametersError, "n must be an int, got True"),
    "tableau-float-m": (lambda: Tableau(2, 4.0), BadParametersError, "m must be an int, got 4.0"),
    "fresh-atoms-float-count": (lambda: fresh_atoms(2.5, []), BadParametersError,
                                "count must be an int, got 2.5"),
    "bell-float": (lambda: bell(2.5), BadParametersError, "l must be an int, got 2.5"),
    "derangement-float": (lambda: derangement(2.5), BadParametersError,
                          "j must be an int, got 2.5"),
    "part-engine-bool-instance": (lambda: PartitionDiagEngine(1, min_block_oracle, True),
                                  BadParametersError, "instance id must be an int, got True"),
    # checked when called, before the first draw
    "ranked-negative-l": (lambda: iter_partitions_ranked(-1), BadParametersError,
                          "l must be non-negative"),
    "ranked-bool-l": (lambda: iter_partitions_ranked(True), BadParametersError,
                      "l must be an int, got True"),
    "ranked-float-l": (lambda: iter_partitions_ranked(2.5), BadParametersError,
                       "l must be an int, got 2.5"),
    "answer-bound-bool-n": (lambda: stuck_answer_bound(True, 1), BadParametersError,
                            "n must be an int, got True"),
    "answer-bound-negative-n": (lambda: stuck_answer_bound(-1, 2), BadParametersError,
                                "n must be non-negative"),
    "answer-bound-negative-level": (lambda: stuck_answer_bound(2, -1), BadParametersError,
                                    "level must be non-negative"),
    "answer-bound-float-n": (lambda: stuck_answer_bound(2.5, 1), BadParametersError,
                             "n must be an int, got 2.5"),
    "answer-bound-bool-level": (lambda: stuck_answer_bound(2, True), BadParametersError,
                                "level must be an int, got True"),
    # each folded sign check keeps its exact message
    "fresh-atoms-negative-count": (lambda: fresh_atoms(-1, ()), BadParametersError,
                                   "count must be non-negative"),
    "part-run-zero-steps": (lambda: PartitionDiagEngine(1, min_block_oracle).run(0),
                            BadParametersError, "steps must be at least 1"),
    "perm-run-zero-steps": (lambda: PermDiagEngine(2, 1, truncate_oracle(2), "opportunistic").run(0),
                            BadParametersError, "steps must be at least 1"),
    "engine-zero-seeds": (lambda: PermDiagEngine(2, 1, truncate_oracle(2), "opportunistic", 0),
                          BadParametersError, "seed count must be at least 1"),
    "perm-pool-negative-n": (lambda: pool_perm_oracle(3, -1), BadParametersError,
                             "n must be non-negative"),
    # an atom is a non-negative int by exact type, and a bool is not one
    "perm-bool-value": (lambda: FinPerm({1: 2, 2: True}), BadParametersError,
                        "atoms must be non-negative integers"),
    "cycle-bool-atom": (lambda: FinPerm.cycle([True, 2]), BadParametersError,
                        "atoms must be non-negative integers"),
    "partition-bool-atom": (lambda: FinitaryPartition([{True, 2}]), BadParametersError,
                            "atoms must be non-negative integers"),
    "frame-bool-atom": (lambda: build_frame([{True, 5}]), BadParametersError,
                        "atoms must be non-negative integers"),
    "part-oracle-bool-answer": (lambda: PartitionDiagEngine(1, lambda p: frozenset({True})).run(1),
                                OracleCodomainError, "oracle must return finite sets of atoms"),
    "support-bool-atom": (lambda: SupportConfig(frozenset({True}), 2, 6), BadParametersError,
                          "support atoms must be non-negative integers"),
    "support-negative-atom": (lambda: SupportConfig(frozenset({-1}), 2, 6), BadParametersError,
                              "support atoms must be non-negative integers"),
    "support-float-carrier": (lambda: SupportConfig(frozenset(), 2, 6.0), BadParametersError,
                              "carrier_size must be an int, got 6.0"),
    # checked when called, before the first draw, and no table past the cap is built
    "moving-exactly-float-count": (lambda: perms_moving_exactly(iter([0, 1]), 2.5),
                                   BadParametersError, "count must be an int, got 2.5"),
    "moving-exactly-bool-count": (lambda: perms_moving_exactly(iter([0, 1]), True),
                                  BadParametersError, "count must be an int, got True"),
    "moving-exactly-bool-atom": (lambda: perms_moving_exactly(iter([True, 2]), 2),
                                 BadParametersError, "atoms must be non-negative integers"),
    "moving-exactly-count-12": (lambda: perms_moving_exactly(iter(range(12)), 12),
                                BudgetExceededError,
                                "count 12 needs D(12) derangements, over the cap 10000"),
}


@pytest.mark.parametrize("call, error, message", LIBRARY_GUARDS.values(),
                         ids=LIBRARY_GUARDS.keys())
def test_library_guards_raise_domain_errors(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


FROM_SPEC_INPUTS = {
    "perm": [FinPerm.cycle([0, 1]), FinPerm.cycle([2, 5, 3]), FinPerm.parse("(1;4)(6;9;7)"),
             FinPerm.parse("(0;3;8;2)(5;11)")],
    "part": [FinitaryPartition(()), FinitaryPartition([[3, 4]]),
             FinitaryPartition([[0, 7], [2, 5, 9]]), FinitaryPartition([[1, 2, 3, 6]])],
}


@pytest.mark.parametrize("domain, spec, direct", [
    ("perm", "truncate", lambda: truncate_oracle(2)),
    ("perm", "pool:7", lambda: pool_perm_oracle(7, 2)),
    ("part", "min-block", lambda: min_block_oracle),
    ("part", "pool:7", lambda: pool_set_oracle(7)),
], ids=["perm-truncate", "perm-pool", "part-min-block", "part-pool"])
def test_from_spec_answers_like_its_constructor(domain, spec, direct):
    oracle, reference = from_spec(domain, spec, 2), direct()
    for x in FROM_SPEC_INPUTS[domain]:
        assert oracle(x) == reference(x)


@pytest.mark.parametrize("domain, spec, error, message", [
    ("perm", "min-block", ParseError,
     "unknown diag-perm oracle 'min-block' (use truncate or pool:P)"),
    ("part", "bogus", ParseError, "unknown diag-part oracle 'bogus' (use min-block or pool:P)"),
    ("set", "min-block", ValueError, "domain must be 'perm' or 'part', got 'set'"),
], ids=["perm-unknown", "part-unknown", "unknown-domain"])
def test_from_spec_refuses_unknown_specs(domain, spec, error, message):
    with pytest.raises(error) as exc:
        from_spec(domain, spec, 2)
    assert str(exc.value) == message


def test_oracle_edge_cases():
    # below two moved points the only permutation is the identity
    oracle = pool_perm_oracle(5, 1)
    assert {oracle(FinPerm.cycle([a, a + 1 + j])).to_cycles()
            for a in range(10) for j in range(3)} == {"()"}
    assert min_block_oracle(FinitaryPartition(())) == frozenset()


def asking(oracle):
    # the oracle, wrapped to list every input it is asked, re-asks included
    asked = []

    def spy(x):
        asked.append(x)
        return oracle(x)

    return spy, asked


def test_pool_oracle_digests_each_distinct_input_once(monkeypatch):
    # the pool1 pin's run: its audits re-ask every witness, yet each distinct
    # input is digested once; a second oracle from the same call digests them
    # all again, so no answer outlives the oracle object that computed it
    digests = []
    stable_index = oracles._stable_index
    monkeypatch.setattr(oracles, "_stable_index",
                        lambda text, modulus: digests.append(text) or stable_index(text, modulus))
    spy, asked = asking(pool_perm_oracle(1, 2))
    cert = PermDiagEngine(2, 80, spy, "opportunistic", 64).run(50)
    assert cert["kind"] == "ledger-violation"
    distinct = set(asked)
    assert len(asked) > 2 * len(distinct)
    assert len(digests) == len(distinct)
    again = pool_perm_oracle(1, 2)
    for x in distinct:
        again(x)
    assert len(digests) == 2 * len(distinct)


def test_truncate_oracle_deflates_each_distinct_input_once(monkeypatch):
    # the perm-diag pin's run, counting only the deflates made inside an oracle
    inside, deflated = [], []
    deflate = FinPerm.deflate

    def counted(self, off):
        if inside:
            deflated.append(self)
        return deflate(self, off)

    def entered(oracle):
        def call(x):
            inside.append(x)
            try:
                return oracle(x)
            finally:
                inside.pop()

        return call

    monkeypatch.setattr(FinPerm, "deflate", counted)
    spy, asked = asking(entered(truncate_oracle(2)))
    PermDiagEngine(2, 8, spy, "opportunistic", 4).run(20)
    wide = {x for x in asked if len(x.moved) > 2}
    assert len(asked) > 2 * len(set(asked)) and wide
    assert len(deflated) == len(wide)
    again = entered(truncate_oracle(2))
    for x in wide:
        again(x)
    assert len(deflated) == 2 * len(wide)


@pytest.mark.parametrize("make_engine, parse", [
    (lambda: PermDiagEngine(2, 8, truncate_oracle(2), "opportunistic", 4), FinPerm.parse),
    (lambda: PermDiagEngine(2, 8, pool_perm_oracle(10, 2), "opportunistic", 8), FinPerm.parse),
    (lambda: PartitionDiagEngine(1, pool_set_oracle(1000), instance_id=7),
     FinitaryPartition.parse),
], ids=["truncate", "pool-perm", "pool-set"])
def test_reask_returns_the_recorded_answer(make_engine, parse):
    # a re-ask, even on an equal input built afresh, hands back the very
    # answer object the ledger recorded, so the audit skips its compare
    engine = make_engine()
    engine.run(20)
    for x, prior in engine.ledger.queries.items():
        assert engine.oracle(x) is prior
        assert engine.oracle(parse(str(x))) is prior


def test_stable_index_reads_the_digest_like_its_hex_form():
    # the pool oracles' pins were made with int(hexdigest, 16)
    rng = random.Random(33)
    for _ in range(3000):
        text = "".join(rng.choice("0123456789;(){},*") for _ in range(rng.randrange(40)))
        modulus = rng.choice([1, 2, 10, POOL_CAP, rng.randrange(1, 1 << 140)])
        hex_form = int(hashlib.md5(text.encode("ascii")).hexdigest(), 16) % modulus
        assert _stable_index(text, modulus) == hex_form


@pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["missing-dir", "directory"])
def test_unwritable_json_path_is_domain_error(target, capsys, tmp_path):
    path = tmp_path / target
    code, out, err = run_cli(["bell", "--upto", "3", "--json", str(path)], capsys)
    assert code == 1
    assert out.strip() == "1 1 2 5"
    assert err.startswith(f"error: cannot write {path}: ")
    assert len(err.strip().splitlines()) == 1


def test_fraenkel_report(capsys, tmp_path):
    path = tmp_path / "scan.json"
    code, out, _ = run_cli(["fraenkel", "--atoms", "6", "--support", "{0}",
                            "--n", "2", "--json", str(path)], capsys)
    assert code == 0
    report = json.loads(path.read_text())
    assert report["pairs"] == 400
    assert report["escapes"] == 0
    assert "pairs: 400" in out


def test_strict_infeasible_is_domain_error(capsys):
    code, _, err = run_cli(["diag-perm", "--n", "3", "--k", "1",
                            "--mode", "strict", "--steps", "1"], capsys)
    assert code == 1
    assert "strict mode needs 6098446 seeds (m0 = 6098445)" in err
    assert "opportunistic" in err


@pytest.mark.parametrize("args", [
    ["bell", "--upto", "8"],
    ["bounds", "--n", "1", "--k", "2"],
    ["inject", "--n", "2", "--m", "5", "--perm", "(30;31)"],
    ["decode", "--n", "2", "--m", "4", "--perm", "(0;1)(20;21)"],
    ["diag-perm", "--n", "2", "--k", "1", "--oracle", "truncate",
     "--mode", "opportunistic", "--seeds", "16", "--steps", "10"],
    ["diag-part", "--k", "1", "--oracle", "pool:6", "--steps", "2"],
    ["fraenkel", "--atoms", "6", "--support", "{0}", "--n", "2"],
])
def test_json_byte_determinism(args, capsys, tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--json", str(first)]) == 0
    assert main(args + ["--json", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_console_entry_point():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "fiberbound.cli", "bell", "--upto", "3"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1 1 2 5"
