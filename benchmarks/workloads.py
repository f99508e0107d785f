"""The five workloads of the fiberbound benchmark.

Each workload turns a seed into the inputs of one round (``prepare``,
untimed), runs the round against the public API (``execute``, the timed
part, which also serializes every certificate as the CLI does), and checks
every output (``check``, untimed).  A run repeats the same round, so every
round does the same work.  An item is the unit whose latency is reported:
an engine step, a refutation claim, a support scan or one encode/decode
round trip.

The seed picks the engines' ``instance_id`` (their base atoms), the atom
offset of the benchmark's own permutation oracle, the support atoms of the
scans, the spare codec atoms and the refutation mix.  The program receives
only the generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

from fiberbound import fraenkel, inject
from fiberbound.atoms import format_atom_set
from fiberbound.errors import FiberboundError
from fiberbound.oracles import (min_block_oracle, pool_perm_oracle, pool_set_oracle,
                                truncate_oracle)
from fiberbound.partition_engine import PartitionDiagEngine
from fiberbound.partitions import FinitaryPartition, derangement
from fiberbound.perm_engine import PermDiagEngine
from fiberbound.perms import FinPerm

PINS_PATH = Path(__file__).with_name("pins.json")

# instance_id 0..8 puts the engines' base atoms at 1000..9000, so every atom
# they emit has four digits and certificate sizes do not depend on the seed.
INSTANCES = 9
# Every atom the bench oracle returns has eleven digits, so the perm-stream
# certificate size does not depend on the seed either.
ORACLE_OFFSETS = (10**10, 2 * 10**10, 3 * 10**10, 4 * 10**10)
_HASH_MOD = (1 << 61) - 1
_HASH_SLOTS = 1 << 30
REFUTE_STEP_CAP = 2000
# Claims over permutations (n=2, opportunistic).  A truncate claim's cost
# depends on k alone, and a pool:1 claim's on k alone; pool:2 varies a
# little with the hash of the inputs.  Fixed parameters keep a round's cost
# the same for every seed.
REFUTE_TRUNCATE_KS = (8, 11, 14, 17, 20)
REFUTE_POOLS = ((1, 80), (1, 110), (2, 55))      # (P, k) with P * k above the 64 seeds
CARRIER = 8


def serialize(cert) -> str:
    """Certificate text exactly as the CLI writes it (without the newline)."""
    return json.dumps(cert)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def stream_digest(cert: dict) -> str:
    """Digest of the fields a format change must not alter; "bad" if absent."""
    try:
        return sha256(json.dumps([cert["kind"], cert["steps"], cert["outputs"], cert["violation"]]))
    except (KeyError, TypeError):
        return "bad"


def bench_perm_oracle(offset: int):
    """Stateless oracle sending ``s`` to a transposition on two fresh atoms.

    The atoms come from a polynomial hash of the moved map, so the oracle is
    the same in every process and on every Python version, and it is
    injective on every input the perm-stream workload produces (the pinned
    digests would catch a collision as a ledger violation).
    """

    def oracle(s: FinPerm) -> FinPerm:
        h = 0
        for a, b in sorted(s.moved_map.items()):
            h = (h * 1_000_003 + a * 65_537 + b) % _HASH_MOD
        atom = offset + 2 * (h % _HASH_SLOTS)
        return FinPerm.cycle([atom, atom + 1])

    return oracle


class Checks:
    """Counts output checks; a check that raises counts as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def expect(self, label: str, test) -> None:
        self.attempted += 1
        try:
            ok = bool(test())
        except (KeyError, IndexError, TypeError, ValueError, AttributeError, FiberboundError):
            ok = False
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(label)


def _run_timing_steps(engine, steps: int, items: list[int]) -> dict:
    """``engine.run(steps)``, recording the latency of every step in ``items`` (ns)."""
    inner = engine.step

    def step():
        t0 = perf_counter_ns()
        try:
            return inner()
        finally:
            items.append(perf_counter_ns() - t0)

    engine.step = step
    try:
        return engine.run(steps)
    finally:
        # the wrapper refers back to the engine; dropping it lets the engine
        # be freed at once instead of by a later cyclic collection
        del engine.step


def _load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class _Stream:
    """An engine run to a fixed step count; one item is one ``step()``."""

    name = ""
    kind = ""

    def __init__(self, steps: int):
        self.steps = steps
        self._pins = None

    def pin(self, key: str):
        if self._pins is None:
            self._pins = _load_pins()
        return self._pins.get(key)

    def execute(self, state, items, spans):
        with spans("engine-run"):
            cert = _run_timing_steps(state[1], self.steps, items)
            text = serialize(cert)
        return cert, [text]

    def check(self, state, result, checks: Checks) -> list[str]:
        cert = result
        key = self.pin_key(state[0])
        checks.expect(f"{key}: kind", lambda: cert["kind"] == self.kind)
        checks.expect(f"{key}: steps", lambda: cert["steps"] == self.steps)
        checks.expect(f"{key}: all_distinct",
                      lambda: cert["all_distinct"] is True
                      and len(set(cert["outputs"])) == len(cert["outputs"]))
        checks.expect(f"{key}: no violation", lambda: cert["violation"] is None)
        digest = stream_digest(cert)
        checks.expect(f"{key}: digest", lambda: digest == self.pin(key))
        return [digest]


class PartStream(_Stream):
    """``PartitionDiagEngine(k=2, min_block_oracle)``: never collides at k=2."""

    name = "part-stream"
    kind = "part-diag"

    def __init__(self, tiny: bool = False):
        super().__init__(3 if tiny else 60)

    def params(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}/{seed}")
        return {"iid": rng.randrange(INSTANCES)}

    def pin_key(self, p: dict) -> str:
        return f"{self.name}/steps={self.steps}/iid={p['iid']}"

    def all_params(self):
        return [{"iid": i} for i in range(INSTANCES)]

    def prepare(self, seed, wrap, p=None):
        p = p or self.params(seed)
        return p, PartitionDiagEngine(2, wrap(min_block_oracle), p["iid"])


class PermStream(_Stream):
    """``PermDiagEngine(n=2, k=1, opportunistic, 64 seeds)`` on the bench oracle."""

    name = "perm-stream"
    kind = "perm-diag"

    def __init__(self, tiny: bool = False):
        super().__init__(5 if tiny else 200)

    def params(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}/{seed}")
        return {"iid": rng.randrange(INSTANCES), "offset": rng.choice(ORACLE_OFFSETS)}

    def pin_key(self, p: dict) -> str:
        return f"{self.name}/steps={self.steps}/iid={p['iid']}/offset={p['offset']}"

    def all_params(self):
        return [{"iid": i, "offset": o} for i in range(INSTANCES) for o in ORACLE_OFFSETS]

    def prepare(self, seed, wrap, p=None):
        p = p or self.params(seed)
        oracle = wrap(bench_perm_oracle(p["offset"]))
        return p, PermDiagEngine(2, 1, oracle, "opportunistic", 64, p["iid"])


@dataclass(frozen=True)
class Claim:
    """A claimed bounded-fiber oracle that the engine must refute."""

    domain: str          # "perm" or "part"
    oracle: str          # "truncate", "pool:P" or "min-block"
    n: int | None
    k: int
    mode: str | None
    iid: int

    def make_oracle(self):
        if self.oracle == "truncate":
            return truncate_oracle(self.n)
        if self.oracle == "min-block":
            return min_block_oracle
        pool = int(self.oracle.split(":", 1)[1])
        if self.domain == "perm":
            return pool_perm_oracle(pool, self.n)
        return pool_set_oracle(pool)


class Refute:
    """A seeded batch of claims, each of which must end in a ledger violation.

    The batch of 15: ``truncate`` over permutations for k = 8..20 and three
    ``pool:P`` claims over permutations (n=2, opportunistic; every pool
    step is a fresh-transposition fallback), ``pool:P`` over partitions for
    k = 1, 2, 3, two ``min-block`` claims at k=1, and two strict ``n=1``
    claims.  The seed picks every claim's ``instance_id``, the partition
    pool sizes, the strict claims' oracles and the order.  One item is one
    claim, from engine construction to serialized certificate.  The seven
    partition and strict claims take a few milliseconds each and the
    permutation claims tens, so the median item is the cheapest permutation
    claim (pool:1, k=80), whose cost does not depend on the seed.
    """

    name = "refute"

    def __init__(self, tiny: bool = False):
        pass  # a batch is already small

    def claims(self, seed: int) -> list[Claim]:
        rng = random.Random(f"{self.name}/{seed}")
        iid = lambda: rng.randrange(INSTANCES)  # noqa: E731
        out = [Claim("perm", "truncate", 2, k, "opportunistic", iid()) for k in REFUTE_TRUNCATE_KS]
        out += [Claim("perm", f"pool:{p}", 2, k, "opportunistic", iid()) for p, k in REFUTE_POOLS]
        out += [Claim("part", f"pool:{rng.randint(2, 10)}", None, k, None, iid()) for k in (1, 2, 3)]
        out += [Claim("part", "min-block", None, 1, None, iid()) for _ in range(2)]
        out += [Claim("perm", rng.choice(("truncate", f"pool:{rng.randint(2, 10)}")), 1, k,
                      "strict", iid()) for k in (1, 2)]
        rng.shuffle(out)
        return out

    def prepare(self, seed, wrap):
        return [(c, wrap(c.make_oracle())) for c in self.claims(seed)]

    def execute(self, state, items, spans):
        certs, texts = [], []
        for claim, oracle in state:
            with spans("claim"):
                t0 = perf_counter_ns()
                if claim.domain == "perm":
                    engine = PermDiagEngine(claim.n, claim.k, oracle, claim.mode, 64, claim.iid)
                else:
                    engine = PartitionDiagEngine(claim.k, oracle, claim.iid)
                cert = engine.run(REFUTE_STEP_CAP)
                texts.append(serialize(cert))
                items.append(perf_counter_ns() - t0)
            certs.append(cert)
        return certs, texts

    def check(self, state, result, checks: Checks) -> list[str]:
        digests = []
        for (claim, _), cert in zip(state, result):
            checks.expect(f"{claim}: ledger-violation",
                          lambda: cert["kind"] == "ledger-violation")
            checks.expect(f"{claim}: violation re-queried",
                          lambda: refutation_holds(claim, cert["violation"]))
            digests.append(stream_digest(cert))
        checks.expect("refute: one certificate per claim", lambda: len(result) == len(state))
        return digests


def refutation_holds(claim: Claim, violation: dict) -> bool:
    """``k + 1`` distinct witnesses that a fresh copy of the named oracle
    sends to the stated output."""
    witnesses = violation["witnesses"]
    if len(witnesses) != claim.k + 1 or len(set(witnesses)) != len(witnesses):
        return False
    oracle = claim.make_oracle()
    for text in witnesses:
        if claim.domain == "perm":
            out = oracle(FinPerm.parse(text)).to_cycles()
        else:
            out = format_atom_set(oracle(FinitaryPartition.parse(text)))
        if out != violation["output"]:
            return False
    return True


class SupportScan:
    """``fraenkel.scan`` at carrier 8 (the cap) for n=2, one scan per |E|.

    One item is one scan.  The support atoms are seeded; by symmetry of the
    carrier the branch counts depend only on ``|E|``.
    """

    name = "support-scan"
    n = 2

    def __init__(self, tiny: bool = False):
        self.support_sizes = (3, 4) if tiny else (0, 1, 2, 3, 4)

    def prepare(self, seed, wrap):
        rng = random.Random(f"{self.name}/{seed}")
        return [fraenkel.SupportConfig(frozenset(rng.sample(range(CARRIER), e)), self.n, CARRIER)
                for e in self.support_sizes]

    def execute(self, state, items, spans):
        reports, texts = [], []
        for cfg in state:
            with spans("scan"):
                t0 = perf_counter_ns()
                report = fraenkel.scan(cfg)
                texts.append(serialize(report))
                items.append(perf_counter_ns() - t0)
            reports.append(report)
        return reports, texts

    def check(self, state, result, checks: Checks) -> list[str]:
        for cfg, rep in zip(state, result):
            e = len(cfg.support)
            pairs = (math.comb(CARRIER - e, cfg.n) * derangement(cfg.n)
                     * math.comb(CARRIER, cfg.n + 1) * derangement(cfg.n + 1))
            checks.expect(f"scan |E|={e}: no escapes", lambda: rep["escapes"] == 0)
            checks.expect(f"scan |E|={e}: branches sum to pairs",
                          lambda: rep["missing_moved"] + rep["extra_outside"]
                          + rep["forced_fixed_point"] == rep["pairs"] == pairs)
            checks.expect(f"scan |E|={e}: config echoed",
                          lambda: rep["E"] == sorted(cfg.support) and rep["carrier"] == CARRIER)
        checks.expect("scan: one report per config", lambda: len(result) == len(state))
        return [sha256(serialize(rep)) for rep in result]


class Codec:
    """Exhaustive ``encode`` -> ``decode`` over ``perms_moving_exactly`` pools.

    The tableaux are those of acceptance criterion 1; each pool is the
    reserved atoms plus four seeded spare atoms.  One item is one
    permutation, encoded and decoded.
    """

    name = "codec"
    POOL_SIZES = {(2, 4): 153, (2, 5): 300, (3, 5): 11968}

    def __init__(self, tiny: bool = False):
        self.tableaux = ((2, 4), (2, 5)) if tiny else ((2, 4), (2, 5), (3, 5))

    def prepare(self, seed, wrap):
        rng = random.Random(f"{self.name}/{seed}")
        out = []
        for n, m in self.tableaux:
            tab = inject.Tableau(n, m)
            spare = len(tab.reserved) + rng.randrange(60)
            out.append((tab, sorted(tab.reserved) + list(range(spare, spare + 4))))
        return out

    def execute(self, state, items, spans):
        sweeps, texts = [], []
        for tab, atoms in state:
            with spans("sweep"):
                pool = list(fraenkel.perms_moving_exactly(iter(atoms), tab.n))
                rows = []
                for s in pool:
                    t0 = perf_counter_ns()
                    image, _ = inject.encode(s, tab)
                    back = inject.decode(image, tab)
                    items.append(perf_counter_ns() - t0)
                    rows.append((s, image, back))
                texts.append(serialize({"kind": "codec", "n": tab.n, "m": tab.m,
                                        "pairs": [[s.to_cycles(), image.to_cycles()]
                                                  for s, image, _ in rows]}))
            sweeps.append(rows)
        return sweeps, texts

    def check(self, state, result, checks: Checks) -> list[str]:
        for (tab, _), rows in zip(state, result):
            label = f"codec ({tab.n},{tab.m})"
            checks.expect(f"{label}: pool size",
                          lambda: len(rows) == self.POOL_SIZES[(tab.n, tab.m)])
            for s, image, back in rows:
                checks.expect(f"{label}: {s} round trip",
                              lambda: back == s and len(image.moved) == tab.m)
            checks.expect(f"{label}: images distinct",
                          lambda: len({image for _, image, _ in rows}) == len(rows))
        checks.expect("codec: one sweep per tableau", lambda: len(result) == len(state))
        return [sha256(repr([(str(s), str(i)) for s, i, _ in rows])) for rows in result]


WORKLOADS = {w.name: w for w in (PartStream, PermStream, Refute, SupportScan, Codec)}


def make(name: str, tiny: bool = False):
    return WORKLOADS[name](tiny)


def no_spans(_name):
    return nullcontext()
