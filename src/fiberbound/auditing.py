"""Oracle auditing: fiber ledgers, bound computation, and certificates.

An oracle is a deterministic callable paired with a claimed fiber bound
``k``.  Engines never trust the claim; every query goes through an
:class:`OracleLedger` which records the fiber of each observed output and
hands back the certificate's violation object, an output with exactly
``k + 1`` witnesses, the moment any fiber overflows.  A run therefore
always ends in one of two auditable states: a stream of pairwise distinct
constructed witnesses, or a concrete finite refutation of the claimed bound.

:class:`WitnessEngine` is the driver both witness engines share: it
checks the seed count and the base and builds the seeds, one per atom pair
``(base, base + 1 + j)``, hands out the next such pair when an engine needs
a witness past its seeds, keeps the emitted witnesses and each distinct
answer with its first index, queries the oracle once on each witness through
the ledger, whose queries are then the emitted set, walks an engine's
candidate stream to the first fresh witness, and turns a run into one of
those two outcomes as a certificate.  The certificate (format 4) names in
its header the number of seeds the run built, and its traces carry the
answers first seen at their step and the choices the step made, but not
the witness, which the certificate's ``outputs`` already hold.  Every
recorded answer is asked again on power-of-two steps and before any
certificate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .errors import BadParametersError, BudgetExceededError, InconsistentOracleError, _require_int

SEED_CAP = 1_000_000
_UNRECORDED = object()  # a recorded answer may be None
_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class BoundParams:
    """Threshold parameters for the permutation engine at some ``n`` and
    ``k``, which the caller keeps; the record holds only ``l0`` and ``m0``.

    ``l0`` is the least integer such that ``k*f(l) < 2**l`` holds for
    every ``l > l0``, and ``m0 = k*f(l0)``, for a growth function ``f``.
    :func:`compute_bounds` takes the paper's ``f(l) = (2*n*l)**(2*n)``,
    which is 1 when ``n`` is 0.  The ratio ``2**l / l**(2*n)`` is then
    nondecreasing for ``l > l0``: for ``n >= 1`` the inequality fails at
    ``l = 1`` and forces ``l > 4*n`` for ``l >= 2``.
    ``perm_engine.strict_bounds`` takes the sharp count of answers a
    stuck family admits, ``f = perm_engine.stuck_answer_bound``, and
    seeds strict runs from it.
    """

    l0: int
    m0: int


def _growth_ok(n: int, k: int, l: int) -> bool:
    return k * (2 * n * l) ** (2 * n) < 2**l


def compute_bounds(n: int, k: int) -> BoundParams:
    _require_int("n", n, 0)
    _require_int("k", k, 1)
    e = 2 * n
    # The loop ends: for n >= 1 the guard's lower bound on m0 grows with
    # the start, and for n = 0 every l > start holds once 2**(start + 1) > k.
    for start in itertools.count():
        # m0 never falls as the start grows and l0 >= 1 when n >= 1, so no
        # later start passes once this lower bound on m0 exceeds the guard;
        # bit lengths test it first, so no power far past it is built
        base = 2 * n * max(start, 1)
        if k.bit_length() - 1 + e * (base.bit_length() - 1) >= 63 or k * base**e > _INT64_MAX:
            raise BudgetExceededError(f"m0 exceeds the 2**63-1 guard for n={n}, k={k}")
        # Every l > start passes exactly when start + 1 does: past a passing
        # l >= 2, which has l > 4n, the ratio 2**l / l**e never falls, since
        # (1 - 1/(l + 1))**e >= 1 - e/(l + 1) > 1/2 (n = 0: 2 >= 1).
        if _growth_ok(n, k, start + 1):
            return BoundParams(start, k * (2 * n * start) ** e)


class OracleLedger:
    """Audit log of oracle queries keyed by value; text only for violations and errors.

    ``fibers`` counts the inputs over each distinct output; a violation
    reads its inputs back from ``queries``, in the order recorded.
    An input's text is ``str(input)``; an output's is ``serialize_output(output)``.
    The claimed bound ``k`` is an ``int`` by exact type, at least 1.
    """

    def __init__(self, k: int, serialize_output: Callable):
        _require_int("k", k, 1)
        self.k = k
        self._ser_out = serialize_output
        self.queries: dict = {}
        self.fibers: dict = {}

    def record(self, inp, out) -> Optional[dict]:
        """Record one query; idempotent on repeats.  On overflow, return the
        certificate's violation object: the output's text and the texts of
        its ``k + 1`` inputs, in the order recorded."""
        prior = self.queries.get(inp, _UNRECORDED)
        if prior is not _UNRECORDED:
            if prior != out:
                raise InconsistentOracleError(f"input {inp} mapped to both "
                                              f"{self._ser_out(prior)} and {self._ser_out(out)}")
            return None
        self.queries[inp] = out
        count = self.fibers[out] = self.fibers.get(out, 0) + 1
        if count > self.k:
            return {"output": self._ser_out(out),
                    "witnesses": [str(x) for x, y in self.queries.items() if y == out]}
        return None


def assemble_certificate(kind: str, n, k, seeds: int, steps: int,
                         outputs: list[str], violation: Optional[dict],
                         traces: list[dict]) -> dict:
    """Certificate JSON object, format 4, with its stable field order;
    ``seeds`` is the number of seed witnesses, which ``outputs`` lists first."""
    return {
        "format": 4,
        "kind": kind,
        "n": n,
        "k": k,
        "seeds": seeds,
        "steps": steps,
        "outputs": outputs,
        "all_distinct": len(set(outputs)) == len(outputs),
        "violation": violation,
        "traces": traces,
    }


class _Violated(Exception):
    def __init__(self, violation: dict):
        self.violation = violation


class _Inconsistent(Exception):
    """A step stalled where a count forbids it, so the engine, not the oracle, is at fault.

    A candidate walk that runs out, or passes more stale candidates than
    there are emitted witnesses, is one such stall; a permutation family
    stuck at level ``L`` on more than ``k*N(L)`` witnesses is the other.
    """


class WitnessEngine:
    """Driver shared by the witness engines.

    An engine supplies four things: a seed constructor, passed to
    ``__init__`` and called on each atom pair ``(base, base + 1 + j)``, for
    ``j`` below the seed count and then for each ``_next_seed``;
    ``_check_output``, the claimed codomain; ``step``, one fresh witness
    found by ``_first_fresh`` and ending in ``_emit``, which keeps the
    witness in ``g`` and its trace in ``traces``; and ``_certificate``, its
    header fields, with ``_outputs`` as the output text.
    The base is checked once, as a non-negative int, before any seed is
    built, so every seed atom is one and the seed constructor checks
    nothing again.  Each step's witness is formatted once, when the
    certificate is built, by the writer the engine hands ``_outputs``, and
    the seeds' text is written from their pairs through ``seed_format``,
    without formatting a seed object.
    ``kind`` names the certificate of a run that completes every step.
    """

    kind = ""
    seed_format = ""

    def __init__(self, k: int, oracle: Callable, instance_id: int, seed_count: int,
                 seed: Callable[[tuple[int, int]], object], serialize_output: Callable):
        self.k = k
        self.oracle = oracle
        self.ledger = OracleLedger(k, serialize_output)
        _require_int("seed count", seed_count, 1)
        if seed_count > SEED_CAP:
            raise BudgetExceededError(f"the run needs {seed_count} seeds, over the cap {SEED_CAP}")
        _require_int("instance id", instance_id)
        self.base = base = 1000 * (instance_id + 1)
        # every seed atom is at least the base, so this one check covers them all
        if base < 0:
            raise BadParametersError("atoms must be non-negative integers")
        self.g: list = [seed((base, base + 1 + j)) for j in range(seed_count)]
        self.seed_count = seed_count
        self._seed = seed
        self._next_j = seed_count
        # (answer, index of the first witness that got it), in index order
        self.answers: list = []
        self.traces: list[dict] = []
        # (key, candidate stream, candidates drawn) of the last completed walk
        self._walk = None

    def _query_new(self) -> list:
        """Ask the oracle about the witnesses emitted since the last step, in
        emission order; return the ``(answer, index)`` pairs of the answers
        recorded for the first time, in index order.

        On a step whose 1-based index is a power of two, ``_audit`` first
        re-asks about every recorded witness.  Only a new answer is checked
        against the claimed codomain.  The ledger keys one fiber per
        distinct answer, so an answer is new when ``record`` leaves more
        fibers than ``answers`` has pairs.  The ledger's ``queries`` then
        hold exactly the emitted witnesses, in emission order, and
        ``answers`` pairs each distinct answer with its first index.
        """
        queries, fibers = self.ledger.queries, self.ledger.fibers
        answers = self.answers
        start = len(answers)
        t = len(self.g) - self.seed_count + 1
        if t & (t - 1) == 0:
            self._audit()
        for idx, x in enumerate(self.g[len(queries):], len(queries)):
            out = self.oracle(x)
            self._check_output(out)
            violation = self.ledger.record(x, out)
            if violation is not None:
                raise _Violated(violation)
            if len(fibers) > len(answers):
                answers.append((out, idx))
        return answers[start:]

    def _audit(self) -> None:
        """Re-ask every recorded witness in emission order; a changed answer raises.

        An answer equal to the recorded one is done with here, by the same
        ``prior != out`` test ``record`` makes; only a changed one goes on to
        ``record``, which raises :class:`InconsistentOracleError` with its
        one wording of the message.  The recorded object itself, which a
        memoizing oracle hands back, is equal without a compare.
        """
        ledger = self.ledger
        for x, prior in ledger.queries.items():
            out = self.oracle(x)
            if out is not prior and prior != out:
                ledger.record(x, out)

    def _next_seed(self):
        """The seed of the least pair ``(base, base + 1 + j)`` with ``j`` at
        least the seed count, not handed out before, whose witness is not
        emitted yet; an engine emits it when a step has no other witness."""
        seed, base, emitted = self._seed, self.base, self.ledger.queries
        while True:
            j = self._next_j
            self._next_j = j + 1
            witness = seed((base, base + 1 + j))
            if witness not in emitted:
                return witness

    def _first_fresh(self, key, stream: Callable[[], Iterator], build: Callable) -> tuple:
        """``(item, candidate, drawn)`` for the first item of ``stream()``
        whose ``build`` is not in the ledger yet, ``drawn`` counting from its start.

        The walk resumes where the last one stopped while ``key``, the data
        the candidates depend on, is unchanged: every item before the cursor
        built an emitted witness, and the emitted set only grows.  Distinct
        items build distinct witnesses, so more than ``len(g)`` stale ones,
        or a stream that runs out, is an inconsistency.
        """
        walk = self._walk
        if walk is not None and walk[0] == key:
            _, items, drawn = walk
        else:
            items, drawn = stream(), 0
        emitted = self.ledger.queries
        for item in items:
            drawn += 1
            candidate = build(item)
            if candidate not in emitted:
                self._walk = (key, items, drawn)
                return item, candidate, drawn
            if drawn > len(self.g):
                break
        raise _Inconsistent

    def _emit(self, result, trace: dict) -> dict:
        self.g.append(result)
        self.traces.append(trace)
        return trace

    def _outputs(self, text: Callable) -> list[str]:
        """Every witness's text: the seeds written from their atom pairs
        through ``seed_format``, then ``text`` of each step's witness, which
        must equal its ``str``."""
        fmt, base, count = self.seed_format, self.base, self.seed_count
        return ([fmt % (base, b) for b in range(base + 1, base + 1 + count)]
                + list(map(text, self.g[count:])))

    def run(self, steps: int) -> dict:
        _require_int("steps", steps, 1)
        kind = self.kind
        violation = None
        try:
            for _ in range(steps):
                self.step()
        except _Violated as v:
            kind = "ledger-violation"
            violation = v.violation
        except _Inconsistent:
            kind = "stuck"
        # no certificate for an oracle that changed a recorded answer
        self._audit()
        return self._certificate(kind, len(self.g) - self.seed_count, violation)
