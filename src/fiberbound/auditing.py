"""Oracle auditing: fiber ledgers, bound computation, and certificates.

An oracle is a deterministic callable paired with a claimed fiber bound
``k``.  Engines never trust the claim; every query goes through an
:class:`OracleLedger` which records the fiber of each observed output and
hands back a :class:`Violation` with exactly ``k + 1`` witnesses the moment
any fiber overflows.  A run therefore always ends in one of two auditable
states: a stream of pairwise distinct constructed witnesses, or a concrete
finite refutation of the claimed bound.

:class:`WitnessEngine` is the driver both witness engines share: it keeps
the emitted witnesses, queries the oracle on each of them through the
ledger, and turns a run into one of those two outcomes as a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import BadParametersError, InconsistentOracleError, OverflowGuardError
from .partitions import derangement

BOUND_WINDOW = 100
_SEARCH_LIMIT = 5000
_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class BoundParams:
    """Threshold parameters for the permutation engine.

    ``l0`` is the least window start from which ``k*(2*n*l)**(2*n) < 2**l``
    holds across the whole checked window with the ratio ``2**l / l**(2*n)``
    nondecreasing, and ``m0 = k*(2*n*l0)**(2*n)``.  ``(2*n*l)**(2*n)`` is 1
    when ``n`` is 0.
    """

    n: int
    k: int
    l0: int
    m0: int
    window: int = BOUND_WINDOW


def _growth_ok(n: int, k: int, l: int) -> bool:
    return k * (2 * n * l) ** (2 * n) < 2**l


def compute_bounds(n: int, k: int) -> BoundParams:
    if n < 0:
        raise BadParametersError("n must be non-negative")
    if k < 1:
        raise BadParametersError("k must be at least 1")
    e = 2 * n
    for start in range(_SEARCH_LIMIT):
        window = range(start + 1, start + BOUND_WINDOW + 1)
        if not all(_growth_ok(n, k, l) for l in window):
            continue
        if not all(2 * (l - 1) ** e >= l**e for l in range(start + 2, start + BOUND_WINDOW + 1)):
            continue
        m0 = k * (2 * n * start) ** e
        if m0 > _INT64_MAX:
            raise OverflowGuardError(f"m0 = {m0} exceeds the 2**63-1 guard")
        return BoundParams(n, k, start, m0)
    raise OverflowGuardError(f"no window start below {_SEARCH_LIMIT} for n={n}, k={k}")


@dataclass(frozen=True)
class Violation:
    """A fiber observed to exceed the claimed bound: k + 1 distinct inputs."""

    output: str
    witnesses: tuple[str, ...]

    def as_json(self) -> dict:
        return {"output": self.output, "witnesses": list(self.witnesses)}


class OracleLedger:
    """Audit log of oracle queries keyed by canonical serializations."""

    def __init__(self, k: int, serialize_input: Callable, serialize_output: Callable):
        if k < 1:
            raise BadParametersError("k must be at least 1")
        self.k = k
        self._ser_in = serialize_input
        self._ser_out = serialize_output
        self.queries: dict[str, str] = {}
        self.fibers: dict[str, list[str]] = {}

    def record(self, inp, out) -> Optional[Violation]:
        """Record one query; idempotent on repeats, violation on overflow."""
        in_key = self._ser_in(inp)
        out_key = self._ser_out(out)
        prior = self.queries.get(in_key)
        if prior is not None:
            if prior != out_key:
                raise InconsistentOracleError(
                    f"input {in_key} mapped to both {prior} and {out_key}")
            return None
        self.queries[in_key] = out_key
        fiber = self.fibers.setdefault(out_key, [])
        fiber.append(in_key)
        if len(fiber) > self.k:
            return Violation(out_key, tuple(fiber))
        return None


def moved_set_adapter(oracle: Callable, k: int, n: int) -> tuple[Callable, int]:
    """Compose a permutation-valued oracle with the moved-set map.

    The moved-set map sends a permutation moving at most ``n`` points to a
    finite atom set; its fibers have size exactly ``derangement(j)`` for a
    j-point set, so the adapted oracle's declared bound is ``k`` times the
    largest such count with ``j <= n``.
    """
    factor = max(derangement(j) for j in range(n + 1))

    def adapted(x):
        return frozenset(oracle(x).moved)

    return adapted, k * factor


def assemble_certificate(kind: str, n, k, l0, m0, steps: int,
                         outputs: list[str], violation: Optional[Violation],
                         traces: list[dict]) -> dict:
    """Certificate JSON object with its stable field order."""
    return {
        "kind": kind,
        "n": n,
        "k": k,
        "l0": l0,
        "m0": m0,
        "steps": steps,
        "outputs": outputs,
        "all_distinct": len(set(outputs)) == len(outputs),
        "violation": violation.as_json() if violation is not None else None,
        "traces": traces,
    }


class _Violated(Exception):
    def __init__(self, violation: Violation):
        self.violation = violation


class _Inconsistent(Exception):
    """A step found no fresh witness where the counting argument promises one."""


class WitnessEngine:
    """Driver shared by the witness engines.

    A subclass passes its seed factory and ledger serializers to
    ``__init__`` and supplies the rest: ``_check_output`` (the claimed
    codomain), ``step`` (one fresh witness, ending in ``_emit``) and
    ``_certificate`` (its header fields and output serialization).
    ``kind`` names the certificate of a run that completes every step.
    """

    kind = ""

    def __init__(self, k: int, oracle: Callable, instance_id: int,
                 make_seeds: Callable[[int], list], serialize_input: Callable,
                 serialize_output: Callable):
        self.k = k
        self.oracle = oracle
        self.base = 1000 * (instance_id + 1)
        self.g: list = list(make_seeds(self.base))
        self.g_set: set = set(self.g)
        self.seed_count = len(self.g)
        self.ledger = OracleLedger(k, serialize_input, serialize_output)
        self.traces: list[dict] = []

    def _query_all(self) -> list:
        values = []
        for x in self.g:
            out = self.oracle(x)
            self._check_output(out)
            violation = self.ledger.record(x, out)
            if violation is not None:
                raise _Violated(violation)
            values.append(out)
        return values

    def _emit(self, result, trace: dict) -> dict:
        self.g.append(result)
        self.g_set.add(result)
        self.traces.append(trace)
        return trace

    def run(self, steps: int) -> dict:
        if steps < 1:
            raise BadParametersError("steps must be at least 1")
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
        return self._certificate(kind, len(self.g) - self.seed_count, violation)
