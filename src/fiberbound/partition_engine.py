"""Witness engine against claimed bounded-fiber maps from finitary
partitions into finite atom sets.

Each step collects the distinct oracle answers in first-occurrence order,
builds the quotient frame of their union, and walks the ranked stream of
class partitions until one lifts to a partition not emitted before.  At
most ``m`` lifts can be stale at step ``m``, so the walk stops within
``m + 1`` candidates no matter how many class partitions exist; the ranked
stream is generated lazily for exactly this reason, since the class count
routinely exceeds any materialization budget.
"""

from __future__ import annotations

from typing import Callable

from .atoms import format_atom_set
from .auditing import WitnessEngine, _Inconsistent, assemble_certificate
from .errors import BadParametersError, OracleCodomainError
from .partitions import (BELL_MAX, FinitaryPartition, bell, build_frame,
                         iter_partitions_ranked, lift)


def seed_partitions(k: int, base: int) -> list[FinitaryPartition]:
    """``72*k*k + 1`` pairwise distinct two-atom-block partitions."""
    if k < 1:
        raise BadParametersError("k must be at least 1")
    return [FinitaryPartition([(base, base + 1 + j)]) for j in range(72 * k * k + 1)]


class PartitionDiagEngine(WitnessEngine):
    kind = "part-diag"

    def __init__(self, k: int, oracle: Callable[[FinitaryPartition], frozenset[int]],
                 instance_id: int = 0):
        self.threshold = 72 * k * k
        super().__init__(k, oracle, instance_id, lambda base: seed_partitions(k, base),
                         str, format_atom_set)

    def _check_output(self, out) -> None:
        if not isinstance(out, frozenset) or not all(isinstance(a, int) and a >= 0 for a in out):
            raise OracleCodomainError("oracle must return finite sets of atoms")

    def step(self) -> dict:
        m = len(self.g)
        values = self._query_all()
        distinct: list[frozenset[int]] = []
        seen: set[frozenset[int]] = set()
        for v in values:
            if v not in seen:
                seen.add(v)
                distinct.append(v)
        frame = build_frame(distinct)
        l = frame.l
        # A clean ledger caps fiber sizes at k, and each listed value is a
        # union of classes, so these hold on every recorded trace.
        assert m <= self.k * len(distinct)
        assert len(distinct) <= 2**l
        if m > self.threshold:
            assert 72 * self.k < 2**l
        if 1 <= l <= BELL_MAX:
            assert 72 * bell(l) > 4**l
        chosen = None
        examined = 0
        for q in iter_partitions_ranked(l):
            examined += 1
            candidate = lift(q, frame)
            if candidate not in self.g_set:
                chosen = (q, candidate)
                break
            assert examined <= m, "more stale lifts than emitted partitions"
        if chosen is None:
            raise _Inconsistent
        q, result = chosen
        trace = {
            "m": m,
            "C": [sorted(v) for v in distinct],
            "classes": [sorted(c) for c in frame.classes],
            "l": l,
            "q": sorted((sorted(b) for b in q), key=lambda b: b[0] if b else -1),
            "rank_checked": examined,
            "result": str(result),
        }
        return self._emit(result, trace)

    def _certificate(self, kind, steps, violation) -> dict:
        return assemble_certificate(kind, None, self.k, None, self.threshold, steps,
                                    [str(p) for p in self.g], violation, self.traces)


def run_partition_diag(k: int, oracle: Callable[[FinitaryPartition], frozenset[int]],
                       steps: int, instance_id: int = 0) -> dict:
    engine = PartitionDiagEngine(k, oracle, instance_id)
    return engine.run(steps)
