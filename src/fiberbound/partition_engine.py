"""Witness engine against claimed bounded-fiber maps from finitary
partitions into finite atom sets.

Each step collects the distinct oracle answers in first-occurrence order,
refines the previous step's quotient frame by the answers new since then,
and walks the ranked stream of class partitions until one lifts to a
partition not emitted before.  The answers only ever extend the previous
step's list, so a step's frame costs its new answers' atoms plus the class
count, not the sum of every answer's size.  The trace's sorted atom lists
are made once per distinct answer and class and shared by later traces.  At
most ``m`` lifts can be stale at step ``m``, so the walk stops within
``m + 1`` candidates no matter how many class partitions exist; the ranked
stream is generated lazily for exactly this reason, since the class count
routinely exceeds any materialization budget.

The walk resumes where the previous step stopped when the new frame's
classes equal the previous frame's, even if new distinct answers arrived.
A lift depends only on the classes, every candidate before the cursor
lifted to a partition already emitted (the last one is the previous
step's result), and the emitted set only grows, so the first fresh
candidate lies at or after the cursor.  ``rank_checked`` keeps counting
from rank 1 across a resume, so every trace records the same rank a walk
restarted from rank 1 would reach.
"""

from __future__ import annotations

from typing import Callable

from .atoms import format_atom_set
from .auditing import WitnessEngine, _Inconsistent, assemble_certificate, first_occurrences
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
        # the last step's frame, refined by the next step's new answers
        self._frame = None
        # (classes, ranked stream, candidates drawn) of the last step's walk
        self._walk = None
        # sorted atom list of each distinct answer and class; frozensets are immutable
        self._sorted: dict = {}
        super().__init__(k, oracle, instance_id, lambda base: seed_partitions(k, base),
                         str, format_atom_set)

    def _check_output(self, out) -> None:
        if not isinstance(out, frozenset) or not all(type(a) is int and a >= 0 for a in out):
            raise OracleCodomainError("oracle must return finite sets of atoms")

    def step(self) -> dict:
        m = len(self.g)
        distinct = list(first_occurrences(self._query_all()))
        frame = self._frame = build_frame(distinct, self._frame)
        l = frame.l
        # A clean ledger caps fiber sizes at k, and each listed value is a
        # union of classes, so these hold on every recorded trace.
        assert m <= self.k * len(distinct)
        assert len(distinct) <= 2**l
        if m > self.threshold:
            assert 72 * self.k < 2**l
        if 1 <= l <= BELL_MAX:
            assert 72 * bell(l) > 4**l
        if self._walk is not None and self._walk[0] == frame.classes:
            _, stream, examined = self._walk
        else:
            stream, examined = iter_partitions_ranked(l), 0
        chosen = None
        for q in stream:
            examined += 1
            candidate = lift(q, frame)
            if candidate not in self.g_set:
                chosen = (q, candidate)
                break
            # stale lifts are distinct emitted partitions, so at most m
            if examined > m:
                raise _Inconsistent
        if chosen is None:
            raise _Inconsistent
        q, result = chosen
        self._walk = (frame.classes, stream, examined)
        trace = {
            "m": m,
            "C": self._sorted_lists(distinct),
            "classes": self._sorted_lists(frame.classes),
            "l": l,
            "q": sorted((sorted(b) for b in q), key=lambda b: b[0] if b else -1),
            "rank_checked": examined,
            "result": str(result),
        }
        return self._emit(result, trace)

    def _sorted_lists(self, sets) -> list:
        lists = self._sorted
        for s in sets:
            if s not in lists:
                lists[s] = sorted(s)
        return [lists[s] for s in sets]

    def _certificate(self, kind, steps, violation) -> dict:
        return assemble_certificate(kind, None, self.k, None, self.threshold, steps,
                                    [str(p) for p in self.g], violation, self.traces)


def run_partition_diag(k: int, oracle: Callable[[FinitaryPartition], frozenset[int]],
                       steps: int, instance_id: int = 0) -> dict:
    engine = PartitionDiagEngine(k, oracle, instance_id)
    return engine.run(steps)
