"""Witness engine against claimed bounded-fiber maps from finitary
partitions into finite atom sets.

Each step refines the previous step's quotient frame by the oracle
answers first seen at that step, in first-occurrence order, at the cost of
their atoms plus the class count, and walks the ranked stream of class
partitions until one lifts to a partition not emitted before.  At most
``m`` lifts can be stale at step ``m``, so the walk stops within ``m + 1``
candidates no matter how many class partitions exist; the ranked stream is
generated lazily for exactly this reason, since the class count routinely
exceeds any materialization budget.  A walk runs out only once all
``B(l)`` lifts are emitted, and the distinct answers, each a union of
classes, number at most ``2**l``, so a stall needs ``B(l) <= m <= k*2**l``;
the ``72*k**2 + 1`` seeds leave no such ``m`` for any ``k`` the seed cap
allows, so every stall ends the run as ``stuck``.

A lift depends only on the frame's classes, so the driver's walk resumes
while they are unchanged, even if new distinct answers arrived, and
``rank_checked`` counts from rank 1 across a resume, as a walk restarted
from rank 1 would.  A trace's ``C_new`` holds only the answers first seen
at its step; its frame is ``build_frame`` folded over every ``C_new`` so far.

The certificate writes each step's witness through the last frame's atom
texts (:meth:`QuotientFrame.write`).  The frame only gains atoms, and every
witness is a lift of an earlier state of it, so the table covers every
witness's atoms; each atom is converted to decimal once per run, not once
per witness that holds it.
"""

from __future__ import annotations

from typing import Callable

from .atoms import _atoms_ok, format_atom_set
from .auditing import WitnessEngine, assemble_certificate
from .errors import OracleCodomainError, _require_int
from .partitions import FinitaryPartition, QuotientFrame, build_frame, iter_partitions_ranked, lift


class PartitionDiagEngine(WitnessEngine):
    kind = "part-diag"
    seed_format = "{%d,%d}"

    def __init__(self, k: int, oracle: Callable[[FinitaryPartition], frozenset[int]],
                 instance_id: int = 0):
        _require_int("k", k)
        # the last step's frame, refined by the next step's new answers
        self._frame = QuotientFrame()
        super().__init__(k, oracle, instance_id, 72 * k * k + 1,
                         lambda pair: FinitaryPartition._of(frozenset((frozenset(pair),))),
                         format_atom_set)

    def _check_output(self, out) -> None:
        if not isinstance(out, frozenset) or not _atoms_ok(out):
            raise OracleCodomainError("oracle must return finite sets of atoms")

    def step(self) -> dict:
        m = self.seed_count + len(self.g)
        new = [v for v, _ in self._query_new()]
        frame = self._frame = build_frame(new, self._frame)
        l = frame.l
        _, result, drawn = self._first_fresh(frame.classes, lambda: iter_partitions_ranked(l),
                                             lambda q: lift(q, frame))
        trace = {
            "m": m,
            "C_new": [sorted(v) for v in new],
            "l": l,
            "rank_checked": drawn,
        }
        return self._emit(result, trace)

    def _certificate(self, kind, steps, violation) -> dict:
        return assemble_certificate(kind, None, self.k, self.seed_count, steps,
                                    self._outputs(self._frame.write), violation, self.traces)
