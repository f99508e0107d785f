"""Witness engine against claimed bounded-fiber maps out of the full
permutation group into the permutations moving at most n points.

Each step queries the oracle on everything emitted so far, distils a
family of nontrivial permutations with pairwise disjoint supports from the
answers, and emits the first product of family members not seen before.
Strict mode seeds past the computed threshold ``m0`` so that a failed
family construction is a genuine inconsistency; opportunistic mode runs
from a small seed count and patches over legitimate early failures with
fresh transpositions, which keeps the construction machinery exercised at
desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .atoms import SetSpec
from .auditing import WitnessEngine, _Inconsistent, assemble_certificate, compute_bounds
from .errors import BadParametersError, InfeasibleRunError, OracleCodomainError
from .perms import FinPerm

STRICT_SEED_CAP = 1_000_000
_FALLBACK_OFFSET = 500_000


@dataclass(frozen=True)
class FamilyEntry:
    """One family member with its construction provenance."""

    level: int
    case: int                      # 1: single answer escapes, 2: pair disagreement
    i: int
    j: Optional[int]
    x: int
    perm: FinPerm
    occupied: tuple[int, ...]      # atoms already claimed when this level was built

    def as_json(self) -> dict:
        return {
            "l": self.level,
            "case": self.case,
            "i": self.i,
            "j": self.j,
            "x": self.x,
            "t": self.perm.to_cycles(),
            "C": list(self.occupied),
        }


def seed_transpositions(count: int, base: int) -> list[FinPerm]:
    """``count`` pairwise distinct transpositions sharing the base atom."""
    if count < 1:
        raise BadParametersError("seed count must be at least 1")
    return [FinPerm.cycle([base, base + 1 + j]) for j in range(count)]


def build_family(values: list[FinPerm], n: int) -> tuple[list[FamilyEntry], Optional[tuple[int, frozenset[int]]]]:
    """Distil the disjoint-support family from the oracle answers.

    ``values[i]`` is the oracle's answer on the i-th emitted permutation;
    the family has one level per power of two up to ``len(values)``.
    Returns the entries plus the stage at which construction got stuck,
    if it did.  Ties resolve by index order, then atom order.
    """
    m = len(values)
    if m < 1:
        raise BadParametersError("need at least one value")
    top = m.bit_length() - 1
    entries: list[FamilyEntry] = []
    occupied: set[int] = set()
    # Duplicate answers can never win a least-index search that their first
    # occurrence loses, so the pair scan may restrict to first occurrences.
    first_occ = []
    seen_vals: set[FinPerm] = set()
    for idx, v in enumerate(values):
        if v not in seen_vals:
            seen_vals.add(v)
            first_occ.append(idx)

    for level in range(top + 1):
        snapshot = tuple(sorted(occupied))
        chosen = None
        for i, s in enumerate(values):
            candidates = [x for x in s.moved if x not in occupied and s(x) not in occupied]
            if candidates:
                x = min(candidates)
                perm = s.deflate(SetSpec.cofinite(occupied))
                chosen = FamilyEntry(level, 1, i, None, x, perm, snapshot)
                break
        if chosen is None:
            outward = {}
            for i in first_occ:
                s = values[i]
                reach = {x: s(x) for x in occupied if s(x) not in occupied}
                if reach:
                    outward[i] = reach
            found = None
            idxs = sorted(outward)
            for a_pos in range(len(idxs)):
                i = idxs[a_pos]
                for j in idxs[a_pos + 1:]:
                    xs = [x for x in outward[i] if x in outward[j] and outward[i][x] != outward[j][x]]
                    if xs:
                        found = (i, j, min(xs))
                        break
                if found:
                    break
            if found is None:
                return entries, (level, frozenset(occupied))
            i, j, x = found
            perm = values[j].after(values[i].inverse()).deflate(SetSpec.cofinite(occupied))
            chosen = FamilyEntry(level, 2, i, j, x, perm, snapshot)
        assert chosen.perm.moved, "family members must be nontrivial"
        assert len(chosen.perm.moved) <= 2 * n
        assert not (chosen.perm.moved & occupied)
        assert len(occupied) <= 2 * n * level
        entries.append(chosen)
        occupied |= chosen.perm.moved
    return entries, None


def assemble(entries: list[FamilyEntry], indices) -> FinPerm:
    """Product of the selected family members (disjoint supports)."""
    mapping: dict[int, int] = {}
    for idx in indices:
        member = entries[idx].perm
        assert not (member.moved & set(mapping)), "family supports must be disjoint"
        mapping.update(member.moved_map)
    return FinPerm(mapping)


def _index_sets(width: int):
    """All subsets of range(width), ascending with index 0 most significant."""
    for value in range(1 << width):
        yield tuple(i for i in range(width) if value >> (width - 1 - i) & 1)


class PermDiagEngine(WitnessEngine):
    kind = "perm-diag"

    def __init__(self, n: int, k: int, oracle: Callable[[FinPerm], FinPerm],
                 mode: str = "strict", seed_count: int = 64, instance_id: int = 0):
        if mode not in ("strict", "opportunistic"):
            raise BadParametersError(f"unknown mode {mode!r}")
        self.n = n
        self.mode = mode
        self.bounds = compute_bounds(n, k)
        if mode == "strict":
            seed_count = self.bounds.m0 + 1
            if seed_count > STRICT_SEED_CAP:
                raise InfeasibleRunError(
                    f"strict mode needs {seed_count} seeds (m0 = {self.bounds.m0}); "
                    "use opportunistic mode")
        super().__init__(k, oracle, instance_id,
                         lambda base: seed_transpositions(seed_count, base),
                         lambda s: s.to_cycles(), lambda s: s.to_cycles())
        self._next_fallback = self.base + _FALLBACK_OFFSET

    def _check_output(self, out) -> None:
        if not isinstance(out, FinPerm) or len(out.moved) > self.n:
            raise OracleCodomainError(
                f"oracle returned a value moving {len(out.moved) if isinstance(out, FinPerm) else '?'} "
                f"points, claimed codomain moves at most {self.n}")

    def _fresh_fallback(self) -> FinPerm:
        while True:
            pair = (self._next_fallback, self._next_fallback + 1)
            self._next_fallback += 2
            perm = FinPerm.cycle(list(pair))
            if perm not in self.g_set:
                return perm

    def step(self) -> dict:
        m = len(self.g)
        values = self._query_all()
        first_occ = []
        seen: set[FinPerm] = set()
        for idx, v in enumerate(values):
            if v not in seen:
                seen.add(v)
                first_occ.append([idx, v.to_cycles()])
        # the ledger is clean here, so the fibers over the distinct answers
        # cover all m queried inputs with at most k inputs each
        assert m <= self.k * len(seen)
        entries, stuck = build_family(values, self.n)
        trace: dict = {
            "m": m,
            "B": first_occ,
            "family": [e.as_json() for e in entries],
            "stuck_at": None,
            "fallback": False,
            "chosen_a": None,
            "result": None,
        }
        if stuck is not None:
            level, occupied = stuck
            trace["stuck_at"] = [level, sorted(occupied)]
            if self.mode == "strict":
                self.traces.append(trace)
                raise _Inconsistent
            result = self._fresh_fallback()
            trace["fallback"] = True
        else:
            result = None
            for indices in _index_sets(len(entries)):
                candidate = assemble(entries, indices)
                if candidate not in self.g_set:
                    result = candidate
                    trace["chosen_a"] = list(indices)
                    break
            # A full-length family offers more candidates than emitted
            # permutations, so one of them is always fresh.
            assert result is not None
        assert result not in self.g_set
        trace["result"] = result.to_cycles()
        return self._emit(result, trace)

    def _certificate(self, kind, steps, violation) -> dict:
        return assemble_certificate(kind, self.n, self.k, self.bounds.l0, self.bounds.m0, steps,
                                    [s.to_cycles() for s in self.g], violation, self.traces)


def run_perm_diag(n: int, k: int, oracle: Callable[[FinPerm], FinPerm], steps: int,
                  mode: str = "strict", seed_count: int = 64, instance_id: int = 0) -> dict:
    engine = PermDiagEngine(n, k, oracle, mode, seed_count, instance_id)
    return engine.run(steps)
