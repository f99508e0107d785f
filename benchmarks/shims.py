"""Timing shims for the traced benchmark run.

The benchmark never edits the program.  For a traced round it replaces the
public names the engines look up (module functions and class methods) with
wrappers that count and time each call, then puts the originals back.  A
call's self time is its duration minus the time spent in nested shimmed
calls, so per-layer self times add up without double counting.  Spans (one
per round, item and engine step) are kept in memory and written out when
the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

from fiberbound import fraenkel, inject, partition_engine, perm_engine
from fiberbound.auditing import OracleLedger
from fiberbound.partition_engine import PartitionDiagEngine
from fiberbound.partitions import FinitaryPartition
from fiberbound.perm_engine import PermDiagEngine
from fiberbound.perms import FinPerm

import workloads


class ShimTargetMissing(RuntimeError):
    """A name the shims wrap no longer exists where the engines look it up."""


def _frame_cells(tracer, args, frame, _token):
    # atoms of the union times the number of listed values
    tracer.counts["partitions.build_frame.cells"] += sum(map(len, frame.classes)) * len(frame.values)


def _family_levels(tracer, args, result, _token):
    tracer.counts["perm_engine.build_family.levels"] += len(result[0])


def _perm_step(tracer, args, trace, _token):
    tracer.counts["perm_engine.step.steps"] += 1
    tracer.counts["perm_engine.step.fallbacks"] += bool(trace["fallback"])


def _part_step(tracer, args, trace, _token):
    tracer.counts["partition_engine.step.steps"] += 1


def _ledger_size(args):
    return len(args[0].queries)


def _record_new(tracer, args, result, before):
    tracer.counts["auditing.record.new"] += len(args[0].queries) - before


# (owner, attribute, metric prefix, kind, pre hook, post hook); kind is
# "call", "span" (a call that is also recorded as a span) or "gen" (a
# generator whose every ``next`` is timed).
SHIMS = (
    (partition_engine, "build_frame", "partitions.build_frame", "call", None, _frame_cells),
    (partition_engine, "iter_partitions_ranked", "partitions.ranked", "gen", None, None),
    (partition_engine, "lift", "partitions.lift", "call", None, None),
    (partition_engine, "assemble_certificate", "auditing.assemble_certificate", "call", None, None),
    (PartitionDiagEngine, "step", "partition_engine.step", "span", None, _part_step),
    (FinitaryPartition, "__str__", "partitions.str", "call", None, None),
    (perm_engine, "build_family", "perm_engine.build_family", "call", None, _family_levels),
    (perm_engine, "assemble", "perm_engine.assemble", "call", None, None),
    (perm_engine, "assemble_certificate", "auditing.assemble_certificate", "call", None, None),
    (PermDiagEngine, "step", "perm_engine.step", "span", None, _perm_step),
    (OracleLedger, "record", "auditing.record", "call", _ledger_size, _record_new),
    (FinPerm, "to_cycles", "perms.to_cycles", "call", None, None),
    (FinPerm, "deflate", "perms.deflate", "call", None, None),
    (FinPerm, "after", "perms.after", "call", None, None),
    (fraenkel, "classify", "fraenkel.classify", "call", None, None),
    (fraenkel, "perms_moving_exactly", "fraenkel.perms_moving_exactly", "gen", None, None),
    (fraenkel, "scan", "fraenkel.scan", "call", None, None),
    (inject, "encode", "inject.encode", "call", None, None),
    (inject, "decode", "inject.decode", "call", None, None),
    (workloads, "serialize", "cert.serialize", "call", None, None),
)

ORACLE = "oracles.oracle"


def _owner_name(owner) -> str:
    return getattr(owner, "__qualname__", None) or owner.__name__


class Tracer:
    """Per-call counters and spans for traced rounds."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self._child_ns: list[int] = []     # per open timed call: time in nested timed calls
        self._open: list[int] = []         # ids of open spans
        self._saved: list[tuple] = []

    # -- timing core -------------------------------------------------------

    def _timed(self, key: str, fn, args, kwargs, span: bool = False):
        if span:
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1] if self._open else None
            self._open.append(sid)
        self._child_ns.append(0)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            dur = t1 - t0
            self.calls[key] += 1
            self.self_ns[key] += dur - self._child_ns.pop()
            if self._child_ns:
                self._child_ns[-1] += dur
            if span:
                self._open.pop()
                self.spans[sid] = (sid, parent, key, t0, t1)

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code; it takes no part in self times."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            self._open.pop()
            self.spans[sid] = (sid, parent, name, t0, perf_counter_ns())

    def oracle(self, fn):
        """Wrap the oracle callable passed to an engine."""
        return lambda x: self._timed(ORACLE, fn, (x,), {})

    # -- installing shims --------------------------------------------------

    def _make(self, key, kind, original, pre, post):
        tracer = self
        if kind == "gen":
            def shim(*args, **kwargs):
                return _TimedIter(tracer, key, original(*args, **kwargs))
        else:
            span = kind == "span"

            def shim(*args, **kwargs):
                token = pre(args) if pre else None
                result = tracer._timed(key, original, args, kwargs, span)
                if post:
                    post(tracer, args, result, token)
                return result
        shim.__wrapped__ = original
        return shim

    def install(self) -> None:
        """Replace every shim target; raise if one is missing."""
        if self._saved:
            raise RuntimeError("shims already installed")
        try:
            for owner, attr, key, kind, pre, post in SHIMS:
                if attr not in vars(owner):
                    raise ShimTargetMissing(f"{_owner_name(owner)}.{attr} is gone; update the shims")
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._make(key, kind, original, pre, post))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put every original back, in reverse order of installation."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics averaged over ``rounds`` traced rounds."""
        per = 1.0 / rounds
        c, s, n = self.calls, self.self_ns, self.counts

        def calls(key):
            return (c[key] * per, "count")

        def self_s(key):
            return (s[key] * 1e-9 * per, "s")

        def ratio(num, den):
            return ((num / den) if den else 0.0, "ratio")

        return {
            "oracles.oracle.calls": calls(ORACLE),
            "oracles.oracle.self_s": self_s(ORACLE),
            "auditing.record.calls": calls("auditing.record"),
            "auditing.record.new_ratio": ratio(n["auditing.record.new"], c["auditing.record"]),
            "auditing.record.self_s": self_s("auditing.record"),
            "auditing.assemble_certificate.self_s": self_s("auditing.assemble_certificate"),
            "partitions.build_frame.calls": calls("partitions.build_frame"),
            "partitions.build_frame.cells": (n["partitions.build_frame.cells"] * per, "count"),
            "partitions.build_frame.self_s": self_s("partitions.build_frame"),
            "partitions.ranked.drawn": (n["partitions.ranked.drawn"] * per, "count"),
            "partitions.ranked.self_s": self_s("partitions.ranked"),
            "partitions.lift.calls": calls("partitions.lift"),
            "partitions.lift.self_s": self_s("partitions.lift"),
            "partitions.lift.fresh_ratio": ratio(n["partition_engine.step.steps"],
                                                 c["partitions.lift"]),
            "partitions.str.calls": calls("partitions.str"),
            "partitions.str.self_s": self_s("partitions.str"),
            "partition_engine.step.self_s": self_s("partition_engine.step"),
            "perm_engine.step.self_s": self_s("perm_engine.step"),
            "perm_engine.step.fallbacks": (n["perm_engine.step.fallbacks"] * per, "count"),
            "perm_engine.build_family.calls": calls("perm_engine.build_family"),
            "perm_engine.build_family.levels": (n["perm_engine.build_family.levels"] * per, "count"),
            "perm_engine.build_family.self_s": self_s("perm_engine.build_family"),
            "perm_engine.assemble.calls": calls("perm_engine.assemble"),
            "perm_engine.assemble.self_s": self_s("perm_engine.assemble"),
            "perm_engine.assemble.fresh_ratio": ratio(
                n["perm_engine.step.steps"] - n["perm_engine.step.fallbacks"],
                c["perm_engine.assemble"]),
            "perms.to_cycles.calls": calls("perms.to_cycles"),
            "perms.to_cycles.self_s": self_s("perms.to_cycles"),
            "perms.deflate.calls": calls("perms.deflate"),
            "perms.deflate.self_s": self_s("perms.deflate"),
            "perms.after.calls": calls("perms.after"),
            "perms.after.self_s": self_s("perms.after"),
            "fraenkel.classify.calls": calls("fraenkel.classify"),
            "fraenkel.classify.self_s": self_s("fraenkel.classify"),
            "fraenkel.perms_moving_exactly.self_s": self_s("fraenkel.perms_moving_exactly"),
            "fraenkel.scan.self_s": self_s("fraenkel.scan"),
            "inject.encode.calls": calls("inject.encode"),
            "inject.encode.self_s": self_s("inject.encode"),
            "inject.decode.calls": calls("inject.decode"),
            "inject.decode.self_s": self_s("inject.decode"),
            "cert.serialize.self_s": self_s("cert.serialize"),
        }

    def write_spans(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start_ns": t0, "end_ns": t1}) + "\n")


class _TimedIter:
    """A generator whose every ``next`` is timed under ``key``."""

    __slots__ = ("_tracer", "_key", "_inner")

    def __init__(self, tracer: Tracer, key: str, inner):
        self._tracer = tracer
        self._key = key
        self._inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        value = self._tracer._timed(self._key, next, (self._inner,), {})
        self._tracer.counts[self._key + ".drawn"] += 1
        return value
