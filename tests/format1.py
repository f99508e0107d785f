"""Expand a format-4 certificate into the format-1 certificate it replaces.

Format 4 puts in each trace only what is new at that step and what the
rest of the certificate cannot give, and its header names the seed count.
Format 1 repeated the whole record on every trace, and tests that read it
get it back from ``expand``:

- a part trace's ``C`` is the running concatenation of the ``C_new``
  lists, and its ``classes`` are those of the frame that ``build_frame``
  refines by each trace's ``C_new`` in turn, as the engine's own steps do;
  its ``q`` is the sorted blocks of the ``rank_checked``-th draw of
  ``iter_partitions_ranked(l)``;
- a perm trace's ``B`` is the running concatenation of the ``B_new``
  lists, a null ``family`` repeats the last trace's family, and an
  entry's ``C`` is the sorted union of the supports of the entries
  before it;
- trace ``i``'s ``result`` is the output of the witness it emitted,
  ``outputs[len(outputs) - steps + i]``, and ``None`` on the one trace
  that emitted none, the last trace of a strict ``stuck`` perm run.

``expand`` drops the ``format`` key, puts format 1's ``l0`` and ``m0`` in
place of ``seeds`` and keeps every other field in place, and ``digest`` is
the sha256 of its ``json.dumps`` text.  A partition run seeded ``m0 + 1``
witnesses and wrote ``l0`` as ``None``.  A permutation run wrote
``strict_bounds(n, k)`` when it seeded ``m0 + 1`` of them, as strict mode
does, and ``compute_bounds(n, k)`` otherwise.
"""

import hashlib
import itertools
import json

from fiberbound.auditing import compute_bounds
from fiberbound.partitions import build_frame, iter_partitions_ranked
from fiberbound.perm_engine import strict_bounds
from fiberbound.perms import FinPerm

_PART_TAIL = ("l", "q", "rank_checked", "result")
_PERM_TAIL = ("stuck_at", "fallback", "chosen_a", "result")


def expand_traces(cert: dict) -> list[dict]:
    """Format-1 traces of a format-4 certificate, in order."""
    outputs, steps = cert["outputs"], cert["steps"]
    out = []
    running: list = []
    frame = family = None
    walk = (None, 0, iter(()))      # the last draw's l, its rank, the rest of its walk
    for i, trace in enumerate(cert["traces"]):
        fields = {**trace, "result": outputs[len(outputs) - steps + i] if i < steps else None}
        if "C_new" in trace:
            running += trace["C_new"]
            frame = build_frame(trace["C_new"], frame)
            old = {"m": trace["m"], "C": list(running),
                   "classes": [sorted(c) for c in frame.classes]}
            l, rank = trace["l"], trace["rank_checked"]
            if walk[0] != l or walk[1] >= rank:
                walk = (l, 0, iter_partitions_ranked(l))
            q = next(itertools.islice(walk[2], rank - walk[1] - 1, None))
            walk = (l, rank, walk[2])
            fields["q"] = sorted(sorted(b) for b in q)
            tail = _PART_TAIL
        else:
            running += trace["B_new"]
            if trace["family"] is not None:
                family, claimed = [], set()
                for entry in trace["family"]:
                    family.append({**entry, "C": sorted(claimed)})
                    claimed |= FinPerm.parse(entry["t"]).moved
            old = {"m": trace["m"], "B": list(running), "family": family}
            tail = _PERM_TAIL
        old.update((key, fields[key]) for key in tail)
        out.append(old)
    return out


def header_bounds(cert: dict) -> tuple:
    """Format 1's ``(l0, m0)`` for a format-4 certificate."""
    n, k, seeds = cert["n"], cert["k"], cert["seeds"]
    if n is None:
        return None, seeds - 1
    bounds = strict_bounds(n, k)
    if seeds != bounds.m0 + 1:
        bounds = compute_bounds(n, k)
    return bounds.l0, bounds.m0


def expand(cert: dict) -> dict:
    """The format-1 certificate of a format-4 one."""
    if cert.get("format") != 4:
        raise ValueError(f"not a format-4 certificate: format {cert.get('format')!r}")
    old = {}
    for key, value in cert.items():
        if key == "seeds":
            old["l0"], old["m0"] = header_bounds(cert)
        elif key != "format":
            old[key] = value
    old["traces"] = expand_traces(cert)
    return old


def digest(cert: dict) -> str:
    """The sha256 of ``json.dumps(expand(cert))``.  Each trace's running list
    is a prefix of the last trace's, so each of its items is encoded once."""
    old = expand(cert)
    traces = old["traces"]
    key = "C" if traces and "C" in traces[0] else "B"
    items = [json.dumps(x) for x in traces[-1][key]] if traces else []
    mark = json.dumps("\0")
    text = json.dumps({**old, "traces": [{**t, key: "\0"} for t in traces]})
    head, *rest = text.split(mark)
    sha = hashlib.sha256(head.encode())
    for trace, after in zip(traces, rest):
        sha.update(("[" + ", ".join(items[:len(trace[key])]) + "]" + after).encode())
    return sha.hexdigest()
