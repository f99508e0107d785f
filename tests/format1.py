"""Expand a format-2 certificate into the format-1 certificate it replaces.

Format 2 puts in each trace only what is new at that step.  Format 1
repeated the whole record on every trace, and tests that read it get it
back from ``expand``:

- a part trace's ``C`` is the running concatenation of the ``C_new``
  lists, and its ``classes`` are those of the frame that ``build_frame``
  refines by each trace's ``C_new`` in turn, as the engine's own steps do;
- a perm trace's ``B`` is the running concatenation of the ``B_new``
  lists, a null ``family`` repeats the last trace's family, and an
  entry's ``C`` is the sorted union of the supports of the entries
  before it.

``expand`` drops the ``format`` key and keeps every other field in place.
"""

from fiberbound.partitions import build_frame
from fiberbound.perms import FinPerm

_PART_TAIL = ("l", "q", "rank_checked", "result")
_PERM_TAIL = ("stuck_at", "fallback", "chosen_a", "result")


def expand_traces(traces: list[dict]) -> list[dict]:
    """Format-1 traces of a run's format-2 traces, in order."""
    out = []
    running: list = []
    frame = family = None
    for trace in traces:
        if "C_new" in trace:
            running += trace["C_new"]
            frame = build_frame(trace["C_new"], frame)
            old = {"m": trace["m"], "C": list(running),
                   "classes": [sorted(c) for c in frame.classes]}
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
        old.update((key, trace[key]) for key in tail)
        out.append(old)
    return out


def expand(cert: dict) -> dict:
    """The format-1 certificate of a format-2 one."""
    if cert.get("format") != 2:
        raise ValueError(f"not a format-2 certificate: format {cert.get('format')!r}")
    old = {key: value for key, value in cert.items() if key != "format"}
    old["traces"] = expand_traces(cert["traces"])
    return old
