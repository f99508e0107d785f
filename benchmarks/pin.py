"""Regenerate ``pins.json``: the stream digests for every seedable input.

Run from the root of a checkout after a deliberate change of engine
output (never to make a failing benchmark pass):

    python3 benchmarks/pin.py

A seed maps to one of finitely many inputs (``instance_id`` and, for the
permutation stream, the oracle offset), so every input is pinned, at the
full size and at the tiny size the self-tests use.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    pins = {}
    for cls in (workloads.PartStream, workloads.PermStream):
        for tiny in (True, False):
            wl = cls(tiny)
            for p in wl.all_params():
                state = wl.prepare(None, lambda fn: fn, p)
                cert, _ = wl.execute(state, [], workloads.no_spans)
                if cert["kind"] != wl.kind or not cert["all_distinct"]:
                    print(f"error: {wl.pin_key(p)} ended in {cert['kind']}", file=sys.stderr)
                    return 1
                pins[wl.pin_key(p)] = workloads.stream_digest(cert)
                print(wl.pin_key(p), pins[wl.pin_key(p)])
    workloads.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                                   encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
