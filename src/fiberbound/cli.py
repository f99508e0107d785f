"""Command-line front end.

Subcommands: inject, decode, diag-perm, diag-part, fraenkel, bell, bounds.
Exit codes: 0 success, 1 domain error (diagnostic on stderr), 2 usage
error.  ``--json PATH`` writes the machine-readable record; identical
flags always produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys

from .atoms import parse_atom_set
from .auditing import compute_bounds
from .errors import FiberboundError, _require_int
from .fraenkel import SupportConfig, scan
from .inject import Tableau, decode, encode, level_swap
from .oracles import from_spec
from .partitions import bell
from .partition_engine import PartitionDiagEngine
from .perm_engine import PermDiagEngine
from .perms import FinPerm


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload))
        fh.write("\n")


def _cmd_inject(args) -> dict:
    s = FinPerm.parse(args.perm)
    tab = Tableau(args.n, args.m)
    image, level = encode(s, tab)
    swap = level_swap(s, tab, level)
    record = {
        "kind": "inject",
        "n": args.n,
        "m": args.m,
        "perm": str(s),
        "image": str(image),
        "level": level,
        "swap": str(swap),
        "conjugated": str(s.conjugate(swap)),
        "marker_cycle": str(tab.marker_cycles[level]),
    }
    for key in ("image", "level", "swap", "conjugated", "marker_cycle"):
        print(f"{key.replace('_', ' ')}: {record[key]}")
    return record


def _cmd_decode(args) -> dict:
    # the permutation is read before the tableau is built
    s = decode(FinPerm.parse(args.perm), Tableau(args.n, args.m))
    print(f"decoded: {s}")
    return {"kind": "decode", "n": args.n, "m": args.m, "perm": args.perm, "decoded": str(s)}


def _summarized(cert: dict) -> dict:
    """Print the summary lines of an engine certificate and return it."""
    print(f"kind: {cert['kind']}")
    print(f"steps: {cert['steps']}")
    print(f"outputs: {len(cert['outputs'])}")
    print(f"all distinct: {str(cert['all_distinct']).lower()}")
    if cert["violation"] is not None:
        v = cert["violation"]
        print(f"violation: {len(v['witnesses'])} inputs share {v['output']}")
    return cert


def _cmd_diag_perm(args) -> dict:
    engine = PermDiagEngine(args.n, args.k, from_spec("perm", args.oracle, args.n), args.mode,
                            args.seeds)
    return _summarized(engine.run(args.steps))


def _cmd_diag_part(args) -> dict:
    return _summarized(PartitionDiagEngine(args.k, from_spec("part", args.oracle)).run(args.steps))


def _cmd_fraenkel(args) -> dict:
    support = parse_atom_set(args.support)
    cfg = SupportConfig(support, args.n, args.atoms)
    report = scan(cfg)
    for key in ("pairs", "missing_moved", "extra_outside", "forced_fixed_point", "escapes"):
        print(f"{key}: {report[key]}")
    return report


def _cmd_bell(args) -> dict:
    _require_int("upto", args.upto, 0)
    values = [bell(i) for i in range(args.upto + 1)]
    print(" ".join(str(v) for v in values))
    return {"kind": "bell", "upto": args.upto, "values": values}


def _cmd_bounds(args) -> dict:
    params = compute_bounds(args.n, args.k)
    print(f"l0 = {params.l0}")
    print(f"m0 = {params.m0}")
    return {"kind": "bounds", "n": args.n, "k": args.k,
            "l0": params.l0, "m0": params.m0}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiberbound",
        description="Diagonalization engines and encoders for bounded-fiber maps "
                    "on finitely supported permutations and finitary partitions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inject", help="encode an n-point permutation as an m-point one")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--perm", required=True, help='cycle notation, e.g. "(20;21)"')
    p.set_defaults(func=_cmd_inject)

    p = sub.add_parser("decode", help="invert the injection")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--perm", required=True)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("diag-perm", help="run the permutation witness engine")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--oracle", default="truncate", help="truncate or pool:P")
    p.add_argument("--mode", choices=("strict", "opportunistic"), default="strict")
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--seeds", type=int, default=64,
                   help="seed count in opportunistic mode (strict computes its own)")
    p.set_defaults(func=_cmd_diag_perm)

    p = sub.add_parser("diag-part", help="run the partition witness engine")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--oracle", default="min-block", help="min-block or pool:P")
    p.add_argument("--steps", type=int, default=1)
    p.set_defaults(func=_cmd_diag_part)

    p = sub.add_parser("fraenkel", help="orbit-weighted support-probe scan over a carrier")
    p.add_argument("--atoms", type=int, required=True, help="carrier size")
    p.add_argument("--support", default="{}", help='support atoms, e.g. "{0}"')
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_fraenkel)

    p = sub.add_parser("bell", help="print Bell numbers")
    p.add_argument("--upto", type=int, required=True)
    p.set_defaults(func=_cmd_bell)

    p = sub.add_parser("bounds", help="print the paper's l0 and m0 (compute_bounds); "
                                      "strict mode seeds from strict_bounds instead")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_bounds)

    # last in each subcommand, so --help lists it after the subcommand's own flags
    for p in sub.choices.values():
        p.add_argument("--json", metavar="PATH")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.func(args)
    except FiberboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        try:
            _write_json(args.json, payload)
        except OSError as exc:
            print(f"error: cannot write {args.json}: {exc.strerror or exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
