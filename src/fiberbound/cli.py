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
from .errors import BadParametersError, FiberboundError, ParseError
from .fraenkel import SupportConfig, scan
from .inject import Tableau, decode, encode
from .oracles import min_block_oracle, pool_perm_oracle, pool_set_oracle, truncate_oracle
from .partitions import bell
from .perm_engine import run_perm_diag
from .partition_engine import run_partition_diag
from .perms import FinPerm


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload))
        fh.write("\n")


def _pool_size(spec: str) -> int:
    """``P`` of a ``pool:P`` oracle spec."""
    try:
        return int(spec.split(":", 1)[1])
    except ValueError:
        raise ParseError(f"pool size must be an integer, got {spec!r}") from None


def _perm_oracle(spec: str, n: int):
    if spec == "truncate":
        return truncate_oracle(n)
    if spec.startswith("pool:"):
        return pool_perm_oracle(_pool_size(spec), n)
    raise ParseError(f"unknown diag-perm oracle {spec!r} (use truncate or pool:P)")


def _set_oracle(spec: str):
    if spec == "min-block":
        return min_block_oracle
    if spec.startswith("pool:"):
        return pool_set_oracle(_pool_size(spec))
    raise ParseError(f"unknown diag-part oracle {spec!r} (use min-block or pool:P)")


def _cmd_inject(args) -> dict:
    tab = Tableau(args.n, args.m)
    s = FinPerm.parse(args.perm)
    image, trace = encode(s, tab)
    print(f"image: {image}")
    print(f"level: {trace.level}")
    print(f"swap: {trace.swap}")
    print(f"conjugated: {trace.conjugated}")
    print(f"marker cycle: {trace.marker_cycle}")
    return {
        "kind": "inject",
        "n": args.n,
        "m": args.m,
        "perm": str(s),
        "image": str(image),
        "level": trace.level,
        "swap": str(trace.swap),
        "conjugated": str(trace.conjugated),
        "marker_cycle": str(trace.marker_cycle),
    }


def _cmd_decode(args) -> dict:
    tab = Tableau(args.n, args.m)
    s = decode(FinPerm.parse(args.perm), tab)
    print(f"decoded: {s}")
    return {"kind": "decode", "n": args.n, "m": args.m, "perm": args.perm, "decoded": str(s)}


def _summarize_certificate(cert: dict) -> None:
    print(f"kind: {cert['kind']}")
    print(f"steps: {cert['steps']}")
    print(f"outputs: {len(cert['outputs'])}")
    print(f"all distinct: {str(cert['all_distinct']).lower()}")
    if cert["violation"] is not None:
        v = cert["violation"]
        print(f"violation: {len(v['witnesses'])} inputs share {v['output']}")


def _cmd_diag_perm(args) -> dict:
    oracle = _perm_oracle(args.oracle, args.n)
    cert = run_perm_diag(args.n, args.k, oracle, args.steps,
                         mode=args.mode, seed_count=args.seeds)
    _summarize_certificate(cert)
    return cert


def _cmd_diag_part(args) -> dict:
    oracle = _set_oracle(args.oracle)
    cert = run_partition_diag(args.k, oracle, args.steps)
    _summarize_certificate(cert)
    return cert


def _cmd_fraenkel(args) -> dict:
    support = parse_atom_set(args.support)
    cfg = SupportConfig(support, args.n, args.atoms)
    report = scan(cfg)
    for key in ("pairs", "missing_moved", "extra_outside", "forced_fixed_point", "escapes"):
        print(f"{key}: {report[key]}")
    return report


def _cmd_bell(args) -> dict:
    if args.upto < 0:
        raise BadParametersError("upto must be non-negative")
    values = [bell(i) for i in range(args.upto + 1)]
    print(" ".join(str(v) for v in values))
    return {"kind": "bell", "upto": args.upto, "values": values}


def _cmd_bounds(args) -> dict:
    params = compute_bounds(args.n, args.k)
    print(f"l0 = {params.l0}")
    print(f"m0 = {params.m0}")
    return {"kind": "bounds", "n": args.n, "k": args.k,
            "l0": params.l0, "m0": params.m0, "window": params.window}


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
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=_cmd_inject)

    p = sub.add_parser("decode", help="invert the injection")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--perm", required=True)
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("diag-perm", help="run the permutation witness engine")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--oracle", default="truncate", help="truncate or pool:P")
    p.add_argument("--mode", choices=("strict", "opportunistic"), default="strict")
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--seeds", type=int, default=64,
                   help="seed count in opportunistic mode (strict computes its own)")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=_cmd_diag_perm)

    p = sub.add_parser("diag-part", help="run the partition witness engine")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--oracle", default="min-block", help="min-block or pool:P")
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=_cmd_diag_part)

    p = sub.add_parser("fraenkel", help="exhaustive support-probe scan over a small carrier")
    p.add_argument("--atoms", type=int, required=True, help="carrier size")
    p.add_argument("--support", default="{}", help='support atoms, e.g. "{0}"')
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=_cmd_fraenkel)

    p = sub.add_parser("bell", help="print Bell numbers")
    p.add_argument("--upto", type=int, required=True)
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=_cmd_bell)

    p = sub.add_parser("bounds", help="threshold parameters for the permutation engine")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=_cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.func(args)
    except FiberboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "json", None):
        _write_json(args.json, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
