"""Benchmark runner for fiberbound.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload part-stream --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --repeat 3

One run is one workload in one process: a single-threaded closed loop in
which each item starts when the previous one finishes.  The seed fixes one
round of inputs, and the round repeats until ``--seconds`` have passed (and
at least 100 items were timed); every repetition must give byte-identical
certificates.  Round and item times are wall times scaled to the host's
reference speed (see ``calibrate``).  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
traced run alternates untraced and traced copies of each round, requires
their outputs to match, and reports the difference as the tracing overhead.
Every run also writes a results file under ``.bench_results/``.

``--workload all`` runs every workload ``--repeat`` times, each in its own
process with seeds ``seed, seed+1, ...``, prints every metric with its
median and quartiles, and writes them to one results file.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
WORKLOAD_NAMES = ("part-stream", "perm-stream", "refute", "support-scan", "codec")
SETUP_PROBES = 9
MIN_ITEMS = 100
CHILD_TIMEOUT_S = 600
# Seconds the calibration loop takes on the reference host (2-core x86-64
# VM, Python 3.11) when it is not slowed by other tenants.
CAL_REF_S = 0.060


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=1, help="runs per workload with --workload all")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _quartiles(values) -> dict:
    values = list(values)
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "min": min(values), "mean": statistics.fmean(values)}


def _commit() -> dict:
    """The git commit when there is one, and a digest of the sources always."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    out = {"source_sha256": h.hexdigest(), "git": None}
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        if proc.returncode == 0:
            out["git"] = proc.stdout.strip()
    return out


def _meta(args, repeat: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "repeat": repeat,
    }


def _write_results(name: str, payload: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / name).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop that never touches the program.

    The host's speed swings by up to half in phases of seconds (other
    tenants share its cores), and the loop slows with it.  Round and item
    times are scaled by ``CAL_REF_S`` over the loop's time just before and
    after the round, which keeps a slow phase from reading as a slow
    program; the unscaled wall times are kept in the results file.  Set-up
    time is mostly process start-up, which the loop does not track, so it
    stays unscaled.
    """
    t0 = time.perf_counter()
    for i in range(4000):
        table = {j: (j * 7919) % 1009 for j in range(i % 50, i % 50 + 40)}
        ",".join(str(x) for x in sorted(frozenset(table.values())))
    return time.perf_counter() - t0


def _setup_probe_seconds(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports the package and builds
    the round's oracles and engines, then exits."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.decode(errors='replace')}")
    return elapsed


def run_round(wl, seed: int, checks, tracer=None):
    """Prepare, execute (timed) and check one round.

    Returns ``(run_ns, items_ns, texts, digests)``.
    """
    import workloads

    wrap = tracer.oracle if tracer else (lambda fn: fn)
    spans = tracer.span if tracer else workloads.no_spans
    # every round starts from the same heap: earlier rounds' garbage would
    # otherwise be collected, and timed, inside a later round
    gc.collect()
    state = wl.prepare(seed, wrap)
    items: list[int] = []
    if tracer:
        tracer.install()
    try:
        with spans("round"):
            t0 = time.perf_counter_ns()
            result, texts = wl.execute(state, items, spans)
            run_ns = time.perf_counter_ns() - t0
    finally:
        if tracer:
            tracer.uninstall()
    digests = wl.check(state, result, checks)
    return run_ns, items, texts, digests


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']!r:>24} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_one(args) -> int:
    import workloads
    from shims import Tracer

    wl = workloads.make(args.workload)
    checks = workloads.Checks()
    setup_s = [] if args.trace else [_setup_probe_seconds(args.workload, args.seed)
                                     for _ in range(SETUP_PROBES)]
    tracer = Tracer() if args.trace else None
    run_raw, run_s, traced_s, items_ms, cal = [], [], [], array("d"), [calibrate()]
    start = time.perf_counter()
    r = 0
    while (r == 0 or time.perf_counter() - start < args.seconds
           or (not args.trace and len(items_ms) < MIN_ITEMS)):
        run_ns, round_items, texts, digests = run_round(wl, args.seed, checks)
        cal.append(calibrate())
        scale = CAL_REF_S / statistics.fmean(cal[-2:])
        run_raw.append(run_ns * 1e-9)
        run_s.append(run_ns * 1e-9 * scale)
        items_ms.extend(ns * 1e-6 * scale for ns in round_items)
        if r == 0:
            shas = [workloads.sha256(t) for t in texts]
            cert_bytes = sum(len(t) for t in texts)
        else:
            checks.expect(f"round {r}: certificates identical to round 0",
                          lambda: [workloads.sha256(t) for t in texts] == shas)
        if tracer:
            traced_ns, _, _, traced_digests = run_round(wl, args.seed, checks, tracer)
            traced_s.append(traced_ns * 1e-9)
            checks.expect(f"round {r}: traced outputs match untraced",
                          lambda: traced_digests == digests)
        r += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    samples = {"run_s": _quartiles(run_s), "run_s_wall": _quartiles(run_raw),
               "item_ms": _quartiles(items_ms), "calibration_s": _quartiles(cal)}
    if tracer:
        overhead = [t - u for t, u in zip(traced_s, run_raw)]
        layer = tracer.metrics(len(traced_s))
        layer["bench.trace.overhead_s"] = (statistics.median(overhead), "s")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        samples["traced_run_s_wall"] = _quartiles(traced_s)
        samples["overhead_s_wall"] = _quartiles(overhead)
        RESULTS.mkdir(exist_ok=True)
        spans_file = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_file)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "run_s": {"value": statistics.median(run_s), "unit": "s"},
            "item_ms_p50": {"value": statistics.median(items_ms), "unit": "ms"},
            "item_ms_p90": {"value": statistics.quantiles(items_ms, n=10)[8], "unit": "ms"},
            "cert_bytes": {"value": cert_bytes, "unit": "bytes"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        samples["setup_s"] = _quartiles(setup_s)
        spans_file = None
    correct = checks.failed == 0 and checks.attempted > 0
    _write_results(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", {
        **_meta(args, r),
        "workload": args.workload,
        "rounds": r,
        "items": len(items_ms),
        "calibration_ref_s": CAL_REF_S,
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failed_frac": checks.failed / checks.attempted,
        "failures": checks.notes,
        "metrics": metrics,
        "samples": samples,
        "certificate_sha256": shas,
        "spans": spans_file.name if spans_file else None,
    })
    print(f"workload {args.workload} seed {args.seed}: {r} rounds, {len(items_ms)} items, "
          f"{checks.attempted} checks, {checks.failed} failed "
          f"(failed_frac {checks.failed / checks.attempted!r})")
    _emit(correct, checks.attempted, checks.failed, metrics)
    return 0


def run_all(args) -> int:
    per_workload: dict[str, list[dict]] = {}
    for name in WORKLOAD_NAMES:
        for i in range(args.repeat):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed + i), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise RuntimeError(f"{name} seed {args.seed + i} exited {proc.returncode}")
            per_workload.setdefault(name, []).append(json.loads(proc.stdout.splitlines()[-1]))

    summary, flat = {}, {}
    attempted = failed = 0
    for name, results in per_workload.items():
        attempted += sum(res["attempted"] for res in results)
        failed += sum(res["failed"] for res in results)
        summary[name] = {}
        for metric, first in results[0]["metrics"].items():
            q = _quartiles(res["metrics"][metric]["value"] for res in results)
            summary[name][metric] = {**q, "unit": first["unit"]}
            flat[f"{name}/{metric}"] = {"value": q["median"], "unit": first["unit"]}
            print(f"{name:13s} {metric:40s} median {q['median']!r} "
                  f"[q1 {q['q1']!r}, q3 {q['q3']!r}] {first['unit']} (n={q['n']})")
    _write_results(f"all-seed{args.seed}-trace{args.trace}.json", {
        **_meta(args, args.repeat), "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else None, "workloads": summary})
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": flat}))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "fiberbound" / "__init__.py").is_file():
        print(f"error: no fiberbound package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fiberbound

    if SRC not in Path(fiberbound.__file__).resolve().parents:
        print(f"error: fiberbound imported from {fiberbound.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        import workloads

        workloads.make(args.workload).prepare(args.seed, lambda fn: fn)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
