"""Self-tests of the benchmark: run with ``python3 -m pytest benchmarks``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from fiberbound import inject
from fiberbound.perms import FinPerm
from shims import SHIMS, ShimTargetMissing, Tracer

NAMES = list(workloads.WORKLOADS)


def _round(name, seed=3, tracer=None):
    wl = workloads.make(name, tiny=True)
    checks = workloads.Checks()
    _, items, texts, digests = run.run_round(wl, seed, checks, tracer)
    return checks, items, texts, digests


@pytest.mark.parametrize("name", NAMES)
def test_tiny_round_passes_its_checks(name):
    checks, items, texts, _ = _round(name)
    assert checks.attempted > 0
    assert checks.failed == 0, checks.notes
    assert items and texts


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_inputs(name):
    wl = workloads.make(name, tiny=True)

    def inputs(seed):
        state = wl.prepare(seed, lambda fn: fn)
        if name in ("part-stream", "perm-stream"):
            return state[0]
        if name == "refute":
            return [claim for claim, _ in state]
        if name == "support-scan":
            return state
        return [(tab.n, tab.m, atoms) for tab, atoms in state]

    assert inputs(5) == inputs(5)
    assert any(inputs(5) != inputs(s) for s in range(6, 30))


def test_pins_cover_every_seedable_input():
    pins = json.loads(workloads.PINS_PATH.read_text())
    for cls in (workloads.PartStream, workloads.PermStream):
        for tiny in (True, False):
            wl = cls(tiny)
            assert all(wl.pin_key(p) in pins for p in wl.all_params())


@pytest.mark.parametrize("corrupt", [
    lambda c: c.pop("outputs"),
    lambda c: c["outputs"].append(c["outputs"][0]),
    lambda c: c.update(kind="stuck"),
    lambda c: c.update(violation={"output": "{}", "witnesses": []}),
    lambda c: c.update(steps="three"),
])
def test_corrupted_certificate_counts_as_failure(corrupt):
    wl = workloads.make("part-stream", tiny=True)
    state = wl.prepare(3, lambda fn: fn)
    cert, _ = wl.execute(state, [], workloads.no_spans)
    corrupt(cert)
    checks = workloads.Checks()
    wl.check(state, cert, checks)
    assert checks.failed >= 1


def test_colliding_oracle_counts_as_failure(monkeypatch):
    monkeypatch.setattr(workloads, "bench_perm_oracle",
                        lambda offset: lambda s: FinPerm.cycle([offset, offset + 1]))
    checks, _, texts, _ = _round("perm-stream")
    assert checks.failed >= 1
    assert json.loads(texts[0])["kind"] == "ledger-violation"


def test_wrong_refutation_counts_as_failure():
    wl = workloads.make("refute", tiny=True)
    state = wl.prepare(3, lambda fn: fn)
    certs, _ = wl.execute(state, [], workloads.no_spans)
    certs[0]["violation"]["output"] = "(999998;999999)"
    certs[1]["violation"]["witnesses"].pop()
    certs[2]["violation"] = None
    checks = workloads.Checks()
    wl.check(state, certs, checks)
    assert checks.failed == 3


@pytest.mark.parametrize("name", NAMES)
def test_shims_are_transparent_and_restored(name):
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in SHIMS]
    _, _, _, plain = _round(name)
    tracer = Tracer()
    checks, _, _, traced = _round(name, tracer=tracer)
    assert checks.failed == 0, checks.notes
    assert traced == plain
    assert all(vars(owner)[attr] is original for owner, attr, original in originals)
    assert sum(tracer.calls.values()) > 0
    assert all(span is not None for span in tracer.spans)


def test_missing_shim_target_raises_and_restores(monkeypatch):
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in SHIMS
                 if not (owner is inject and attr == "decode")]
    monkeypatch.delattr(inject, "decode")
    with pytest.raises(ShimTargetMissing):
        Tracer().install()
    assert all(vars(owner)[attr] is original for owner, attr, original in originals)


def test_self_times_add_up_to_the_traced_round():
    tracer = Tracer()
    wl = workloads.make("part-stream", tiny=True)
    run.run_round(wl, 3, workloads.Checks(), tracer)
    steps = tracer.counts["partition_engine.step.steps"]
    assert steps == wl.steps
    assert tracer.calls["partitions.build_frame"] == steps
    assert tracer.counts["partitions.ranked.drawn"] == tracer.calls["partitions.lift"]
    (round_span,) = [s for s in tracer.spans if s[2] == "round"]
    assert sum(tracer.self_ns.values()) <= round_span[4] - round_span[3]


def test_fails_without_the_program_sources(tmp_path):
    repo = Path(run.ROOT)
    shutil.copy(repo / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "codec",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
