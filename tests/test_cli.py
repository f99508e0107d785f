import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fiberbound.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bell(capsys):
    code, out, _ = run_cli(["bell", "--upto", "6"], capsys)
    assert code == 0
    assert out.strip() == "1 1 2 5 15 52 203"


def test_bounds(capsys):
    code, out, _ = run_cli(["bounds", "--n", "1", "--k", "1"], capsys)
    assert code == 0
    assert "l0 = 8" in out and "m0 = 256" in out


def test_inject_and_decode(capsys, tmp_path):
    path = tmp_path / "inject.json"
    code, out, _ = run_cli(["inject", "--n", "2", "--m", "4",
                            "--perm", "(20;21)", "--json", str(path)], capsys)
    assert code == 0
    assert "image: (0;1)(20;21)" in out
    payload = json.loads(path.read_text())
    assert payload["image"] == "(0;1)(20;21)"
    code, out, _ = run_cli(["decode", "--n", "2", "--m", "4",
                            "--perm", payload["image"]], capsys)
    assert code == 0
    assert "decoded: (20;21)" in out


def test_decode_domain_error(capsys):
    code, _, err = run_cli(["decode", "--n", "2", "--m", "4", "--perm", "()"], capsys)
    assert code == 1
    assert "error:" in err


def test_parse_error_is_domain_error(capsys):
    code, _, err = run_cli(["inject", "--n", "2", "--m", "4", "--perm", "(1)"], capsys)
    assert code == 1
    assert "error:" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["inject", "--n", "2"])
    assert exc.value.code == 2


def test_unknown_oracle(capsys):
    code, _, err = run_cli(["diag-perm", "--n", "1", "--k", "1",
                            "--oracle", "nope"], capsys)
    assert code == 1
    assert "unknown" in err


@pytest.mark.parametrize("args, message", [
    (["diag-perm", "--n", "2", "--k", "0"], "error: k must be at least 1"),
    (["bounds", "--n", "1", "--k", "0"], "error: k must be at least 1"),
    (["diag-perm", "--n", "2", "--k", "1", "--oracle", "pool:abc"], "pool size"),
    (["diag-part", "--k", "1", "--oracle", "pool:abc"], "pool size"),
    (["bell", "--upto", "-1"], "error: upto must be non-negative"),
], ids=["diag-perm-k0", "bounds-k0", "diag-perm-pool-abc", "diag-part-pool-abc", "bell-negative"])
def test_bad_parameters_are_domain_errors(args, message, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and message in err
    assert len(err.strip().splitlines()) == 1


def test_diag_perm_certificate(capsys, tmp_path):
    path = tmp_path / "cert.json"
    code, out, _ = run_cli(["diag-perm", "--n", "1", "--k", "1", "--oracle", "truncate",
                            "--mode", "strict", "--steps", "1", "--json", str(path)], capsys)
    assert code == 0
    cert = json.loads(path.read_text())
    assert cert["kind"] == "ledger-violation"
    assert cert["violation"]["output"] == "()"
    assert len(cert["outputs"]) == 257


def test_diag_part_certificate(capsys, tmp_path):
    path = tmp_path / "cert.json"
    code, _, _ = run_cli(["diag-part", "--k", "1", "--oracle", "min-block",
                          "--steps", "3", "--json", str(path)], capsys)
    assert code == 0
    cert = json.loads(path.read_text())
    assert cert["kind"] in ("part-diag", "ledger-violation")
    assert cert["k"] == 1


def test_fraenkel_report(capsys, tmp_path):
    path = tmp_path / "scan.json"
    code, out, _ = run_cli(["fraenkel", "--atoms", "6", "--support", "{0}",
                            "--n", "2", "--json", str(path)], capsys)
    assert code == 0
    report = json.loads(path.read_text())
    assert report["pairs"] == 400
    assert report["escapes"] == 0
    assert "pairs: 400" in out


def test_strict_infeasible_is_domain_error(capsys):
    code, _, err = run_cli(["diag-perm", "--n", "2", "--k", "1",
                            "--mode", "strict", "--steps", "1"], capsys)
    assert code == 1
    assert "opportunistic" in err


@pytest.mark.parametrize("args", [
    ["bell", "--upto", "8"],
    ["bounds", "--n", "1", "--k", "2"],
    ["inject", "--n", "2", "--m", "5", "--perm", "(30;31)"],
    ["decode", "--n", "2", "--m", "4", "--perm", "(0;1)(20;21)"],
    ["diag-perm", "--n", "2", "--k", "1", "--oracle", "truncate",
     "--mode", "opportunistic", "--seeds", "16", "--steps", "10"],
    ["diag-part", "--k", "1", "--oracle", "pool:6", "--steps", "2"],
    ["fraenkel", "--atoms", "6", "--support", "{0}", "--n", "2"],
])
def test_json_byte_determinism(args, capsys, tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--json", str(first)]) == 0
    assert main(args + ["--json", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_console_entry_point():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "fiberbound.cli", "bell", "--upto", "3"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1 1 2 5"
