import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fiberbound"


def test_src_holds_no_assert():
    # python -O strips assert statements, so no invariant of the package may rest on one
    paths = sorted(SRC.glob("*.py"))
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert paths and not found
