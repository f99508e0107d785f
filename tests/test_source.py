import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fiberbound"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}


def code_lines(path) -> int:
    """The lines of the Python file ``path`` that hold code: every line a
    token other than a comment touches, less the lines of the module, class
    and function docstrings."""
    text = Path(path).read_text(encoding="utf-8")
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def test_src_holds_no_assert():
    # python -O strips assert statements, so no invariant of the package may rest on one
    paths = sorted(SRC.glob("*.py"))
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert paths and not found


def _is_type_call(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "type")


def _compares_type_with_int(node) -> bool:
    if not isinstance(node, ast.Compare):
        return False
    sides = [node.left, *node.comparators]
    return (any(map(_is_type_call, sides))
            and any(isinstance(side, ast.Name) and side.id == "int" for side in sides))


def test_type_checks_live_in_one_place():
    # a count is checked by errors._require_int and an atom by atoms._atoms_ok,
    # so no other module compares type(...) with int by hand
    paths = [path for path in sorted(SRC.glob("*.py")) if path.name not in ("errors.py", "atoms.py")]
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if _compares_type_with_int(node)]
    assert paths and not found


_FIXTURE = '''"""A module docstring
over two lines."""

# a comment line

import os  # a trailing comment


class A:
    """Class docstring."""

    x = """a string
that is code"""

    def f(self):
        """Function
        docstring."""
        return (1,
                2)
'''


def test_code_lines_counts_only_code(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(_FIXTURE, encoding="utf-8")
    # import, class, the two lines of x, def, and the two lines of the return
    assert code_lines(path) == 7


if __name__ == "__main__":
    # print each module's code lines and the total; no bound is set
    counts = {path.name: code_lines(path) for path in sorted(SRC.glob("*.py"))}
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
