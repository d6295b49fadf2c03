"""Count the code lines of src/skewlin, per module and in total.

A code line is a non-blank line that is not a comment and does not lie
inside a docstring (the leading string of a module, class or function).
Only the standard library is used.

    python3 tools/code_lines.py [package-dir]
"""

from __future__ import annotations

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "skewlin"
DEFINITIONS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that docstrings occupy in the parsed module."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, DEFINITIONS) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if number not in skip and line.strip() and not line.strip().startswith("#")
    )


def main(argv: list[str]) -> int:
    package = pathlib.Path(argv[1]) if len(argv) > 1 else PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:16} {count:5}")
    print(f"{'total':16} {total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
