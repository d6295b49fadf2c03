"""The code-line counter of tools/code_lines.py, loaded from its file."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SOURCE = '''"""Module
docstring."""

import os  # a trailing comment leaves a code line

# a comment line


def f(x):
    """One line."""
    y = """a string that is
    not a docstring"""
    return y


class C:
    """Class
    docstring."""

    async def g(self):
        """Method docstring."""
        return 1
'''


def _load():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blanks_comments_and_docstrings():
    # import, def f, the two lines of y's string, return y, class C,
    # async def g, return 1
    assert _load().code_lines(SOURCE) == 8


def test_code_lines_total_is_the_sum_of_the_modules(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert _load().main(["code_lines.py", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", "8"], ["b.py", "1"], ["total", "9"]]
