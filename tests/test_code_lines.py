"""``tools/code_lines.py``, the code-line count quoted for ``src/monosmt``."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Five lines count, each marked so by its comment. The docstrings, the bare
# string statement, the comment line and the blank lines do not.
MODULE = '''"""A module docstring,
over two lines."""
# a comment line

import os  # counts


def f(x):  # counts
    """A function docstring."""
    y = (x +  # counts, and so does the line that continues it
         1)
    "a string statement inside a function"

    return "%d" % y  # counts: the string is an operand
'''


def test_counts_code_lines_of_a_written_module(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(MODULE)
    assert code_lines.code_lines(path) == 5


def test_prints_each_module_then_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\nx = 1\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out.splitlines() == [
        "     5  %s" % (tmp_path / "a.py"),
        "     1  %s" % (tmp_path / "b.py"),
        "     6  total",
    ]
