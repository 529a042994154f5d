"""tools/code_lines.py counts code lines: no docstrings, comments or blanks."""

import importlib.util
import io
import os
from contextlib import redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FIXTURE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment does not hide the code


# a comment line
def f(x):
    """Function docstring."""
    total = (x +
             1)
    text = """not a docstring:
    both lines count"""
    return total, text


class C:
    """Class docstring."""
    y = [1,

         2]
'''
# code lines: import, def, the two of total, the two of text, return, class,
# and y's 1 and 2 (the blank line inside the brackets is not code)
FIXTURE_CODE_LINES = 10


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "_code_lines", os.path.join(ROOT, "tools", "code_lines.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fixture_counts_only_code(tmp_path):
    tool = _load_tool()
    (tmp_path / "pkg").mkdir()
    path = tmp_path / "pkg" / "fixture.py"
    path.write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n", encoding="utf-8")
    assert tool.code_lines(str(path)) == FIXTURE_CODE_LINES
    out = io.StringIO()
    with redirect_stdout(out):
        assert tool.main([str(tmp_path / "pkg"), str(path)]) == 0
    assert out.getvalue().splitlines() == [f"10 {path}", f"10 {path}", "20 total"]
