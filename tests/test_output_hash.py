"""The descriptions of tools/output_hash.py name every line it prints.

The tool compares two checkouts line by line, so a line that its README
paragraph or its own docstring leaves out cannot be read by whoever
compares.  main runs here with every hash stubbed out, so it prints only the
line names and runs no job.
"""

import collections
import importlib.util
import io
import os
import sys
from contextlib import redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NUMBERS = dict(enumerate(("zero", "one", "two", "three", "four", "five", "six", "seven",
                          "eight", "nine", "ten", "eleven", "twelve", "thirteen",
                          "fourteen", "fifteen", "sixteen")))


def _load_tool(monkeypatch):
    # the tool puts src/ and bench/ in front of sys.path; undo that afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "_output_hash", os.path.join(ROOT, "tools", "output_hash.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _printed_names(module, monkeypatch):
    for attr in dir(module):
        if attr.endswith(("_hash", "_hashes")):
            monkeypatch.setattr(module, attr, lambda *args: collections.defaultdict(str))
    out = io.StringIO()
    with redirect_stdout(out):
        assert module.main(["--seed", "1"]) == 0
    return [line.split()[0] for line in out.getvalue().splitlines()]


def test_every_output_hash_line_is_described(monkeypatch):
    module = _load_tool(monkeypatch)
    names = _printed_names(module, monkeypatch)
    assert len(names) == len(set(names)) > 1
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    start = readme.index("`python3 tools/output_hash.py --seed N` prints")
    paragraph = readme[start:readme.index("\n## ", start)]
    assert paragraph.split()[5] == NUMBERS[len(names)], paragraph.split()[:7]
    for name in names:
        assert f"`{name}`" in paragraph, f"README does not describe the {name} line"
        assert f"`{name}`" in module.__doc__, f"the docstring does not describe {name}"
