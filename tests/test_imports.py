"""Every import is used by the module that makes it.

A name bound by an import statement counts as used when the module reads
it anywhere: as a name, as the base of an attribute, inside a string
annotation, or in `__all__`.  Moving a function between modules leaves its
old imports behind unless a check like this one catches them.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = ("src/arcat", "tools", "tests")


def _sources():
    for folder in SCANNED:
        base = os.path.join(ROOT, folder)
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                yield os.path.join(folder, name)


def _imported(tree):
    """(bound name, line) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return used


def unused_imports(source: str):
    """(name, line) for every imported name that source never reads."""
    tree = ast.parse(source)
    used = _used(tree)
    return [(name, line) for name, line in _imported(tree) if name not in used]


@pytest.mark.parametrize("path", list(_sources()))
def test_every_import_is_used(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_the_scan_finds_an_unused_import_and_passes_used_ones():
    """A negative control: each kind of binding the scan knows is caught
    when unused, and each kind of use is seen."""
    source = '''
import os
import os.path
import json as j
from typing import Dict, List, Optional
from . import helper
from .mod import thing as other

__all__ = ["helper"]


def f(x: "Optional[int]") -> List:
    return os.sep, x
'''
    assert sorted(unused_imports(source)) == [("Dict", 5), ("j", 4), ("other", 7)]
