"""Code-line counts of Python files: no docstrings, comments or blank lines.

    python3 tools/code_lines.py [PATH ...]

Prints one line per file, `<count> <path>`, then `<total> total`.  A path
that is a directory stands for every `.py` file below it, in sorted order;
with no path, `src/arcat` of this checkout is counted.

A physical line counts when a token other than a comment starts on it or
runs across it, so every line of a continued expression counts, and so does
every line of a multi-line string that is not a docstring.  The lines of a
docstring (the leading string statement of a module, class or function)
do not count.  Standard library only.
"""

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The physical lines of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: str) -> int:
    with open(path, "rb") as fh:
        source = fh.read()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source, path)))


def python_files(paths):
    for path in paths:
        if os.path.isdir(path):
            for folder, dirs, files in os.walk(path):
                dirs.sort()
                yield from (os.path.join(folder, name) for name in sorted(files)
                            if name.endswith(".py"))
        else:
            yield path


def main(argv=None) -> int:
    paths = (sys.argv[1:] if argv is None else argv) or [os.path.join(ROOT, "src", "arcat")]
    total = 0
    for path in python_files(paths):
        count = code_lines(path)
        total += count
        print(f"{count} {path}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
