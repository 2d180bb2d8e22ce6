#!/usr/bin/env python3
"""Line counts of the package source, the two numbers kept down over time.

For each module of `src/sparse_sketch` it prints its code lines: the lines
that hold a token other than a comment, less the lines of its docstrings
(the leading string of the module and of each class and function body).
A string or bracket that spans lines counts every line it spans. Then it
prints their total, and the physical line count of all the modules, the
total that `wc -l src/sparse_sketch/*.py` reads.

Usage: python scripts/src_lines.py
"""

import ast
import glob
import io
import os
import tokenize

PACKAGE = os.path.join(os.path.dirname(__file__), "..", "src", "sparse_sketch")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """Lines of `source` that hold code outside docstrings and comments."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main() -> None:
    total = physical = 0
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        count = code_lines(source)
        total += count
        physical += source.count("\n")
        print(f"{count:6d}  {os.path.basename(path)}")
    print(f"{total:6d}  code lines")
    print(f"{physical:6d}  wc -l")


if __name__ == "__main__":
    main()
