"""Count the code lines of Python modules: the lines that carry a token
other than a comment or a docstring. Blank lines, comment lines and the
lines of module, class and function docstrings do not count; a line with
code and a trailing comment does, and so does every line of a multi-line
token that is not a docstring.

    python tools/code_lines.py [PATH ...]

Each PATH is a module or a directory, searched for *.py; the default is
src/decotherm. Prints each module's code lines beside its physical lines
(its newlines, as `wc -l` counts them), then both totals. Standard library
only (tokenize and ast).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_spans(tree: ast.Module) -> set[tuple[int, int]]:
    """The (line, column) starts of every docstring's string tokens."""
    spans = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.add((first.lineno, first.end_lineno))
    return spans


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    docstrings = _docstring_spans(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIP:
            continue
        if tok.type == tokenize.STRING and any(lo <= tok.start[0] and tok.end[0] <= hi
                                               for lo, hi in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or [Path(__file__).resolve().parents[1] / "src" / "decotherm"]
    files = sorted(f for p in paths for f in ([p] if p.is_file() else p.rglob("*.py")))
    totals = [0, 0]
    print("  code   lines  module")
    for f in files:
        source = f.read_text(encoding="utf-8")
        counts = code_lines(source), source.count("\n")
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{counts[0]:6d}  {counts[1]:6d}  {f}")
    print(f"{totals[0]:6d}  {totals[1]:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
