"""Count the code lines of Python sources: docstrings, comments and blank
lines excluded.

A line counts when a token other than a comment or a line break starts or
runs through it; a docstring is the string that opens a module, class or
function body, and none of its lines count.

    python3 tools/code_lines.py src/gdd    # per file, then the total
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> int:
    """The number of code lines in one module's source."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def files(paths) -> list[Path]:
    """Every .py file named, or found under a directory named, sorted."""
    out: list[Path] = []
    for p in map(Path, paths):
        out += sorted(p.rglob("*.py")) if p.is_dir() else [p]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="+", help="Python files or directories")
    args = parser.parse_args(argv)
    counts = {str(f): count(f.read_text(encoding="utf-8")) for f in files(args.paths)}
    for name, n in counts.items():
        print(f"{n:6d}  {name}")
    print(sum(counts.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
