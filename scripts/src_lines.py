#!/usr/bin/env python3
"""Count the lines of each module of src/kforms and their total.

A code line is a line that holds part of a token other than a comment:
blank lines, comment lines and the lines of docstrings (the leading string
of a module, class or function) are not code.

    python scripts/src_lines.py

prints one row per module, then the total, as `lines code name`.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kforms"
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def count(text: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if (
            isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = set()
    for token in tokenize.tokenize(io.BytesIO(text.encode()).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def main() -> None:
    rows = [(*count(path.read_text()), path.name) for path in sorted(SRC.glob("*.py"))]
    rows.append((sum(r[0] for r in rows), sum(r[1] for r in rows), "total"))
    for lines, code, name in rows:
        print(f"{lines:6d} {code:6d} {name}")


if __name__ == "__main__":
    main()
