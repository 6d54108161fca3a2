"""Count each module's lines as code or prose.

Usage, from the repository root:

    python3 tools/src_lines.py [FILE.py ...]     # default: src/fsskit/*.py

Prints, per module and in total, the `wc -l` count, the code lines and the
prose lines.  A code line holds a token other than a comment, outside the
module, class and function docstrings.  Prose lines are all the rest:
docstrings, comments and blank lines.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fsskit"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_spans(tree: ast.Module) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) positions, as tokenize gives them, of each docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                s = first.value
                spans.append(((s.lineno, s.col_offset), (s.end_lineno, s.end_col_offset)))
    return spans


def count(source: bytes) -> tuple[int, int, int]:
    """(wc -l, code lines, prose lines) of one module's source."""
    spans = docstring_spans(ast.parse(source))
    code = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type in NOT_CODE or any(a <= tok.start and tok.end <= b for a, b in spans):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    lines = len(io.BytesIO(source).readlines())
    return source.count(b"\n"), len(code), lines - len(code)


def main(argv: list[str]) -> None:
    paths = [Path(p) for p in argv] or sorted(SRC.glob("*.py"))
    total = [0, 0, 0]
    print(f"{'module':<24}{'wc -l':>8}{'code':>8}{'prose':>8}")
    for path in paths:
        counts = count(path.read_bytes())
        total = [t + c for t, c in zip(total, counts)]
        print(f"{path.name:<24}" + "".join(f"{c:>8,}" for c in counts))
    print(f"{'total':<24}" + "".join(f"{c:>8,}" for c in total))


if __name__ == "__main__":
    main(sys.argv[1:])
