"""Count each module's lines as code or prose.

Usage, from the repository root:

    python3 tools/src_lines.py [FILE.py ...]            # default: src/fsskit/*.py
    python3 tools/src_lines.py --at REV [FILE.py ...]

Prints, per module and in total, the `wc -l` count, the code lines and the
prose lines.  A code line holds a token other than a comment, outside the
module, class and function docstrings.  Prose lines are all the rest:
docstrings, comments and blank lines.  With --at, each count is printed at
the git revision REV (read with `git show`), in the working tree, and as
the difference; a module missing on one side counts 0 there.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fsskit"
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


Counts = tuple[int, int, int]


def compare(before: dict[str, Counts], after: dict[str, Counts]) -> list[tuple[str, Counts, Counts, Counts]]:
    """(module, before, after, after - before) per module of either side, in
    name order, then the total; a module missing on one side counts 0 there."""
    zero, rows = (0, 0, 0), []
    for name in sorted(before.keys() | after.keys()):
        b, a = before.get(name, zero), after.get(name, zero)
        rows.append((name, b, a, tuple(y - x for x, y in zip(b, a))))
    return rows + [("total", *(tuple(map(sum, zip(zero, *(row[i] for row in rows)))) for i in (1, 2, 3)))]


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def counts_at(rev: str, paths: list[str]) -> dict[str, Counts]:
    """count() of each path (relative to the repository root) that exists at rev."""
    listed = set(git("ls-tree", "-r", "--name-only", rev, "--", *paths).decode().splitlines())
    return {path: count(git("show", f"{rev}:{path}")) for path in paths if path in listed}


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description="Count each module's lines as code or prose.")
    parser.add_argument("--at", metavar="REV", help="also count at this git revision, with the difference")
    parser.add_argument("files", nargs="*", type=Path, help="modules to count (default: src/fsskit/*.py)")
    args = parser.parse_args(argv)
    paths = [p.resolve() for p in args.files] or sorted(SRC.glob("*.py"))
    if args.at is None:
        total = [0, 0, 0]
        print(f"{'module':<24}{'wc -l':>8}{'code':>8}{'prose':>8}")
        for path in paths:
            counts = count(path.read_bytes())
            total = [t + c for t, c in zip(total, counts)]
            print(f"{path.name:<24}" + "".join(f"{c:>8,}" for c in counts))
        print(f"{'total':<24}" + "".join(f"{c:>8,}" for c in total))
        return
    try:
        git("rev-parse", "--verify", "--quiet", f"{args.at}^{{commit}}")
    except subprocess.CalledProcessError:
        parser.error(f"not a git revision: {args.at}")
    names = [p.relative_to(ROOT).as_posix() for p in paths]
    if not args.files:  # the modules at rev too, so a deleted one is counted there
        names += git("ls-tree", "--name-only", args.at, "--", "src/fsskit/").decode().split()
        names = sorted({n for n in names if n.endswith(".py")})
    after = {n: count((ROOT / n).read_bytes()) for n in names if (ROOT / n).exists()}
    print(f"{'module':<24}" + "".join(f"{head:>27}" for head in ("wc -l", "code", "prose")))
    print(f"{'':<24}" + f"{args.at[:8]:>9}{'now':>9}{'diff':>9}" * 3)
    for name, b, a, d in compare(counts_at(args.at, names), after):
        print(f"{Path(name).name:<24}" + "".join(f"{x:>9,}{y:>9,}{z:>+9,}" for x, y, z in zip(b, a, d)))


if __name__ == "__main__":
    main(sys.argv[1:])
