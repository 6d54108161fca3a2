"""README's "Library quick start" block runs as written and prints what its
last line, a comment, says it prints.

An API change that breaks the block, or moves what it prints, fails here
until README is brought along.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start\n", 1)[1]
    return re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_prints_what_it_says():
    code = quick_start()
    *_, said = code.splitlines()
    assert re.fullmatch(r"# f_c = \d+\.\d{3} GHz, FBW = \d+\.\d%, Q = \d+\.\d", said), said
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue() == said.removeprefix("# ") + "\n"
