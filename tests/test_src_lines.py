"""tools/src_lines.py: every line of a module is code or prose, once."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

MODULES = sorted((ROOT / "src" / "fsskit").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_code_and_prose_lines_add_up_to_wc_l(path):
    data = path.read_bytes()
    wc, code, prose = src_lines.count(data)
    assert wc == data.count(b"\n")
    assert code + prose == wc
    assert code > 0


SAMPLE = b'''"""Module docstring,
two lines."""

import os  # a comment on a code line
# a comment alone


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        return """a string
that is code"""


def g(): """one line: the def is code"""
'''


def test_docstrings_comments_and_blanks_are_prose():
    # code: import, class, def f, the return's 2 lines, def g
    assert src_lines.count(SAMPLE) == (18, 6, 12)
