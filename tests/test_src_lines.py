"""tools/src_lines.py: every line of a module is code or prose, once, and a\ncomparison with a revision lists every module of either side."""

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


def test_a_comparison_lists_each_module_of_either_side_and_the_total():
    before = {"a.py": (10, 6, 4), "gone.py": (5, 3, 2)}
    after = {"new.py": (7, 4, 3), "a.py": (8, 6, 2)}
    assert src_lines.compare(before, after) == [
        ("a.py", (10, 6, 4), (8, 6, 2), (-2, 0, -2)),
        ("gone.py", (5, 3, 2), (0, 0, 0), (-5, -3, -2)),
        ("new.py", (0, 0, 0), (7, 4, 3), (7, 4, 3)),
        ("total", (15, 9, 6), (15, 10, 5), (0, 1, -1)),
    ]


def test_a_comparison_of_nothing_is_a_zero_total():
    assert src_lines.compare({}, {}) == [("total", (0, 0, 0), (0, 0, 0), (0, 0, 0))]
