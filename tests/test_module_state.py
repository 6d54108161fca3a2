"""One owner of what a process keeps between calls.

A function of ``src/fsskit`` neither rebinds a module-level name (``global``)
nor changes a module-level container or class attribute, apart from the
one store that owns such state: the values held per grid
(``twoport._HELD``).  So a new cache has to go through ``twoport.held`` or
be named here.
"""

import ast
from pathlib import Path

import pytest

import fsskit

ALLOWED = {"twoport._HELD"}

#: methods of list, dict and set that change the container
MUTATORS = {"append", "extend", "insert", "pop", "popitem", "remove", "clear", "update", "setdefault", "add",
            "discard", "sort", "reverse", "__setitem__", "__delitem__"}


def _root(node):
    """The name an expression such as ``_X[k].pop`` or ``_X.setdefault(k, [])`` starts from, or None."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return node.id if isinstance(node, ast.Name) else None


def _dotted(node):
    """``C.attr`` for an attribute of a name, else the root name."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return f"{node.value.id}.{node.attr}"
    return _root(node)


def module_state_writes(tree):
    """(line, name) of each ``global`` and each write to a module-level name's
    container or attribute inside a function: an item or attribute assigned,
    augmented or deleted, or a mutating method called."""
    names = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names |= {t.id for t in ast.walk(target) if isinstance(t, ast.Name)}
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                found += [(node.lineno, name) for name in node.names]
                continue
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
                targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
                written = [t for t in targets if isinstance(t, (ast.Subscript, ast.Attribute))]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in MUTATORS):
                written = [node.func.value]
            else:
                written = []
            found += [(node.lineno, _dotted(t)) for t in written if _root(t) in names]
    return sorted(set(found))


def test_module_state_writes_finds_each_form():
    source = "\n".join([
        "_A, _B, _C = {}, [], {}",
        "class K:",
        "    n = 0",
        "def f(x):",
        "    global _D",
        "    _A[x] = 1",
        "    _B.append(x)",
        "    _C.setdefault(x, []).append(x)",
        "    del _A[x]",
        "    K.n += 1",
        "    local = {}",
        "    local[x] = _A.get(x)",
        "    return np.add(x, x)",
    ])
    assert module_state_writes(ast.parse(source)) == [
        (5, "_D"), (6, "_A"), (7, "_B"), (8, "_C"), (9, "_A"), (10, "K.n")]


@pytest.mark.parametrize("module", sorted(Path(fsskit.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_only_the_named_stores_keep_state_between_calls(module):
    writes = {f"{module.stem}.{name}" for _, name in module_state_writes(ast.parse(module.read_text()))}
    assert writes <= ALLOWED
