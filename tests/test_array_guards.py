"""twoport.all_finite and twoport.any_zero, the two owners of the array guards.

A C-contiguous complex128 array is tested through its float64 view, any
other value as it is.  The property below checks both helpers against
np.isfinite(z).all() and np.any(z == 0) over dtypes, layouts, 0-d and empty
arrays, signed zeros and non-finite parts.  Each guard that calls them has
a regression here whose fault sits where the float view could miss it: NaN
or inf in one part only, or a value whose parts are both -0.0.  The last
test keeps every other module from testing arrays on its own.
"""

import ast
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes

import fsskit
from fsskit import synthesis
from fsskit.analysis import FrequencyGrid, ResponseCurve, sweep_response
from fsskit.builder import CircuitParams, build_network
from fsskit.errors import DomainError, SingularNetworkError
from fsskit.synthesis import FitProblem, aligned_start, fit_circuit
from fsskit.touchstone import _parse_at_once
from fsskit.twoport import (
    NORMAL,
    SMatrix,
    abcd_delta,
    abcd_shunt,
    all_finite,
    any_zero,
    j_omega,
    rlc_admittance,
)

PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.5, 5e-324, math.nan, math.inf, -math.inf]),
    st.floats(),
)
LAYOUTS = ("C", "F", "strided", "reversed")


def laid_out(z, layout):
    """z in one memory layout, its values unchanged."""
    if layout == "F":
        return np.asfortranarray(z)
    if layout == "strided" and z.ndim:
        return np.repeat(z, 2, axis=-1)[..., ::2]
    if layout == "reversed" and z.ndim:
        return np.ascontiguousarray(z[..., ::-1])[..., ::-1]
    return np.ascontiguousarray(z)


@st.composite
def guarded_arrays(draw):
    shape = draw(array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
    dtype = draw(st.sampled_from(["complex128", "float64", "complex64", ">c16"]))
    size = math.prod(shape)
    re = np.array(draw(st.lists(PARTS, min_size=size, max_size=size)), float).reshape(shape)
    im = np.array(draw(st.lists(PARTS, min_size=size, max_size=size)), float).reshape(shape)
    z = np.empty(shape, dtype)
    with np.errstate(over="ignore"):  # a large part is inf in complex64
        if z.dtype.kind == "c":
            z.real, z.imag = re, im
        else:
            z[...] = re
    return laid_out(z, draw(st.sampled_from(LAYOUTS)))


@settings(max_examples=400, deadline=None)
@given(guarded_arrays())
@example(np.array(-0.0 - 0.0j))
@example(np.array(complex(math.nan, 0.0)))
@example(np.empty((0, 3), complex))
@example(np.empty((2, 0), complex, order="F"))
@example(np.array([1.0 + 0.0j, 0.0 + 1.0j, -0.0 - 0.0j]))
@example(np.array([complex(0.0, math.nan), complex(math.inf, 0.0)]))
def test_helpers_match_the_plain_expressions(z):
    finite, zero = all_finite(z), any_zero(z)
    assert finite is bool(np.isfinite(z).all())
    assert zero is bool(np.any(z == 0))


@pytest.mark.parametrize("z", [np.complex128(-0.0 - 0.0j), np.float64(0.0), np.complex128(complex(0.0, math.inf))])
def test_helpers_take_numpy_scalars(z):
    assert all_finite(z) is bool(np.isfinite(z))
    assert any_zero(z) is bool(z == 0)


# ---------------------------------------------------------------------------
# one regression per guard


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_abcd_shunt_rejects_a_non_finite_imaginary_part(bad):
    y = np.full(5, 1e-3 + 2e-3j)
    y.imag[3] = bad
    with pytest.raises(DomainError, match="^shunt admittance must be finite$"):
        abcd_shunt(y)
    assert abcd_shunt(y.real * 1j).c.imag.tolist() == y.real.tolist()  # real parts all 0 are finite


def test_rlc_admittance_with_every_real_part_zero_is_not_shorted():
    # r = 0 makes every real part of z exactly 0; no entry is a short
    jw = j_omega(np.linspace(1e9, 2e9, 7))
    y = rlc_admittance(0.0, 1.61e-9, 0.6e-12, jw)
    assert y.tobytes() == (1.0 / (0.0 + jw * 1.61e-9 + 1 / (jw * 0.6e-12))).tobytes()


def test_abcd_delta_of_negative_zeros_is_singular():
    a = np.array([1.0 + 0.0j, -0.0 - 0.0j, 0.0 + 1.0j])
    zeros = np.full(3, -0.0 - 0.0j)
    with pytest.raises(SingularNetworkError, match=r"^singular network: a \+ b/z \+ c z \+ d = 0$"):
        abcd_delta(a, zeros, zeros, zeros)
    with pytest.raises(SingularNetworkError):
        abcd_delta(np.array(-0.0 - 0.0j), zeros[0], zeros[0], zeros[0])
    assert abcd_delta(a[::2], zeros[:2], zeros[:2], zeros[:2]).tolist() == [1.0, 1j]


@pytest.mark.parametrize("name", ["s11", "s21", "s22"])
@pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
def test_response_curve_rejects_nan_in_an_imaginary_part_alone(name, strided):
    table = np.ones((4, 3), complex) if strided else None
    arrays = {key: np.ones(4, complex) for key in ("s11", "s21", "s22")}
    bad = table[:, 1] if strided else arrays[name]
    bad.imag[2] = math.nan
    arrays[name] = bad
    assert arrays[name].flags.c_contiguous is not strided
    with pytest.raises(DomainError, match=f"^{name} contains non-finite samples$"):
        ResponseCurve(np.linspace(1e9, 2e9, 4), **arrays)


TRUTH = CircuitParams(L=2.85e-9, L1=1.61e-9, C1=0.6e-12)


def fit_problem():
    observed = sweep_response(build_network(TRUTH), FrequencyGrid(1e9, 5e9, 401), NORMAL)
    start = {"L": 2.5e-9, "L1": 1.5e-9, "C1": 0.65e-12}
    bounds = {name: (v / 4, v * 4) for name, v in start.items()}
    return FitProblem(observed=observed, base=TRUTH, free=tuple(start), initial=start, bounds=bounds)


def nan_imaginary_model(problem):
    """A model whose s21 is the observed one with the imaginary part of one sample NaN."""
    def model(values):
        rows = np.broadcast_shapes(*map(np.shape, values.values()), problem.observed.freqs.shape)
        s21 = np.array(np.broadcast_to(problem.observed.s21, rows))
        s21.imag[..., 7] = math.nan
        return SMatrix(s11=None, s21=s21, s12=s21, s22=None, z_ref=376.730)

    return model


def test_aligned_start_keeps_a_start_whose_s21_has_a_nan_imaginary_part():
    problem = fit_problem()
    assert aligned_start(problem, nan_imaginary_model(problem)) == problem.initial


def test_fit_names_a_start_whose_s21_has_a_nan_imaginary_part():
    problem = fit_problem()
    with mock.patch.object(synthesis, "fit_model", lambda problem, work: nan_imaginary_model(problem)):
        with pytest.raises(DomainError, match=r"^the model's \|s21\| is not finite at the fit's start$"):
            fit_circuit(problem)


@pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", [0, 2, 8])
def test_parse_at_once_leaves_a_non_finite_field_to_the_line_loop(field, column):
    rows = ["1.0 1 0 0 0 0 0 1 0".split(), "2.0 1 0 0 0 0 0 1 0".split()]
    assert _parse_at_once([" ".join(r) for r in rows], 1e9).shape == (2, 9)
    rows[1][column] = field
    assert _parse_at_once([" ".join(r) for r in rows], 1e9) is None


# ---------------------------------------------------------------------------
# one owner


HELPERS = {"all_finite", "any_zero"}


def _is_np(node, name):
    return isinstance(node, ast.Attribute) and node.attr == name and isinstance(node.value, ast.Name) \
        and node.value.id == "np"


def _is_zero_test(node, zero_names):
    if isinstance(node, ast.Name):
        return node.id in zero_names
    return isinstance(node, ast.Compare) and any(isinstance(op, ast.Eq) for op in node.ops) and any(
        isinstance(c, ast.Constant) and c.value == 0 for c in [node.left, *node.comparators])


def guard_calls(tree):
    """(line, text) of each np.isfinite, and each np.any(x == 0) or (x == 0).any(), also
    through a name bound to x == 0 in the same function, outside the helpers."""
    found = []

    def visit(node, zero_names):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in HELPERS:
                return
            zero_names = {t.id for n in ast.walk(node) if isinstance(n, ast.Assign) and _is_zero_test(n.value, ())
                          for t in n.targets if isinstance(t, ast.Name)}
        if _is_np(node, "isfinite"):
            found.append(node)
        elif isinstance(node, ast.Call) and (
            (_is_np(node.func, "any") and node.args and _is_zero_test(node.args[0], zero_names))
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "any"
                and _is_zero_test(node.func.value, zero_names))
        ):
            found.append(node)
        for child in ast.iter_child_nodes(node):
            visit(child, zero_names)

    visit(tree, set())
    return [(n.lineno, ast.unparse(n)) for n in found]


def test_guard_calls_finds_each_form():
    source = "\n".join([
        "def f(z):",
        "    ok = np.all(np.isfinite(z))",
        "    shorted = z == 0",
        "    return np.any(shorted) or np.any(z == 0) or (0 == z).any() or math.isfinite(1.0)",
        "def all_finite(z):",
        "    return np.isfinite(z).all()",
    ])
    assert [line for line, _ in guard_calls(ast.parse(source))] == [2, 4, 4, 4]


@pytest.mark.parametrize("module", sorted(Path(fsskit.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_array_guards_go_through_the_helpers(module):
    assert guard_calls(ast.parse(module.read_text())) == []
