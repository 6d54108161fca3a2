"""Span tracer that wraps fsskit's public functions from outside.

Nothing under src/ knows about it.  `install()` replaces each target, by
identity, in every loaded fsskit module namespace (so names bound by
`from .x import f` are caught too) and on the owning class for methods;
`restore()` puts every original back.  Spans are recorded only inside
`op()`, so set-up and correctness checks stay out of the trace.

A target that no longer exists (say, after a refactor deletes it) is
reported as absent with the reason instead of failing the run.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

#: (span name, defining module, attribute path).  Several targets may share
#: a span name; the span is absent only when all of them are missing.
TARGETS = (
    ("twoport.abcd_tline", "fsskit.twoport", "abcd_tline"),
    ("twoport.admittance", "fsskit.twoport", "shunt_series_rlc_admittance"),
    ("twoport.admittance", "fsskit.twoport", "shunt_rl_admittance"),
    ("twoport.abcd_shunt", "fsskit.twoport", "abcd_shunt"),
    ("twoport.matmul", "fsskit.twoport", "TwoPortMatrix.__matmul__"),
    ("twoport.abcd_to_s", "fsskit.twoport", "abcd_to_s"),
    ("builder.build_network", "fsskit.builder", "build_network"),
    ("builder.network_abcd", "fsskit.builder", "LayeredNetwork.abcd"),
    ("builder.element_abcd", "fsskit.builder", "ShuntBranch.abcd"),
    ("builder.element_abcd", "fsskit.builder", "LineSegment.abcd"),
    ("analysis.sweep_response", "fsskit.analysis", "sweep_response"),
    ("analysis.network_smatrix", "fsskit.analysis", "network_smatrix"),
    ("analysis.response_curve", "fsskit.analysis", "ResponseCurve.__post_init__"),
    ("analysis.extract_metrics", "fsskit.analysis", "extract_metrics"),
    ("synthesis.fit_circuit", "fsskit.synthesis", "fit_circuit"),
    ("synthesis.width_for_bandwidth", "fsskit.synthesis", "width_for_bandwidth"),
    ("touchstone.write", "fsskit.touchstone", "write_touchstone"),
    ("touchstone.read", "fsskit.touchstone", "read_touchstone"),
    ("cli.main", "fsskit.cli", "main"),
    ("cli.parse_config", "fsskit.cli", "parse_config"),
    ("cli.run", "fsskit.cli", "run"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))


class Tracer:
    """In-memory spans {name, start, end, parent, op_id} plus boundary counters."""

    def __init__(self):
        self.ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.counters = dict.fromkeys(
            ("points", "write_bytes", "read_bytes", "distinct_elements",
             "fit_evals", "width_evals"), 0)
        self.absent: dict[str, str] = {}
        self._stack: list[int] = []
        self._open = [0] * len(SPAN_NAMES)
        self._elements: dict[int, set] = {}
        self._restore: list[tuple[object, str, object]] = []
        self._active = False
        self._op = -1

    # -- recording ---------------------------------------------------------

    @contextmanager
    def op(self, op_id: int):
        """Record spans of everything called inside, tagged with op_id."""
        self._op, self._active = op_id, True
        try:
            yield
        finally:
            self._active = False

    def _enter(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self._open[nid] += 1
        self.start.append(time.perf_counter())
        return idx

    def _exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._open[self.name_id[idx]] -= 1
        seen = self._elements.pop(idx, None)
        if seen:
            self.counters["distinct_elements"] += len(seen)

    def _wrap(self, name: str, fn):
        nid = self.ids[name]
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            if hook is not None:
                hook(tracer, args, None, before=True)
            idx = tracer._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if hook is not None:
                hook(tracer, args, result, before=False)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "fsskit" or n.startswith("fsskit."))]
        installed: set[str] = set()
        missing: dict[str, list[str]] = {}
        for name, module_name, path in TARGETS:
            where = f"{module_name}.{path}"
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = None
            if owner is not None:
                original = vars(owner).get(attr) if owner_name else getattr(owner, attr, None)
            if original is None:
                missing.setdefault(name, []).append(f"{where} not found")
                continue
            installed.add(name)
            wrapper = self._wrap(name, original)
            if owner_name:
                self._replace(owner, attr, original, wrapper)
            else:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, key, original, wrapper)
        for name, reasons in missing.items():
            if name not in installed:
                self.absent[name] = "; ".join(reasons)

    def _replace(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_ms and self_ms summed over all spans."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=dur.size)
        self_time = dur - child
        n = len(SPAN_NAMES)
        calls = np.bincount(nid, minlength=n)
        total = np.bincount(nid, weights=dur, minlength=n)
        own = np.bincount(nid, weights=self_time, minlength=n)
        return {name: {"calls": int(calls[i]), "total_ms": 1e3 * total[i], "self_ms": 1e3 * own[i]}
                for i, name in enumerate(SPAN_NAMES)}

    def save(self, path) -> None:
        """Write the spans as a compressed .npz with the span-name table."""
        np.savez_compressed(
            path,
            names=np.array(SPAN_NAMES),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op_id=np.frombuffer(self.op_id, dtype=np.int32),
        )


def _points(tracer: Tracer, args, result, before: bool) -> None:
    if not before:
        tracer.counters["points"] += int(np.size(result.s21))


def _written(tracer: Tracer, args, result, before: bool) -> None:
    if not before:
        tracer.counters["write_bytes"] += os.path.getsize(args[1])


def _read(tracer: Tracer, args, result, before: bool) -> None:
    if before:
        tracer.counters["read_bytes"] += os.path.getsize(args[0])


def _element(tracer: Tracer, args, result, before: bool) -> None:
    # Distinct elements are counted per enclosing network evaluation.
    if before and tracer._stack:
        element = args[0]
        try:
            hash(element)
        except TypeError:
            element = id(element)
        tracer._elements.setdefault(tracer._stack[-1], set()).add(element)


def _model_eval(counter: str, solver: str):
    def hook(tracer: Tracer, args, result, before: bool) -> None:
        if before and tracer._open[tracer.ids[solver]]:
            tracer.counters[counter] += 1
    return hook


_HOOKS = {
    "twoport.abcd_to_s": _points,
    "touchstone.write": _written,
    "touchstone.read": _read,
    "builder.element_abcd": _element,
    "analysis.network_smatrix": _model_eval("fit_evals", "synthesis.fit_circuit"),
    "analysis.sweep_response": _model_eval("width_evals", "synthesis.width_for_bandwidth"),
}
