"""Span tracing of the brpmarket layers, installed from outside the package.

:func:`install` replaces each public function and method of the layer
modules with a wrapper, in every ``brpmarket`` namespace that holds it, so
calls are traced where their callers look them up (for example both
``brpmarket.market.step_profile`` and ``brpmarket.oracle.step_profile``).
Each call records one span (name, start, end, parent) in flat in-memory
arrays; :func:`remove` puts the original objects back.  Nothing here is
imported by an untraced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from array import array

import numpy as np

LAYERS = ("model", "pricing", "agent", "market", "oracle", "cli")

# project_box_sum's own early-exit margin (agent._SUM_RESIDUAL_TOL); a call
# whose clipped sum lies outside the band by more than this bisects.
_BAND_MARGIN = 1e-13


class Tracer:
    """Spans and counters of one traced region, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}

    def intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def enter(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def arrays(self):
        """(name_id, parent, duration, self_time) as numpy arrays, one entry per span."""
        ids = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        duration = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested],
                              minlength=duration.size)
        return ids, parent, duration, duration - covered

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        ids, _, duration, self_time = self.arrays()
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=duration, minlength=k)
        own = np.bincount(ids, weights=self_time, minlength=k)
        return {name: {"calls": int(calls[i]), "s": float(total[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def calls_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        if name not in self._name_ids or ancestor not in self._name_ids:
            return 0
        ids, parent, _, _ = self.arrays()
        inside = ids == self._name_ids[ancestor]
        nested = parent >= 0
        safe_parent = np.where(nested, parent, 0)
        # A parent always precedes its children, so each pass settles one
        # more level of the tree.
        while True:
            grown = inside | (nested & inside[safe_parent])
            if np.array_equal(grown, inside):
                break
            inside = grown
        below = inside & (ids != self._name_ids[ancestor])
        return int(np.sum(below & (ids == self._name_ids[name])))

    def save(self, path) -> None:
        ids, parent, _, _ = self.arrays()
        np.savez(path, names=np.array(self.names, dtype=str), name_id=ids,
                 parent=parent, start=np.array(self.start, dtype=float),
                 end=np.array(self.end, dtype=float))


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _count_shift(tracer, args, kwargs, result):
    x = np.maximum(np.asarray(_arg(args, kwargs, 0, "x"), dtype=float), 0.0)
    total = float(x.sum())
    inside = (_arg(args, kwargs, 1, "d_min") - _BAND_MARGIN <= total
              <= _arg(args, kwargs, 2, "d_max") + _BAND_MARGIN)
    tracer.count("agent.project_box_sum.shift", float(not inside))


def _count_iterations(tracer, args, kwargs, result):
    tracer.count("market.iterations", result[0].iterations)


def _count_trace_output(tracer, args, kwargs, result):
    trace = args[0]
    tracer.count("market.trace_rows",
                 sum(rec.allocation.x.size for rec in trace.records))
    tracer.count("market.trace_bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))


def _count_grid_points(tracer, args, kwargs, result):
    scenario = _arg(args, kwargs, 0, "scenario")
    step = _arg(args, kwargs, 1, "grid_step")
    points = 1
    for c in scenario.customers:
        for sat in np.asarray(c.satiation, dtype=float):
            points *= int(np.ceil((sat + 0.5 * step) / step))
    tracer.count("oracle.grid_points", points)


# Counters computed from a call's arguments and result, outside its span.
HOOKS = {
    "agent.project_box_sum": _count_shift,
    "market.run_market": _count_iterations,
    "market.IterationTrace.to_csv": _count_trace_output,
    "oracle.brute_force_welfare": _count_grid_points,
}


def targets() -> list[tuple[object, str, object, str]]:
    """Every (namespace, attribute, original object, span name) to wrap.

    Functions are found in the layer module that defines them and in every
    other brpmarket namespace that imported them by name; methods, class
    methods and static methods of the layers' classes in the class itself.
    Names starting with an underscore are left alone.
    """
    modules = [importlib.import_module(f"brpmarket.{layer}") for layer in LAYERS]
    namespaces = modules + [importlib.import_module("brpmarket")]
    found = []
    for layer, module in zip(LAYERS, modules):
        for attr, obj in sorted(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                span = f"{layer}.{attr.removeprefix('cmd_')}"
                for ns in namespaces:
                    for ns_attr, ns_obj in sorted(vars(ns).items()):
                        if ns_obj is obj:
                            found.append((ns, ns_attr, obj, span))
            elif inspect.isclass(obj):
                for meth, raw in sorted(vars(obj).items()):
                    if meth.startswith("_"):
                        continue
                    if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
                        found.append((obj, meth, raw, f"{layer}.{attr}.{meth}"))
    return found


def _wrap(fn, tracer: Tracer, span: str):
    nid = tracer.intern(span)
    hook = HOOKS.get(span)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.enter(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(idx)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every target; returns what :func:`remove` needs to undo it."""
    installed = []
    for owner, attr, raw, span in targets():
        if isinstance(raw, classmethod):
            wrapped = classmethod(_wrap(raw.__func__, tracer, span))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(_wrap(raw.__func__, tracer, span))
        else:
            wrapped = _wrap(raw, tracer, span)
        setattr(owner, attr, wrapped)
        installed.append((owner, attr, raw))
    return installed


def remove(installed) -> None:
    """Put back the original objects replaced by :func:`install`."""
    for owner, attr, raw in reversed(installed):
        setattr(owner, attr, raw)
