"""Layer spans for the traced run, installed from outside the package.

`Tracer.patches()` wraps every public function and method of the phaseobs
layer modules, `cli.main`, and `numpy.linalg.eigh`/`eigvalsh`, at every
binding a caller looks up: the defining module, each module that imported
the function by name (spectral's `window_operator`, cli's `normalize`, ...)
and the class attribute for methods, classmethods such as
`PhaseMatrix.from_dict` included.  Spans (name, start, end, parent) are kept
in memory; self time is derived from them afterwards.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import tracemalloc
from contextlib import contextmanager

LAYER_MODULES = ("hardy", "observable", "distribution", "spectral")
LAYERS = ("cli",) + LAYER_MODULES + ("linalg",)


def _unwrap(raw):
    """(function, rewrap) for a plain function or a class/static method."""
    if isinstance(raw, (classmethod, staticmethod)):
        return raw.__func__, type(raw)
    return raw, lambda fn: fn


def targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) of every traced binding."""
    import numpy.linalg

    cli = importlib.import_module("phaseobs.cli")
    found = [(cli, "main", "cli.main"),
             (numpy.linalg, "eigh", "linalg.eigh"),
             (numpy.linalg, "eigvalsh", "linalg.eigvalsh")]
    for layer in LAYER_MODULES:
        mod = importlib.import_module(f"phaseobs.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                found.append((mod, name, f"{layer}.{name}"))
            elif inspect.isclass(obj):
                for attr, raw in vars(obj).items():
                    if attr.startswith("_") and attr != "__post_init__":
                        continue
                    if inspect.isfunction(_unwrap(raw)[0]):
                        found.append((obj, attr, f"{layer}.{obj.__name__}.{attr}"))
    # Names imported into other modules are separate bindings of the same object.
    by_identity = {id(vars(owner)[attr]): name for owner, attr, name in found
                   if inspect.ismodule(owner)}
    package = importlib.import_module("phaseobs")
    modules = [package] + [importlib.import_module(f"phaseobs.{m}")
                           for m in ("cli",) + LAYER_MODULES]
    for mod in modules:
        for attr, obj in vars(mod).items():
            name = by_identity.get(id(obj))
            if name and (mod, attr, name) not in found:
                found.append((mod, attr, name))
    return found


@contextmanager
def installed(wrappers: dict[str, object], bindings) -> None:
    """Replace each binding whose span name is in `wrappers` by
    `wrappers[name](function)`; restore every original on exit."""
    saved = []
    try:
        for owner, attr, name in bindings:
            if name not in wrappers:
                continue
            raw = vars(owner)[attr]
            fn, rewrap = _unwrap(raw)
            saved.append((owner, attr, raw))
            setattr(owner, attr, rewrap(wrappers[name](fn)))
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


class Tracer:
    """Records one span per traced call: [name, start, end, parent index]."""

    def __init__(self, bindings):
        self.bindings = bindings
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = [name, clock(), 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(span)
                try:
                    return fn(*args, **kwargs)
                finally:
                    span[2] = clock()
                    stack.pop()
            return traced
        return wrap

    def patches(self):
        names = {name for _, _, name in self.bindings}
        return installed({name: self._wrap(name) for name in names}, self.bindings)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def summarize(spans, first: int = 0) -> dict:
    """For spans[first:]: self time and call count per layer, and per span
    name the call count and the inclusive time of its outermost calls."""
    spans = spans[first:]
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= first:
            child[parent - first] += end - start
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_calls = dict.fromkeys(LAYERS, 0)
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        layer = name.split(".", 1)[0]
        layer_self[layer] += end - start - child[i]
        layer_calls[layer] += 1
        calls[name] = calls.get(name, 0) + 1
        ancestor = parent
        while ancestor >= first and spans[ancestor - first][0] != name:
            ancestor = spans[ancestor - first][3]
        if ancestor < first:
            inclusive[name] = inclusive.get(name, 0.0) + end - start
    return {"self": layer_self, "layer_calls": layer_calls,
            "inclusive": inclusive, "calls": calls}


@contextmanager
def peak_memory(bindings, name: str, peaks: list):
    """Trace allocations and append the tracemalloc peak (bytes above the
    level at entry) of every call of span `name`."""
    def wrap(fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return measured

    tracemalloc.start()
    try:
        with installed({name: wrap}, bindings):
            yield
    finally:
        tracemalloc.stop()
