"""Span tracing of f1geom, installed from outside the package.

`Tracer.install` replaces every public function and method of the
`f1geom` modules with a timing wrapper.  Modules bind each other's names
through ``from .intlinalg import ...``, so every module namespace that
binds a wrapped function gets the same wrapper, not only the module that
defines it.  Properties and cached properties are attribute reads and are
not wrapped.

Each call is one span: function, parent span, start and end.  Spans stay
in memory in flat arrays and are written out by `write_spans` when the
pass ends.  Counts and busy time are kept per function as the spans
close: a span's self time is its duration minus the time covered by its
child spans.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from array import array

LAYERS = ("intlinalg", "cones", "monoid", "spectrum", "fans", "counting",
          "torified", "zeta", "semiring", "fzoo", "io", "cli")

# Functions whose canonical inputs are hashed to measure how often a call
# repeats an earlier input of the same pass (what a memo cache relies on).
REPEAT_KEYED = ("intlinalg.smith_normal_form", "cones.double_description")
# Spans that compute Hilbert bases; their yield is vectors returned per
# rat_solve made inside them.
HILBERT = ("cones.hilbert_basis", "cones.lattice_monoid_generators")


def freeze(value):
    """Hashable canonical form of nested lists and tuples."""
    if isinstance(value, (list, tuple)):
        return tuple(freeze(v) for v in value)
    return value


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.outer_s: list[float] = []  # time of calls not nested in a call of the same function
        self._active: list[int] = []
        self.parent = array("q")
        self.func = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._child = [0.0]
        self.seen: dict[str, set] = {name: set() for name in REPEAT_KEYED}
        self.repeats: dict[str, int] = {name: 0 for name in REPEAT_KEYED}
        self.counters = {"torified.tori": 0, "hilbert.vectors": 0, "hilbert.rat_solve": 0}
        self._hilbert_depth = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers

    def _span(self, fn, name):
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.outer_s.append(0.0)
        self._active.append(0)
        parent, func, start, end = self.parent, self.func, self.start, self.end
        stack, child = self._stack, self._child
        calls, self_s, outer_s, active = self.calls, self.self_s, self.outer_s, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(func)
            parent.append(stack[-1])
            func.append(idx)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            child.append(0.0)
            calls[idx] += 1
            active[idx] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                active[idx] -= 1
                stack.pop()
                dur = t1 - t0
                self_s[idx] += dur - child.pop()
                child[-1] += dur
                if not active[idx]:
                    outer_s[idx] += dur
                start[sid] = t0
                end[sid] = t1

        return traced

    def _account(self, traced, name):
        """Counters kept outside the span, so the span times the function only."""
        if name in REPEAT_KEYED:
            seen = self.seen[name]

            @functools.wraps(traced)
            def keyed(*args, **kwargs):
                key = (freeze(args), freeze(sorted(kwargs.items())))
                if key in seen:
                    self.repeats[name] += 1
                else:
                    seen.add(key)
                return traced(*args, **kwargs)

            return keyed
        if name in HILBERT:
            @functools.wraps(traced)
            def hilbert(*args, **kwargs):
                self._hilbert_depth += 1
                try:
                    result = traced(*args, **kwargs)
                finally:
                    self._hilbert_depth -= 1
                if not self._hilbert_depth:
                    self.counters["hilbert.vectors"] += len(getattr(result, "vectors", result))
                return result

            return hilbert
        if name == "intlinalg.rat_solve":
            @functools.wraps(traced)
            def rat_solve(*args, **kwargs):
                if self._hilbert_depth:
                    self.counters["hilbert.rat_solve"] += 1
                return traced(*args, **kwargs)

            return rat_solve
        if name == "torified.Torification.make":
            @functools.wraps(traced)
            def make(*args, **kwargs):
                result = traced(*args, **kwargs)
                self.counters["torified.tori"] += len(result.ranks)
                return result

            return make
        return traced

    def _wrap(self, fn):
        name = f"{fn.__module__.split('.', 1)[1]}.{fn.__qualname__}"
        return self._account(self._span(fn, name), name)

    # -- installation

    def install(self, package: str = "f1geom"):
        modules = [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(value, types.FunctionType) and \
                        value.__module__.startswith(package + "."):
                    if id(value) not in wrappers:
                        wrappers[id(value)] = self._wrap(value)
                    self._set(module, attr, wrappers[id(value)])
                elif isinstance(value, type) and value.__module__ == module.__name__ \
                        and not issubclass(value, BaseException):
                    self._patch_class(value)

    def _patch_class(self, cls):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(value, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(value.__func__)))
            elif isinstance(value, classmethod):
                self._set(cls, attr, classmethod(self._wrap(value.__func__)))
            elif isinstance(value, types.FunctionType):
                self._set(cls, attr, self._wrap(value))

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results

    def summary(self) -> dict:
        """Per-function and per-layer counts and times, plus the counters."""
        functions = {}
        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for i, name in enumerate(self.names):
            layer = layers[name.split(".", 1)[0]]
            layer["calls"] += self.calls[i]
            layer["self_s"] += self.self_s[i]
            functions[name] = {"calls": self.calls[i], "self_s": self.self_s[i],
                               "s": self.outer_s[i]}
        repeat_ratio = {}
        for name in REPEAT_KEYED:
            calls = functions.get(name, {}).get("calls", 0)
            repeat_ratio[name] = self.repeats[name] / calls if calls else 0.0
        return {"functions": functions, "layers": layers, "counters": dict(self.counters),
                "repeat_ratio": repeat_ratio, "spans": len(self.func)}

    def write_spans(self, path):
        """One JSON header line (function names, span count), then the
        parent, function, start and end arrays as raw machine values."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.func),
                      "arrays": ["parent:q", "func:q", "start:d", "end:d"],
                      "byteorder": sys.byteorder}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.parent, self.func, self.start, self.end):
                arr.tofile(fh)


def read_spans(path):
    """Inverse of `Tracer.write_spans`: (names, parent, func, start, end)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for spec in header["arrays"]:
            arr = array(spec.split(":")[1])
            arr.fromfile(fh, n)
            arrays.append(arr)
    return (header["names"], *arrays)
