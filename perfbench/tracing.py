"""Spans around calls that cross burstmine's module boundaries.

The tracer wraps, at run time and from outside the package, only the
functions one burstmine module calls in another: names a module imports from
a sibling, and functions a module reaches through a sibling-module attribute
(``filtering.filter_functions`` called from ``cli``).  Helpers a module calls
internally, such as ``eval_function`` inside ``states``, stay unwrapped: they
run once per probe or clause, and spans there would cost more time than the
work they measure.

Spans are kept in memory as ``[name, start, end, parent, rep]`` lists; a
layer's self time is its span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import pkgutil
import time
from contextlib import contextmanager


def boundary_functions(package: str = "burstmine") -> list[tuple]:
    """``(namespace module, attribute name, function)`` for every
    cross-module call target in ``package``, one entry per binding."""
    pkg = importlib.import_module(package)
    modules = [importlib.import_module(f"{package}.{info.name}")
               for info in pkgutil.iter_modules(pkg.__path__)]
    prefix = package + "."
    found: dict[tuple[str, str], tuple] = {}
    for mod in modules:
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ != mod.__name__
                    and obj.__module__.startswith(prefix)):
                found[(mod.__name__, name)] = (mod, name, obj)
        aliases = {name: obj for name, obj in vars(mod).items()
                   if inspect.ismodule(obj) and obj.__name__.startswith(prefix)}
        if not aliases:
            continue
        for node in ast.walk(ast.parse(inspect.getsource(mod))):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                target = aliases[node.value.id]
                obj = getattr(target, node.attr, None)
                if inspect.isfunction(obj) and obj.__module__ == target.__name__:
                    found[(target.__name__, node.attr)] = (target, node.attr, obj)
    return sorted(found.values(), key=lambda e: (e[0].__name__, e[1]))


def span_name(fn) -> str:
    """``states.abstract_state`` for ``burstmine.states.abstract_state``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Records one span per call of each wrapped function.

    ``observers`` maps a span name to ``f(args, kwargs, result)``, called
    after the span ends, for counts taken at the same boundary.
    """

    def __init__(self, observers: dict | None = None) -> None:
        self.spans: list[list] = []
        self.rep: object = None
        self._stack: list[int] = []
        self._observers = observers or {}
        self._patched: list[tuple] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self.rep]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        span = self._open(name)
        span[1] = time.perf_counter()
        try:
            yield span
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn):
        name = span_name(fn)
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def install(self, targets) -> None:
        for namespace, attr, fn in targets:
            setattr(namespace, attr, self.wrap(fn))
            self._patched.append((namespace, attr, fn))

    def uninstall(self) -> None:
        for namespace, attr, fn in reversed(self._patched):
            setattr(namespace, attr, fn)
        self._patched.clear()


def self_times(spans) -> dict[str, list]:
    """Per span name: ``[calls, total seconds, self seconds]``.

    Self time is the span's duration minus the summed durations of its
    direct children; a child started by a wrapped callee belongs to that
    callee, not to the caller further up.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        entry = out.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child[i]
    return out


def write_spans(spans, path, append: bool = False) -> None:
    """One CSV line per span: name, start, end, parent index, repetition.

    Parent indices count from the first span of the same repetition."""
    with open(path, "a" if append else "w", encoding="utf-8") as fh:
        if not append:
            fh.write("name,start,end,parent,rep\n")
        for name, start, end, parent, rep in spans:
            fh.write(f"{name},{start:.9f},{end:.9f},{parent},{rep}\n")
