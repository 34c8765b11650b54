"""In-memory span tracer that wraps the package's functions from outside.

Each wrapped call records one span: name, start, end, the span that was open
when it started, whether an exception left it, and an optional size measure
taken from its arguments or result. Nothing in the package is edited; the
wrappers replace module attributes, so every call site that looks the name
up in a module sees them, including modules that imported the name with
`from ... import`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

# span fields
NAME, START, END, PARENT, ERROR, OUTER, SIZE = range(7)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._open = {}  # name -> number of open spans with that name

    def wrap(self, name: str, fn, size=None):
        """Return fn wrapped so that each call records a span called name.

        size(args, kwargs, result) gives the span's size measure."""
        clock, spans, stack, open_count = self.clock, self.spans, self._stack, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = open_count.get(name, 0)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False, depth == 0, 0]
            stack.append(len(spans))
            spans.append(span)
            open_count[name] = depth + 1
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
                open_count[name] = depth
            if size is not None:
                span[SIZE] = size(args, kwargs, result)
            return result

        return traced

    def clear(self):
        del self.spans[:]


class Stats:
    __slots__ = ("calls", "self_s", "incl_s", "size", "errors_out")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.size = 0
        self.errors_out = 0


def module_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans) -> dict:
    """Per-name statistics of a list of spans.

    self_s is each span's duration minus the part of it that its direct
    child spans cover; incl_s sums the spans with no enclosing span of the
    same name; errors_out counts exceptions that left a span into a caller
    outside the span's module (or out of the traced code altogether).
    """
    children = {}
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(index)
    stats = {}
    for index, span in enumerate(spans):
        entry = stats.get(span[NAME])
        if entry is None:
            entry = stats[span[NAME]] = Stats()
        duration = span[END] - span[START]
        entry.calls += 1
        entry.self_s += duration - _covered(span, [spans[c] for c in children.get(index, ())])
        if span[OUTER]:
            entry.incl_s += duration
        entry.size += span[SIZE]
        if span[ERROR]:
            parent = span[PARENT]
            if parent < 0 or module_of(spans[parent][NAME]) != module_of(span[NAME]):
                entry.errors_out += 1
    return stats


def _covered(span, kids) -> float:
    """Length of the union of the child intervals, clipped to the span."""
    total, reach = 0.0, span[START]
    for kid in sorted(kids, key=lambda s: s[START]):
        start, end = max(kid[START], reach), min(kid[END], span[END])
        if end > start:
            total += end - start
            reach = end
    return total


def public_functions(module) -> dict:
    """The public functions a module defines (not those it imports)."""
    return {
        attr: obj for attr, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not attr.startswith("_")
    }


@contextlib.contextmanager
def installed(tracer: Tracer, package: str, modules, methods=(), sizes=None):
    """Wrap the public functions of package.<module> for each module, at the
    defining module and in every loaded package module that imported them by
    name, plus the listed (module, class, method) triples at class level.
    Spans are named '<module>.<function>' or '<module>.<Class>.<method>'.
    Everything is restored on exit."""
    sizes = sizes or {}
    wrappers = {}
    for short in modules:
        module = importlib.import_module("%s.%s" % (package, short))
        for attr, fn in public_functions(module).items():
            label = "%s.%s" % (short, attr)
            wrappers[fn] = tracer.wrap(label, fn, sizes.get(label))
    restore = []
    loaded = [mod for key, mod in list(sys.modules.items())
              if key == package or key.startswith(package + ".")]
    for module in loaded:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                restore.append((module, attr, value))
                setattr(module, attr, wrappers[value])
    for short, cls_name, meth in methods:
        cls = getattr(importlib.import_module("%s.%s" % (package, short)), cls_name)
        original = cls.__dict__[meth]
        label = "%s.%s.%s" % (short, cls_name, meth)
        restore.append((cls, meth, original))
        setattr(cls, meth, tracer.wrap(label, original, sizes.get(label)))
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)
