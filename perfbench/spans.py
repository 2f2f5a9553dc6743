"""Span tracing of hgmeta's public functions from outside the library.

The tracer replaces module attributes (and a few class methods) with thin
wrappers that record one span per call: name, parent span, start and end.
Modules bind each other's functions with ``from .x import y``, so a function
is replaced under every name that refers to it in any loaded ``hgmeta``
module, not only in the module that defines it. ``uninstall`` puts every
original back, so untraced rounds run the library exactly as shipped.

Spans stay in memory; ``summary`` folds them into per-name call counts,
inclusive seconds and self seconds (duration minus direct child spans).
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Callable


def rebind(old, new) -> list[tuple[object, str, object]]:
    """Point every hgmeta module attribute that is ``old`` at ``new``.

    Returns the (module, name, old) triples needed to undo the change.
    """
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "hgmeta" or mod_name.startswith("hgmeta.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, name, new)
                undo.append((mod, name, old))
    return undo


def replace(owner, attr: str, new) -> list[tuple[object, str, object]]:
    """Put ``new`` in place of ``owner.attr``; returns what ``restore`` needs.

    A module-level function is rebound wherever hgmeta refers to it; a
    class attribute is replaced on the class.
    """
    old = getattr(owner, attr)
    if isinstance(owner, type):
        setattr(owner, attr, new)
        return [(owner, attr, old)]
    return rebind(old, new)


def restore(undo: list[tuple[object, str, object]]) -> None:
    for owner, name, old in reversed(undo):
        setattr(owner, name, old)


class Tracer:
    """Records spans for the targets it is installed on."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans: list[list] = []  # [name index, parent position, start, end]
        self.observed: dict[str, list[float]] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _wrap(self, name: str, fn: Callable, observe: Callable | None) -> Callable:
        index = self._name_index(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, out)
            return out

        return traced

    def install(self, targets) -> None:
        """Wrap each (span name, owner, attribute, observe) target."""
        for name, owner, attr, observe in targets:
            self._undo += replace(owner, attr, self._wrap(name, getattr(owner, attr), observe))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def observe(self, key: str, value: float) -> None:
        self.observed.setdefault(key, []).append(value)

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. one whole round."""
        index = self._name_index(name)
        span = [index, self._stack[-1] if self._stack else -1, perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[3] = perf_counter()
            self._stack.pop()

    def take(self) -> tuple[list[list], dict[str, list[float]]]:
        """Hand over the spans and observations recorded so far and start afresh.

        Call only between spans: parent positions index the returned list.
        """
        if self._stack:
            raise RuntimeError("take() called inside an open span")
        spans, observed = list(self.spans), self.observed
        # the wrappers hold this list object, so empty it in place
        self.spans.clear()
        self.observed = {}
        return spans, observed


def summary(names: list[str], spans: list[list]) -> dict[str, dict[str, float]]:
    """Per-name calls, inclusive seconds and self seconds.

    Inclusive time counts only the outermost span of a name, so a function
    that reaches itself again is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[1] >= 0:
            child_time[span[1]] += span[3] - span[2]
    out: dict[str, dict[str, float]] = {}
    for pos, (index, parent, start, end) in enumerate(spans):
        name = names[index]
        entry = out.setdefault(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[pos]
        nested = False
        while parent >= 0:
            if spans[parent][0] == index:
                nested = True
                break
            parent = spans[parent][1]
        if not nested:
            entry["inclusive_s"] += end - start
    return out
