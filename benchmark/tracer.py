"""Spans around calls into structlab, recorded from outside the library.

A :class:`Tracer` wraps named functions and methods and rebinds each
wrapper everywhere the original is reachable: on its class, or under
every name in every ``structlab`` module that imported it.  Each call
records a span ``[name, start, end, parent]`` in memory; ``parent`` is
the index of the enclosing span (-1 at the top).  :meth:`Tracer.remove`
puts the originals back.

A target may carry a key function over the call's arguments; the tracer
then counts distinct keys, which gives the ``distinct_ratio`` of a layer
(distinct arguments per call).  Keys hold their objects, so an ``id`` is
never reused while the tracer lives.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """A function ``module.name`` or a method ``module.Class.name`` to wrap."""

    module: str
    name: str
    key: "Callable | None" = None

    @property
    def span_name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.name}"


class Tracer:
    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans: list[list] = []
        self.keys: dict[str, set] = {t.span_name: set() for t in self.targets if t.key}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        spans, stack = self.spans, self._stack
        index = len(spans)
        record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
        spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            stack.pop()
            record[2] = time.perf_counter()

    def _wrap(self, name: str, fn, key):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        seen = self.keys.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if seen is not None:
                seen.add(key(*args, **kwargs))
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()

        return wrapper

    # -- installing ------------------------------------------------------

    def install(self) -> "Tracer":
        for t in self.targets:
            module = importlib.import_module(t.module)
            owner_name, _, attr = t.name.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                if isinstance(original, property):
                    wrapped = property(self._wrap(t.span_name, original.fget, t.key))
                else:
                    wrapped = self._wrap(t.span_name, original, t.key)
                self._rebind(owner, attr, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(t.span_name, original, t.key)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("structlab"):
                    continue
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, alias, wrapped)
        return self

    def _rebind(self, owner, attr: str, wrapped) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def clear(self) -> None:
        self.spans.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Children's intervals are clipped to the parent's and merged before they
    are subtracted, so overlapping or stray children are never counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def summarize(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``total_s``, ``self_s`` and, for keyed targets,
    ``distinct_ratio``."""
    table: dict[str, dict[str, float]] = {}
    for (name, start, end, _), own in zip(tracer.spans, self_times(tracer.spans)):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
    for name, keys in tracer.keys.items():
        calls = table.get(name, {}).get("calls", 0)
        table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        table[name]["distinct_ratio"] = len(keys) / calls if calls else 0.0
    return table
