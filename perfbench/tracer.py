"""Spans and work counters recorded from outside the program.

The tracer replaces module attributes with timing wrappers and puts the
originals back in ``restore``. A wrapper must sit where the name is looked
up: ``engine.build_actual`` rather than ``formation.build_actual``, because
``engine`` binds it with ``from .formation import build_actual``.

Spans stay in memory as ``[name, start, end, parent]`` rows, parent being
the index of the enclosing span or -1, and are written out by the caller
once the run ends. Counters are attributed to the innermost open span.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counts: dict[int, dict[str, int]] = {}  # span index -> counters
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append([name, perf_counter(), 0.0, parent])
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    def add(self, key: str, amount: int = 1) -> None:
        index = self._stack[-1] if self._stack else -1
        bucket = self.counts.setdefault(index, {})
        bucket[key] = bucket.get(key, 0) + amount

    def _patch(self, module, attr: str, make_wrapper) -> None:
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(make_wrapper(original)))

    def wrap_span(self, module, attr: str, name: str, count=None) -> None:
        """Time every call of ``module.attr`` as a span called ``name``.

        ``count(args, kwargs, result)``, when given, returns counters to add
        to the new span once the call returns.
        """

        def make(original):
            def wrapper(*args, **kwargs):
                index = self._enter(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._exit(index)
                if count is not None:
                    bucket = self.counts.setdefault(index, {})
                    for key, amount in count(args, kwargs, result).items():
                        bucket[key] = bucket.get(key, 0) + amount
                return result

            return wrapper

        self._patch(module, attr, make)

    def wrap_count(self, module, attr: str, count) -> None:
        """Add ``count(args, kwargs, result)`` to the caller's span, no timing."""

        def make(original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                for key, amount in count(args, kwargs, result).items():
                    self.add(key, amount)
                return result

            return wrapper

        self._patch(module, attr, make)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered_length(children.get(k, ()), start, end)
        for k, (_name, start, end, _parent) in enumerate(spans)
    ]


def root_names(spans) -> list[str]:
    """Name of the outermost ancestor of each span (parents precede children)."""
    roots: list[str] = []
    for name, _start, _end, parent in spans:
        roots.append(name if parent < 0 else roots[parent])
    return roots


def aggregate(spans, counts, root: str) -> dict:
    """Per-name totals over the spans below top-level spans called ``root``.

    Returns ``{"self": {name: s}, "inclusive": {name: s}, "calls": {name: n},
    "counts": {(span name, key): n}}``.
    """
    selfs = self_times(spans)
    roots = root_names(spans)
    out = {
        "self": defaultdict(float),
        "inclusive": defaultdict(float),
        "calls": defaultdict(int),
        "counts": defaultdict(int),
    }
    for k, (name, start, end, _parent) in enumerate(spans):
        if roots[k] != root:
            continue
        out["self"][name] += selfs[k]
        out["inclusive"][name] += end - start
        out["calls"][name] += 1
        for key, amount in counts.get(k, {}).items():
            out["counts"][(name, key)] += amount
    return out
