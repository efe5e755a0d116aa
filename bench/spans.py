"""Span tracing for the benchmark's traced pass.

Wrappers installed on the names that the package looks up at call time
(module attributes such as ``toi.cli.verify``) record one span per call:
layer, name, parent span, start, end and the garbage-collector pauses that
happened inside it.  Nothing in the package itself is changed; the wrappers
are removed again when the traced pass ends.
"""

from __future__ import annotations

import functools
import gc
import time
from collections import defaultdict
from contextlib import contextmanager

# Every time the traced pass reports is CPU time of this (single-threaded)
# process.  On an idle machine it equals wall time for this CPU-bound
# program; on a shared virtual machine it leaves out the time the host takes
# the virtual CPU away, which moves wall times by tens of percent.
clock = time.process_time


class Span:
    __slots__ = ("layer", "name", "parent", "op", "start", "end",
                 "gc_s", "gc_n")

    def __init__(self, layer, name, parent, op):
        self.layer, self.name, self.parent, self.op = layer, name, parent, op
        self.start = self.end = self.gc_s = 0.0
        self.gc_n = 0


class Tracer:
    """Spans kept in memory, plus counters the wrappers fill from results."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = 0  # identifier shared by the spans of one operation
        self._stack: list[int] = []
        self._gc_s = 0.0
        self._gc_n = 0
        self._gc_start = None

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = clock()
        elif self._gc_start is not None:
            self._gc_s += clock() - self._gc_start
            self._gc_n += 1
            self._gc_start = None

    def wrap(self, layer, fn, name=None, observe=None):
        """Return ``fn`` wrapped in a span; ``name`` may be a function of the
        call's arguments, ``observe(counts, result)`` records counts."""
        label = name or fn.__name__
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer, label(*args) if callable(label) else label,
                        stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            gc_s0, gc_n0 = self._gc_s, self._gc_n
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                span.gc_s = self._gc_s - gc_s0
                span.gc_n = self._gc_n - gc_n0
                stack.pop()
            if observe is not None:
                observe(self.counts, result)
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Install wrappers for ``targets``, a list of ``(module, attribute,
        layer, name, observe)`` with ``name`` None for the attribute's own,
        for the duration of the block, and collect GC pauses meanwhile."""
        saved = []
        gc.callbacks.append(self._on_gc)
        try:
            for module, attr, layer, name, observe in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(layer, original, name, observe))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            gc.callbacks.remove(self._on_gc)

    def write(self, path):
        """Write every span as one tab-separated line."""
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tlayer\tname\tparent\tstart\tend\tself_s\tgc_s\tgc_n\n")
            for s, (self_s, _, _) in zip(self.spans, own):
                fh.write(f"{s.op}\t{s.layer}\t{s.name}\t{s.parent}\t{s.start:.9f}\t"
                         f"{s.end:.9f}\t{self_s:.9f}\t{s.gc_s:.9f}\t{s.gc_n}\n")

    def self_times(self):
        """Per-span ``(self seconds, self GC seconds, self GC collections)``:
        each span's own figures minus those of its direct children."""
        own = [[s.end - s.start, s.gc_s, s.gc_n] for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                parent = own[s.parent]
                parent[0] -= s.end - s.start
                parent[1] -= s.gc_s
                parent[2] -= s.gc_n
        return own

