"""In-memory span recording for the traced benchmark run.

Spans are taken from outside the package: a Tracer wraps the library
functions the benchmark calls itself, and rebinds module attributes that
the pipeline looks up at call time (``etopo.scenario.route`` and the
like), so no source file of the package is edited. A span is the list
``[name, start, end, parent, op, note]``: ``parent`` is the index of the
enclosing span (-1 at the top), ``op`` the index of the benchmark
operation it belongs to, and ``note`` a small tuple a counting hook
extracted from the call's result.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Any, Callable, Optional

Note = Callable[[tuple, Any], Any]


class Tracer:
    """Spans of one benchmark phase, plus the module rebindings that feed them."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, str, Optional[Note]]] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable, note: Optional[Note] = None) -> Callable:
        """fn, recording one span per call; note(args, result) is stored with it."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[5] = ("raised", type(exc).__name__)
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(args, result)
            return result

        return traced

    def patch(self, module: Any, attr: str, name: str, note: Optional[Note] = None) -> None:
        """Register a module attribute to rebind to a traced wrapper on install()."""
        self._patches.append((module, attr, name, note))

    def install(self) -> None:
        for module, attr, name, note in self._patches:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, note))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class SpanStats:
    """Per-name totals over a Tracer's spans.

    A span's self time is its duration minus the durations of its direct
    children; calls never overlap in the single-threaded caller, so the
    children cover disjoint parts of the parent's interval.
    """

    def __init__(self, tracer: Tracer) -> None:
        spans = tracer.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.notes: dict[str, list] = {}
        for i, (name, start, end, _, _, note) in enumerate(spans):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + (end - start)
            self.self_time[name] = self.self_time.get(name, 0.0) + (end - start - child_time[i])
            self.notes.setdefault(name, []).append(note)
        self._spans = spans

    def under(self, name: str, ancestor: str) -> int:
        """Number of `name` spans whose direct parent is an `ancestor` span."""
        spans = self._spans
        return sum(
            1 for span in spans
            if span[0] == name and span[3] >= 0 and spans[span[3]][0] == ancestor
        )
