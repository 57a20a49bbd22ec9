"""In-memory span recorder around public dpnoise functions.

`Tracer.wrap` replaces a function or method in the namespace its callers
look it up in (a module, or the class that defines the method) with a
wrapper that records one span per call: name, start, end, parent span, and
a work count (cells, draws, rows) taken at the same boundary so that rates
such as ns/cell come from the call that did the work.  Spans stay in memory
until `dump` writes them once, at the end of a run.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        # One tuple per span: (name, start_ns, end_ns, parent_index, count);
        # parent_index is -1 for a span opened outside any other span.
        self.spans: list = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list = []

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``name`` is a span name or a function of (args, kwargs) returning
        one; ``count`` maps (args, kwargs, result) to the call's work count.
        A name the program no longer defines is noted in ``missing`` and
        skipped, so the layer metric built from it reads 0.
        """
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserve the slot so children can name it
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                label = name(args, kwargs) if callable(name) else name
                work = count(args, kwargs, result) if count and result is not None else 1
                spans[index] = (label, start, end, parent, work)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def stats(self, name: str) -> "SpanStats":
        return SpanStats([s for s in self.spans if s[0] == name])

    def self_ns(self, name: str) -> int:
        """Total time of ``name`` spans minus the time their direct children cover."""
        own = {i for i, s in enumerate(self.spans) if s[0] == name}
        total = sum(self.spans[i][2] - self.spans[i][1] for i in own)
        children = sum(s[2] - s[1] for s in self.spans if s[3] in own)
        return total - children

    def dump(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "fields": ["name", "start_ns", "end_ns", "parent", "count"],
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))


class SpanStats:
    def __init__(self, spans: list) -> None:
        self.calls = len(spans)
        self.durations_ns = [s[2] - s[1] for s in spans]
        self.total_ns = sum(self.durations_ns)
        self.work = sum(s[4] for s in spans)

    def mean(self, unit_ns: float) -> float:
        return self.total_ns / self.calls / unit_ns if self.calls else 0.0

    def per_work(self, unit_ns: float) -> float:
        return self.total_ns / self.work / unit_ns if self.work else 0.0
