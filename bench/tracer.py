"""Outside-in tracer: times fbsim's layer boundaries without editing fbsim.

Each traced function is replaced, under the module (or class) attribute its
caller looks it up by, with a wrapper that records a span: name, parent span,
start and end. Spans stay in memory until the run ends. A span's self time is
its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

# on_exit(counters, args, kwargs, result, exc): record per-call counts where
# the work happens. `result` is None when the call raised `exc`.
OnExit = Callable[[dict, tuple, dict, object, BaseException | None], None]


def span_name(fn) -> str:
    """'numerics.RngStream.generator' for fbsim.numerics.RngStream.generator."""
    return f"{fn.__module__.split('.', 1)[-1]}.{fn.__qualname__}"


@dataclass
class Tracer:
    clock: Callable[[], int] = time.perf_counter_ns
    names: list[str] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    starts: list[int] = field(default_factory=list)
    ends: list[int] = field(default_factory=list)
    counters: dict = field(default_factory=lambda: defaultdict(float))
    _stack: list[int] = field(default_factory=lambda: [-1])

    def wrap(self, fn, name: str | None = None, on_exit: OnExit | None = None):
        name = name or span_name(fn)

        def traced(*args, **kwargs):
            i = len(self.starts)
            self.names.append(name)
            self.parents.append(self._stack[-1])
            self.ends.append(0)
            self._stack.append(i)
            self.starts.append(self.clock())
            result, exc = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                self.ends[i] = self.clock()
                self._stack.pop()
                if on_exit is not None:
                    on_exit(self.counters, args, kwargs, result, exc)

        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap each (owner, attribute, on_exit) target; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, on_exit in targets:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, on_exit=on_exit))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self time in ns."""
        children = defaultdict(list)
        for i, p in enumerate(self.parents):
            if p >= 0:
                children[p].append(i)
        out = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
        for i, name in enumerate(self.names):
            start, end = self.starts[i], self.ends[i]
            covered = _covered(((self.starts[c], self.ends[c]) for c in children[i]), start, end)
            s = out[name]
            s["calls"] += 1
            s["total_ns"] += end - start
            s["self_ns"] += end - start - covered
        return dict(out)

    def write(self, path) -> None:
        """Write every span once, as one JSON document: [id, parent, name, start_ns, end_ns]."""
        spans = [[i, p, n, s, e] for i, (p, n, s, e)
                 in enumerate(zip(self.parents, self.names, self.starts, self.ends))]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": spans, "counters": dict(self.counters)}, f)


def _covered(intervals, lo: int, hi: int) -> int:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total
