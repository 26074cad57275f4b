"""In-memory span recorder that times layers from outside the program.

The traced run wraps public functions of ``repro`` (methods patched on their
class, module functions patched where their caller looks them up) so that
each call records a span: name, start, end, parent and thread.  Nothing
inside ``src/repro`` is edited; :meth:`Tracer.restore` undoes every patch.

A span's *self time* is its duration minus the part of it covered by its
child spans.  Children are found through a per-thread stack; a span opened
with ``adopt=True`` also becomes the parent of spans that start on other
threads while no span is open there (the pipeline runs its stages on a pool
thread while the calling thread waits).  A span's *weight* is inherited
from its root: a coalesced serving batch that carries ``k`` requests counts
each of its layers ``k`` times, once for every request that waited on it.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager


class Tracer:
    """Records spans around wrapped calls and counts calls of counted ones."""

    def __init__(self):
        #: ``[name, start, end, parent_index, thread_id, weight]`` per span.
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._adopters: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._counters: dict[str, itertools.count] = {}

    # ------------------------------------------------------------- recording
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, weight: float | None = None, adopt: bool = False):
        """Record one span around the ``with`` body.

        A call nested directly inside a span of the same name records
        nothing of its own (re-entrant wrappers such as an engine method
        calling another wrapped engine method), so call counts stay counts
        of layer entries.
        """
        stack = self._stack()
        if stack and self.spans[stack[-1]][0] == name:
            yield
            return
        if stack:
            parent = stack[-1]
        else:
            parent = self._adopters[-1] if self._adopters else None
        if weight is None:
            weight = self.spans[parent][5] if parent is not None else 1.0
        record = [name, time.perf_counter(), None, parent, threading.get_ident(), float(weight)]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        if adopt:
            self._adopters.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()
            if adopt:
                self._adopters.remove(index)

    # -------------------------------------------------------------- patching
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, weight_of=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``weight_of(*args, **kwargs)`` optionally sets the span's weight
        from the call's arguments.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            weight = weight_of(*args, **kwargs) if weight_of is not None else None
            with tracer.span(name, weight=weight):
                return original(*args, **kwargs)

        self._patch(owner, attr, traced)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Like :meth:`wrap` for a generator function: each resumption is a span.

        A generator does its work while it is iterated, interleaved with
        its consumer, so only the time spent inside each ``next`` belongs
        to the layer.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            inner = original(*args, **kwargs)
            while True:
                with tracer.span(name):
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                yield item

        self._patch(owner, attr, traced)

    def count_calls(self, owner, attr: str, name: str) -> None:
        """Count calls of the classmethod ``owner.attr`` without timing them."""
        function = owner.__dict__[attr].__func__
        counter = self._counters[name] = itertools.count()

        def counted(cls, *args, **kwargs):
            next(counter)
            return function(cls, *args, **kwargs)

        self._patch(owner, attr, classmethod(functools.wraps(function)(counted)))

    def count(self, name: str) -> int:
        """Calls counted so far under ``name``."""
        counter = self._counters[name]
        # itertools.count (atomic under threads) has no read method; its repr
        # holds the next value, which is the number of calls so far.
        return int(repr(counter)[len("count("):-1])

    def restore(self) -> None:
        """Undo every patch, most recent first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- analysis
    def mark(self) -> int:
        """Position in the span list; analysis can start from a mark."""
        with self._lock:
            return len(self.spans)

    def layer_totals(self, since: int = 0) -> tuple[dict[str, float], dict[str, int]]:
        """Weighted self seconds and entry counts per span name.

        Only spans that started at or after ``since`` and have ended are
        included.
        """
        with self._lock:
            spans = self.spans[since:]
        children: dict[int, list[tuple[float, float]]] = {}
        for record in spans:
            if record[2] is not None and record[3] is not None:
                children.setdefault(record[3], []).append((record[1], record[2]))
        seconds: dict[str, float] = {}
        counts: dict[str, int] = {}
        for offset, record in enumerate(spans):
            name, start, end, _parent, _tid, weight = record
            if end is None:
                continue
            covered = _union_length(children.get(since + offset, ()), start, end)
            seconds[name] = seconds.get(name, 0.0) + (end - start - covered) * weight
            counts[name] = counts.get(name, 0) + 1
        return seconds, counts

    def chrome_events(self, pid: int = 0) -> list[dict]:
        """Spans as Chrome ``trace_event`` complete events (microseconds)."""
        with self._lock:
            spans = list(self.spans)
        return [
            {"name": name, "ph": "X", "pid": pid, "tid": tid,
             "ts": start * 1e6, "dur": (end - start) * 1e6,
             "args": {"id": index, "parent": parent, "weight": weight}}
            for index, (name, start, end, parent, tid, weight) in enumerate(spans)
            if end is not None
        ]


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total
