"""Spans recorded from outside the program, and the arithmetic on them.

The harness times calls *into* public functions of ``repro`` by swapping a
name (a generated-namespace entry, an instance attribute, a module or class
attribute) for a wrapper that records one span per call.  Spans stay in
memory as ``[name, start, end, parent, block]`` lists — ``parent`` is the
span that was open on the same thread when this one started — and are only
turned into numbers after the timed pass ends.
"""

from __future__ import annotations

import statistics
import threading
from time import perf_counter
from typing import Any, Callable, Iterable

NAME, START, END, PARENT, BLOCK = range(5)


class Recorder:
    """Records spans and remembers every name it swapped so it can restore."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.block = -1  # id of the timed block currently running
        self._tls = threading.local()
        self._undo: list[tuple[Any, str, Any, bool]] = []  # owner, attr, original, own

    # ------------------------------------------------------------ recording
    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with one span named ``name`` around every call."""
        spans, stack_of, rec = self.spans, self._stack, self

        def traced(*args, **kwargs):
            stack = stack_of()
            span = [name, 0.0, 0.0, stack[-1] if stack else None, rec.block]
            spans.append(span)
            stack.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def swap(self, owner: Any, attr: str, new: Any) -> None:
        """Replace ``owner.attr`` (``owner[attr]`` for a dict) until
        :meth:`restore`."""
        if isinstance(owner, dict):
            original, own = owner[attr], True
            owner[attr] = new
        else:
            # an instance attribute shadowing a method is deleted on restore
            original, own = getattr(owner, attr), attr in vars(owner)
            setattr(owner, attr, new)
        self._undo.append((owner, attr, original, own))

    def patch(self, owner: Any, attr: str, name: str) -> bool:
        """Swap a callable for its traced wrapper.  Returns False, and swaps
        nothing, when the name is missing: a layer the program no longer
        has reads as not on the path rather than crashing the benchmark."""
        if isinstance(owner, dict):
            if attr not in owner:
                return False
            current = owner[attr]
        else:
            if not hasattr(owner, attr):
                return False
            current = getattr(owner, attr)
        self.swap(owner, attr, self.wrap(current, name))
        return True

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            elif own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # --------------------------------------------------------------- export
    def as_rows(self) -> list[dict]:
        """JSON-safe spans (parent as an index into the same list)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            {"name": s[NAME], "start": s[START], "end": s[END],
             "parent": index.get(id(s[PARENT])), "block": s[BLOCK]}
            for s in self.spans
        ]


def floor_s(samples: int = 200) -> float:
    """Median duration of an empty span: below this a layer's time cannot be
    told from the layer not running at all."""
    probe = Recorder()
    empty = probe.wrap(lambda: None, "floor")
    for _ in range(samples):
        empty()
    return statistics.median(s[END] - s[START] for s in probe.spans)


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(id(s[PARENT]), []).append((s[START], s[END]))
    return [
        (s[END] - s[START]) - covered(s[START], s[END], children.get(id(s), ()))
        for s in spans
    ]


def totals(spans: list[list], blocks: set[int] | None = None
           ) -> dict[str, dict[str, float]]:
    """Per span name: call count, summed duration and summed self time,
    restricted to spans of ``blocks`` when given."""
    out: dict[str, dict[str, float]] = {}
    for s, self_s in zip(spans, self_times(spans)):
        if blocks is not None and s[BLOCK] not in blocks:
            continue
        row = out.setdefault(s[NAME], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s[END] - s[START]
        row["self_s"] += self_s
    return out


def tail(values: list[float]) -> tuple[float, float]:
    """``(percentile, value)`` of the highest percentile that still has at
    least ten samples beyond it; with fewer than twenty samples that is no
    tail at all and the median is returned as percentile 50."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return 50.0, statistics.median(ordered)
    k = n - 11  # ten samples lie strictly beyond index k
    return 100.0 * (k + 1) / n, ordered[k]
