"""Span-based tracer with Chrome trace-event / Perfetto export.

One :class:`Tracer` collects the whole run's timeline events across every
execution substrate:

* **host threads** (wall clock) — the generated solver phases, one track per
  Python thread (the SPMD executor names its threads ``rank{r}``);
* **virtual rank timelines** — the simulated communicator charges
  compute/communication spans onto ``virtual/rank{r}`` tracks;
* **device timelines** — each simulated GPU stream and its transfer engine
  emit kernel/copy spans on their own tracks, so the paper's Fig. 6 overlap
  (interior kernel concurrent with CPU boundary callbacks) is directly
  visible in the exported trace.

Tracks are strings of the form ``"<process>/<thread>"`` (a bare name is its
own process).  :meth:`Tracer.to_chrome_trace` maps processes to ``pid`` and
threads to ``tid`` and emits ``process_name``/``thread_name`` metadata, so
the JSON written by :meth:`Tracer.write` opens directly in ``ui.perfetto.dev``
or ``chrome://tracing``.

Tracing is **zero-overhead when disabled**: the module-level
:data:`NULL_TRACER` answers every recording call with a no-op and reuses a
single null context manager, so instrumented code can call it
unconditionally.  Timestamps are seconds (wall or virtual); the exporter
converts to the trace format's microseconds.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

# Process-wide span-ID source.  ``itertools.count`` is atomic in CPython,
# so rank threads can mint IDs without a lock; 0 means "no span".
_span_ids = itertools.count(1)


def next_span_id() -> int:
    """A process-unique nonzero span ID (cheap, thread-safe)."""
    return next(_span_ids)


def new_trace_id() -> str:
    """A fresh 16-hex-digit run/trace identifier."""
    return uuid.uuid4().hex[:16]


@dataclass
class SpanEvent:
    """One complete span on a track (``ph: "X"`` in the trace format)."""

    track: str
    name: str
    t0: float
    t1: float
    cat: str = ""
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def overlaps(self, other: "SpanEvent") -> bool:
        """True when the two spans' time intervals intersect."""
        return self.t0 < other.t1 and other.t0 < self.t1


@dataclass
class CounterEvent:
    """One sample of a named counter series on a track."""

    track: str
    name: str
    t: float
    value: float


@dataclass
class InstantEvent:
    """A zero-duration marker (``ph: "i"``)."""

    track: str
    name: str
    t: float
    cat: str = ""
    args: dict[str, Any] = field(default_factory=dict)


@dataclass
class FlowEvent:
    """A causal arrow between two tracks (``ph: "s"``/``"f"`` pair).

    Recorded in one shot by the *receiving* side of a cross-rank message
    (the sender's span context travels inside the message), so every flow
    is complete by construction — no unmatched starts to drop at export.
    ``flow_id`` doubles as the Perfetto flow-binding ID: for point-to-point
    messages it is the sender's span ID; collectives mint a fresh ID per
    arrow (several ranks may depend on one straggler) and carry the source
    span in ``args["src_span"]`` instead.
    """

    name: str
    flow_id: int
    src_track: str
    src_t: float
    dst_track: str
    dst_t: float
    cat: str = "flow"
    args: dict[str, Any] = field(default_factory=dict)


class _NullSpan:
    """Reusable no-op context manager handed out by the null tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every call is a no-op.

    Instrumented code keeps a single unconditional call site
    (``tracer.complete(...)``); when tracing is off this class absorbs it
    without allocating.
    """

    enabled = False
    trace_id = ""

    def span(self, track: str, name: str, cat: str = "phase", **args) -> _NullSpan:
        return _NULL_SPAN

    def complete(self, track: str, name: str, t0: float, t1: float,
                 cat: str = "", **args) -> None:
        return None

    def instant(self, track: str, name: str, t: float, cat: str = "", **args) -> None:
        return None

    def counter(self, track: str, name: str, t: float, value: float) -> None:
        return None

    def flow(self, name: str, flow_id: int, src_track: str, src_t: float,
             dst_track: str, dst_t: float, **args) -> None:
        return None


#: Module-wide disabled tracer (singleton — identity comparisons are safe).
NULL_TRACER = NullTracer()


class _LiveSpan:
    """Context manager recording a wall-clock span into a live tracer."""

    __slots__ = ("_tracer", "_track", "_name", "_cat", "_args", "_t0")

    def __init__(self, tracer: "Tracer", track: str, name: str, cat: str,
                 args: dict[str, Any]):
        self._tracer = tracer
        self._track = track
        self._name = name
        self._cat = cat
        self._args = args
        self._t0 = 0.0

    def __enter__(self) -> "_LiveSpan":
        self._t0 = self._tracer.clock()
        return self

    def __exit__(self, *exc) -> bool:
        self._tracer.complete(
            self._track, self._name, self._t0, self._tracer.clock(),
            cat=self._cat, **self._args,
        )
        return False


class Tracer:
    """Collects spans/counters/instants from every layer of one run.

    Thread-safe: rank programs run on real threads and record concurrently.
    """

    enabled = True

    def __init__(self, clock=time.perf_counter, trace_id: str | None = None):
        self.clock = clock
        self.trace_id = trace_id or new_trace_id()
        self._lock = threading.Lock()
        self.spans: list[SpanEvent] = []
        self.counters: list[CounterEvent] = []
        self.instants: list[InstantEvent] = []
        self.flows: list[FlowEvent] = []

    # ------------------------------------------------------------- recording
    def span(self, track: str, name: str, cat: str = "phase", **args) -> _LiveSpan:
        """Context manager measuring a wall-clock span on ``track``."""
        return _LiveSpan(self, track, name, cat, args)

    def complete(self, track: str, name: str, t0: float, t1: float,
                 cat: str = "", **args) -> None:
        """Record a finished span with explicit timestamps (virtual clocks).

        ``span_id``/``parent_id`` keyword args (when callers pass them) ride
        in ``args`` and surface in the export, linking the span to flow
        events and to the structured event log's correlation IDs.
        """
        with self._lock:
            self.spans.append(SpanEvent(track, name, t0, t1, cat, args))

    def instant(self, track: str, name: str, t: float, cat: str = "", **args) -> None:
        with self._lock:
            self.instants.append(InstantEvent(track, name, t, cat, args))

    def counter(self, track: str, name: str, t: float, value: float) -> None:
        with self._lock:
            self.counters.append(CounterEvent(track, name, t, float(value)))

    def flow(self, name: str, flow_id: int, src_track: str, src_t: float,
             dst_track: str, dst_t: float, **args) -> None:
        """Record a complete causal arrow (both endpoints known)."""
        with self._lock:
            self.flows.append(FlowEvent(
                name, flow_id, src_track, src_t, dst_track, dst_t, args=args))

    # --------------------------------------------------------------- queries
    def tracks(self) -> list[str]:
        """All track names seen so far, sorted."""
        with self._lock:
            names = {e.track for e in self.spans}
            names |= {e.track for e in self.counters}
            names |= {e.track for e in self.instants}
        return sorted(names)

    def find_spans(self, name: str) -> list[SpanEvent]:
        with self._lock:
            return [s for s in self.spans if s.name == name]

    # ---------------------------------------------------------------- export
    @staticmethod
    def _split(track: str) -> tuple[str, str]:
        process, _, thread = track.partition("/")
        return (process, thread or process)

    def to_chrome_trace(self) -> dict[str, Any]:
        """Render as a Chrome trace-event document (Perfetto-compatible).

        Degenerate runs stay loadable: a trace with zero spans (counters
        only, instants only, or nothing at all) still gets process/thread
        metadata and at least one event, because both Perfetto and
        ``chrome://tracing`` reject files whose ``traceEvents`` is empty.
        """
        with self._lock:
            spans = list(self.spans)
            counters = list(self.counters)
            instants = list(self.instants)
            flows = list(self.flows)

        pids: dict[str, int] = {}
        tids: dict[tuple[str, str], int] = {}
        events: list[dict[str, Any]] = []

        def ids(track: str) -> tuple[int, int]:
            process, thread = self._split(track)
            if process not in pids:
                pids[process] = len(pids) + 1
                events.append({
                    "ph": "M", "name": "process_name", "pid": pids[process],
                    "tid": 0, "args": {"name": process},
                })
            key = (process, thread)
            if key not in tids:
                tids[key] = len([k for k in tids if k[0] == process]) + 1
                events.append({
                    "ph": "M", "name": "thread_name", "pid": pids[process],
                    "tid": tids[key], "args": {"name": thread},
                })
            return pids[process], tids[key]

        for s in sorted(spans, key=lambda e: e.t0):
            pid, tid = ids(s.track)
            events.append({
                "ph": "X", "name": s.name, "cat": s.cat or "span",
                "pid": pid, "tid": tid,
                "ts": s.t0 * 1e6, "dur": max(s.duration, 0.0) * 1e6,
                "args": s.args,
            })
        for i in sorted(instants, key=lambda e: e.t):
            pid, tid = ids(i.track)
            events.append({
                "ph": "i", "s": "t", "name": i.name, "cat": i.cat or "instant",
                "pid": pid, "tid": tid, "ts": i.t * 1e6, "args": i.args,
            })
        for c in sorted(counters, key=lambda e: e.t):
            pid, tid = ids(c.track)
            events.append({
                "ph": "C", "name": c.name, "pid": pid, "tid": tid,
                "ts": c.t * 1e6, "args": {"value": c.value},
            })
        # flows: one "s"/"f" pair per recorded causal arrow.  Both ends are
        # known (complete-by-construction), so nothing dangles in the UI.
        for f in sorted(flows, key=lambda e: e.src_t):
            src_pid, src_tid = ids(f.src_track)
            dst_pid, dst_tid = ids(f.dst_track)
            common = {"name": f.name, "cat": f.cat or "flow", "id": f.flow_id}
            events.append({
                "ph": "s", **common, "pid": src_pid, "tid": src_tid,
                "ts": f.src_t * 1e6, "args": f.args,
            })
            events.append({
                "ph": "f", "bp": "e", **common, "pid": dst_pid,
                "tid": dst_tid, "ts": f.dst_t * 1e6, "args": f.args,
            })
        if not any(e["ph"] != "M" for e in events):
            # an entirely empty (or metadata-only) trace: emit one marker so
            # the file always loads
            pid, tid = ids("host")
            events.append({
                "ph": "i", "s": "t", "name": "trace_empty", "cat": "meta",
                "pid": pid, "tid": tid, "ts": 0.0, "args": {},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"trace_id": self.trace_id}}

    def write(self, path: str | Path) -> Path:
        """Write the Chrome-trace JSON; returns the path written."""
        path = Path(path)
        path.write_text(json.dumps(self.to_chrome_trace(), indent=1))
        return path

    def summary(self) -> dict[str, Any]:
        """Compact description for the run report."""
        with self._lock:
            n_spans = len(self.spans)
            n_counters = len(self.counters)
            n_instants = len(self.instants)
            n_flows = len(self.flows)
        return {
            "trace_id": self.trace_id,
            "n_spans": n_spans,
            "n_counters": n_counters,
            "n_instants": n_instants,
            "n_flows": n_flows,
            "tracks": self.tracks(),
        }


__all__ = [
    "CounterEvent",
    "FlowEvent",
    "InstantEvent",
    "NULL_TRACER",
    "NullTracer",
    "SpanEvent",
    "Tracer",
    "new_trace_id",
    "next_span_id",
]
