"""Structured event log: the ``repro.events/1`` JSONL stream.

Every layer of the runtime — comm, device, executor, faults, resilience,
sanitizer, tune-cache and the generated step loops — emits *events* here
instead of ad-hoc prints.  An :class:`Event` is a timestamped, levelled,
named record with free-form fields plus the correlation IDs that tie it to
the tracer's timeline: the run's ``trace_id`` and, where a span exists,
``span_id``/``parent_id``.

The run context's log (:mod:`repro.util.context`) is **always on** as a
bounded in-memory ring buffer
(the last ~2k events, for :meth:`EventLog.tail` and the run report's
``events`` summary).  Streaming to disk is opt-in (``--events FILE`` /
:func:`events_run`) and is the crash-tolerant forensic record of a run:
each event is written and flushed as it happens.  The file is JSON Lines,
one header record::

    {"schema": "repro.events/1", "trace_id": ..., "created": ...}

followed by one JSON object per event.  ``python -m repro events FILE``
tails, filters and pretty-prints it.

Hot paths stay cheap: per-message comm events are ``debug`` level and the
default threshold is ``info``, so a fault-free production run pays one
integer compare per would-be event (gated by :attr:`EventLog.debug_enabled`
/ :meth:`EventLog.wants`).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, TextIO

SCHEMA = "repro.events/1"

#: Numeric severity ordering (matches stdlib logging / 10).
LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}


def _level_no(level: str) -> int:
    try:
        return LEVELS[level]
    except KeyError:
        raise ValueError(
            f"unknown event level {level!r} (choose from {sorted(LEVELS)})"
        ) from None


@dataclass
class Event:
    """One structured event: what happened, when, where, and under which span."""

    name: str
    level: str = "info"
    ts: float = 0.0  # wall-clock epoch seconds
    rank: int | None = None
    step: int | None = None
    trace_id: str = ""
    span_id: int = 0
    parent_id: int = 0
    fields: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"ts": self.ts, "level": self.level,
                               "name": self.name}
        if self.rank is not None:
            doc["rank"] = self.rank
        if self.step is not None:
            doc["step"] = self.step
        if self.trace_id:
            doc["trace_id"] = self.trace_id
        if self.span_id:
            doc["span_id"] = self.span_id
        if self.parent_id:
            doc["parent_id"] = self.parent_id
        if self.fields:
            doc["fields"] = self.fields
        return doc


class EventLog:
    """Thread-safe, bounded, optionally file-backed event sink.

    ``ring_size`` bounds the in-memory tail;
    ``path`` adds JSONL streaming; ``level`` filters at emit time.  A
    disabled log (``enabled=False``) absorbs every emit with one attribute
    check — it is what the overhead benchmarks compare against.
    """

    def __init__(self, path: str | Path | None = None, level: str = "info",
                 ring_size: int = 2048, enabled: bool = True):
        self._lock = threading.Lock()
        self.enabled = enabled
        self.path = Path(path) if path is not None else None
        self.ring_size = int(ring_size)
        self._ring: deque[Event] = deque(maxlen=self.ring_size)
        self._counts: dict[str, int] = {}
        self._file: TextIO | None = None
        self._levelno = _level_no(level)
        self.debug_enabled = enabled and self._levelno <= LEVELS["debug"]
        if self.path is not None:
            self._file = self.path.open("w")
            header = {"schema": SCHEMA, "created": time.time()}
            self._file.write(json.dumps(header) + "\n")
            self._file.flush()

    # ------------------------------------------------------------------ level
    @property
    def level(self) -> str:
        no = self._levelno
        for name, value in LEVELS.items():
            if value == no:
                return name
        return str(no)

    def set_level(self, level: str) -> None:
        self._levelno = _level_no(level)
        self.debug_enabled = self.enabled and self._levelno <= LEVELS["debug"]

    def wants(self, level: str) -> bool:
        """True when an event at ``level`` would be recorded."""
        return self.enabled and _level_no(level) >= self._levelno

    # ------------------------------------------------------------------- emit
    def emit(self, name: str, level: str = "info", *,
             rank: int | None = None, step: int | None = None,
             span_id: int = 0, parent_id: int = 0, trace_id: str | None = None,
             **fields: Any) -> Event | None:
        """Record one event (or nothing, below the level threshold).

        ``trace_id`` defaults to the current tracer's run ID when a live
        tracer is installed, so events and spans correlate for free.
        """
        if not self.enabled or _level_no(level) < self._levelno:
            return None
        if trace_id is None:
            from repro.util.context import current

            tracer = current().tracer
            trace_id = tracer.trace_id if tracer.enabled else ""
        event = Event(
            name=name, level=level, ts=time.time(), rank=rank, step=step,
            trace_id=trace_id, span_id=span_id, parent_id=parent_id,
            fields=fields,
        )
        line = None
        if self._file is not None:
            line = json.dumps(event.to_dict())
        with self._lock:
            self._ring.append(event)
            self._counts[level] = self._counts.get(level, 0) + 1
            if self._file is not None:
                self._file.write(line + "\n")
                self._file.flush()
        return event

    # ---------------------------------------------------------------- queries
    def tail(self, n: int | None = None) -> list[Event]:
        """The most recent ``n`` events (all ring contents by default)."""
        with self._lock:
            events = list(self._ring)
        if n is not None:
            events = events[-n:]
        return events

    def counts(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def summary(self) -> dict[str, Any]:
        """Compact description for the run report's ``events`` section."""
        doc: dict[str, Any] = {
            "total": sum(self.counts().values()),
            "by_level": self.counts(),
            "level": self.level,
            "ring_size": self.ring_size,
        }
        if self.path is not None:
            doc["path"] = str(self.path)
        return doc

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


@contextmanager
def events_run(path: str | Path | None = None, *, level: str = "info",
               ring_size: int = 2048):
    """A fresh event log in the run context for the block; optionally
    stream it to JSONL.

    Yields the :class:`EventLog`; on exit the previous context is restored
    and the file closed (flushed even if the block raised — crash tails are
    the ones you need).  A block that raises ends the stream with a
    ``run.failed`` event naming the error.
    """
    from repro.util.context import scope

    log = EventLog(path, level=level, ring_size=ring_size)
    try:
        with scope(events=log):
            yield log
    except Exception as exc:
        log.emit("run.failed", level="error", type=type(exc).__name__,
                 message=str(exc), code=getattr(exc, "code", None))
        raise
    finally:
        log.close()


def read_events(path: str | Path) -> list[dict[str, Any]]:
    """Parse a ``repro.events/1`` JSONL file back into event dicts.

    Validates the header record; tolerates a truncated (crashed) last line.
    """
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty event log")
    header = json.loads(lines[0])
    schema = header.get("schema", "")
    if not str(schema).startswith("repro.events/"):
        raise ValueError(
            f"{path}: not an event log (schema={schema!r})"
        )
    events = []
    for line in lines[1:]:
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            break  # truncated tail of a crashed writer
    return events


__all__ = [
    "Event",
    "EventLog",
    "LEVELS",
    "SCHEMA",
    "events_run",
    "read_events",
]
