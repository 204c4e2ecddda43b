"""Observability: span tracing, counters, and the run document.

The execution substrates (:mod:`repro.runtime`, :mod:`repro.gpu`) and the
generated solver code all emit into the run context's tracer
(:mod:`repro.util.context`), the zero-overhead :data:`NULL_TRACER` unless
a run enables one::

    from repro import obs

    with obs.trace_run("trace.json") as tracer:
        solver = problem.solve()
    obs.build_run_report(solver, tracer).write("run.json")

``run.json`` is the run's one document, ``repro.run/2``
(:mod:`repro.obs.report`; ``bte --report`` / ``bte profile --out``), which
``--record`` appends to the run registry (:mod:`repro.obs.registry`) and
``analyze``, ``compare`` and ``history`` read back through
:func:`load_run`, upgrading what older versions wrote.

``trace.json`` is Chrome trace-event JSON — open it in ``ui.perfetto.dev``
(or ``chrome://tracing``) to see one track per host thread (wall clock),
per SPMD rank (virtual clock) and per GPU stream (device timeline), with
the hybrid target's interior kernel overlapping the CPU boundary-callback
span exactly as in the paper's Fig. 6.

The same flags are exposed on the CLI: ``python -m repro bte --gpu
--trace trace.json --report report.json``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from pathlib import Path

from repro.obs.tracer import (
    NULL_TRACER,
    CounterEvent,
    FlowEvent,
    InstantEvent,
    NullTracer,
    SpanEvent,
    Tracer,
    new_trace_id,
    next_span_id,
)
from repro.util.lazy import lazy_exports

# the collectors resolve on first use: a run that never opens the registry
# or builds a report does not import them
__getattr__, __dir__, _lazy = lazy_exports(__name__, {
    "log": (
        "Event",
        "EventLog",
        "events_run",
        "read_events",
    ),
    "metrics": (
        "NULL_METRICS",
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "NullMetrics",
        "metrics_run",
    ),
    "profile": ("compare_profiles", "compare_table", "profile_table"),
    "registry": (
        "RegistryError",
        "RunRegistry",
        "configure_registry",
        "get_registry",
        "registry_scope",
    ),
    "report": (
        "DRIFT_TOLERANCE",
        "RunReport",
        "SCHEMA",
        "build_run_report",
        "load_run",
        "placement_accuracy",
        "problem_key",
    ),
})

def phase_span(name: str, cat: str = "phase", track: str | None = None, **args):
    """Wall-clock span on the calling thread's host track.

    This is the hook the code generators emit into *generated* source —
    ``with phase_span('solve'):`` — so traces name the IR phases.  The
    track defaults to ``host/<thread name>``; the SPMD executor names rank
    threads ``rank{r}``, giving one track per rank program automatically.
    Resolves the current tracer at call time, so a solver generated before
    :func:`trace_run` still traces (and one generated inside stops cleanly
    after).
    """
    from repro.util.context import current

    tracer = current().tracer
    if not tracer.enabled:
        return tracer.span("", name)  # the reusable null span
    if track is None:
        track = f"host/{threading.current_thread().name}"
    return tracer.span(track, name, cat=cat, **args)


@contextmanager
def trace_run(trace_path: str | Path | None = None, *,
              tracer: Tracer | None = None):
    """A live tracer in the run context for the block; optionally write the
    trace JSON.

    Yields the :class:`Tracer`; on exit the previous context is restored and,
    when ``trace_path`` is given, the Chrome-trace JSON is written even if
    the block raised (partial traces are the ones you need most).
    """
    from repro.util.context import scope

    tracer = tracer or Tracer()
    try:
        with scope(tracer=tracer):
            yield tracer
    finally:
        if trace_path is not None:
            tracer.write(trace_path)


__all__ = sorted([
    *_lazy,
    "NULL_TRACER", "CounterEvent", "FlowEvent", "InstantEvent", "NullTracer", "SpanEvent",
    "Tracer", "new_trace_id", "next_span_id",
    "phase_span", "trace_run",
])
