"""The run context: what "the current run" records into, as one value.

Everything a run's instrumented code reports to without being handed it —
the tracer, the metrics registry, the event log, the fault injector, the
runtime sanitizer, the resilience log — and the script-style DSL's current
problem are the fields of one frozen :class:`RunContext`.  Code reads
``current().<field>`` when it needs one, never earlier, so a solver
generated before a ``trace_run`` still traces.  :func:`scope` puts a copy
with some fields replaced in force for a ``with`` block and restores the
previous context on exit, however the block ends; ``trace_run``,
``metrics_run``, ``events_run``, ``fault_run`` and ``sanitize_run`` are each
one ``scope`` plus their own write or close.

The value lives in a :class:`contextvars.ContextVar`, so it belongs to a
thread (and an asyncio task), not to the process: two runs on two threads
each see their own.  A new :class:`threading.Thread` starts in the
*default* context, not in its creator's, so a thread that does part of a
run is started under ``contextvars.copy_context().run`` — the SPMD rank
threads, the solver service's loop thread and its jobs are.

The collectors' modules sit below this one (the default context is built
from them), so the few places in them that read the context import it when
called.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Iterator

from repro.obs.log import EventLog
from repro.obs.metrics import NULL_METRICS, MetricsRegistry, NullMetrics
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer
from repro.runtime.faults import NULL_INJECTOR, FaultInjector, NullInjector
from repro.runtime.resilience import NULL_RESILIENCE, ResilienceLog

if TYPE_CHECKING:
    from repro.dsl.problem import Problem
    from repro.verify.sanitizer import Sanitizer


@dataclass(frozen=True)
class RunContext:
    """Everything instrumented code records into during one run."""

    tracer: Tracer | NullTracer = NULL_TRACER
    metrics: MetricsRegistry | NullMetrics = NULL_METRICS
    #: always on: a bounded in-memory ring at info level
    events: EventLog = field(default_factory=EventLog)
    injector: FaultInjector | NullInjector = NULL_INJECTOR
    #: ``None`` outside a ``sanitize_run``
    sanitizer: Sanitizer | None = None
    #: keeps no account outside a ``fault_run``
    resilience: ResilienceLog = NULL_RESILIENCE
    #: the problem the script-style DSL commands configure
    problem: Problem | None = None


_CONTEXT: ContextVar[RunContext] = ContextVar("repro_run_context",
                                              default=RunContext())

#: ``current()`` — the run context in force on the calling thread or task.
current = _CONTEXT.get


@contextmanager
def scope(**fields: Any) -> Iterator[RunContext]:
    """The current context with ``fields`` replaced, for the ``with`` block."""
    ctx = replace(_CONTEXT.get(), **fields)
    token = _CONTEXT.set(ctx)
    try:
        yield ctx
    finally:
        _CONTEXT.reset(token)


def update(**fields: Any) -> RunContext:
    """Replace ``fields`` until the enclosing :func:`scope` ends (for good
    outside one): how the script-style DSL's ``init_problem`` and
    ``finalize`` change the current problem between statements."""
    ctx = replace(_CONTEXT.get(), **fields)
    _CONTEXT.set(ctx)
    return ctx


__all__ = ["RunContext", "current", "scope", "update"]
