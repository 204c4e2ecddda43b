"""Multi-tenant solver-as-a-service (``bte serve``).

A long-running asyncio job service over the existing platform layers:
requests are keyed by the ``repro.cache/1`` problem signature so identical
in-flight requests coalesce onto one job (dedup) and warm compiled
artifacts are shared across tenants; a batched priority scheduler places
admitted jobs onto simulated GPU workers under per-tenant quotas with
bounded-queue backpressure (typed RPR900/RPR901 rejections); preemption
and worker failure checkpoint/resume through the resilience layer; and
the metrics registry backs a live ``/metrics`` endpoint plus the
``repro.serve/1`` status document.

Entry points: :func:`~repro.serve.server.serve_session` (context manager),
:class:`~repro.serve.server.SolverService` (asyncio) and
:class:`~repro.serve.client.Client` (sync facade).
"""

from repro.serve.admission import AdmissionController, TenantQuota
from repro.serve.client import Client, Ticket
from repro.serve.scheduler import Job, SchedulerCore, WorkerState
from repro.serve.schema import (
    PRIORITIES,
    SCHEMA,
    JobRecord,
    JobResult,
    binding_digest,
    job_key,
    normalize_priority,
)
from repro.serve.server import ServiceConfig, SolverService, serve_session
from repro.serve.tenants import HashTree, TenantState

__all__ = [
    "AdmissionController",
    "Client",
    "HashTree",
    "Job",
    "JobRecord",
    "JobResult",
    "PRIORITIES",
    "SCHEMA",
    "SchedulerCore",
    "ServiceConfig",
    "SolverService",
    "TenantQuota",
    "TenantState",
    "Ticket",
    "WorkerState",
    "binding_digest",
    "job_key",
    "normalize_priority",
    "serve_session",
]
