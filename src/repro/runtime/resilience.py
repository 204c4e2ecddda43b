"""Recovery machinery for injected (and genuine) runtime faults.

Two pieces live here:

* :class:`RetryPolicy` — per-receive timeouts with exponential backoff and
  idempotent re-send, used by :meth:`repro.runtime.comm.Communicator.recv`
  to survive dropped/duplicated/delayed messages;
* :class:`ResilienceLog` — the run-wide account of what was injected and
  what it cost to recover: counters, degraded placements, recovery
  latencies.  The log is a field of the run context (like the tracer;
  :func:`~repro.runtime.faults.fault_run` gives its block a fresh one) so
  the comm layer, the simulated device and the generated solver loops can
  all record into it without plumbing; it is the run report's
  ``resilience`` section and mirrors every event into the metrics registry
  and the event log.

The snapshots a run resumes from are :mod:`repro.runtime.checkpoint`'s.

The recovery state machine for one point-to-point receive::

          ┌──────────┐ timeout   ┌───────────┐ found lost msg  ┌─────────┐
    ──────► WAITING  ├──────────► REQUESTING ├────────────────► RECOVERED│
          └────┬─────┘           └─────┬─────┘ (re-delivered)  └─────────┘
               │ message               │ nothing lost: back off (x2)
               ▼                       ▼
          ┌──────────┐           retries exhausted → CommFaultError
          │ DELIVERED│           (dedup: seq <= watermark → discard, wait on)
          └──────────┘
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: Histogram buckets for recovery latency (virtual seconds).
_RECOVERY_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0)


@dataclass(frozen=True)
class RetryPolicy:
    """Per-receive timeout/backoff/re-send policy.

    ``wall_timeout_s`` is the *real* time the receiver waits before its
    first retransmit request; every retry doubles it (``backoff``) up to
    ``max_retries`` attempts.  Each retry also charges
    ``virtual_latency_s * backoff**attempt`` to the receiver's virtual
    clock, so recovered faults are visible in traces and phase breakdowns.
    """

    max_retries: int = 8
    wall_timeout_s: float = 0.05
    backoff: float = 2.0
    virtual_latency_s: float = 2e-5

    def wall_timeout(self, attempt: int) -> float:
        return self.wall_timeout_s * self.backoff ** attempt

    def virtual_penalty(self, attempt: int) -> float:
        return self.virtual_latency_s * self.backoff ** attempt


DEFAULT_RETRY_POLICY = RetryPolicy()


class ResilienceLog:
    """Thread-safe account of injected faults and their recoveries.

    Every record is mirrored into the metrics registry and the event log in
    force.  The default run context's log (:data:`NULL_RESILIENCE`, ``keep``
    false) keeps no account of its own: a run outside any ``fault_run``
    leaves no records behind for the next one to find."""

    def __init__(self, keep: bool = True):
        self.keep = keep
        self._lock = threading.Lock()
        self.injected: dict[str, int] = {}
        self.retries = 0
        self.duplicates_dropped = 0
        self.recovered = 0
        self.recovery_latencies_s: list[float] = []
        self.checkpoints_written = 0
        self.checkpoint_paths: list[str] = []
        self.restores = 0
        self.degraded: list[dict[str, Any]] = []
        self.migrations: list[dict[str, Any]] = []
        self.preemptions: list[dict[str, Any]] = []
        self.resumes = 0

    # --------------------------------------------------------------- events
    def record_injected(self, kind: str, **labels: Any) -> None:
        if self.keep:
            with self._lock:
                self.injected[kind] = self.injected.get(kind, 0) + 1
        self._metric_counter(
            "resilience_faults_injected_total",
            "faults injected by the seeded injector", kind=kind, **labels)
        self._event("fault.injected", "warning", kind=kind, **labels)

    def record_retry(self, **labels: Any) -> None:
        if self.keep:
            with self._lock:
                self.retries += 1
        self._metric_counter(
            "resilience_retries_total",
            "receive retries (timeout + idempotent re-send)", **labels)
        self._event("comm.retry", "warning", **labels)

    def record_duplicate_dropped(self, **labels: Any) -> None:
        if self.keep:
            with self._lock:
                self.duplicates_dropped += 1
        self._metric_counter(
            "resilience_duplicates_dropped_total",
            "duplicate messages discarded by sequence dedup", **labels)
        self._event("comm.duplicate_dropped", "info", **labels)

    def record_recovered(self, latency_s: float, **labels: Any) -> None:
        if self.keep:
            with self._lock:
                self.recovered += 1
                self.recovery_latencies_s.append(float(latency_s))
        from repro.util.context import current

        metrics = current().metrics
        if metrics.enabled:
            metrics.counter(
                "resilience_recovered_total",
                "faults recovered by the resilient runtime").inc(1, **labels)
            metrics.histogram(
                "resilience_recovery_latency_seconds",
                "virtual seconds from fault detection to recovery",
                buckets=_RECOVERY_BUCKETS).observe(latency_s, **labels)
        self._event("comm.recovered", "info", latency_s=latency_s, **labels)

    def record_checkpoint(self, path: str | Path, **labels: Any) -> None:
        if self.keep:
            with self._lock:
                self.checkpoints_written += 1
                self.checkpoint_paths.append(str(path))
        self._metric_counter(
            "resilience_checkpoints_total", "solver checkpoints written", **labels)
        self._event("checkpoint.written", "info", path=str(path), **labels)

    def record_restore(self, path: str | Path, **labels: Any) -> None:
        if self.keep:
            with self._lock:
                self.restores += 1
        self._metric_counter(
            "resilience_restores_total", "solver checkpoints restored", **labels)
        self._event("checkpoint.restored", "info", path=str(path), **labels)

    def record_degraded(self, task: str, from_device: str, to_device: str,
                        reason: str, **labels: Any) -> None:
        """A faulted device task was re-placed and re-executed elsewhere."""
        if self.keep:
            with self._lock:
                self.degraded.append({
                    "task": task, "from": from_device, "to": to_device,
                    "reason": reason, **labels,
                })
        self._metric_counter(
            "resilience_degraded_placements_total",
            "tasks re-placed after a device fault",
            task=task, **labels)
        self._event("device.degraded", "warning", task=task,
                    from_device=from_device, to_device=to_device,
                    reason=reason, **labels)

    def record_migration(self, kind: str, step: int, from_ranks: int,
                         to_ranks: int, **labels: Any) -> None:
        """State migrated to a new rank layout (rank loss or rebalance)."""
        if self.keep:
            with self._lock:
                self.migrations.append({
                    "kind": kind, "step": int(step),
                    "from_ranks": int(from_ranks), "to_ranks": int(to_ranks),
                    **labels,
                })
        self._metric_counter(
            "resilience_migrations_total",
            "checkpoint-based state migrations (rank loss / rebalance)",
            kind=kind)
        self._event("state.migrated", "warning", kind=kind, step=step,
                    from_ranks=from_ranks, to_ranks=to_ranks, **labels)

    def record_preemption(self, job: str, step: int, **labels: Any) -> None:
        """A running job was checkpointed and yielded its worker (serve)."""
        if self.keep:
            with self._lock:
                self.preemptions.append({"job": job, "step": int(step), **labels})
        self._metric_counter(
            "resilience_preemptions_total",
            "jobs checkpointed and preempted off their worker", **labels)
        self._event("job.preempted", "warning", job=job, step=step, **labels)

    def record_resume(self, job: str, step: int, **labels: Any) -> None:
        """A preempted/killed job resumed from its checkpoint (serve)."""
        if self.keep:
            with self._lock:
                self.resumes += 1
        self._metric_counter(
            "resilience_resumes_total",
            "jobs resumed from checkpoint on a fresh worker", **labels)
        self._event("job.resumed", "info", job=job, step=step, **labels)

    @staticmethod
    def _metric_counter(name: str, help: str, **labels: Any) -> None:
        from repro.util.context import current

        metrics = current().metrics
        if metrics.enabled:
            metrics.counter(name, help).inc(1, **labels)

    @staticmethod
    def _event(name: str, level: str = "info", **fields: Any) -> None:
        """Mirror one resilience record into the structured event log."""
        from repro.util.context import current

        elog = current().events
        if elog.enabled:
            rank = fields.pop("rank", None)
            step = fields.pop("step", None)
            elog.emit(name, level, rank=rank, step=step, **fields)

    # ---------------------------------------------------------------- export
    def has_events(self) -> bool:
        with self._lock:
            return bool(
                self.injected or self.retries or self.recovered
                or self.duplicates_dropped or self.checkpoints_written
                or self.restores or self.degraded or self.migrations
                or self.preemptions or self.resumes
            )

    def as_dict(self) -> dict[str, Any]:
        """The run report's ``resilience`` section (JSON-safe)."""
        with self._lock:
            lat = sorted(self.recovery_latencies_s)
            section: dict[str, Any] = {
                "faults_injected": dict(self.injected),
                "faults_injected_total": sum(self.injected.values()),
                "retries": self.retries,
                "duplicates_dropped": self.duplicates_dropped,
                "recovered": self.recovered,
                "checkpoints_written": self.checkpoints_written,
                "restores": self.restores,
                "degraded_placements": list(self.degraded),
                "migrations": list(self.migrations),
                "preemptions": list(self.preemptions),
                "resumes": self.resumes,
            }
            if lat:
                section["recovery_latency_s"] = {
                    "count": len(lat),
                    "total": sum(lat),
                    "max": lat[-1],
                    "p50": lat[len(lat) // 2],
                }
            return section

    def summary(self) -> str:
        """One-paragraph human summary (printed by the CLI)."""
        d = self.as_dict()
        parts = [f"faults injected: {d['faults_injected_total']}"]
        if d["faults_injected"]:
            kinds = ", ".join(f"{k}={v}" for k, v in sorted(d["faults_injected"].items()))
            parts[-1] += f" ({kinds})"
        parts.append(f"retries: {d['retries']}")
        parts.append(f"recovered: {d['recovered']}")
        if d["duplicates_dropped"]:
            parts.append(f"duplicates dropped: {d['duplicates_dropped']}")
        if d["checkpoints_written"]:
            parts.append(f"checkpoints: {d['checkpoints_written']}")
        if d["restores"]:
            parts.append(f"restores: {d['restores']}")
        if d["degraded_placements"]:
            moved = ", ".join(
                f"{e['task']}->{e['to']}" for e in d["degraded_placements"])
            parts.append(f"degraded placements: {len(d['degraded_placements'])} ({moved})")
        if d["migrations"]:
            kinds = ", ".join(
                f"{e['kind']}@{e['step']}:{e['from_ranks']}->{e['to_ranks']}"
                for e in d["migrations"])
            parts.append(f"migrations: {len(d['migrations'])} ({kinds})")
        if d["preemptions"]:
            parts.append(f"preemptions: {len(d['preemptions'])}")
        if d["resumes"]:
            parts.append(f"resumes: {d['resumes']}")
        return "; ".join(parts)


#: the default run context's log: mirrors, keeps nothing (see :class:`ResilienceLog`)
NULL_RESILIENCE = ResilienceLog(keep=False)


__all__ = [
    "DEFAULT_RETRY_POLICY",
    "NULL_RESILIENCE",
    "ResilienceLog",
    "RetryPolicy",
]
