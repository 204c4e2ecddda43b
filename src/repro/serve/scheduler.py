"""Batched priority scheduling over a pool of simulated workers.

:class:`SchedulerCore` is deliberately **pure and synchronous**: plain
data structures, no asyncio, no clocks, no I/O.  The asyncio server owns
one instance and calls it only from the event loop (so no locking here);
the hypothesis property tests drive the same code deterministically with
random arrival orders and assert its invariants directly:

* FIFO within a priority class — batches pop from the head of one queue;
* quotas are never exceeded — ``next_batch`` only picks jobs whose
  primary tenant is below its ``max_running`` cap, counting the batch
  being assembled;
* bounded priority inversion — a batch is always taken from the
  highest-priority class with an *eligible* job, and running workers
  consult :meth:`should_yield` between batch items, so a high-priority
  job waits for at most the item in flight, never behind a freshly
  started lower-priority batch.

Workers are *simulated GPU slots*: placement and accounting are real,
execution happens on host threads like every other simulated device in
this codebase.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable

from repro.serve.schema import PRIORITIES, PRIORITY_NAMES, JobRecord

if TYPE_CHECKING:
    from repro.serve.admission import TenantQuota


class Job:
    """One coalesced unit of work (1..N identical requests)."""

    def __init__(self, key: str, problem: Any, target: str,
                 priority: int, tenant: str, cache_key: str = ""):
        self.key = key
        self.cache_key = cache_key
        self.problem = problem
        self.target = target
        self.priority = int(priority)
        self.tenants: list[str] = [tenant]
        #: tenant of every coalesced request, duplicates included
        self.request_tenants: list[str] = [tenant]
        self.status = "queued"
        self.worker: int | None = None
        #: cooperative interrupt consumed by the in-solver hook:
        #: None | "preempt" (checkpoint + yield) | "kill" (worker lost)
        self.interrupt: str | None = None
        self.checkpoint: str | None = None
        self.steps_done = 0
        self.attempts = 0
        self.preemptions = 0
        self.resumes = 0
        self.wall_s = 0.0
        self.error: str | None = None
        self.error_code: str | None = None
        #: monotonically increasing dispatch order (set by mark_running)
        self.start_seq = -1
        #: result futures, one per coalesced request (server-owned)
        self.futures: list[Any] = []
        #: the job's ``serve_interrupt`` callback on ``problem`` (server-owned,
        #: taken off again when the result or failure is delivered)
        self.hook: Any = None

    @property
    def primary_tenant(self) -> str:
        """The owner the running-cap is charged to: the first submitter."""
        return self.tenants[0]

    @property
    def requests(self) -> int:
        return len(self.request_tenants)

    def attach(self, tenant: str) -> None:
        """Coalesce one more identical request onto this job."""
        self.request_tenants.append(tenant)
        if tenant not in self.tenants:
            self.tenants.append(tenant)

    def record(self) -> JobRecord:
        return JobRecord(
            key=self.key, target=self.target, priority=self.priority,
            status=self.status, tenants=list(self.tenants),
            requests=self.requests, worker=self.worker,
            attempts=self.attempts, preemptions=self.preemptions,
            resumes=self.resumes, steps=self.steps_done,
            wall_s=self.wall_s, error=self.error, error_code=self.error_code,
        )

    def __repr__(self) -> str:
        return (f"Job({self.key[:8]}, prio={PRIORITY_NAMES[self.priority]}, "
                f"status={self.status}, requests={self.requests})")


class WorkerState:
    """One simulated GPU/rank slot."""

    def __init__(self, wid: int, kind: str = "gpu"):
        self.id = wid
        self.kind = kind
        self.alive = True
        self.job: Job | None = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "id": self.id, "kind": self.kind, "alive": self.alive,
            "job": self.job.key[:12] if self.job is not None else None,
        }


class SchedulerCore:
    """Pure scheduling state machine (see module docstring)."""

    def __init__(self, n_workers: int = 2, batch_max: int = 4,
                 preemption: bool = True,
                 quota_lookup: Callable[[str], "TenantQuota"] | None = None):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1 (got {n_workers})")
        self.batch_max = max(1, int(batch_max))
        self.preemption = bool(preemption)
        self.workers = [WorkerState(i) for i in range(n_workers)]
        self._queues: dict[int, deque[Job]] = {p: deque() for p in PRIORITY_NAMES}
        self._running: list[Job] = []
        self._running_by_tenant: dict[str, int] = {}
        self._dispatch_seq = 0
        if quota_lookup is None:
            from repro.serve.admission import TenantQuota

            default = TenantQuota()
            quota_lookup = lambda tenant: default  # noqa: E731
        self._quota = quota_lookup

    # ---------------------------------------------------------------- queries
    def depth(self, priority: int) -> int:
        return len(self._queues[priority])

    def queued_total(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def queued_jobs(self) -> list[Job]:
        return [job for p in sorted(self._queues) for job in self._queues[p]]

    def running_jobs(self) -> list[Job]:
        return list(self._running)

    def running_for(self, tenant: str) -> int:
        return self._running_by_tenant.get(tenant, 0)

    def idle_workers(self) -> list[WorkerState]:
        return [w for w in self.workers if w.alive and w.job is None]

    def alive_workers(self) -> int:
        return sum(1 for w in self.workers if w.alive)

    # ------------------------------------------------------------- transitions
    def enqueue(self, job: Job, *, front: bool = False) -> Job | None:
        """Queue ``job``; returns a preemption victim when one is warranted.

        A victim is only named for a high-priority arrival with no idle
        worker: the most recently dispatched running job of the *lowest*
        urgency strictly below the arrival's, not already interrupted.
        The caller (the server) delivers the interrupt; the core never
        touches running state here.
        """
        job.status = "queued"
        queue = self._queues[job.priority]
        if front:
            queue.appendleft(job)
        else:
            queue.append(job)
        if (not self.preemption or job.priority != PRIORITIES["high"]
                or self.idle_workers()):
            return None
        victims = [j for j in self._running
                   if j.priority > job.priority and j.interrupt is None]
        if not victims:
            return None
        victims.sort(key=lambda j: (-j.priority, -j.start_seq))
        return victims[0]

    def promote(self, job: Job, priority: int) -> bool:
        """Raise a queued job's class (coalesced duplicate arrived hotter)."""
        if priority >= job.priority or job.status != "queued":
            return False
        try:
            self._queues[job.priority].remove(job)
        except ValueError:
            return False
        job.priority = int(priority)
        self._queues[job.priority].append(job)
        return True

    def _eligible(self, job: Job, picked: list[Job]) -> bool:
        tenant = job.primary_tenant
        in_batch = sum(1 for j in picked if j.primary_tenant == tenant)
        cap = self._quota(tenant).max_running
        return self.running_for(tenant) + in_batch < cap

    def next_batch(self, worker: WorkerState) -> list[Job]:
        """Pop the next batch for ``worker``: up to ``batch_max`` jobs from
        the highest-priority class with an eligible job, FIFO, skipping
        (and keeping) jobs whose tenant is at its running cap."""
        if not worker.alive or worker.job is not None:
            return []
        for priority in sorted(self._queues):
            queue = self._queues[priority]
            if not queue:
                continue
            picked: list[Job] = []
            kept: list[Job] = []
            while queue and len(picked) < self.batch_max:
                job = queue.popleft()
                if self._eligible(job, picked):
                    picked.append(job)
                else:
                    kept.append(job)
            for job in reversed(kept):
                queue.appendleft(job)
            if picked:
                return picked
        return []

    def should_yield(self, priority: int) -> bool:
        """True when an *eligible* job of a strictly higher class waits —
        workers check this between batch items and requeue the remainder."""
        for higher in range(0, priority):
            for job in self._queues[higher]:
                if self._eligible(job, []):
                    return True
        return False

    def mark_running(self, job: Job, worker: WorkerState) -> None:
        job.status = "running"
        job.worker = worker.id
        job.attempts += 1
        job.start_seq = self._dispatch_seq
        self._dispatch_seq += 1
        worker.job = job
        self._running.append(job)
        tenant = job.primary_tenant
        self._running_by_tenant[tenant] = self.running_for(tenant) + 1

    def mark_stopped(self, job: Job) -> None:
        """Release the worker slot and the tenant's running share."""
        if job in self._running:
            self._running.remove(job)
            tenant = job.primary_tenant
            left = self.running_for(tenant) - 1
            if left > 0:
                self._running_by_tenant[tenant] = left
            else:
                self._running_by_tenant.pop(tenant, None)
        for worker in self.workers:
            if worker.job is job:
                worker.job = None
        job.worker = None

    def complete(self, job: Job) -> None:
        self.mark_stopped(job)
        job.status = "done"

    def fail(self, job: Job) -> None:
        self.mark_stopped(job)
        job.status = "failed"

    def fail_worker(self, wid: int) -> Job | None:
        """Kill a worker; returns its running job (to be interrupted)."""
        worker = self.workers[wid]
        worker.alive = False
        return worker.job

    # ----------------------------------------------------------------- export
    def as_dict(self) -> dict[str, Any]:
        return {
            "workers": [w.as_dict() for w in self.workers],
            "queues": {PRIORITY_NAMES[p]: len(q)
                       for p, q in sorted(self._queues.items())},
            "running": len(self._running),
            "batch_max": self.batch_max,
            "preemption": self.preemption,
        }


__all__ = ["Job", "SchedulerCore", "WorkerState"]
