"""The asyncio solver service.

One :class:`SolverService` owns:

* an :class:`~repro.serve.admission.AdmissionController` (bounded queue +
  per-tenant quotas, typed RPR900/RPR901 rejections);
* a :class:`~repro.serve.scheduler.SchedulerCore` and one asyncio worker
  task per simulated GPU slot — solves execute on a thread pool so the
  event loop stays responsive.  That, not parallel speed, is what the
  threads are for (one GIL): an attempt runs only while it holds the
  service's :class:`~repro.runtime.turn.Turn`, and the per-step hook passes
  it on once a slice (:data:`SLICE_S`) is used up;
* the in-flight job table keyed by :func:`repro.serve.schema.job_key`
  (identical requests coalesce onto one job and one result object) and a
  completed-result cache backed by per-tenant hashtrees;
* preemption/worker-failure handling on top of the resilience layer: a
  cooperative post-step hook checkpoints the running solve and yields the
  worker; the job resumes from that ``repro.checkpoint/1`` file on the
  next free worker, bit-identically (differentially tested);
* a ``/metrics`` + ``/status`` + ``/healthz`` HTTP endpoint (optional)
  and the ``repro.serve/1`` status document.

Threading contract: all scheduler/tenant/admission state is touched only
from the service's event loop.  Client threads enter through
``asyncio.run_coroutine_threadsafe`` (see :mod:`repro.serve.client`);
solver execution happens in executor threads but its results are handled
back on the loop.  The loop thread and the HTTP endpoint never take the turn.

Run contexts (:mod:`repro.util.context`): the loop thread starts in a copy
of its starter's, and every job runs in a copy of its submitter's, taken
at submit — so one job's faults, sanitizer and tracer never reach another.
The service's own counters and gauges go to :attr:`SolverService.metrics`
(the starter's live registry, else one of its own), as do the metrics of a
job whose context has no live registry.
"""

from __future__ import annotations

import asyncio
import json
import tempfile
import threading
import time
from contextlib import contextmanager, nullcontext
from contextvars import copy_context
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.runtime.turn import Turn
from repro.serve.admission import AdmissionController, TenantQuota
from repro.serve.scheduler import Job, SchedulerCore, WorkerState
from repro.serve.schema import (
    PRIORITY_NAMES,
    SCHEMA,
    JobRecord,
    JobResult,
    job_key,
    normalize_priority,
)
from repro.serve.tenants import TenantState
from repro.util.context import current, scope
from repro.util.errors import AdmissionError, JobFailedError, ServeError
from repro.util.logging import get_logger

if TYPE_CHECKING:
    from repro.dsl.problem import Problem

logger = get_logger("serve")


#: How long an attempt may keep the turn while another waits, checked at step
#: boundaries.  Measured, not configured (EXPERIMENTS.md, PR 19 slice sweep):
#: an nx=16-class job (20-35 ms alone) finishes inside one slice, and a small
#: job behind a paper-size one waits a slice and a step, not the whole job.
SLICE_S = 0.05


class _PreemptedSignal(Exception):
    """Internal: the in-solver hook checkpointed and yielded the worker."""

    def __init__(self, path: str, step: int):
        self.path = path
        self.step = step
        super().__init__(f"preempted at step {step}")


class _WorkerLostSignal(Exception):
    """Internal: the in-solver hook observed its worker's simulated death."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"worker lost at step {step}")


@dataclass
class ServiceConfig:
    """Knobs for one :class:`SolverService` instance."""

    #: simulated GPU/rank worker slots (also the executor thread count)
    workers: int = 2
    #: service-wide bounded queue (backpressure past this)
    queue_max: int = 64
    #: max same-priority jobs dispatched to a worker at once
    batch_max: int = 4
    #: default per-tenant quota (overridable per tenant via ``quotas``)
    max_inflight: int = 8
    max_running: int = 2
    quotas: dict[str, TenantQuota] = field(default_factory=dict)
    #: allow high-priority arrivals to checkpoint-preempt running jobs
    preemption: bool = True
    #: serve repeat requests from the completed-result cache
    reuse_results: bool = True
    #: periodic checkpoint cadence for served jobs (0 = only on preempt)
    checkpoint_every: int = 0
    #: checkpoint root (default: a private temporary directory)
    checkpoint_dir: str | None = None
    #: attempts per job before it fails with RPR902 (worker loss retries)
    max_attempts: int = 3
    host: str = "127.0.0.1"
    #: HTTP endpoint port: None disables it, 0 picks an ephemeral port
    port: int | None = None


class SolverService:
    """Multi-tenant solver-as-a-service (see module docstring)."""

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.admission = AdmissionController(
            queue_max=self.config.queue_max,
            default_quota=TenantQuota(self.config.max_inflight,
                                      self.config.max_running),
            quotas=self.config.quotas,
        )
        self.core = SchedulerCore(
            n_workers=self.config.workers,
            batch_max=self.config.batch_max,
            preemption=self.config.preemption,
            quota_lookup=self.admission.quota_for,
        )
        self.tenants: dict[str, TenantState] = {}
        self.counters: dict[str, int] = {
            "requests": 0, "deduped": 0, "results_reused": 0,
            "completed": 0, "failed": 0, "rejected": 0,
            "preemptions": 0, "resumes": 0, "worker_failures": 0,
        }
        #: the right to run a solve; held by at most one executor thread
        self.turn = Turn()
        self._inflight: dict[str, Job] = {}
        self._results: dict[str, JobResult] = {}
        self._records: list[JobRecord] = []
        self._active = False
        self._held = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._cond: asyncio.Condition | None = None
        self._worker_tasks: list[asyncio.Task] = []
        self._executor = None
        self._http_server: asyncio.AbstractServer | None = None
        self.http_port: int | None = None
        self._thread: threading.Thread | None = None
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        self._ckpt_root: Path | None = None
        #: the registry ``/metrics`` exposes (set by start)
        self.metrics = None
        self._started_at: float | None = None

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> "SolverService":
        if self._active:
            raise ServeError("service already running")
        from concurrent.futures import ThreadPoolExecutor

        from repro.obs.metrics import MetricsRegistry

        self._loop = asyncio.get_running_loop()
        self._cond = asyncio.Condition()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-serve-worker")
        if self.config.checkpoint_dir:
            self._ckpt_root = Path(self.config.checkpoint_dir)
            self._ckpt_root.mkdir(parents=True, exist_ok=True)
        else:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-serve-")
            self._ckpt_root = Path(self._tmpdir.name)
        # the starter's live registry, or one of the service's own: the
        # endpoint needs one, and jobs submitted from a context without a
        # live registry record into it
        metrics = current().metrics
        self.metrics = metrics if metrics.enabled else MetricsRegistry()
        self._active = True
        self._started_at = time.perf_counter()
        self._worker_tasks = [
            asyncio.ensure_future(self._worker_loop(w))
            for w in self.core.workers
        ]
        if self.config.port is not None:
            self._http_server = await asyncio.start_server(
                self._handle_http, self.config.host, self.config.port)
            self.http_port = self._http_server.sockets[0].getsockname()[1]
        self._event("serve.started", workers=self.config.workers,
                    queue_max=self.config.queue_max, port=self.http_port)
        logger.info("solver service started (%d workers, http=%s)",
                    self.config.workers, self.http_port)
        return self

    async def stop(self) -> None:
        if not self._active:
            return
        self._active = False
        async with self._cond:
            self._cond.notify_all()
        if self._http_server is not None:
            self._http_server.close()
            await self._http_server.wait_closed()
            self._http_server = None
        for task in self._worker_tasks:
            await task
        self._worker_tasks = []
        # whatever is still queued will never run: fail its requesters
        for job in list(self._inflight.values()):
            if job.status in ("queued", "preempted"):
                exc = ServeError(
                    f"service stopped before job {job.key[:12]} ran")
                self._deliver_failure(job, exc, code="RPR903")
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None
        self._event("serve.stopped")
        logger.info("solver service stopped")

    def start_in_thread(self) -> "SolverService":
        """Run the service on a dedicated event-loop thread (sync callers),
        in a copy of the caller's run context."""
        if self._thread is not None:
            raise ServeError("service thread already running")
        loop = asyncio.new_event_loop()
        self._loop = loop
        self._thread = threading.Thread(
            target=copy_context().run, args=(loop.run_forever,),
            name="repro-serve-loop", daemon=True)
        self._thread.start()
        asyncio.run_coroutine_threadsafe(self.start(), loop).result(timeout=30)
        return self

    def stop_in_thread(self) -> None:
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return
        asyncio.run_coroutine_threadsafe(self.stop(), loop).result(timeout=60)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()
        self._thread = None

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            raise ServeError("service not started")
        return self._loop

    @property
    def client(self):
        from repro.serve.client import Client

        return Client(self)

    # ------------------------------------------------------------- submission
    async def submit(self, problem: "Problem", *, tenant: str = "default",
                     priority: str | int = "normal",
                     target: str | None = None) -> asyncio.Future:
        """Admit one request; returns a future resolving to a
        :class:`~repro.serve.schema.JobResult` (coalesced requests resolve
        to the *same* object).  Raises ``AdmissionError``/
        ``QuotaExceededError`` on reject."""
        if not self._active:
            raise ServeError("service is not running", code="RPR903")
        prio = normalize_priority(priority)
        resolved = problem.resolve_target(target)
        from repro.tune.signature import cache_key

        ck = cache_key(problem, resolved)
        key = job_key(problem, resolved, cache_key=ck)
        state = self._tenant(tenant)
        state.submitted += 1
        self.counters["requests"] += 1
        self._metric("serve_requests_total", "requests received",
                     tenant=tenant, priority=PRIORITY_NAMES[prio])
        self._event("serve.request", tenant=tenant, key=key[:12],
                    priority=PRIORITY_NAMES[prio], target=resolved,
                    trace_id=key[:16])
        # 1. completed-result cache: the cheapest possible answer
        if self.config.reuse_results and key in self._results:
            result = self._results[key]
            state.reused += 1
            state.tree.update(key, result.digest)
            self.counters["results_reused"] += 1
            self._metric("serve_dedup_total", "requests served without a "
                         "new solve", kind="result", tenant=tenant)
            fut = self.loop.create_future()
            fut.set_result(result)
            return fut
        # 2. admission: queue backpressure only applies when a new job
        #    would enter the queue — coalescing adds no queue entry
        existing = self._inflight.get(key)
        try:
            self.admission.admit(
                tenant,
                queued_total=self.core.queued_total() if existing is None else 0,
                tenant_inflight=state.inflight)
        except AdmissionError as exc:
            state.rejected += 1
            self.counters["rejected"] += 1
            self._metric("serve_rejections_total", "requests rejected at "
                         "admission", code=exc.code, tenant=tenant)
            self._event("serve.reject", level="warning", code=exc.code,
                        tenant=tenant, reason=str(exc))
            raise
        fut = self.loop.create_future()
        state.inflight += 1
        # 3. in-flight dedup: identical request -> same job, same result
        if existing is not None:
            existing.attach(tenant)
            existing.futures.append(fut)
            state.deduped += 1
            self.counters["deduped"] += 1
            self._metric("serve_dedup_total", "requests served without a "
                         "new solve", kind="inflight", tenant=tenant)
            if self.core.promote(existing, prio):
                self._event("serve.promote", key=key[:12],
                            priority=PRIORITY_NAMES[existing.priority])
            self._event("serve.dedup", tenant=tenant, key=key[:12],
                        requests=existing.requests, trace_id=key[:16])
            await self._wake()
            return fut
        # 4. a genuinely new job, run in its submitter's context: its faults,
        # sanitizer and tracer are the ones in scope here
        job = Job(key, problem, resolved, prio, tenant, cache_key=ck)
        job.context = copy_context()
        job.futures.append(fut)
        problem.add_post_step(self._interrupt_hook(job), name="serve_interrupt")
        job.hook = problem.post_step_callbacks[-1]
        self._inflight[key] = job
        victim = self.core.enqueue(job)
        if victim is not None:
            victim.interrupt = "preempt"
            self._event("serve.preempt_request", key=victim.key[:12],
                        for_key=key[:12])
        self._event("serve.enqueue", tenant=tenant, key=key[:12],
                    priority=PRIORITY_NAMES[prio], trace_id=key[:16])
        self._gauges()
        await self._wake()
        return fut

    async def solve(self, problem: "Problem", **kwargs: Any) -> JobResult:
        """Submit and await in one call (for in-loop/async callers)."""
        return await (await self.submit(problem, **kwargs))

    # -------------------------------------------------------------- operations
    async def fail_worker(self, wid: int) -> None:
        """Simulate losing a worker; its running job retries elsewhere."""
        job = self.core.fail_worker(wid)
        self.counters["worker_failures"] += 1
        self._metric("serve_worker_failures_total", "simulated worker losses")
        self._event("serve.worker_failed", worker=wid,
                    job=job.key[:12] if job else None)
        if job is not None:
            job.interrupt = "kill"
        self._gauges()
        await self._wake()

    async def preempt(self, key: str | None = None) -> str | None:
        """Ask a running job (the given key, or any) to checkpoint + yield."""
        for job in self.core.running_jobs():
            if key is None or job.key.startswith(key):
                job.interrupt = "preempt"
                return job.key
        return None

    async def hold_workers(self) -> None:
        """Pause dispatch (running jobs finish; queued jobs wait).

        Lets tests and demos line up a burst of concurrent requests before
        any of them runs, making coalescing deterministic."""
        self._held = True

    async def release_workers(self) -> None:
        self._held = False
        await self._wake()

    # ------------------------------------------------------------ worker loop
    async def _worker_loop(self, worker: WorkerState) -> None:
        core = self.core
        while self._active and worker.alive:
            batch = [] if self._held else core.next_batch(worker)
            if not batch:
                async with self._cond:
                    if self._active and worker.alive and (
                            self._held or not core.queued_total()):
                        await self._cond.wait()
                continue
            self._event("serve.dispatch", worker=worker.id,
                        batch=[j.key[:12] for j in batch],
                        priority=PRIORITY_NAMES[batch[0].priority])
            for idx, job in enumerate(batch):
                await self._run_job(worker, job)
                rest = batch[idx + 1:]
                if not rest:
                    break
                if not self._active or not worker.alive or \
                        core.should_yield(rest[0].priority):
                    # yield the remainder: back to the head of their class
                    for j in reversed(rest):
                        core.enqueue(j, front=True)
                    await self._wake()
                    break

    async def _run_job(self, worker: WorkerState, job: Job) -> None:
        core = self.core
        core.mark_running(job, worker)
        self._gauges()
        if job.checkpoint:
            job.resumes += 1
            self.counters["resumes"] += 1
            self._metric("serve_resumes_total", "jobs resumed from checkpoint")
        t0 = time.perf_counter()
        try:
            result = await self.loop.run_in_executor(
                self._executor, job.context.run, self._execute_job, job)
        except _PreemptedSignal as sig:
            core.mark_stopped(job)
            job.status = "preempted"
            job.interrupt = None
            job.checkpoint = sig.path
            job.steps_done = sig.step
            job.preemptions += 1
            job.wall_s += time.perf_counter() - t0
            self.counters["preemptions"] += 1
            self._metric("serve_preemptions_total", "jobs preempted")
            core.enqueue(job, front=True)
            self._event("serve.preempted", key=job.key[:12], step=sig.step,
                        worker=worker.id, checkpoint=sig.path)
        except _WorkerLostSignal as sig:
            core.mark_stopped(job)
            job.interrupt = None
            job.steps_done = sig.step
            job.wall_s += time.perf_counter() - t0
            self._event("serve.job_interrupted", key=job.key[:12],
                        step=sig.step, worker=worker.id,
                        attempts=job.attempts)
            if job.attempts >= self.config.max_attempts:
                exc = JobFailedError(
                    f"job {job.key[:12]} lost its worker "
                    f"{job.attempts} times (max_attempts reached)")
                core.fail(job)
                self._deliver_failure(job, exc, code="RPR902")
            else:
                # retry from the latest checkpoint (if any) elsewhere
                core.enqueue(job, front=True)
        except Exception as exc:  # the solve itself failed
            core.fail(job)
            job.wall_s += time.perf_counter() - t0
            self._deliver_failure(job, exc, code="RPR902")
        else:
            core.complete(job)
            job.wall_s += time.perf_counter() - t0
            self._deliver_result(job, result)
        finally:
            self._records.append(job.record())
            del self._records[:-100]
            self._gauges()
            await self._wake()

    # ------------------------------------------------------------- execution
    def _execute_job(self, job: Job) -> JobResult:
        """Runs on an executor thread in the job's context, holding the turn:
        generate (cache-warm), maybe resume, run the remaining steps and
        package the shared result.  ``wall_s`` counts from the moment the
        turn is held.  A context without a live registry records into the
        service's."""
        live = current().metrics.enabled
        self.turn.acquire()
        try:
            with nullcontext() if live else scope(metrics=self.metrics):
                return self._solve_job(job)
        finally:
            self.turn.release()

    def _solve_job(self, job: Job) -> JobResult:
        from repro.obs import phase_span

        t0 = time.perf_counter()
        problem = job.problem
        extra = problem.extra
        extra["checkpoint_dir"] = str(self._ckpt_root)
        # satellite fix: per-job namespace so concurrent jobs sharing the
        # service checkpoint root can never clobber each other's files
        extra["checkpoint_namespace"] = job.key[:16]
        if self.config.checkpoint_every:
            extra["checkpoint_every"] = self.config.checkpoint_every
        if job.checkpoint:
            extra["restore_from"] = job.checkpoint
        else:
            extra.pop("restore_from", None)
        if job.cache_key:
            # the request was content-addressed at submit time; hand the
            # key to codegen so the warm path skips re-hashing the problem
            extra["_cache_key_hint"] = (job.target, job.cache_key)
        with phase_span(f"serve_job[{job.key[:8]}]", cat="serve",
                        tenant=job.primary_tenant, attempt=job.attempts):
            solver = problem.generate(job.target)
            state = solver.state
            if job.checkpoint:
                current().resilience.record_resume(
                    job.key[:12], state.step_index, tenant=job.primary_tenant)
            remaining = state.nsteps - state.step_index
            if remaining > 0:
                solver.run(remaining)
        u = solver.solution()
        unknown = state.unknown.name
        aux = {name: fld.data.copy() for name, fld in state.fields.items()
               if name != unknown}
        digest = JobResult.digest_of(u, aux)
        job.steps_done = state.step_index
        self.metrics.histogram(
            "serve_job_wall_seconds", "wall seconds per served job attempt",
        ).observe(time.perf_counter() - t0)
        return JobResult(
            key=job.key, cache_key=job.cache_key, target=job.target,
            u=u, time=state.time, steps=state.step_index, digest=digest,
            wall_s=time.perf_counter() - t0, attempts=job.attempts,
            preemptions=job.preemptions, aux=aux,
        )

    def _interrupt_hook(self, job: Job):
        """The cooperative preempt/kill hook, run after every step.

        Deliberately a *post-step callback*: callbacks are excluded from
        the ``repro.cache/1`` signature and bound per-solve, so attaching
        one never perturbs artifact caching or dedup keys.  A step boundary
        is also where a long job lets a waiting one in (not on the rank
        threads of an SPMD job: they do not hold the service's turn).
        """

        def serve_interrupt(state) -> None:
            flag = job.interrupt
            if flag is None:
                self.turn.pass_on(SLICE_S)
                return
            if flag == "preempt":
                from repro.runtime import checkpoint

                path = checkpoint.write(state, reason="preempt")
                current().resilience.record_preemption(
                    job.key[:12], state.step_index, tenant=job.primary_tenant)
                raise _PreemptedSignal(str(path), state.step_index)
            raise _WorkerLostSignal(state.step_index)

        return serve_interrupt

    # --------------------------------------------------------------- delivery
    @staticmethod
    def _drop_hook(job: Job) -> None:
        """The caller's problem leaves the service as it came in."""
        callbacks = job.problem.post_step_callbacks
        callbacks[:] = [cb for cb in callbacks if cb is not job.hook]

    def _deliver_result(self, job: Job, result: JobResult) -> None:
        self._drop_hook(job)
        if self.config.reuse_results:
            self._results[job.key] = result
        self._inflight.pop(job.key, None)
        self.counters["completed"] += 1
        self._metric("serve_jobs_total", "job outcomes", status="done")
        for tenant in job.request_tenants:
            state = self._tenant(tenant)
            state.inflight = max(0, state.inflight - 1)
            state.completed += 1
            state.tree.update(job.key, result.digest)
        for fut in job.futures:
            if not fut.done():
                fut.set_result(result)
        self._event("serve.complete", key=job.key[:12], steps=result.steps,
                    requests=job.requests, digest=result.digest[:12],
                    wall_s=round(job.wall_s, 6), trace_id=job.key[:16])

    def _deliver_failure(self, job: Job, exc: BaseException,
                         code: str | None = None) -> None:
        self._drop_hook(job)
        job.error = repr(exc)
        job.error_code = getattr(exc, "code", None) or code
        self._inflight.pop(job.key, None)
        self.counters["failed"] += 1
        self._metric("serve_jobs_total", "job outcomes", status="failed")
        for tenant in job.request_tenants:
            state = self._tenant(tenant)
            state.inflight = max(0, state.inflight - 1)
            state.failed += 1
        for fut in job.futures:
            if not fut.done():
                fut.set_exception(exc)
        self._event("serve.failed", level="error", key=job.key[:12],
                    error=repr(exc), code=job.error_code,
                    trace_id=job.key[:16])

    # ------------------------------------------------------------------ status
    def status_doc(self) -> dict[str, Any]:
        """The ``repro.serve/1`` JSON status document."""
        from repro.tune.cache import get_cache

        sched = self.core.as_dict()
        live = [j.record().as_dict()
                for j in self.core.queued_jobs() + self.core.running_jobs()]
        return {
            "schema": SCHEMA,
            "service": {
                "active": self._active,
                "workers": len(self.core.workers),
                "workers_alive": self.core.alive_workers(),
                "batch_max": self.core.batch_max,
                "preemption": self.core.preemption,
                "http_port": self.http_port,
                "uptime_s": (round(time.perf_counter() - self._started_at, 3)
                             if self._started_at is not None else None),
            },
            "queues": sched["queues"],
            "workers": sched["workers"],
            "counters": dict(self.counters),
            "admission": self.admission.as_dict(),
            "cache": get_cache().stats.as_dict(),
            "tenants": {name: state.as_dict()
                        for name, state in sorted(self.tenants.items())},
            "jobs": live + [r.as_dict() for r in self._records[-50:]],
        }

    # -------------------------------------------------------------- http layer
    async def _handle_http(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            request_line = await reader.readline()
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.split()
            path = parts[1].decode("ascii", "replace") if len(parts) >= 2 else "/"
            status, ctype, body = self._route(path)
            payload = body.encode()
            writer.write(
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n\r\n".encode() + payload)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()

    def _route(self, path: str) -> tuple[str, str, str]:
        if path == "/metrics":
            # refresh the queue/worker gauges so an idle service still
            # exports its state (they are otherwise only touched on job
            # events)
            self._gauges()
            return "200 OK", "text/plain; version=0.0.4", self.metrics.to_text()
        if path == "/status":
            return ("200 OK", "application/json",
                    json.dumps(self.status_doc(), indent=1))
        if path == "/healthz":
            return "200 OK", "text/plain", "ok\n"
        return "404 Not Found", "text/plain", f"no route {path}\n"

    # ----------------------------------------------------------------- helpers
    def _tenant(self, name: str) -> TenantState:
        state = self.tenants.get(name)
        if state is None:
            state = self.tenants[name] = TenantState(name)
        return state

    async def _wake(self) -> None:
        async with self._cond:
            self._cond.notify_all()

    def _gauges(self) -> None:
        metrics = self.metrics
        for priority, depth in self.core.as_dict()["queues"].items():
            metrics.gauge("serve_queue_depth", "queued jobs per priority "
                          "class").set(depth, priority=priority)
        metrics.gauge("serve_busy_workers", "workers with a running job").set(
            sum(1 for w in self.core.workers if w.job is not None))
        metrics.gauge("serve_workers_alive", "live worker slots").set(
            self.core.alive_workers())
        metrics.gauge("serve_inflight_jobs", "jobs queued or running").set(
            len(self._inflight))

    def _metric(self, name: str, help: str, **labels: Any) -> None:
        self.metrics.counter(name, help).inc(1, **labels)

    @staticmethod
    def _event(name: str, level: str = "info", **fields: Any) -> None:
        elog = current().events
        if elog.enabled:
            trace_id = fields.pop("trace_id", None)
            elog.emit(name, level, trace_id=trace_id, **fields)


@contextmanager
def serve_session(config: ServiceConfig | None = None, **overrides: Any):
    """Start a service on its own loop thread for the ``with`` body::

        with serve_session(workers=2, queue_max=8) as service:
            result = service.client.solve(problem, tenant="t0")
    """
    service = SolverService(config or ServiceConfig(**overrides))
    service.start_in_thread()
    try:
        yield service
    finally:
        service.stop_in_thread()


__all__ = ["ServiceConfig", "SolverService", "serve_session"]
