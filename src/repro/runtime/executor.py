"""SPMD executor: run one program per rank on real threads.

``run_spmd(nranks, program)`` calls ``program(comm)`` on every rank and
collects return values, per-rank virtual clocks and communication stats.
Exceptions in any rank cancel the run and re-raise with the rank attached,
so test failures point at the failing rank program rather than hanging.

The threads give each rank a stack and blocking calls of its own, as an MPI
process has; under one GIL they buy no parallel speed, and free-running they
lose it (every NumPy call hands the GIL across).  So a rank runs only while
it holds ``world.turn``: taken on entry, given up where
:mod:`repro.runtime.comm` blocks, released on exit however the rank unwinds.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from contextvars import copy_context
from dataclasses import dataclass, field
from typing import Any

from repro.obs import phase_span
from repro.runtime.comm import CommStats, Communicator, World
from repro.runtime.netmodel import NetworkModel, ZERO_COST
from repro.util.context import current
from repro.util.errors import HeartbeatError, RankPeerFailedError, ReproError
from repro.util.logging import get_logger

logger = get_logger("runtime.executor")


@dataclass
class SPMDResult:
    """Outcome of one SPMD run."""

    results: list[Any]
    times: list[float]  # per-rank final virtual time
    stats: list[CommStats]

    @property
    def makespan(self) -> float:
        """The run's virtual wall time (slowest rank)."""
        return max(self.times) if self.times else 0.0

    def phase_breakdown(self) -> dict[str, float]:
        """Summed per-phase virtual seconds across ranks."""
        out: dict[str, float] = {}
        for s in self.stats:
            for phase, t in s.phase_s.items():
                out[phase] = out.get(phase, 0.0) + t
        return out

    def phase_fractions(self) -> dict[str, float]:
        """Each phase's share of total charged time (the breakdown figures)."""
        breakdown = self.phase_breakdown()
        total = sum(breakdown.values())
        if total <= 0:
            return {k: 0.0 for k in breakdown}
        return {k: v / total for k, v in breakdown.items()}


def run_spmd(
    nranks: int,
    program: Callable[[Communicator], Any],
    network: NetworkModel = ZERO_COST,
    timeout_s: float = 120.0,
    heartbeat_s: float | None = None,
) -> SPMDResult:
    """Execute ``program`` on ``nranks`` ranks and gather the results.

    ``program`` receives a :class:`Communicator`; its return value lands in
    ``SPMDResult.results[rank]``.

    With ``heartbeat_s`` set, a liveness monitor watches every rank: each
    ``Communicator.compute`` call beats it, and a rank that goes silent for
    longer than the deadline is declared dead (``HeartbeatError``) instead
    of hanging the join until the deadlock-guard timeout.  Any rank failure
    poisons the comm world so peers blocked on receives unwind promptly.
    """
    logger.debug("run_spmd: launching %d rank(s)", nranks)
    world = World(nranks, network)
    world.timeout_s = timeout_s
    monitor = None
    if heartbeat_s:
        from repro.runtime.rebalance import HeartbeatMonitor

        monitor = HeartbeatMonitor(heartbeat_s)
        monitor.start(range(nranks))
        world.monitor = monitor
    comms = [world.communicator(r) for r in range(nranks)]
    results: list[Any] = [None] * nranks
    errors: list[tuple[int, BaseException]] = []
    lock = threading.Lock()

    def runner(rank: int) -> None:
        world.turn.acquire()
        try:
            # the thread is named rank{r}, so this lands on a per-rank
            # wall-clock track next to the rank's virtual timeline
            with phase_span("rank_program", cat="run", rank=rank):
                results[rank] = program(comms[rank])
        except BaseException as exc:  # noqa: BLE001 - must not kill the thread pool silently
            cooperative = type(exc).__name__ == "RebalanceInterrupt"
            level = logger.debug if cooperative else logger.warning
            level("rank %d failed: %s: %s", rank, type(exc).__name__, exc)
            with lock:
                errors.append((rank, exc))
            if not cooperative:
                # poison pill: flood the channels and break the barriers so
                # peers blocked on recv/collectives unwind instead of hanging.
                # A RebalanceInterrupt must NOT poison: every rank raises it
                # right after the same synchronising allgather, and aborting
                # the barrier here races peers still draining that collective
                # (they would unwind before writing their migration
                # checkpoint).
                world.poison(rank, exc)
        finally:
            world.turn.release()

    # a rank works for the caller's run: its thread starts in a copy of the
    # caller's run context (a new thread would start in the default one)
    threads = [
        threading.Thread(target=copy_context().run, args=(runner, r),
                         name=f"rank{r}", daemon=True)
        for r in range(nranks)
    ]
    for t in threads:
        t.start()
    if monitor is None:
        for t in threads:
            t.join(timeout=timeout_s)
            if t.is_alive():
                world._barrier.abort()
                raise ReproError(f"SPMD run timed out waiting for {t.name}")
    else:
        _join_with_heartbeat(threads, world, monitor, errors, lock, timeout_s)

    if errors:
        rank, exc = min(errors, key=lambda e: e[0])
        # BrokenBarrier / poison-pill unwinds on other ranks are collateral
        # of the abort; surface the root cause only
        collateral = (threading.BrokenBarrierError, RankPeerFailedError)
        root = [e for e in errors if not isinstance(e[1], collateral)]
        if root:
            rank, exc = min(root, key=lambda e: e[0])
        from repro.runtime.rebalance import RebalanceInterrupt

        if isinstance(exc, RebalanceInterrupt):
            # a cooperative pause agreed by every rank, not a failure:
            # hand it straight to the elastic runner
            raise exc
        current().events.emit("executor.rank_failed", level="error", rank=rank,
                              error=f"{type(exc).__name__}: {exc}")
        err = ReproError(f"rank {rank} failed: {type(exc).__name__}: {exc}")
        err.failed_rank = rank
        raise err from exc

    result = SPMDResult(
        results=results,
        times=[c.clock.now() for c in comms],
        stats=[c.stats for c in comms],
    )
    logger.debug("run_spmd: %d rank(s) done, makespan %.6es",
                 nranks, result.makespan)
    return result


def _join_with_heartbeat(
    threads: list[threading.Thread],
    world: World,
    monitor,
    errors: list[tuple[int, BaseException]],
    lock: threading.Lock,
    timeout_s: float,
) -> None:
    """Join rank threads while policing the liveness deadline.

    A rank whose heartbeat goes stale is declared dead: its
    :class:`HeartbeatError` joins the error list, the world is poisoned so
    peers unwind, and its (stuck) thread is abandoned — it is a daemon —
    after forfeiting the turn, or the pill would reach nobody.
    """
    deadline = time.monotonic() + timeout_s
    pending = {t.name: t for t in threads}
    declared: set[int] = set()
    while pending:
        for name, t in list(pending.items()):
            t.join(timeout=min(0.02, monitor.deadline_s / 4))
            if not t.is_alive():
                del pending[name]
        if not pending:
            break
        now = time.monotonic()
        for rank in _stalled(monitor, world, threads):
            if rank in declared or f"rank{rank}" not in pending:
                continue
            declared.add(rank)
            exc = HeartbeatError(
                f"rank {rank} missed the {monitor.deadline_s}s liveness "
                "deadline (stalled or dead)",
                rank=rank,
            )
            logger.warning("heartbeat: declaring rank %d dead", rank)
            with lock:
                errors.append((rank, exc))
            world.poison(rank, exc)
            # abandon the stuck daemon thread; peers will unwind via the pill
            pending.pop(f"rank{rank}", None)
            world.turn.release(threads[rank].ident)
        if now > deadline:
            world._barrier.abort()
            raise ReproError(
                f"SPMD run timed out waiting for {', '.join(sorted(pending))}"
            )


def _stalled(monitor, world: World, threads: list[threading.Thread]) -> list[int]:
    """The silent ranks that could have run: waiting for the turn is not
    silence, and once a silent holder has also held the turn for the deadline
    the others' silence is its doing — it alone is declared."""
    # the turn is read before the beats: a rank granted the turn in between
    # is still listed as waiting, never as a holder that has not beaten yet
    holder, held_s, waiting = world.turn.snapshot()
    silent = [r for r in monitor.stalled() if threads[r].ident not in waiting]
    holding = [r for r in silent if threads[r].ident == holder]
    if holding and held_s > monitor.deadline_s:
        return holding
    return [r for r in silent if r not in holding]


__all__ = ["run_spmd", "SPMDResult"]
