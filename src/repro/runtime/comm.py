"""Rank communicator with virtual-time accounting.

Rank programs run in threads (one per rank); messages travel through
per-(source, dest, tag) FIFO queues carrying both the payload and the
sender's virtual timestamp.  A receive completes at

    max(local_clock, send_time + alpha + bytes/beta)

so waiting on a late sender shows up as communication time on the receiving
rank, exactly as a real trace would attribute it.  Collectives are
implemented with real rendezvous (a barrier + shared slots) and charged with
the tree/ring costs from the :class:`~repro.runtime.netmodel.NetworkModel`.

The threads stand in for MPI processes, not for parallel speed: under
``run_spmd`` a rank runs only while it holds its world's
:class:`~repro.runtime.turn.Turn`, and gives it up in two places here — a
receive that finds its channel empty and a collective rendezvous (no-ops on
a thread that holds no turn).  Clocks, stats and message order do not see it.
"""

from __future__ import annotations

import enum
import queue
import threading
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.obs.tracer import next_span_id
from repro.runtime.netmodel import NetworkModel, ZERO_COST
from repro.runtime.resilience import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.runtime.turn import Turn
from repro.util.errors import (
    CommFaultError,
    RankKilledError,
    RankPeerFailedError,
    ReproError,
)
from repro.util.context import current
from repro.util.timing import VirtualClock


class ReduceOp(enum.Enum):
    """Reduction operators supported by :meth:`Communicator.allreduce`."""

    SUM = "sum"
    MAX = "max"
    MIN = "min"


_REDUCERS = {
    ReduceOp.SUM: lambda parts: np.sum(parts, axis=0),
    ReduceOp.MAX: lambda parts: np.max(parts, axis=0),
    ReduceOp.MIN: lambda parts: np.min(parts, axis=0),
}


@dataclass
class _Message:
    payload: Any
    nbytes: int
    send_time: float
    seq: int = 0  # per-(src, dst, tag) sequence number (dedup + ordering)
    extra_delay_s: float = 0.0  # injected in-flight delay
    # sender's span context (trace_id, span_id, track, virtual send time):
    # travels with the message through drops/dups/delays/re-sends so the
    # receiver can record the causal send->recv flow edge for exactly the
    # copy that was delivered
    span: tuple[str, int, str, float] | None = None


@dataclass
class _Poison:
    """Sentinel flooded through every channel when a rank dies.

    Receivers raise :class:`RankPeerFailedError` the moment they dequeue
    one, instead of blocking until the deadlock-guard timeout.  The
    sentinel is re-enqueued on delivery so every later receive on the same
    channel fails fast too.
    """

    rank: int  # the rank that failed
    error: str  # its original error, pre-rendered


def _payload_bytes(data: Any) -> int:
    if isinstance(data, np.ndarray):
        return data.nbytes
    if isinstance(data, (int, float)):
        return 8
    if isinstance(data, (list, tuple)):
        return sum(_payload_bytes(d) for d in data)
    if isinstance(data, dict):
        return sum(_payload_bytes(v) for v in data.values())
    return 64  # opaque objects: charge a small envelope


class World:
    """Shared state of one SPMD run: channels + collective rendezvous."""

    def __init__(self, nranks: int, network: NetworkModel = ZERO_COST):
        if nranks < 1:
            raise ReproError(f"world size must be >= 1, got {nranks}")
        self.nranks = nranks
        self.network = network
        self._channels: dict[tuple[int, int, int], queue.Queue] = {}
        self._channel_lock = threading.Lock()
        self._barrier = threading.Barrier(nranks)
        self._coll_lock = threading.Lock()
        self._coll_slots: list[Any] = [None] * nranks
        self._coll_result: Any = None
        self.timeout_s = 60.0  # deadlock guard for tests
        # who may run rank code; run_spmd's rank threads take it, nobody else
        self.turn = Turn()
        # liveness monitor (set by run_spmd when heartbeat_s is given);
        # Communicator.compute() beats it on every call
        self.monitor = None
        # poison pill: set once by the first failing rank, then flooded
        # through every existing and future channel
        self._poison: _Poison | None = None
        # resend buffer: messages the injector "lost" in flight, keyed by
        # channel.  The sender keeps every dropped message here so the
        # receiver's timeout can trigger an idempotent re-send.
        self._lost: dict[tuple[int, int, int], list[_Message]] = {}
        self._lost_lock = threading.Lock()

    def channel(self, src: int, dst: int, tag: int) -> queue.Queue:
        key = (src, dst, tag)
        with self._channel_lock:
            ch = self._channels.get(key)
            if ch is None:
                ch = queue.Queue()
                self._channels[key] = ch
                if self._poison is not None:
                    ch.put(self._poison)
            return ch

    def poison(self, rank: int, exc: BaseException) -> None:
        """Cancel peers after ``rank`` failed: flood channels, break barriers.

        Idempotent — only the first failure becomes the pill; later ones
        are collateral of the unwind and keep their own error objects.
        """
        with self._channel_lock:
            if self._poison is not None:
                return
            self._poison = _Poison(rank, f"{type(exc).__name__}: {exc}")
            channels = list(self._channels.values())
        try:
            self._barrier.abort()
        except Exception:  # noqa: BLE001 - abort must never mask the root cause
            pass
        for ch in channels:
            ch.put(self._poison)

    def stash_lost(self, src: int, dst: int, tag: int, msg: _Message) -> None:
        """Record a dropped message in the sender's resend buffer."""
        with self._lost_lock:
            self._lost.setdefault((src, dst, tag), []).append(msg)

    def redeliver(self, src: int, dst: int, tag: int) -> bool:
        """Re-send the oldest lost message on a channel (idempotent resend).

        Called by a receiver whose timeout expired; returns ``True`` when a
        lost message was found and put back in flight.
        """
        with self._lost_lock:
            pending = self._lost.get((src, dst, tag))
            if not pending:
                return False
            msg = pending.pop(0)
        self.channel(src, dst, tag).put(msg)
        return True

    def communicator(self, rank: int) -> "Communicator":
        return Communicator(self, rank)


@dataclass
class CommStats:
    """Per-rank accounting of where virtual time went."""

    compute_s: float = 0.0
    comm_s: float = 0.0
    messages_sent: int = 0
    bytes_sent: int = 0
    phase_s: dict[str, float] = field(default_factory=dict)

    def charge_phase(self, phase: str, dt: float) -> None:
        self.phase_s[phase] = self.phase_s.get(phase, 0.0) + dt

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe view for the run report's ``comm`` section."""
        return {
            "compute_s": self.compute_s,
            "comm_s": self.comm_s,
            "messages_sent": self.messages_sent,
            "bytes_sent": self.bytes_sent,
            "phase_s": dict(self.phase_s),
        }


class Communicator:
    """One rank's endpoint (mpi4py-flavoured API, virtual time attached)."""

    def __init__(self, world: World, rank: int):
        if not (0 <= rank < world.nranks):
            raise ReproError(f"rank {rank} out of range [0, {world.nranks})")
        self.world = world
        self.rank = rank
        self.clock = VirtualClock()
        self.stats = CommStats()
        self.retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY
        # sequence numbers: next seq per (dest, tag); highest seq delivered
        # per (source, tag) — the dedup watermark for duplicated messages
        self._send_seq: dict[tuple[int, int], int] = {}
        self._recv_watermark: dict[tuple[int, int], int] = {}
        # reorder buffer: messages that overtook a lost one, per (source, tag)
        self._recv_pending: dict[tuple[int, int], dict[int, _Message]] = {}
        # virtual-timeline track: one per rank in the exported trace
        ctx = current()
        self.tracer = ctx.tracer
        self.track = f"virtual/rank{rank}"
        # structured event log (per-message events are debug level, so the
        # always-on default pays one attribute check per message)
        self.elog = ctx.events
        # metric instruments (shared no-ops when metrics are disabled)
        metrics = ctx.metrics
        self.metrics = metrics
        self._m_messages = metrics.counter(
            "comm_messages_total", "point-to-point messages sent")
        self._m_bytes = metrics.counter(
            "comm_bytes_sent_total", "point-to-point payload bytes sent")
        self._m_halo_bytes = metrics.counter(
            "comm_halo_bytes_total", "bytes sent through neighbour exchanges")
        self._m_recv_wait = metrics.histogram(
            "comm_recv_wait_seconds", "virtual seconds blocked in recv")
        self._m_collective = metrics.counter(
            "comm_collectives_total", "collective operations entered")

    @property
    def size(self) -> int:
        return self.world.nranks

    # ------------------------------------------------------------- local work
    def compute(self, seconds: float, phase: str = "compute") -> None:
        """Charge ``seconds`` of local computation to this rank's clock.

        An injected rank stall surfaces here: the clock additionally
        advances by the stall duration, which peers then wait out in their
        next receive or collective — exactly how a straggler rank looks in
        a real trace.
        """
        if seconds < 0:
            raise ReproError(f"negative compute charge {seconds}")
        if self.world.monitor is not None:
            self.world.monitor.beat(self.rank)
        ctx = current()
        injector = ctx.injector
        if injector.enabled:
            if injector.kill_rank(self.rank):
                ctx.resilience.record_injected("rank_kill", rank=self.rank)
                raise RankKilledError(
                    f"rank {self.rank} killed by injected fault",
                    rank=self.rank,
                )
            stall = injector.stall_seconds(self.rank)
            if stall > 0.0:
                before = self.clock.now()
                self.clock.advance(stall)
                self.stats.charge_phase("fault_stall", stall)
                ctx.resilience.record_injected("stall", rank=self.rank)
                if self.tracer.enabled:
                    self.tracer.complete(self.track, "fault:stall", before,
                                         self.clock.now(), cat="fault",
                                         stall_s=stall)
            factor = injector.slow_factor(self.rank)
            if factor > 1.0:
                # a degraded rank: its compute genuinely takes longer, so
                # the extra lands in compute_s (not comm_s) — that is what
                # the imbalance-triggered rebalancer measures
                slow = seconds * (factor - 1.0)
                before = self.clock.now()
                self.clock.advance(slow)
                self.stats.compute_s += slow
                self.stats.charge_phase("fault_slow", slow)
                ctx.resilience.record_injected("rank_slow", rank=self.rank)
                if self.tracer.enabled:
                    self.tracer.complete(self.track, "fault:slow", before,
                                         self.clock.now(), cat="fault",
                                         factor=factor)
        before = self.clock.now()
        self.clock.advance(seconds)
        self.stats.compute_s += seconds
        self.stats.charge_phase(phase, seconds)
        if self.tracer.enabled:
            self.tracer.complete(self.track, phase, before, self.clock.now(),
                                 cat="compute")

    # ---------------------------------------------------------- point to point
    def send(self, dest: int, data: Any, tag: int = 0) -> None:
        """Non-blocking buffered send (MPI_Isend-like; copies the payload).

        The fault injector may drop the message into the world's resend
        buffer (recovered by the receiver's retry), duplicate it (dropped
        by the receiver's sequence dedup) or delay it in flight.
        """
        if dest == self.rank:
            raise ReproError("send to self is not allowed")
        if isinstance(data, np.ndarray):
            payload: Any = data.copy()
        else:
            payload = data
        nbytes = _payload_bytes(payload)
        key = (dest, tag)
        seq = self._send_seq.get(key, 0) + 1
        self._send_seq[key] = seq
        msg = _Message(payload, nbytes, self.clock.now(), seq=seq)
        send_span = 0
        if self.tracer.enabled:
            # span context rides inside the message: the receiving side of
            # exactly the delivered copy records the causal flow edge
            send_span = next_span_id()
            msg.span = (self.tracer.trace_id, send_span, self.track,
                        msg.send_time)
        ctx = current()
        if ctx.sanitizer is not None:
            # out-of-band checksum: the payload (and every byte count the
            # virtual clocks see) is untouched
            ctx.sanitizer.note_sent(self.rank, dest, tag, seq, payload)
        copies = 1
        injector = ctx.injector
        if injector.enabled:
            rule = injector.message_fault(self.rank, dest, tag)
            if rule is not None:
                ctx.resilience.record_injected(rule.kind, rank=self.rank)
                if self.tracer.enabled:
                    self.tracer.instant(
                        self.track, f"fault:{rule.kind}->{dest}",
                        self.clock.now(), cat="fault", tag=tag, seq=seq)
                if rule.kind == "drop":
                    copies = 0
                    self.world.stash_lost(self.rank, dest, tag, msg)
                elif rule.kind == "dup":
                    copies = 2
                elif rule.kind == "delay":
                    msg.extra_delay_s = rule.delay_s
        for _ in range(copies):
            self.world.channel(self.rank, dest, tag).put(msg)
        self.stats.messages_sent += 1
        self.stats.bytes_sent += nbytes
        if self.metrics.enabled:
            self._m_messages.inc(1, rank=self.rank)
            self._m_bytes.inc(nbytes, rank=self.rank)
        if self.tracer.enabled:
            # a zero-duration span (not an instant) so the Perfetto flow
            # start has an enclosing slice to bind to
            self.tracer.complete(self.track, f"send->{dest}", msg.send_time,
                                 msg.send_time, cat="comm", bytes=nbytes,
                                 tag=tag, seq=seq, span_id=send_span)
            self.tracer.counter(self.track, "bytes_sent", self.clock.now(),
                                self.stats.bytes_sent)
        if self.elog.debug_enabled:
            self.elog.emit("comm.send", level="debug", rank=self.rank,
                           span_id=send_span, dest=dest, tag=tag, seq=seq,
                           bytes=nbytes)

    def _next_message(self, source: int, tag: int) -> tuple[_Message, float]:
        """Blocking in-order dequeue with timeout/backoff/re-send and dedup.

        Returns ``(message, recovery_penalty_s)`` where the penalty is the
        virtual time the retry protocol added on top of the normal arrival
        model.  Fault-free runs take the fast path: one blocking get with
        the world's deadlock-guard timeout, no per-receive overhead.

        Under injection the receiver enforces *in-order* delivery by
        sequence number: only ``watermark + 1`` is accepted.  A stale seq
        is a duplicate (discarded); a future seq means a message overtook
        one the fabric lost (sends are non-blocking, so a fast sender runs
        ahead) — it is parked in a reorder buffer and the gap triggers an
        immediate re-send request.  A timeout with nothing to redeliver
        backs off exponentially until the retry budget is spent; only a
        round that re-sent a lost message charges virtual time
        (:meth:`_retry`).
        """
        ch = self.world.channel(source, self.rank, tag)
        key = (source, tag)
        policy = self.retry_policy
        ctx = current()
        log = ctx.resilience
        fast_path = not ctx.injector.enabled
        attempt = 0  # rounds, for the budget
        recovered, penalty = 0, 0.0  # rounds that re-sent a lost message, their cost
        waited_wall = 0.0
        while True:
            expected = self._recv_watermark.get(key, 0) + 1
            parked = self._recv_pending.get(key, {}).pop(expected, None)
            if parked is not None:
                msg = parked
            else:
                timeout = (self.world.timeout_s if fast_path
                           else min(policy.wall_timeout(attempt), self.world.timeout_s))
                try:
                    try:
                        # a message that is already there costs no hand-off
                        msg = ch.get_nowait()
                    except queue.Empty:
                        with self.world.turn.released():
                            msg = ch.get(timeout=timeout)
                except queue.Empty:
                    if self.world._poison is not None:
                        self._raise_poisoned(self.world._poison)
                    waited_wall += timeout
                    if fast_path or waited_wall >= self.world.timeout_s \
                            or attempt >= policy.max_retries:
                        raise CommFaultError(
                            f"rank {self.rank}: recv from {source} tag {tag} "
                            f"timed out after {attempt} retries "
                            "(deadlock, or a fault beyond the retry budget)"
                        ) from None
                    # timeout: request an idempotent re-send of anything the
                    # fabric lost and back off exponentially
                    attempt += 1
                    recovered, penalty = self._retry(
                        source, tag, recovered, penalty, "timeout")
                    continue
                if isinstance(msg, _Poison):
                    ch.put(msg)  # keep the channel poisoned for later receives
                    self._raise_poisoned(msg)
                if msg.seq and msg.seq < expected:
                    # a duplicated copy re-announces an already-delivered
                    # seq — discard and keep waiting
                    log.record_duplicate_dropped(rank=self.rank)
                    continue
                if msg.seq and msg.seq > expected:
                    # overtake: the gap seq was lost in flight; park this
                    # message for later and ask for a re-send now
                    self._recv_pending.setdefault(key, {})[msg.seq] = msg
                    if attempt >= policy.max_retries:
                        raise CommFaultError(
                            f"rank {self.rank}: recv from {source} tag {tag} "
                            f"missing seq {expected} after {attempt} retries "
                            "(a dropped message was never recovered)"
                        )
                    attempt += 1
                    recovered, penalty = self._retry(
                        source, tag, recovered, penalty, f"gap:{expected}")
                    continue
            if msg.seq:
                self._recv_watermark[key] = msg.seq
            if recovered:
                log.record_recovered(penalty, rank=self.rank)
            return msg, penalty

    def _raise_poisoned(self, pill: _Poison) -> None:
        """Unwind this rank after a peer failure (poison-pill delivery)."""
        raise RankPeerFailedError(
            f"rank {self.rank}: aborting, peer rank {pill.rank} failed "
            f"({pill.error})",
            rank=pill.rank,
        )

    def _retry(self, source: int, tag: int, recovered: int, penalty: float,
               why: str) -> tuple[int, float]:
        """One recovery round: a re-send request, and — when the fabric held
        a lost message of the channel (a gap always means one) — the
        protocol's virtual latency, backing off with every recovery.  A
        timeout with nothing lost is the peer not having sent yet, in wall
        time: it costs no virtual time, so no clock depends on how busy the
        machine was."""
        redelivered = self.world.redeliver(source, self.rank, tag)
        if not redelivered and why == "timeout":
            return recovered, penalty
        penalty += self.retry_policy.virtual_penalty(recovered)
        recovered += 1
        current().resilience.record_retry(rank=self.rank)
        if self.tracer.enabled:
            self.tracer.instant(
                self.track, f"retry<-{source}", self.clock.now(),
                cat="fault", attempt=recovered, why=why, redelivered=redelivered)
        return recovered, penalty

    def recv(self, source: int, tag: int = 0, phase: str = "communication") -> Any:
        """Blocking receive; virtual clock jumps to the arrival time."""
        msg, penalty = self._next_message(source, tag)
        san = current().sanitizer
        if san is not None:
            san.check_received(source, self.rank, tag, msg.seq, msg.payload)
        arrival = (msg.send_time + msg.extra_delay_s
                   + self.world.network.transfer_time(msg.nbytes))
        before = self.clock.now()
        self.clock.advance_to(arrival)
        if penalty > 0.0:
            self.clock.advance(penalty)
        waited = self.clock.now() - before
        self.stats.comm_s += waited
        self.stats.charge_phase(phase, waited)
        if self.metrics.enabled:
            self._m_recv_wait.observe(waited, rank=self.rank)
        if self.tracer.enabled:
            recv_span = next_span_id()
            parent = 0
            if msg.span is not None:
                _, parent, src_track, src_t = msg.span
                # causal edge: the sender's send-span to this recv-span.
                # dst_t is the recv end, which the arrival model guarantees
                # is >= src_t (+ delays/penalties) — flows point forward in
                # virtual time even under retries, dups and reorders.
                self.tracer.flow(
                    f"msg:{source}->{self.rank}", parent, src_track, src_t,
                    self.track, self.clock.now(), tag=tag, seq=msg.seq,
                    bytes=msg.nbytes)
            self.tracer.complete(self.track, f"recv<-{source}", before,
                                 self.clock.now(), cat="comm",
                                 bytes=msg.nbytes, tag=tag, waited_s=waited,
                                 span_id=recv_span, parent_span_id=parent)
        if self.elog.debug_enabled:
            parent = msg.span[1] if msg.span is not None else 0
            self.elog.emit("comm.recv", level="debug", rank=self.rank,
                           parent_id=parent, source=source, tag=tag,
                           seq=msg.seq, bytes=msg.nbytes, waited_s=waited)
        return msg.payload

    def exchange(self, sends: dict[int, Any], tag: int = 0,
                 phase: str = "communication") -> dict[int, Any]:
        """Symmetric neighbour exchange: send to every key, receive from each.

        This is the halo-update pattern: post all sends first, then drain
        the receives (safe because sends are buffered).
        """
        if self.metrics.enabled and sends:
            self._m_halo_bytes.inc(
                sum(_payload_bytes(d) for d in sends.values()), rank=self.rank
            )
        for dest, data in sends.items():
            self.send(dest, data, tag)
        return {src: self.recv(src, tag, phase) for src in sends}

    # -------------------------------------------------------------- collectives
    # Collectives carry causal context the same way messages do: every rank
    # deposits its entry (time, rank, span_id, track) and the rendezvous max
    # elects the *straggler* — the rank whose late arrival gated completion.
    # Each other rank then records a flow edge from that entry to its own
    # collective span, so the measured critical path can hop to the rank
    # that actually caused the wait.
    def _coll_entry(self, coll: str) -> tuple[float, int, int, str]:
        now = self.clock.now()
        entry_span = 0
        if self.tracer.enabled:
            entry_span = next_span_id()
            # zero-duration span (like send): gives the flow start an
            # enclosing slice and the measured critical path a span_id
            self.tracer.complete(self.track, f"{coll}-enter", now, now,
                                 cat="comm", span_id=entry_span)
        return (now, self.rank, entry_span, self.track)

    def _coll_finish(self, coll: str, latest: tuple[float, int, int, str],
                     before: float, nbytes: int, **extra: Any) -> None:
        """Record the collective span + the causal edge from the straggler."""
        now = self.clock.now()
        waited = now - before
        src_t, src_rank, src_span, src_track = latest
        parent = src_span if src_rank != self.rank else 0
        if self.tracer.enabled:
            if parent:
                # fresh arrow id (one flow per dependent rank); the args
                # carry the straggler's entry span so the measured critical
                # path can resolve the jump target
                self.tracer.flow(f"coll:{coll}", next_span_id(), src_track,
                                 src_t, self.track, now, src_span=parent,
                                 src_rank=src_rank)
            self.tracer.complete(self.track, coll, before, now, cat="comm",
                                 bytes=nbytes, waited_s=waited,
                                 span_id=next_span_id(),
                                 parent_span_id=parent, **extra)
        if self.elog.debug_enabled:
            self.elog.emit(f"comm.{coll}", level="debug", rank=self.rank,
                           parent_id=parent, bytes=nbytes, waited_s=waited)

    def _rendezvous(self, value: Any, combine) -> Any:
        """All ranks deposit a value; one combines; all pick up the result."""
        w = self.world
        w._coll_slots[self.rank] = value
        with w.turn.released():  # once around all four waits
            idx = w._barrier.wait()
            if idx == 0:
                w._coll_result = combine(list(w._coll_slots))
            w._barrier.wait()
            result = w._coll_result
            w._barrier.wait()  # everyone read before slots are reused
            if idx == 0:
                w._coll_slots = [None] * w.nranks
                w._coll_result = None
            w._barrier.wait()
        return result

    def allreduce(self, data: np.ndarray | float, op: ReduceOp = ReduceOp.SUM,
                  phase: str = "communication") -> Any:
        """Tree allreduce with real data combination + modelled cost."""
        arr = np.asarray(data, dtype=np.float64)
        if self.metrics.enabled:
            self._m_collective.inc(1, rank=self.rank, op="allreduce")
        # synchronise: collective completes only after the latest rank enters
        latest = self._rendezvous(self._coll_entry("allreduce"), max)
        parts = self._rendezvous(arr, lambda slots: _REDUCERS[op](np.stack(slots)))
        cost = self.world.network.allreduce_time(arr.nbytes, self.size)
        before = self.clock.now()
        self.clock.advance_to(latest[0] + cost)
        self.stats.comm_s += self.clock.now() - before
        self.stats.charge_phase(phase, self.clock.now() - before)
        self._coll_finish("allreduce", latest, before, arr.nbytes, op=op.value)
        if np.ndim(data) == 0:
            return float(parts)
        return parts

    def allgather(self, data: Any, phase: str = "communication") -> list[Any]:
        """Ring allgather with modelled cost."""
        if self.metrics.enabled:
            self._m_collective.inc(1, rank=self.rank, op="allgather")
        latest = self._rendezvous(self._coll_entry("allgather"), max)
        slots = self._rendezvous(data, list)
        nbytes = _payload_bytes(data)
        cost = self.world.network.allgather_time(nbytes, self.size)
        before = self.clock.now()
        self.clock.advance_to(latest[0] + cost)
        self.stats.comm_s += self.clock.now() - before
        self.stats.charge_phase(phase, self.clock.now() - before)
        self._coll_finish("allgather", latest, before, nbytes)
        return slots

    def barrier(self) -> None:
        entry = self._rendezvous(self.clock.now(), max)
        self.clock.advance_to(entry)


__all__ = ["World", "Communicator", "ReduceOp", "CommStats"]
