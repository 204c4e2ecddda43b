"""Elastic SPMD runtime: liveness, rank-loss recovery, load rebalancing.

Three cooperating mechanisms turn the static-partition SPMD runtime into an
elastic one (ROADMAP item 4: "detects imbalance and rank loss, migrates
state via checkpoints, repartitions live"):

* :class:`HeartbeatMonitor` — every :meth:`Communicator.compute` call beats
  a per-rank liveness clock; ``run_spmd(heartbeat_s=...)`` polls it during
  the join and declares a silent rank dead (``HeartbeatError``, RPR315)
  within the configured deadline instead of hanging until the deadlock
  guard.  The clock source is pluggable so tests drive it with a
  :class:`~repro.util.timing.VirtualClock` — no wall sleeps.

* **Rank-loss recovery** — when a segment dies with a
  :class:`~repro.util.errors.RankKilledError` (injected ``rank_kill``) or
  :class:`~repro.util.errors.HeartbeatError` root cause,
  :class:`ElasticRunner` resumes from the last *consistent cut*: the
  newest step every rank of this run that wrote it left its file of (the
  runner records the files its ranks write, and reads no other), composed
  by :mod:`repro.runtime.checkpoint`.  It repartitions over the surviving
  rank count via :mod:`repro.mesh.partition`, rebinds the generated
  module's partition tables (send/recv halo maps, per-rank cost vectors),
  and reruns the remaining steps.  Because the per-cell /
  per-band arithmetic is partition-independent (halo/ghost values are
  re-exchanged before every step), the recovered run is bit-identical to
  an uninterrupted one.

* **Imbalance-triggered rebalancing** — each rank measures its own compute
  seconds per step (``CommStats.compute_s`` deltas, so collective waits do
  not blur the signal); every :data:`CHECK_EVERY` steps the ranks allgather
  their window means and all derive the *same* imbalance ratio
  (max/mean).  When the ratio exceeds the threshold and the modelled
  benefit ``(max-mean) * remaining_steps`` exceeds the modelled migration
  cost (a :class:`~repro.runtime.netmodel.NetworkModel` state transfer),
  every rank writes a migration checkpoint at that exact step and raises
  :class:`RebalanceInterrupt` — a cooperative, symmetric pause, not a
  failure.  The runner then repartitions with weights proportional to the
  measured per-rank speeds and resumes.

Each :class:`ElasticRunner` keeps a :class:`RebalanceLog` of its last run,
which the run report's ``rebalance`` section reads through the solver;
every migration also lands in the run context's resilience log and event
log.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Any

from repro.runtime import checkpoint
from repro.util.context import current
from repro.util.errors import (
    HeartbeatError,
    MigrationError,
    RankKilledError,
    ReproError,
)


# ---------------------------------------------------------------------------
# heartbeat / liveness
# ---------------------------------------------------------------------------

class HeartbeatMonitor:
    """Per-rank liveness clock with a configurable deadline.

    ``clock`` is any zero-argument callable returning seconds; it defaults
    to :func:`time.monotonic` but tests pass a virtual clock's ``now`` so
    detection is provable without wall sleeps.
    """

    def __init__(self, deadline_s: float,
                 clock: Callable[[], float] | None = None):
        if deadline_s <= 0:
            raise ReproError(f"heartbeat deadline must be > 0, got {deadline_s}")
        self.deadline_s = float(deadline_s)
        self.clock = clock or time.monotonic
        self._last: dict[int, float] = {}
        self._lock = threading.Lock()

    def start(self, ranks: Iterable[int]) -> None:
        """Arm the monitor: every rank gets a fresh beat at 'now'."""
        now = self.clock()
        with self._lock:
            for rank in ranks:
                self._last[int(rank)] = now

    def beat(self, rank: int) -> None:
        with self._lock:
            self._last[rank] = self.clock()

    def last_beat(self, rank: int) -> float | None:
        with self._lock:
            return self._last.get(rank)

    def stalled(self, now: float | None = None) -> list[int]:
        """Ranks whose last beat is older than the deadline (sorted)."""
        if now is None:
            now = self.clock()
        with self._lock:
            return sorted(
                r for r, t in self._last.items() if now - t > self.deadline_s
            )


# ---------------------------------------------------------------------------
# policy + cooperative interrupt
# ---------------------------------------------------------------------------

#: steps between imbalance checks
CHECK_EVERY = 4
#: no migration with fewer steps left
MIN_REMAINING = 2
#: proactive migrations per run
MAX_REBALANCES = 1
#: rank-loss recoveries per run
MAX_RECOVERIES = 4


@dataclass(frozen=True)
class RebalancePolicy:
    """Knobs of the elastic runtime (CLI: ``--rebalance``,
    ``--heartbeat-s``, ``--imbalance-threshold``)."""

    heartbeat_s: float | None = None  # liveness deadline; None = joins only
    imbalance_threshold: float = 1.5  # max/mean per-rank step time ratio


class RebalanceInterrupt(Exception):
    """Cooperative segment pause: every rank agreed to rebalance *now*.

    Raised symmetrically by all ranks right after the (synchronising)
    imbalance allgather, with a migration checkpoint already on disk — so
    the interrupt is deterministic and the resume point bit-exact.  Not a
    :class:`ReproError`: it must pass through failure handlers untouched.
    """

    def __init__(self, step: int, ratio: float, times: list[float],
                 benefit_s: float, cost_s: float):
        self.step = step
        self.ratio = ratio
        self.times = times
        self.benefit_s = benefit_s
        self.cost_s = cost_s
        super().__init__(
            f"rebalance requested at step {step} (imbalance {ratio:.2f})"
        )


def imbalance_ratio(times: list[float]) -> float:
    """max/mean of per-rank busy seconds (1.0 = perfectly balanced)."""
    if not times:
        return 1.0
    mean = sum(times) / len(times)
    if mean <= 0.0:
        return 1.0
    return max(times) / mean


# ---------------------------------------------------------------------------
# run-wide log -> run report `rebalance` section
# ---------------------------------------------------------------------------

class RebalanceLog:
    """Thread-safe account of elastic-runtime decisions for one run."""

    def __init__(self):
        self._lock = threading.Lock()
        self.enabled_policy: dict[str, Any] | None = None
        self.checks = 0
        self.last_imbalance: float | None = None
        self.skips: list[dict[str, Any]] = []
        self.migrations: list[dict[str, Any]] = []
        self.final_nranks: int | None = None
        self.final_imbalance: float | None = None

    def record_policy(self, policy: RebalancePolicy) -> None:
        with self._lock:
            self.enabled_policy = {
                "heartbeat_s": policy.heartbeat_s,
                "imbalance_threshold": policy.imbalance_threshold,
                "check_every": CHECK_EVERY,
            }

    def record_check(self, step: int, ratio: float) -> None:
        with self._lock:
            self.checks += 1
            self.last_imbalance = float(ratio)

    def record_skip(self, step: int, ratio: float, benefit_s: float,
                    cost_s: float) -> None:
        """Imbalance over threshold, but migration would not pay for itself."""
        with self._lock:
            self.skips.append({
                "step": step, "imbalance": float(ratio),
                "benefit_s": float(benefit_s), "cost_s": float(cost_s),
            })
        self._event("rebalance.skipped", "info", step=step, ratio=ratio,
                    benefit_s=benefit_s, cost_s=cost_s)

    def record_migration(self, **entry: Any) -> None:
        with self._lock:
            self.migrations.append(dict(entry))
        metrics = current().metrics
        if metrics.enabled:
            metrics.counter(
                "rebalance_migrations_total",
                "state migrations performed by the elastic runtime",
            ).inc(1, kind=entry.get("kind", "?"))
        self._event("rebalance.migrated", "warning", **entry)

    def set_final(self, nranks: int, ratio: float | None) -> None:
        with self._lock:
            self.final_nranks = nranks
            self.final_imbalance = None if ratio is None else float(ratio)

    @staticmethod
    def _event(name: str, level: str, **fields: Any) -> None:
        elog = current().events
        if elog.enabled:
            step = fields.pop("step", None)
            elog.emit(name, level, step=step, **fields)

    def has_events(self) -> bool:
        with self._lock:
            return bool(self.checks or self.migrations or self.skips
                        or self.enabled_policy)

    def as_dict(self) -> dict[str, Any]:
        with self._lock:
            return {
                "policy": self.enabled_policy,
                "checks": self.checks,
                "last_imbalance": self.last_imbalance,
                "skipped": list(self.skips),
                "migrations": [dict(m) for m in self.migrations],
                "final_nranks": self.final_nranks,
                "final_imbalance": self.final_imbalance,
            }

    def summary(self) -> str:
        d = self.as_dict()
        parts = [f"checks: {d['checks']}"]
        if d["migrations"]:
            kinds = ", ".join(
                f"{m['kind']}@step{m['step']}" for m in d["migrations"])
            parts.append(f"migrations: {len(d['migrations'])} ({kinds})")
        if d["skipped"]:
            parts.append(f"skipped: {len(d['skipped'])}")
        if d["final_imbalance"] is not None:
            parts.append(f"final imbalance: {d['final_imbalance']:.3f}")
        if d["final_nranks"] is not None:
            parts.append(f"final ranks: {d['final_nranks']}")
        return "; ".join(parts)


# ---------------------------------------------------------------------------
# per-rank imbalance watcher (behind SolverState.maybe_rebalance)
# ---------------------------------------------------------------------------

class _RankMonitor:
    """The per-rank observer installed as ``state.rebalance``.

    Called once per completed step from the generated run loops (the
    ``maybe_rebalance`` hook, mirroring ``maybe_checkpoint``).  Tracks this
    rank's compute seconds per step and joins the symmetric allgather
    decision every :data:`CHECK_EVERY` steps.
    """

    def __init__(self, controller: "ElasticRunner"):
        self.controller = controller
        self._last_compute: float | None = None
        self._deltas: list[float] = []

    def observe(self, state) -> None:
        ctl = self.controller
        comm = state.comm
        if comm is None:
            return
        busy = comm.stats.compute_s
        if self._last_compute is not None:
            self._deltas.append(busy - self._last_compute)
        self._last_compute = busy
        pol = ctl.policy
        # every condition below is identical on all ranks (same step, same
        # segment-constant controller state), so either every rank enters
        # the allgather or none does — the decision protocol cannot skew
        if ctl.rebalances >= MAX_REBALANCES:
            return
        step = state.step_index
        if step == 0 or step % CHECK_EVERY or not self._deltas:
            return
        remaining = ctl.end_step - step
        if remaining < MIN_REMAINING:
            return
        window = self._deltas[-CHECK_EVERY:]
        mine = sum(window) / len(window)
        times = comm.allgather(float(mine), phase="rebalance")
        self._deltas.clear()
        ratio = imbalance_ratio(times)
        if comm.rank == 0:
            ctl.log.record_check(step, ratio)
        if ratio <= pol.imbalance_threshold:
            return
        mean = sum(times) / len(times)
        benefit = (max(times) - mean) * remaining
        cost = ctl.migration_cost_s()
        if benefit <= cost:
            if comm.rank == 0:
                ctl.log.record_skip(step, ratio, benefit, cost)
            return
        # migration pays: every rank checkpoints this exact step, then the
        # segment pauses cooperatively (no communication happens between
        # the allgather above and the raise, so all ranks pause together)
        checkpoint.write(state, reason="migration")
        raise RebalanceInterrupt(step, ratio, list(times), benefit, cost)

    def wrote(self, state, path) -> None:
        """Note the snapshot this rank wrote of its step (periodic or for a
        migration): the runner's cuts are made of these files alone."""
        ctl = self.controller
        ctl.written.setdefault(state.step_index, [None] * ctl.nranks)[state.comm.rank] = path


# ---------------------------------------------------------------------------
# the elastic runner (drives run_spmd in recoverable segments)
# ---------------------------------------------------------------------------

class ElasticRunner:
    """Outer retry loop around ``run_spmd``: recover, rebalance, resume.

    Target-specific knowledge arrives as callbacks bound by
    ``bind_artifact``:

    ``repartition(nranks, weights)``
        build a new partition object (a ``PartitionLayout`` for cells, a
        list of owned component sets for bands); ``weights`` are per-rank
        speeds (higher = give that rank more work), ``None`` = uniform.
    ``install(layout, namespace)``
        rewrite the generated module's partition-dependent globals
        (halo maps, per-rank cost vectors, shared layout boxes).
    ``owned_of(layout)``
        per-rank owned index arrays (cell columns or component rows).

    ``state`` is the solver's master state: the problem and the field
    shapes the snapshots of a cut are checked against.
    """

    def __init__(self, *, policy: RebalancePolicy, nranks: int,
                 repartition, install, owned_of, current, network, state):
        self.policy = policy
        self.nranks = int(nranks)
        self.repartition = repartition
        self.install = install
        self.owned_of = owned_of
        self.current = current
        self.network = network
        self.state = state
        self.state_bytes = state.host_u.nbytes
        self.namespace: dict[str, Any] | None = None
        # runtime state (reset per run), the log of the last run included
        self.log = RebalanceLog()
        self.total_steps = 0
        self.end_step: int | None = None
        self.resume: checkpoint.Snapshot | None = None
        self.rebalances = 0
        #: step -> the file each rank of this run wrote of it (None: not yet)
        self.written: dict[int, list] = {}
        #: where ranks write when the problem names no checkpoint directory
        self.workdir: str | None = None

    # ------------------------------------------------------------- wiring
    def attach(self, namespace: dict[str, Any]) -> None:
        """Bind the generated module's live namespace (post-construction:
        ``GeneratedSolver.recompile`` builds a fresh dict, so the solver
        hands it over after compiling)."""
        self.namespace = namespace

    def prepare_rank_state(self, st) -> None:
        """Apply the pending resume snapshot + install the per-rank monitor.

        Called from ``make_rank_state`` for every rank of every segment.
        """
        if self.end_step is None:  # the first rank state of the run
            self.end_step = st.step_index + self.total_steps
        if st.checkpoint_dir is None:  # a private directory, gone with the run
            if self.workdir is None:
                self.workdir = tempfile.mkdtemp(prefix="repro-migrate-")
            st.checkpoint_dir = self.workdir
        if self.resume is not None:
            checkpoint.apply(self.resume, st)
        st.rebalance = _RankMonitor(self)

    def migration_cost_s(self) -> float:
        """Modelled cost of one migration: the full solver state crosses
        the fabric (checkpoint out + composed state back in)."""
        n = max(self.nranks, 2)
        return (self.network.allgather_time(self.state_bytes, n)
                + 2.0 * self.network.transfer_time(self.state_bytes))

    # --------------------------------------------------------------- run
    def run(self, rank_program, nsteps: int, run_nsteps_box: list) -> Any:
        """Run ``nsteps`` total steps, surviving kills and rebalances."""
        from repro.runtime.executor import run_spmd

        log = self.log = RebalanceLog()
        log.record_policy(self.policy)
        self.total_steps = int(nsteps)
        self.end_step = None
        self.resume = None
        self.rebalances = 0
        self.written = {}
        recoveries = 0
        try:
            while True:
                run_nsteps_box[0] = (self.total_steps if self.resume is None
                                     else self.end_step - self.resume.step)
                try:
                    result = run_spmd(
                        self.nranks, rank_program, self.network,
                        heartbeat_s=self.policy.heartbeat_s,
                    )
                except RebalanceInterrupt as intr:
                    self._rebalance(intr)
                    continue
                except ReproError as exc:
                    victim = _victim_of(exc)
                    if victim is None:
                        raise
                    recoveries += 1
                    if recoveries > MAX_RECOVERIES:
                        raise MigrationError(
                            f"gave up after {recoveries - 1} rank-loss "
                            f"recoveries (last victim: rank {victim})"
                        ) from exc
                    self._recover(victim, exc)
                    continue
                ratio = imbalance_ratio([s.compute_s for s in result.stats])
                log.set_final(self.nranks, ratio)
                return result
        finally:
            if self.workdir is not None:
                shutil.rmtree(self.workdir, ignore_errors=True)
                self.workdir = None

    # ------------------------------------------------------ recovery paths
    def _recover(self, victim: int, exc: BaseException) -> None:
        """Rank loss: reduce the world, migrate state, resume from the cut."""
        survivors = self.nranks - 1
        if survivors < 1:
            raise MigrationError(
                "rank loss with no survivors — nothing to migrate to"
            ) from exc
        cut = self._cut()
        self._migrate("rank_loss", survivors, None, cut,
                      step=0 if cut is None else cut.step, victim=victim,
                      reason=f"{type(exc).__name__}: {exc}")

    def _rebalance(self, intr: RebalanceInterrupt) -> None:
        """Proactive migration: repartition by measured per-rank speeds."""
        cut = self._cut(intr.step)
        if cut is None:
            raise MigrationError(
                f"migration checkpoints missing at step {intr.step}"
            )
        # weight ∝ measured speed: a rank that takes 3x longer per step
        # gets ~1/3 of the work
        floor = max(min(intr.times) * 1e-6, 1e-30)
        weights = [1.0 / max(t, floor) for t in intr.times]
        self.rebalances += 1
        self._migrate("imbalance", self.nranks, weights, cut, step=intr.step, victim=None,
                      imbalance_before=intr.ratio, rank_step_s=intr.times,
                      benefit_s=intr.benefit_s, cost_s=intr.cost_s)

    def _migrate(self, kind: str, nranks: int, weights, cut, *, step: int,
                 victim: int | None, **entry: Any) -> None:
        """Swap in a partition over ``nranks`` (``weights``: see
        ``repartition``) whose next segment starts from ``cut`` (``None``:
        the run's first state), and log it.  What any rank wrote after that
        point belongs to a future that did not happen."""
        if self.namespace is None:
            raise MigrationError("elastic runner was never attached to a solver")
        from_nranks, self.nranks, self.resume = self.nranks, nranks, cut
        self.current = self.repartition(nranks, weights)
        self.install(self.current, self.namespace)
        last = -1 if cut is None else cut.step
        self.written = {s: p for s, p in self.written.items() if s <= last}
        self.log.record_migration(
            kind=kind, step=step, victim=victim, from_nranks=from_nranks, to_nranks=nranks,
            **entry, new_owned_sizes=[int(len(o)) for o in self.owned_of(self.current)])
        labels = ({"victim": victim} if victim is not None
                  else {"imbalance": entry["imbalance_before"]})
        current().resilience.record_migration(
            kind, step=step, from_ranks=from_nranks, to_ranks=nranks, **labels)

    # ------------------------------------------------------------- cuts
    def _cut(self, step: int | None = None) -> checkpoint.Snapshot | None:
        """The files this run's ranks wrote of ``step`` — by default of the
        newest step every rank that wrote it left its file of — composed;
        ``None``: there is none (restart from the run's first state)."""
        for s in sorted(self.written, reverse=True) if step is None else [step]:
            paths = self.written.get(s, [None])
            if None not in paths:
                return checkpoint.compose([checkpoint.read(p, self.state) for p in paths],
                                          self.state)
        return None


def _victim_of(exc: BaseException) -> int | None:
    """The dead rank behind a segment failure, if recovery applies."""
    cause = exc.__cause__ if exc.__cause__ is not None else exc
    if isinstance(cause, (RankKilledError, HeartbeatError)):
        if cause.rank is not None:
            return cause.rank
        return getattr(exc, "failed_rank", None)
    return None


__all__ = [
    "ElasticRunner",
    "HeartbeatMonitor",
    "RebalanceInterrupt",
    "RebalanceLog",
    "RebalancePolicy",
    "imbalance_ratio",
]
