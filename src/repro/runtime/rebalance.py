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
  :class:`ElasticRunner` finds the last *consistent cut*: the newest step
  for which every rank of the writing epoch left a ``repro.checkpoint/1``
  file.  It composes the global state from those per-rank files (each rank
  contributed its owned cells/bands), recomputes the partition over the
  surviving rank count via :mod:`repro.mesh.partition`, rebinds the
  generated module's partition tables (send/recv halo maps, per-rank cost
  vectors), and reruns the remaining steps.  Because the per-cell /
  per-band arithmetic is partition-independent (halo/ghost values are
  re-exchanged before every step), the recovered run is bit-identical to
  an uninterrupted one.

* **Imbalance-triggered rebalancing** — each rank measures its own compute
  seconds per step (``CommStats.compute_s`` deltas, so collective waits do
  not blur the signal); every ``check_every`` steps the ranks allgather
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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.runtime.resilience import checkpoint_path
from repro.util.context import current
from repro.util.errors import (
    CheckpointCorruptError,
    HeartbeatError,
    MigrationError,
    RankKilledError,
    ReproError,
)

#: Internal tag for arrays in composed resume payloads.
_FIELD_PREFIX = "field_"


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

@dataclass(frozen=True)
class RebalancePolicy:
    """Knobs of the elastic runtime (CLI: ``--rebalance`` and friends)."""

    heartbeat_s: float | None = None  # liveness deadline; None = joins only
    imbalance_threshold: float = 1.5  # max/mean per-rank step time ratio
    check_every: int = 4  # steps between imbalance checks
    min_remaining: int = 2  # don't migrate with fewer steps left
    max_rebalances: int = 1  # proactive migrations per run
    max_recoveries: int = 4  # rank-loss recoveries per run
    proactive: bool = True  # imbalance watcher on/off


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
                "check_every": policy.check_every,
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
    decision every ``check_every`` steps.
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
        if not pol.proactive or ctl.rebalances >= pol.max_rebalances:
            return
        step = state.step_index
        if step == 0 or step % pol.check_every or not self._deltas:
            return
        remaining = ctl.total_steps - step
        if remaining < pol.min_remaining:
            return
        window = self._deltas[-pol.check_every:]
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
        ctl.workdir.mkdir(parents=True, exist_ok=True)
        state.save_checkpoint(checkpoint_path(ctl.workdir, step, rank=comm.rank))
        raise RebalanceInterrupt(step, ratio, list(times), benefit, cost)


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

    ``axis`` is ``"cells"`` (compose along columns) or ``"comps"``
    (compose along rows of the unknown).
    """

    def __init__(self, *, policy: RebalancePolicy, nranks: int, axis: str,
                 repartition, install, owned_of, current,
                 network, state_bytes: int,
                 workdir: str | Path | None = None):
        if axis not in ("cells", "comps"):
            raise MigrationError(f"unknown migration axis {axis!r}")
        self.policy = policy
        self.nranks = int(nranks)
        self.axis = axis
        self.repartition = repartition
        self.install = install
        self.owned_of = owned_of
        self.current = current
        self.network = network
        self.state_bytes = int(state_bytes)
        self._own_workdir = workdir is None
        self.workdir = Path(workdir) if workdir is not None else None
        self.namespace: dict[str, Any] | None = None
        # runtime state (reset per run), the log of the last run included
        self.log = RebalanceLog()
        self.total_steps = 0
        self.start_step = 0
        self.resume: dict[str, Any] | None = None
        self.rebalances = 0
        self._epochs: list[dict[str, Any]] = []

    # ------------------------------------------------------------- wiring
    def attach(self, namespace: dict[str, Any]) -> None:
        """Bind the generated module's live namespace (post-construction:
        ``GeneratedSolver.recompile`` builds a fresh dict, so the solver
        hands it over after compiling)."""
        self.namespace = namespace

    def prepare_rank_state(self, st) -> None:
        """Apply the pending resume payload + install the per-rank monitor.

        Called from ``make_rank_state`` for every rank of every segment.
        """
        # periodic checkpoints must land where the consistent-cut scan
        # looks; the bound workdir IS the user's checkpoint_dir when set
        if self.workdir is not None:
            st.checkpoint_dir = str(self.workdir)
        res = self.resume
        if res is not None:
            st.claim_unknown()  # field writes are a host access
            for name, arr in res["fields"].items():
                st.fields[name].data[...] = arr
            if res.get("T") is not None:
                st.extra["T"] = np.array(res["T"])
            st.time = float(res["time"])
            st.step_index = int(res["step"])
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
        if self._own_workdir:
            self.workdir = Path(tempfile.mkdtemp(prefix="repro-migrate-"))
        self.total_steps = int(nsteps)
        self.start_step = 0
        self.resume = None
        self.rebalances = 0
        self._epochs = [self._epoch(0, self.nranks, self.current)]
        recoveries = 0
        try:
            while True:
                run_nsteps_box[0] = self.total_steps - self.start_step
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
                    if recoveries > self.policy.max_recoveries:
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
            if self._own_workdir and self.workdir is not None:
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
        cut = self._consistent_cut()
        resume = self._compose(cut)
        new_layout = self.repartition(survivors, None)
        old_nranks = self.nranks
        self._install_epoch(cut, survivors, new_layout)
        self.resume = resume
        self._note_migration(
            kind="rank_loss", step=cut, victim=victim,
            from_nranks=old_nranks, to_nranks=survivors,
            reason=f"{type(exc).__name__}: {exc}",
        )
        current().resilience.record_migration(
            "rank_loss", step=cut, from_ranks=old_nranks, to_ranks=survivors,
            victim=victim)

    def _rebalance(self, intr: RebalanceInterrupt) -> None:
        """Proactive migration: repartition by measured per-rank speeds."""
        # weight ∝ measured speed: a rank that takes 3x longer per step
        # gets ~1/3 of the work
        floor = max(min(intr.times) * 1e-6, 1e-30)
        weights = [1.0 / max(t, floor) for t in intr.times]
        new_layout = self.repartition(self.nranks, weights)
        self._install_epoch(intr.step, self.nranks, new_layout)
        self.resume = self._compose(intr.step)
        if self.resume is None:
            raise MigrationError(
                f"migration checkpoints missing at step {intr.step}"
            )
        self.rebalances += 1
        self._note_migration(
            kind="imbalance", step=intr.step, victim=None,
            from_nranks=self.nranks, to_nranks=self.nranks,
            imbalance_before=intr.ratio, rank_step_s=intr.times,
            benefit_s=intr.benefit_s, cost_s=intr.cost_s,
        )
        current().resilience.record_migration(
            "imbalance", step=intr.step, from_ranks=self.nranks,
            to_ranks=self.nranks, imbalance=intr.ratio)

    def _note_migration(self, **entry: Any) -> None:
        entry["new_owned_sizes"] = [
            int(len(o)) for o in self.owned_of(self.current)
        ]
        self.log.record_migration(**entry)

    # -------------------------------------------------- epochs + composing
    @staticmethod
    def _epoch(start: int, nranks: int, layout) -> dict[str, Any]:
        return {"start": int(start), "nranks": int(nranks), "layout": layout}

    def _install_epoch(self, start: int, nranks: int, layout) -> None:
        if self.namespace is None:
            raise MigrationError("elastic runner was never attached to a solver")
        self.nranks = nranks
        self.current = layout
        self.install(layout, self.namespace)
        self._epochs.append(self._epoch(start, nranks, layout))
        self.start_step = int(start)

    def _epoch_of(self, step: int) -> dict[str, Any]:
        """The epoch that *ran* (and checkpointed) ``step``: the newest
        epoch whose start precedes it."""
        best = self._epochs[0]
        for ep in self._epochs:
            if ep["start"] < step:
                best = ep
        return best

    def _consistent_cut(self) -> int:
        """Newest step for which the writing epoch's every rank left a
        checkpoint file; 0 = restart from initial conditions."""
        by_step: dict[int, set[int]] = {}
        if self.workdir is not None and self.workdir.exists():
            for p in self.workdir.glob("ckpt_step*_rank*.npz"):
                try:
                    stem = p.stem  # ckpt_step000004_rank2
                    step = int(stem[len("ckpt_step"):len("ckpt_step") + 6])
                    rank = int(stem.rsplit("_rank", 1)[1])
                except (ValueError, IndexError):
                    continue
                by_step.setdefault(step, set()).add(rank)
        for step in sorted(by_step, reverse=True):
            if step > self.total_steps:
                continue
            epoch = self._epoch_of(step)
            if set(range(epoch["nranks"])) <= by_step[step]:
                return step
        return 0

    def _compose(self, step: int) -> dict[str, Any] | None:
        """Merge the per-rank checkpoints of ``step`` into one global state.

        Every rank's file carries full-size arrays in which only the owned
        portion is authoritative; ownership tiles the index space, so
        overwriting each rank's owned slice yields the exact global state
        — the same composition ``merge_results`` performs at run end.
        """
        if step <= 0:
            return None
        epoch = self._epoch_of(step)
        owned_sets = [np.asarray(o) for o in self.owned_of(epoch["layout"])]
        fields: dict[str, np.ndarray] = {}
        T: np.ndarray | None = None
        time_v: float | None = None
        # which fields the owned sets partition: with cell partitioning,
        # every field's last axis (cells); with band partitioning, the rows
        # of fields tall enough to be indexed by the component sets — the
        # rest are replicated identically on every rank (first copy wins)
        ncomp_needed = 1 + max(
            (int(o.max()) for o in owned_sets if len(o)), default=-1
        )
        for rank in range(epoch["nranks"]):
            path = checkpoint_path(self.workdir, step, rank=rank)
            try:
                with np.load(path) as data:
                    owned = owned_sets[rank]
                    for key in data.files:
                        if not key.startswith(_FIELD_PREFIX):
                            continue
                        name = key[len(_FIELD_PREFIX):]
                        arr = data[key]
                        full = fields.get(name)
                        if full is None:
                            full = np.array(arr)
                            fields[name] = full
                        if self.axis == "cells":
                            full[..., owned] = arr[..., owned]
                        elif full.ndim >= 1 and full.shape[0] >= ncomp_needed:
                            full[owned] = arr[owned]
                    time_v = float(data["__time"])
                    if "__T" in data.files:
                        t_arr = np.array(data["__T"])
                        if T is None:
                            T = t_arr
                        elif self.axis == "cells":
                            T[owned] = t_arr[owned]
            except FileNotFoundError as exc:
                raise MigrationError(
                    f"consistent-cut checkpoint missing: {path}"
                ) from exc
        if time_v is None:
            return None
        return {"step": step, "time": time_v, "fields": fields, "T": T}


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
