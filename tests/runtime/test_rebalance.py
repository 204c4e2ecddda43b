"""Elastic-runtime primitives: heartbeat liveness, rank faults, poison pills.

These are the building blocks under the elastic controller (see
``tests/codegen/test_elastic.py`` for the end-to-end differential runs):
the :class:`HeartbeatMonitor` with a pluggable clock, the ``rank_kill`` /
``rank_slow`` fault kinds, and the poison-pill cancellation that lets a
peer blocked in a receive unwind promptly when another rank dies.
"""

import threading
import time

import numpy as np
import pytest

from repro.runtime.executor import run_spmd
from repro.runtime.faults import FaultInjector, fault_run, parse_fault_spec
from repro.runtime.rebalance import (
    MAX_REBALANCES,
    HeartbeatMonitor,
    RebalancePolicy,
    imbalance_ratio,
)
from repro.util.errors import HeartbeatError, RankKilledError, ReproError


class TestHeartbeatMonitor:
    """Deadline logic is provable with a virtual clock — no wall sleeps."""

    def _clocked(self, deadline):
        t = [0.0]
        return t, HeartbeatMonitor(deadline, clock=lambda: t[0])

    def test_fresh_ranks_are_live(self):
        t, m = self._clocked(1.0)
        m.start(range(3))
        assert m.stalled() == []

    def test_silent_rank_stalls_after_deadline(self):
        t, m = self._clocked(1.0)
        m.start(range(3))
        t[0] = 0.9
        m.beat(0)
        m.beat(2)
        t[0] = 1.5  # rank 1 last beat at 0.0: 1.5s silent > 1.0s deadline
        assert m.stalled() == [1]

    def test_beat_resets_the_deadline(self):
        t, m = self._clocked(1.0)
        m.start([0])
        t[0] = 0.9
        m.beat(0)
        t[0] = 1.8  # only 0.9s since the beat
        assert m.stalled() == []
        t[0] = 2.0
        assert m.stalled() == [0]

    def test_explicit_now_overrides_the_clock(self):
        t, m = self._clocked(0.5)
        m.start([0, 1])
        assert m.stalled(now=10.0) == [0, 1]
        assert m.stalled(now=0.1) == []

    def test_last_beat_query(self):
        t, m = self._clocked(1.0)
        m.start([0])
        t[0] = 0.25
        m.beat(0)
        assert m.last_beat(0) == pytest.approx(0.25)
        assert m.last_beat(7) is None

    def test_nonpositive_deadline_rejected(self):
        with pytest.raises(ReproError):
            HeartbeatMonitor(0.0)


class TestImbalanceRatio:
    def test_balanced_is_one(self):
        assert imbalance_ratio([2.0, 2.0, 2.0]) == pytest.approx(1.0)

    def test_skewed_is_max_over_mean(self):
        assert imbalance_ratio([2.0, 1.0, 1.0, 0.0]) == pytest.approx(2.0)

    def test_degenerate_inputs_are_balanced(self):
        assert imbalance_ratio([]) == 1.0
        assert imbalance_ratio([0.0, 0.0]) == 1.0


class TestRankFaultGrammar:
    def test_rank_kill_spec_parses(self):
        (rule,) = parse_fault_spec("rank_kill:rank=1,at=5")
        assert rule.kind == "rank_kill"
        assert (rule.rank, rule.at) == (1, 5)

    def test_rank_slow_spec_parses_factor(self):
        (rule,) = parse_fault_spec("rank_slow:rank=0,factor=3,count=0")
        assert rule.kind == "rank_slow"
        assert rule.factor == pytest.approx(3.0)
        assert rule.count == 0  # unlimited

    def test_kill_fires_on_nth_compute_only(self):
        inj = FaultInjector("rank_kill:rank=1,at=3")
        assert [inj.kill_rank(1) for _ in range(5)] == [
            False, False, True, False, False,
        ]

    def test_kill_filters_by_rank(self):
        inj = FaultInjector("rank_kill:rank=1,at=1")
        assert not inj.kill_rank(0)
        assert inj.kill_rank(1)  # rank-0 query did not consume the occurrence

    def test_slow_factor_defaults_to_one(self):
        inj = FaultInjector("rank_slow:rank=2,factor=5,count=0")
        assert inj.slow_factor(0) == 1.0
        assert inj.slow_factor(2) == pytest.approx(5.0)


class TestRankFaultSemantics:
    def test_rank_slow_lands_in_compute_seconds(self):
        """The rebalancer measures compute_s, so the slowdown must land there."""

        def prog(comm):
            for _ in range(4):
                comm.compute(1e-3)

        with fault_run("rank_slow:rank=0,factor=3,count=0"):
            res = run_spmd(2, prog)
        assert res.stats[0].compute_s == pytest.approx(3 * res.stats[1].compute_s)
        assert imbalance_ratio([s.compute_s for s in res.stats]) == pytest.approx(1.5)

    def test_rank_kill_raises_typed_error(self):
        def prog(comm):
            comm.compute(1e-3)

        with fault_run("rank_kill:rank=0,at=1"):
            with pytest.raises(ReproError) as ei:
                run_spmd(2, prog)
        assert ei.value.failed_rank == 0
        assert isinstance(ei.value.__cause__, RankKilledError)
        assert ei.value.__cause__.rank == 0
        assert ei.value.__cause__.code == "RPR313"


class TestPoisonPill:
    def test_peer_blocked_on_recv_unwinds_fast(self):
        """A dead rank's peers must not sit out the deadlock-guard timeout."""

        def prog(comm):
            if comm.rank == 0:
                raise ValueError("boom")
            # would hang forever without the poison pill
            comm.recv(0, tag=3)

        with pytest.raises(ReproError) as ei:
            run_spmd(2, prog, timeout_s=10.0)
        # the ROOT cause is surfaced, not the collateral peer unwind
        assert ei.value.failed_rank == 0
        assert "ValueError" in str(ei.value)
        assert "boom" in str(ei.value)
        assert isinstance(ei.value.__cause__, ValueError)

    def test_collective_peers_unwind_too(self):
        def prog(comm):
            if comm.rank == 2:
                raise RuntimeError("dead in collective")
            comm.allreduce(np.ones(4), op="sum")

        with pytest.raises(ReproError) as ei:
            run_spmd(3, prog, timeout_s=10.0)
        assert ei.value.failed_rank == 2


class TestHeartbeatInRunSpmd:
    def test_stalled_rank_declared_dead(self):
        """A rank that blocks without beating trips the liveness deadline."""

        def prog(comm):
            if comm.rank == 1:
                comm.recv(0, tag=9)  # never sent: silent forever
            comm.compute(1e-3)

        with pytest.raises(ReproError) as ei:
            run_spmd(2, prog, heartbeat_s=0.05, timeout_s=10.0)
        cause = ei.value.__cause__
        assert isinstance(cause, HeartbeatError)
        assert cause.rank == 1
        assert cause.code == "RPR315"

    @pytest.mark.parametrize("peers", ["waiting for the turn", "in a receive",
                                       "in a collective"])
    def test_rank_hung_while_holding_the_turn_is_the_one_declared(self, peers):
        """Ranks take turns, so peers of a hung holder fall silent with it:
        the holder is blamed (not the lowest rank), it forfeits the turn,
        and the peers unwind long before the deadlock-guard timeout."""
        hang = threading.Event()

        def prog(comm):
            comm.compute(1e-3)
            if peers == "waiting for the turn":
                comm.barrier()  # everybody has started and queued up again
            if comm.rank == 1:
                hang.wait(30.0)  # stuck in a callback, the turn in hand
            elif peers == "in a receive":
                comm.recv(1, tag=4)
            elif peers == "in a collective":
                comm.allreduce(np.ones(2))
            comm.compute(1e-3)

        t0 = time.monotonic()
        try:
            with pytest.raises(ReproError) as ei:
                run_spmd(3, prog, heartbeat_s=0.05, timeout_s=30.0)
        finally:
            hang.set()
        cause = ei.value.__cause__
        assert isinstance(cause, HeartbeatError)
        assert cause.rank == ei.value.failed_rank == 1
        assert cause.code == "RPR315"
        assert time.monotonic() - t0 < 10.0

    def test_healthy_run_unaffected_by_monitor(self):
        def prog(comm):
            comm.compute(1e-3)
            return comm.rank

        res = run_spmd(3, prog, heartbeat_s=5.0)
        assert res.results == [0, 1, 2]


class TestRebalancePolicy:
    def test_defaults_match_the_cli(self):
        pol = RebalancePolicy()
        assert pol.imbalance_threshold == pytest.approx(1.5)
        assert pol.heartbeat_s is None
        assert MAX_REBALANCES == 1
