"""Rank threads take turns: ``Turn`` alone, random SPMD programs, real solves.

The turn orders wall-clock execution and nothing else, so the programs'
results, virtual clocks, stats and per-rank event order must equal what
free-running threads produced (``data/spmd_programs_golden.json``, written
at the parent commit by ``tests/runtime/spmd_programs.py``).
"""

from __future__ import annotations

import json
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.runtime.executor as executor
from repro.bte.problem import build_bte_problem, hotspot_scenario
from repro.runtime.comm import Communicator, World
from repro.runtime.executor import run_spmd
from repro.runtime.faults import fault_run
from repro.runtime.turn import Turn
from repro.util.errors import CommFaultError, RankKilledError, ReproError
from tests.runtime import spmd_programs as sp
from tests.serve.conftest import wait_until

# CI pins the examples (HYPOTHESIS_PROFILE=ci): a red run names a reproducible input
settings.register_profile("ci", derandomize=True)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])

JOIN_S = 20.0


def until(predicate) -> None:
    """Wait for another thread to reach a state only it can reach."""
    wait_until(predicate, timeout_s=JOIN_S, interval_s=0.001)


def joined(threads) -> None:
    for t in threads:
        t.join(JOIN_S)
        assert not t.is_alive()


@pytest.fixture
def fast_switching():
    """The GIL changes hands as often as it can: free-running threads would
    interleave inside any section, threads that take turns cannot."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


# --------------------------------------------------------------- Turn alone
class TestTurn:
    def queue_up(self, turn: Turn, n: int, body) -> list[threading.Thread]:
        """``n`` threads, each queued behind the previous one (the caller
        holds the turn)."""
        threads = []
        for i in range(n):
            def waiter(i=i):
                turn.acquire()
                try:
                    body(i)
                finally:
                    turn.release()

            t = threading.Thread(target=waiter, daemon=True)
            t.start()
            until(lambda: len(turn.snapshot()[2]) == i + 1)
            threads.append(t)
        return threads

    def test_waiters_are_served_in_arrival_order(self):
        turn, order = Turn(), []
        turn.acquire()
        threads = self.queue_up(turn, 6, order.append)
        turn.release()
        joined(threads)
        assert order == list(range(6))
        # main -> 0 -> 1 -> ... -> 5: one hand-over per waiter, exactly
        assert turn.handovers == 6
        assert turn.snapshot()[0] is None

    def test_release_then_acquire_cannot_pass_a_waiter(self):
        turn, order = Turn(), []
        turn.acquire()
        threads = self.queue_up(turn, 1, lambda i: order.append("waiter"))
        turn.release()
        turn.acquire()  # must queue behind the waiter, however fast we are
        order.append("main")
        turn.release()
        joined(threads)
        assert order == ["waiter", "main"]
        assert turn.handovers == 2

    def test_released_is_a_noop_off_holder(self):
        turn = Turn()
        with turn.released():  # nobody holds it
            assert turn.snapshot()[0] is None
        seen = []

        def other():
            with turn.released():  # main holds it, this thread does not
                seen.append(turn.snapshot()[0])

        turn.acquire()
        t = threading.Thread(target=other, daemon=True)
        t.start()
        joined([t])
        assert seen == [threading.get_ident()]
        assert turn.handovers == 0
        turn.release()

    def test_released_gives_the_turn_up_and_takes_it_back(self):
        turn, order = Turn(), []
        turn.acquire()
        threads = self.queue_up(turn, 1, lambda i: order.append("waiter"))
        with turn.released():
            joined(threads)
            order.append("blocked call")
        assert turn.snapshot()[0] == threading.get_ident()
        assert order == ["waiter", "blocked call"]
        turn.release()

    def test_pass_on_needs_a_waiter_and_a_used_up_slice(self):
        turn, order = Turn(), []
        turn.acquire()
        turn.pass_on(0.0)  # nobody waits
        assert turn.handovers == 0
        threads = self.queue_up(turn, 1, lambda i: order.append("waiter"))
        turn.pass_on(3600.0)  # slice not used up
        assert order == [] and turn.snapshot()[0] == threading.get_ident()
        turn.pass_on(0.0)
        assert order == ["waiter"] and turn.snapshot()[0] == threading.get_ident()
        assert turn.handovers == 2
        turn.release()
        joined(threads)

    def test_a_hung_holder_can_be_made_to_forfeit(self):
        turn, order, hang = Turn(), [], threading.Event()

        def hung():
            turn.acquire()
            hang.wait(JOIN_S)
            turn.release()  # late: it no longer holds the turn

        t = threading.Thread(target=hung, daemon=True)
        t.start()
        until(lambda: turn.snapshot()[0] == t.ident)
        threads = self.queue_up(turn, 1, lambda i: order.append("waiter"))
        turn.release()  # the caller does not hold it: nothing happens
        assert turn.snapshot()[0] == t.ident
        turn.release(t.ident)
        joined(threads)
        turn.acquire()
        hang.set()
        joined([t])
        assert order == ["waiter"]
        assert turn.snapshot()[0] == threading.get_ident()
        turn.release()

    def test_more_threads_than_cores_never_overlap(self, fast_switching):
        turn, sections, rounds = Turn(), sp.Sections(), 200
        total = [0]

        def worker():
            for _ in range(rounds):
                turn.acquire()
                try:
                    with sections:
                        total[0] += 1  # a lost update would show in the sum
                    turn.pass_on(0.0)
                finally:
                    turn.release()

        threads = [threading.Thread(target=worker, daemon=True) for _ in range(8)]
        for t in threads:
            t.start()
        joined(threads)
        assert sections.most == 1
        assert total[0] == 8 * rounds


# ------------------------------------------------------- random rank programs
GOLD = json.loads(sp.GOLDEN.read_text())


@pytest.mark.parametrize("seed,nranks", sp.GOLDEN_CASES)
def test_programs_equal_what_free_running_threads_recorded(seed, nranks,
                                                           fast_switching):
    sections = sp.Sections()
    got = sp.run(sp.make_ops(seed, nranks), nranks, sections)
    assert json.loads(json.dumps(got)) == GOLD[f"{seed}/{nranks}"]
    assert sections.most == 1


MESSAGE_FAULTS = ("drop:p=0.3,count=0", "dup:p=0.3,count=0",
                  "delay:p=0.3,count=0,delay=1e-4",
                  "drop:p=0.2,count=0;dup:p=0.2,count=0")


@given(seed=st.integers(0, 10_000), nranks=st.integers(2, 5),
       faults=st.sampled_from((None,) + MESSAGE_FAULTS))
@settings(max_examples=25, deadline=None)
def test_one_rank_at_a_time_with_and_without_message_faults(seed, nranks, faults):
    ops = sp.make_ops(seed, nranks, length=16)
    clean = sp.run(ops, nranks)
    sections = sp.Sections()
    with fault_run(faults, seed=seed):
        got = sp.run(ops, nranks, sections)
    assert sections.most <= 1
    # retries, dedup and reordering deliver what a clean fabric delivers;
    # only the virtual clock may read later
    for mine, ref in zip(got["events"], clean["events"]):
        assert [(e[0], e[2]) for e in mine] == [(e[0], e[2]) for e in ref]
    assert all(t >= t0 for t, t0 in zip(got["times"], clean["times"]))
    if faults is None:
        assert got == clean


@given(seed=st.integers(0, 10_000), nranks=st.integers(2, 5), data=st.data())
@settings(max_examples=15, deadline=None)
def test_a_killed_rank_is_reported_and_its_peers_unwind(seed, nranks, data):
    ops = sp.make_ops(seed, nranks, length=16)
    ncompute = sum(op[0] == "compute" for op in ops)
    victim = data.draw(st.integers(0, nranks - 1))
    if ncompute == 0:
        return
    at = data.draw(st.integers(1, ncompute))
    sections = sp.Sections()
    with fault_run(f"rank_kill:rank={victim},at={at}"):
        with pytest.raises(ReproError) as ei:
            sp.run(ops, nranks, sections, timeout_s=JOIN_S)
    assert ei.value.failed_rank == victim
    assert isinstance(ei.value.__cause__, RankKilledError)
    assert sections.most <= 1


def test_a_deadlocked_program_still_times_out():
    def prog(comm):
        comm.world.timeout_s = 0.2
        comm.recv(1 - comm.rank)  # both receive first

    with pytest.raises(ReproError) as ei:
        run_spmd(2, prog, timeout_s=JOIN_S)
    assert isinstance(ei.value.__cause__, CommFaultError)


def test_a_hand_driven_communicator_needs_no_turn():
    world = World(2)
    a, b = world.communicator(0), world.communicator(1)
    a.send(1, np.arange(3.0))
    assert b.recv(0).tolist() == [0.0, 1.0, 2.0]
    assert world.turn.handovers == 0 and world.turn.snapshot()[0] is None


# ------------------------------------------------------------- real solves
@pytest.mark.parametrize("strategy", ["cells", "bands"])
@pytest.mark.parametrize("nranks", [2, 4])
def test_handovers_follow_blocking_calls_not_ufunc_calls(strategy, nranks,
                                                         monkeypatch):
    worlds, blocking = [], [0]

    class RecordedWorld(World):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            worlds.append(self)

    def counted(method):
        def call(self, *args, **kwargs):
            blocking[0] += 1
            return method(self, *args, **kwargs)
        return call

    monkeypatch.setattr(executor, "World", RecordedWorld)
    monkeypatch.setattr(Communicator, "_next_message",
                        counted(Communicator._next_message))
    monkeypatch.setattr(Communicator, "_rendezvous",
                        counted(Communicator._rendezvous))
    nsteps = 40
    scenario = hotspot_scenario(nx=16, ny=16, ndirs=4, n_freq_bands=4,
                                dt=1e-12, nsteps=nsteps)
    problem, _ = build_bte_problem(scenario)
    if strategy == "cells":
        problem.set_partitioning("cells", nranks)
    else:
        problem.set_partitioning("bands", nranks, index="b")
    solver = problem.generate("distributed")
    solver.run(nsteps)
    (world,) = worlds
    handovers = world.turn.handovers
    # a rank changes places only where it blocks: every hand-over is paid
    # for by a receive or a rendezvous (a step has ~100 ufunc calls per rank)
    assert handovers <= blocking[0] + nranks
    if strategy == "cells" and nranks == 2:
        assert handovers <= 2 * nsteps + nranks
    assert handovers >= nsteps // 2  # and they do take turns
