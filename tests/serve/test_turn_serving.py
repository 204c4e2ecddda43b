"""Served jobs take turns: one solve runs at a time, a long job lets a short
one in at a step boundary once its slice is used up, and the scheduler's
semantics (preemption, worker loss, dedup, stop) do not see the turn."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.bte.problem import (
    build_bte_problem,
    corner_source_scenario,
    hotspot_scenario,
)
from repro.serve import JobResult, serve_session
from repro.serve.server import SLICE_S, ServiceConfig, SolverService
from repro.tune.cache import cache_scope
from repro.util.errors import ServeError
from tests.runtime.spmd_programs import Sections
from tests.serve.conftest import make_problem, wait_until

#: the benchmark's served mix (benchmarks/e2e/workloads.py::PROGRAMS)
PROGRAMS = (("hotspot", "cpu"), ("hotspot", "gpu"), ("corner", "cpu"))


def program(index: int, dt: float, nsteps: int = 6, nx: int = 8):
    kind, target = PROGRAMS[index]
    sizes = dict(ndirs=4, n_freq_bands=4, dt=dt, nsteps=nsteps)
    if kind == "corner":
        scenario = corner_source_scenario(nx=2 * nx, ny=nx // 2, **sizes)
    else:
        scenario = hotspot_scenario(nx=nx, ny=nx, **sizes)
    scenario.sigma = max(scenario.sigma, 2.5 * scenario.lx / scenario.nx)
    problem, _ = build_bte_problem(scenario)
    if target == "gpu":
        problem.enable_gpu()
        problem.extra["gpu_force_offload"] = True
    return problem


def watch_steps(problem, sections: Sections):
    """A section per step, closed before the service's own hook runs: two
    jobs inside one at once means a turn changed hands inside a step."""
    problem.add_pre_step(lambda state: sections.__enter__(), name="enter_step")
    problem.add_post_step(lambda state: sections.__exit__(), name="exit_step")
    return problem


def direct_digest(problem) -> str:
    solver = problem.solve()
    state = solver.state
    aux = {name: fld.data for name, fld in state.fields.items()
           if name != state.unknown.name}
    return JobResult.digest_of(solver.solution(), aux)


def test_two_clients_over_the_three_programs_run_one_at_a_time():
    sections, per_client = Sections(), 6
    dts = [[1e-12 * (1.0 + 1e-4 * (2 * i + c + 1)) for i in range(per_client)]
           for c in range(2)]
    with cache_scope():
        expected = [[direct_digest(program((i + c) % 3, dt))
                     for i, dt in enumerate(dts[c])] for c in range(2)]
        got: list[list[str]] = [[], []]
        with serve_session(workers=2, reuse_results=False) as service:
            def client_thread(c: int) -> None:
                for i, dt in enumerate(dts[c]):
                    problem = watch_steps(program((i + c) % 3, dt), sections)
                    got[c].append(service.client.solve(problem).digest)

            threads = [threading.Thread(target=client_thread, args=(c,))
                       for c in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
                assert not t.is_alive()
            doc = service.client.status()
            handovers = service.turn.handovers
    assert got == expected
    assert sections.most == 1
    assert doc["counters"]["completed"] == 2 * per_client
    assert doc["counters"]["deduped"] == doc["counters"]["failed"] == 0
    # two executor threads did share the work, a job at a time: short jobs
    # finish inside their slice, so at most one hand-over per job
    assert 1 <= handovers <= 2 * per_client


def test_short_job_behind_a_long_one_waits_slices_not_the_job():
    sections, stepping = Sections(), threading.Event()
    with cache_scope():
        solo = direct_digest(make_problem(nsteps=400, nx=24))
        short_solo = direct_digest(make_problem(nsteps=10))
        with serve_session(workers=2, batch_max=1) as service:
            client = service.client
            long_problem = watch_steps(make_problem(nsteps=400, nx=24), sections)
            long_problem.add_post_step(lambda state: stepping.set(),
                                       name="stepping")
            t0 = time.perf_counter()
            long_ticket = client.submit(long_problem, tenant="alice")
            assert stepping.wait(60)
            t1 = time.perf_counter()
            short = client.solve(watch_steps(make_problem(nsteps=10), sections),
                                 tenant="bob")
            short_s = time.perf_counter() - t1
            long_was_running = not long_ticket.done()
            long = long_ticket.result(120)
            long_s = time.perf_counter() - t0
            handovers = service.turn.handovers
    assert long_was_running, "the short job sat out the whole long job"
    assert short_s < max(5 * SLICE_S, 0.5 * long_s)
    assert short.digest == short_solo
    assert long.digest == solo and long.steps == 400
    # long -> short -> long, and never inside a step
    assert 2 <= handovers <= 4
    assert sections.most == 1


def test_high_priority_preempts_while_another_job_waits_for_the_turn():
    nsteps = 8
    with cache_scope():
        directs = [make_problem(nsteps=nsteps, nx=nx).solve().solution().copy()
                   for nx in (8, 10, 12)]
        with serve_session(workers=2, batch_max=1) as service:
            client = service.client
            low = [client.submit(make_problem(nsteps=nsteps, nx=nx, slow_s=0.03),
                                 tenant="alice", priority="batch")
                   for nx in (8, 10)]
            # both dispatched: one holds the turn, the other waits for it
            wait_until(lambda: service.turn.snapshot()[2])
            high = client.submit(make_problem(nsteps=nsteps, nx=12),
                                 tenant="bob", priority="high")
            results = [t.result(120) for t in (*low, high)]
            doc = client.status()
    for result, direct in zip(results, directs):
        assert np.array_equal(result.u, direct)
    assert doc["counters"]["preemptions"] >= 1
    assert doc["counters"]["resumes"] == doc["counters"]["preemptions"]
    assert results[2].preemptions == 0
    assert sum(r.preemptions for r in results[:2]) == doc["counters"]["preemptions"]


def test_worker_lost_while_its_job_waits_for_the_turn():
    nsteps = 8
    with cache_scope():
        directs = [make_problem(nsteps=nsteps, nx=nx).solve().solution().copy()
                   for nx in (8, 10)]
        with serve_session(workers=2, batch_max=1) as service:
            client = service.client

            def busy():
                return [w["id"] for w in client.status()["workers"]
                        if w["job"] is not None]

            first = client.submit(make_problem(nsteps=nsteps, slow_s=0.03),
                                  tenant="alice")
            wait_until(lambda: service.turn.snapshot()[0] is not None)
            (first_wid,) = busy()
            second = client.submit(make_problem(nsteps=nsteps, nx=10,
                                                slow_s=0.03), tenant="alice")
            # dispatched to the other worker, and stuck behind the first job
            wait_until(lambda: len(busy()) == 2 and service.turn.snapshot()[2])
            client.fail_worker(1 - first_wid)
            results = [first.result(120), second.result(120)]
            doc = client.status()
    for result, direct in zip(results, directs):
        assert np.array_equal(result.u, direct)
    assert [r.attempts for r in results] == [1, 2]
    assert doc["service"]["workers_alive"] == 1
    assert doc["counters"]["worker_failures"] == 1
    assert doc["counters"]["failed"] == 0


def test_held_burst_dedups_while_jobs_take_turns():
    with cache_scope():
        directs = [make_problem(nsteps=n).solve().solution().copy()
                   for n in (3, 4)]
        with serve_session(workers=2, batch_max=1) as service:
            client = service.client
            client.hold()
            tickets = [client.submit(make_problem(nsteps=3 + i % 2),
                                     tenant=f"tenant{i % 3}") for i in range(8)]
            client.release()
            results = [t.result(120) for t in tickets]
            doc = client.status()
    for i, result in enumerate(results):
        assert result is results[i % 2]
        assert np.array_equal(result.u, directs[i % 2])
    assert doc["counters"]["deduped"] == 6
    assert doc["counters"]["completed"] == 2


def test_stop_lets_a_job_that_waits_for_the_turn_finish():
    nsteps = 6
    with cache_scope():
        directs = [make_problem(nsteps=nsteps, nx=nx).solve().solution().copy()
                   for nx in (8, 10)]
        service = SolverService(ServiceConfig(workers=2, batch_max=1))
        service.start_in_thread()
        client = service.client
        running = [client.submit(make_problem(nsteps=nsteps, nx=nx, slow_s=0.03),
                                 tenant="alice") for nx in (8, 10)]
        wait_until(lambda: service.turn.snapshot()[2])
        queued = client.submit(make_problem(nsteps=nsteps, nx=12), tenant="alice")
        wait_until(lambda: client.status()["queues"]["normal"] == 1)
        service.stop_in_thread()
        # dispatched jobs finish, the turn included; queued ones never run
        for ticket, direct in zip(running, directs):
            assert np.array_equal(ticket.result(30).u, direct)
        with pytest.raises(ServeError) as exc_info:
            queued.result(30)
        assert exc_info.value.code == "RPR903"
        holder, _, waiting = service.turn.snapshot()
        assert holder is None and not waiting
