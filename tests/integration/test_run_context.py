"""One run context per run: what a run records into never leaks into, or in
from, a neighbour in the same process — a later run, another thread, another
served job (``repro.util.context``)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bte.problem import build_bte_problem, hotspot_scenario
from repro.obs import Tracer, trace_run
from repro.obs.metrics import metrics_run
from repro.runtime.faults import fault_run
from repro.serve import JobResult, serve_session
from repro.tune.cache import cache_scope
from repro.util.context import current, update
from repro.verify import sanitize_run

SRC = str(Path(__file__).parents[2] / "src")

#: a device fault in the first launch: the step degrades to the host, bit
#: for bit, and the fault lands in the resilience log of the run it hit
KERNEL_FAULT = "kernel:device=gpu0,op=launch,at=1"


def small(name: str, nsteps: int = 3, *, gpu: bool = False, cells: int = 0,
          slow_s: float = 0.0):
    problem, _ = build_bte_problem(hotspot_scenario(
        nx=6, ny=6, ndirs=4, n_freq_bands=2, dt=1e-12, nsteps=nsteps))
    problem.name = name
    if gpu:
        problem.enable_gpu()
        problem.extra["gpu_force_offload"] = True
    if cells:
        problem.set_partitioning("cells", cells)
    if slow_s:
        problem.add_post_step(lambda state: time.sleep(slow_s), name="slow_step")
    return problem


STALE_SECTIONS = f"""
import json
from repro.bte.problem import build_bte_problem, hotspot_scenario
from repro.runtime.faults import fault_run
from repro.verify import sanitize_run

def small(gpu=False):
    problem, _ = build_bte_problem(hotspot_scenario(
        nx=6, ny=6, ndirs=4, n_freq_bands=2, dt=1e-12, nsteps=3))
    if gpu:
        problem.enable_gpu()
        problem.extra["gpu_force_offload"] = True
    return problem

with sanitize_run():
    small().solve()
with fault_run({KERNEL_FAULT!r}, seed=1):
    small(gpu=True).solve()
elastic = small()
elastic.set_partitioning("cells", 2)
elastic.extra["rebalance"] = True
elastic.solve()
doc = small().solve().run_report().to_dict()
print(json.dumps({{name: doc.get(name)
                  for name in ("diagnostics", "resilience", "rebalance")}}))
"""


def test_a_plain_report_carries_no_section_of_an_earlier_run():
    """A sanitized run, a faulted GPU run and an elastic run, then a plain
    one, in one fresh process: the plain run's report has none of their
    sections (each belonged to its own scope or its own runner)."""
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("REPRO_CACHE_DIR", None)
    proc = subprocess.run([sys.executable, "-c", STALE_SECTIONS], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    sections = json.loads(proc.stdout.splitlines()[-1])
    assert sections == {"diagnostics": None, "resilience": None, "rebalance": None}


def test_plain_checkpointing_runs_leave_no_resilience_records(tmp_path):
    """Two checkpointing runs outside any ``fault_run``, the second restored
    from the first's snapshot: the default context keeps no account of
    either, so no later report finds their checkpoints or the restore."""
    first = small("first", 4)
    first.extra.update(checkpoint_every=2, checkpoint_dir=str(tmp_path / "first"))
    first.solve()
    second = small("second", 4)
    second.extra.update(checkpoint_every=2, checkpoint_dir=str(tmp_path / "second"),
                        restore_from=str(sorted((tmp_path / "first").glob("*.npz"))[0]))
    solver = second.solve()
    assert solver.state.step_index == 2 + 4 and list((tmp_path / "second").glob("*.npz"))
    log = current().resilience
    assert not log.has_events() and log.checkpoint_paths == [] and log.restores == 0
    assert solver.run_report().resilience is None


def problem_labels(registry) -> set[str]:
    return {value for name in registry.names()
            for key in registry.get(name).series()
            for label, value in key if label == "problem"}


def test_two_threads_trace_and_meter_only_their_own_solve():
    """Two runs at once, one per thread, each under its own tracer and
    registry: neither sees a span or a metric of the other."""
    problems = {"serial": small("serial"), "cells": small("cells", cells=2)}
    inside, solved = threading.Barrier(2), threading.Barrier(2)
    seen: dict[str, tuple] = {}

    def run(name: str) -> None:
        with trace_run() as tracer, metrics_run() as metrics:
            inside.wait(30)  # both scopes are live before either solves
            problems[name].solve()
            solved.wait(30)  # ... and until both have solved
        seen[name] = tracer, metrics

    threads = [threading.Thread(target=run, args=(name,)) for name in problems]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    assert not any(t.is_alive() for t in threads) and len(seen) == 2
    spans = {name: {s.name for s in tracer.spans} for name, (tracer, _) in seen.items()}
    assert "run[cpu]" in spans["serial"] and "run[distributed]" not in spans["serial"]
    assert "rank_program" not in spans["serial"]
    assert {"run[distributed]", "rank_program"} <= spans["cells"]
    assert "run[cpu]" not in spans["cells"]
    assert not any(t.startswith("virtual/rank") for t in seen["serial"][0].tracks())
    for name, (_, metrics) in seen.items():
        assert problem_labels(metrics) == {name}


def digest(solver) -> str:
    state = solver.state
    aux = {name: fld.data.copy() for name, fld in state.fields.items()
           if name != state.unknown.name}
    return JobResult.digest_of(solver.solution(), aux)


def test_served_jobs_keep_their_submitters_faults_and_sanitizer():
    """Two GPU jobs served at once: one submitted under a fault spec and the
    sanitizer, one in a plain scope of its own.  The plain job computes its
    solo answer, and its submitter's scope sees no fault and no check; the
    fault and every check of the other job land in its submitter's objects."""
    with sanitize_run() as solo_san, fault_run(KERNEL_FAULT, seed=1):
        small("faulted", 6, gpu=True).solve()
    plain_solo = digest(small("plain", 5, gpu=True).solve())

    steps: list[str] = []
    faulted = small("faulted", 6, gpu=True, slow_s=0.03)
    plain = small("plain", 5, gpu=True, slow_s=0.03)
    faulted.add_post_step(lambda state: steps.append("faulted"), name="mark")
    plain.add_post_step(lambda state: steps.append("plain"), name="mark")
    with cache_scope(), serve_session(workers=2, batch_max=1) as service:
        client = service.client
        client.hold()
        with fault_run(None):
            plain_log = current().resilience
            plain_ticket = client.submit(plain)
        with fault_run(KERNEL_FAULT, seed=1), sanitize_run() as san:
            faulted_log = current().resilience
            faulted_ticket = client.submit(faulted)
        client.release()
        plain_result = plain_ticket.result(120)
        faulted_ticket.result(120)

    # the two ran interleaved, not one after the other
    first, last = steps.index("faulted"), len(steps) - 1 - steps[::-1].index("faulted")
    assert "plain" in steps[first:last]
    assert plain_result.digest == plain_solo
    assert not plain_log.has_events()
    assert faulted_log.injected == {"kernel": 1}
    assert [d["task"] for d in faulted_log.degraded] == ["interior_update"]
    assert san.checks == solo_san.checks > 0


@given(st.lists(st.booleans(), min_size=1, max_size=24))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_no_interleaving_of_turns_lets_a_job_stamp_anothers_id(monkeypatch, passes):
    """Three jobs served at once on two workers, each submitted under a
    tracer of its own, hand the service's turn on at the step boundaries
    ``passes`` draws (``True``: at once, if a job waits; ``False``: not
    there; the list repeats).  Whichever way the steps interleave, each job
    steps in its submitter's context: its spans — the ``serve_job[<key>]``
    one and every step's — land in its own tracer, never another's, and its
    answer is its solo answer."""
    solo = {name: digest(small(name, 4 + i).solve()) for i, name in enumerate("abc")}
    calls = iter(passes * 64)
    stepped: list[tuple[str, object]] = []
    tracers, tickets = {}, {}
    with cache_scope(), serve_session(workers=2, batch_max=1) as service:
        real = service.turn.pass_on
        monkeypatch.setattr(service.turn, "pass_on",
                            lambda after_s: real(0.0) if next(calls, False) else None)
        service.client.hold()
        for i, name in enumerate("abc"):
            problem = small(name, 4 + i)
            problem.add_post_step(lambda state, name=name: stepped.append(
                (name, current().tracer)), name="who")
            with trace_run() as tracers[name]:
                tickets[name] = service.client.submit(problem)
        service.client.release()
        results = {name: ticket.result(120) for name, ticket in tickets.items()}

    assert {name: r.digest for name, r in results.items()} == solo
    assert stepped and all(tracer is tracers[name] for name, tracer in stepped)
    for name, tracer in tracers.items():
        jobs = {s.name for s in tracer.spans if s.name.startswith("serve_job[")}
        assert jobs == {f"serve_job[{results[name].key[:8]}]"}


def test_a_job_that_raises_leaves_the_next_job_its_submitters_context():
    """A job that changes its context and raises takes the change with it:
    the next job on the same worker thread runs in its own submitter's
    context (with the service's registry, the submitter having none)."""
    def leaky(state):
        update(tracer=Tracer(), problem=state.problem)
        raise RuntimeError("callback failed")

    seen = []
    bad = small("bad")
    bad.add_post_step(leaky, name="leaky")
    good = small("good", 4)
    good.add_post_step(lambda state: seen.append(current()), name="look")
    submitter = current()
    with cache_scope(), serve_session(workers=1) as service:
        with pytest.raises(RuntimeError, match="callback failed"):
            service.client.solve(bad)
        service.client.solve(good)
    assert len(seen) == 4 and len({id(ctx) for ctx in seen}) == 1
    assert seen[0].metrics is service.metrics
    assert replace(seen[0], metrics=submitter.metrics) == submitter
    assert current() is submitter
