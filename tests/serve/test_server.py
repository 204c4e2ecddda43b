"""Integration tests for the solver service against real BTE solves.

These drive the acceptance criteria end to end: N identical concurrent
requests -> one compile, bit-identical results equal to a direct
``Problem.solve()``; preempted jobs resume bit-identically; rejections
are typed and surfaced in the status document.
"""

import asyncio
import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.obs.metrics import metrics_run
from repro.serve import ServiceConfig, SolverService, TenantQuota, serve_session
from repro.tune.cache import cache_scope
from repro.util.errors import (
    AdmissionError,
    QuotaExceededError,
    ServeError,
)
from tests.serve.conftest import make_problem, wait_until


def _total(registry, name):
    counter = registry.counter(name)
    return sum(cell[0] for cell in counter.series().values())


def test_eight_identical_requests_one_build_bit_identical():
    """The tentpole acceptance: 8 concurrent identical requests from 4
    tenants -> exactly one codegen/compile, one solve, one shared result
    object, bit-identical to a direct solve."""
    with cache_scope() as cache, metrics_run() as metrics:
        direct = make_problem().solve().solution().copy()
        builds_before = cache.stats.builds
        with serve_session(workers=2, queue_max=64) as service:
            client = service.client
            client.hold()  # stage the burst so every request overlaps
            tickets = [client.submit(make_problem(),
                                     tenant=f"tenant{i % 4}")
                       for i in range(8)]
            client.release()
            results = [t.result(120) for t in tickets]
            doc = client.status()

    assert all(r is results[0] for r in results), \
        "dedup'd requests must share one result object"
    assert np.array_equal(results[0].u, direct)
    # the direct solve built the artifact once; the service reused it and
    # never compiled again
    assert cache.stats.builds == builds_before == 1
    assert _total(metrics, "codegen_build_total") == 1
    assert _total(metrics, "codegen_compile_total") == 1
    assert doc["counters"]["requests"] == 8
    assert doc["counters"]["deduped"] == 7
    assert doc["counters"]["completed"] == 1
    assert len(doc["tenants"]) == 4


def test_result_reuse_and_tenant_hashtree():
    with cache_scope():
        with serve_session(workers=1) as service:
            client = service.client
            r1 = client.solve(make_problem(), tenant="alice")
            root1 = client.status()["tenants"]["alice"]["hashtree"]["root"]
            r2 = client.solve(make_problem(), tenant="alice")
            root2 = client.status()["tenants"]["alice"]["hashtree"]["root"]
            r3 = client.solve(make_problem(nsteps=5), tenant="alice")
            root3 = client.status()["tenants"]["alice"]["hashtree"]["root"]
            doc = client.status()
    # the repeat was served from the completed-result cache: same object
    assert r2 is r1
    assert doc["counters"]["results_reused"] == 1
    assert doc["counters"]["completed"] == 2
    # hashtree root is stable under reuse, changes when the answer set does
    assert root2 == root1
    assert root3 != root2
    assert r3.key != r1.key
    assert r3.cache_key == r1.cache_key  # same artifact, different binding


def test_quota_rejection_is_typed_and_in_status_doc():
    config = ServiceConfig(workers=1, queue_max=64,
                           quotas={"greedy": TenantQuota(max_inflight=2)})
    with cache_scope():
        with serve_session(config) as service:
            client = service.client
            client.hold()
            t1 = client.submit(make_problem(nsteps=3), tenant="greedy")
            t2 = client.submit(make_problem(nsteps=4), tenant="greedy")
            with pytest.raises(QuotaExceededError) as exc_info:
                client.submit(make_problem(nsteps=5),
                              tenant="greedy").result(30)
            # other tenants are isolated from greedy's cap
            t3 = client.submit(make_problem(nsteps=3), tenant="modest")
            client.release()
            for ticket in (t1, t2, t3):
                ticket.result(120)
            doc = client.status()
    assert exc_info.value.code == "RPR901"
    assert doc["admission"]["rejected_by_code"] == {"RPR901": 1}
    assert doc["tenants"]["greedy"]["rejected"] == 1
    assert doc["counters"]["rejected"] == 1


def test_queue_backpressure_rejects_with_rpr900():
    with cache_scope():
        with serve_session(workers=1, queue_max=1) as service:
            client = service.client
            client.hold()
            t1 = client.submit(make_problem(nsteps=3), tenant="a")
            with pytest.raises(AdmissionError) as exc_info:
                client.submit(make_problem(nsteps=4), tenant="b").result(30)
            # an identical request coalesces: no queue entry, no reject
            t2 = client.submit(make_problem(nsteps=3), tenant="c")
            client.release()
            r1, r2 = t1.result(120), t2.result(120)
            doc = client.status()
    assert exc_info.value.code == "RPR900"
    assert not isinstance(exc_info.value, QuotaExceededError)
    assert r2 is r1
    assert doc["admission"]["rejected_by_code"] == {"RPR900": 1}


def test_preempted_job_resumes_bit_identically():
    """Differential acceptance: checkpoint-preempt mid-solve, resume on a
    free worker, and the answer matches an uninterrupted direct solve."""
    nsteps = 8
    with cache_scope():
        direct = make_problem(nsteps=nsteps).solve().solution().copy()
        with serve_session(workers=2, checkpoint_every=0) as service:
            client = service.client
            ticket = client.submit(make_problem(nsteps=nsteps, slow_s=0.05),
                                   tenant="alice")
            preempted = wait_until(lambda: client.preempt(), timeout_s=10)
            result = ticket.result(120)
            doc = client.status()
    assert preempted == result.key
    assert result.preemptions >= 1
    assert result.steps == nsteps
    assert doc["counters"]["preemptions"] >= 1
    assert doc["counters"]["resumes"] >= 1
    assert np.array_equal(result.u, direct)


def test_worker_failure_retries_elsewhere_bit_identically():
    nsteps = 8
    with cache_scope():
        direct = make_problem(nsteps=nsteps).solve().solution().copy()
        with serve_session(workers=2) as service:
            client = service.client
            ticket = client.submit(make_problem(nsteps=nsteps, slow_s=0.05),
                                   tenant="alice")

            def running_worker():
                for worker in client.status()["workers"]:
                    if worker["job"] is not None:
                        return worker["id"] + 1  # truthy even for id 0
                return None

            wid = wait_until(running_worker, timeout_s=10) - 1
            client.fail_worker(wid)
            result = ticket.result(120)
            doc = client.status()
    assert result.attempts == 2
    assert doc["service"]["workers_alive"] == 1
    assert doc["counters"]["worker_failures"] == 1
    assert np.array_equal(result.u, direct)


def test_http_endpoints_scrape_cleanly():
    with cache_scope():
        with serve_session(workers=1, port=0) as service:
            client = service.client
            client.solve(make_problem(), tenant="alice")
            base = f"http://127.0.0.1:{service.http_port}"
            with urllib.request.urlopen(base + "/healthz", timeout=10) as rsp:
                assert rsp.status == 200
                assert rsp.read() == b"ok\n"
            with urllib.request.urlopen(base + "/metrics", timeout=10) as rsp:
                assert rsp.status == 200
                text = rsp.read().decode()
            with urllib.request.urlopen(base + "/status", timeout=10) as rsp:
                assert rsp.status == 200
                doc = json.loads(rsp.read().decode())
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(base + "/nope", timeout=10)
    assert "serve_requests_total" in text
    assert "serve_jobs_total" in text
    assert doc["schema"] == "repro.serve/1"
    assert doc["counters"]["completed"] == 1
    assert exc_info.value.code == 404


def test_stop_fails_pending_jobs_with_rpr903():
    with cache_scope():
        service = SolverService(ServiceConfig(workers=1))
        service.start_in_thread()
        client = service.client
        client.hold()
        ticket = client.submit(make_problem(), tenant="alice")
        service.stop_in_thread()
        with pytest.raises(ServeError) as exc_info:
            ticket.result(30)
        assert exc_info.value.code == "RPR903"
        # submitting to a stopped service is a typed error too
        with pytest.raises(ServeError):
            asyncio.run(service.submit(make_problem(), tenant="alice"))


def _callback_names(problem):
    return [cb.name for cb in problem.post_step_callbacks]


def test_served_problem_keeps_only_its_own_callbacks():
    """The per-job ``serve_interrupt`` hook comes off when the result or the
    failure is delivered: a problem solved once, three times, or to a
    failure leaves the service with the callbacks it came in with."""
    def failing(state):
        raise ValueError("boom at step 1")

    with cache_scope():
        with serve_session(workers=2, reuse_results=False) as service:
            client = service.client
            problem = make_problem()
            before = _callback_names(problem)
            client.solve(problem, tenant="alice")
            assert _callback_names(problem) == before
            for _ in range(3):
                client.solve(problem, tenant="alice")
            assert _callback_names(problem) == before
            assert "serve_interrupt" not in before

            broken = make_problem()
            broken.add_post_step(failing, name="failing")
            before_broken = _callback_names(broken)
            with pytest.raises(ValueError, match="boom"):
                client.solve(broken, tenant="alice")
            assert _callback_names(broken) == before_broken
            doc = client.status()
    assert doc["counters"]["completed"] == 4
    assert doc["counters"]["failed"] == 1
    # and a later direct solve of the same object runs no stale hook
    assert np.array_equal(problem.solve().solution(),
                          make_problem().solve().solution())


def test_resumes_counted_once_per_resume_with_two_preempted_jobs():
    """``resumes`` is service state, so it is counted on the loop (not on
    the two executor threads, where concurrent ``+=`` can lose one)."""
    nsteps = 6
    with cache_scope():
        directs = [make_problem(nsteps=nsteps, nx=nx).solve().solution().copy()
                   for nx in (8, 10)]
        # batch_max=1: one job per dispatch, so the two land on two workers
        with serve_session(workers=2, batch_max=1,
                           reuse_results=False) as service:
            client = service.client
            tickets = [client.submit(make_problem(nsteps=nsteps, nx=nx,
                                                  slow_s=0.03), tenant="alice")
                       for nx in (8, 10)]
            wait_until(lambda: len([w for w in client.status()["workers"]
                                    if w["job"] is not None]) == 2)
            first = wait_until(lambda: client.preempt(), timeout_s=10)
            wait_until(lambda: client.status()["counters"]["preemptions"] >= 1)
            for job in client.status()["jobs"]:
                if job["status"] == "running" and job["key"] != first:
                    client.preempt(job["key"])
            results = [t.result(120) for t in tickets]
            doc = client.status()
    for result, direct in zip(results, directs):
        assert np.array_equal(result.u, direct)
    preemptions = sum(r.preemptions for r in results)
    assert preemptions >= 1
    assert doc["counters"]["preemptions"] == preemptions
    assert doc["counters"]["resumes"] == preemptions
    done = {j["key"]: j for j in doc["jobs"] if j["status"] == "done"}
    assert sum(j["resumes"] for j in done.values()) == preemptions
