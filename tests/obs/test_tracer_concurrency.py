"""Tracer install/restore under nesting and the SPMD executor's threads."""

import numpy as np

from repro.obs import NULL_TRACER, Tracer, trace_run
from repro.runtime.executor import run_spmd
from repro.runtime.netmodel import IB_CLUSTER
from repro.util.context import current, scope


class TestTraceRunNesting:
    def test_nested_blocks_restore_in_order(self):
        assert current().tracer is NULL_TRACER
        with trace_run() as outer:
            assert current().tracer is outer
            with trace_run() as inner:
                assert inner is not outer
                assert current().tracer is inner
                inner.complete("t", "inner_span", 0.0, 1.0)
            assert current().tracer is outer
            outer.complete("t", "outer_span", 0.0, 1.0)
        assert current().tracer is NULL_TRACER
        assert [s.name for s in outer.spans] == ["outer_span"]
        assert [s.name for s in inner.spans] == ["inner_span"]

    def test_reentering_with_same_tracer_accumulates(self):
        tracer = Tracer()
        with trace_run(tracer=tracer):
            tracer.complete("t", "first", 0.0, 1.0)
        with trace_run(tracer=tracer):
            tracer.complete("t", "second", 1.0, 2.0)
        assert [s.name for s in tracer.spans] == ["first", "second"]

    def test_restore_on_exception(self):
        try:
            with trace_run():
                raise ValueError("boom")
        except ValueError:
            pass
        assert current().tracer is NULL_TRACER

    def test_set_tracer_none_resets(self):
        """A scope with the null tracer switches tracing off inside a live
        one, and the live one is back after it."""
        with trace_run() as tracer:
            with scope(tracer=NULL_TRACER):
                assert current().tracer is NULL_TRACER
            assert current().tracer is tracer
        assert current().tracer is NULL_TRACER


def _rank_program(comm):
    """Exercises compute charging, exchange and allreduce on every rank."""
    left = (comm.rank - 1) % comm.size
    right = (comm.rank + 1) % comm.size
    comm.compute(1e-3, phase="solve")
    got = comm.exchange({left: np.ones(8), right: np.ones(8)}, tag=3)
    total = comm.allreduce(np.array([float(comm.rank)]))
    return {"rank": comm.rank, "n_recv": len(got), "sum": float(total[0])}


class TestSPMDThreads:
    def test_null_tracer_under_spmd_records_nothing(self):
        assert current().tracer is NULL_TRACER
        result = run_spmd(4, _rank_program, IB_CLUSTER)
        assert [r["rank"] for r in result.results] == [0, 1, 2, 3]
        assert all(r["sum"] == 6.0 for r in result.results)
        assert current().tracer is NULL_TRACER
        assert NULL_TRACER.span("t", "x").__enter__() is not None

    def test_live_tracer_collects_all_rank_tracks(self):
        with trace_run() as tracer:
            run_spmd(4, _rank_program, IB_CLUSTER)
        tracks = tracer.tracks()
        for rank in range(4):
            assert f"virtual/rank{rank}" in tracks
        # the executor's threads each record a rank_program span too
        names = {s.name for s in tracer.spans}
        assert "rank_program" in names
        assert "allreduce" in names

    def test_concurrent_recording_is_complete(self):
        with trace_run() as tracer:
            run_spmd(8, _rank_program, IB_CLUSTER)
        compute = [s for s in tracer.spans if s.cat == "compute"]
        # every rank charged exactly one explicit compute phase
        assert len([s for s in compute if s.name == "solve"]) == 8
