"""The structured event log (``repro.events/1``)."""

import json

import pytest

from repro.obs import trace_run
from repro.obs.log import (
    LEVELS,
    EventLog,
    events_run,
    get_event_log,
    log_event,
    read_events,
    set_event_log,
)


@pytest.fixture(autouse=True)
def fresh_log():
    previous = set_event_log(EventLog())
    yield
    set_event_log(previous)


class TestLevels:
    def test_ordering(self):
        assert LEVELS["debug"] < LEVELS["info"] < LEVELS["warning"] < LEVELS["error"]

    def test_default_threshold_drops_debug(self):
        log = get_event_log()
        assert log.emit("comm.send", level="debug") is None
        assert log.emit("fault.injected", level="warning") is not None
        assert [e.name for e in log.tail()] == ["fault.injected"]

    def test_wants_and_debug_enabled(self):
        log = get_event_log()
        assert log.wants("info") and not log.wants("debug")
        assert not log.debug_enabled
        log.set_level("debug")
        assert log.debug_enabled and log.wants("debug")
        log.set_level("error")
        assert not log.wants("warning")

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown event level"):
            get_event_log().emit("x", level="loud")

    def test_disabled_log_absorbs_everything(self):
        log = EventLog(enabled=False)
        assert log.emit("x", level="error") is None
        assert log.tail() == [] and log.counts() == {}
        assert not log.debug_enabled


class TestRing:
    def test_ring_is_bounded(self):
        log = EventLog(ring_size=4)
        for i in range(10):
            log.emit("step.done", step=i)
        tail = log.tail()
        assert len(tail) == 4
        assert [e.step for e in tail] == [6, 7, 8, 9]
        # counts keep the full total even after eviction
        assert log.counts() == {"info": 10}

    def test_tail_n(self):
        log = get_event_log()
        for i in range(5):
            log.emit("e", step=i)
        assert [e.step for e in log.tail(2)] == [3, 4]


class TestCorrelation:
    def test_trace_id_defaults_from_live_tracer(self, tmp_path):
        with trace_run(tmp_path / "t.json") as tracer:
            ev = log_event("run.start")
        assert ev.trace_id == tracer.trace_id

    def test_span_ids_survive_to_dict(self):
        ev = get_event_log().emit("comm.recv", level="warning",
                                  rank=1, step=3, span_id=7, parent_id=5)
        doc = ev.to_dict()
        assert doc["span_id"] == 7 and doc["parent_id"] == 5
        assert doc["rank"] == 1 and doc["step"] == 3


class TestFileStream:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with events_run(path, level="debug") as log:
            log.emit("run.start", nsteps=3)
            log.emit("comm.send", level="debug", rank=0, dest=1)
            log.emit("fault.injected", level="warning", rank=1, kind="drop")
        header = json.loads(path.read_text().splitlines()[0])
        assert header["schema"] == "repro.events/1"
        events = read_events(path)
        assert [e["name"] for e in events] == [
            "run.start", "comm.send", "fault.injected"]
        assert events[1]["level"] == "debug"
        assert events[2]["fields"]["kind"] == "drop"

    def test_events_run_restores_previous_log(self, tmp_path):
        outer = get_event_log()
        with events_run(tmp_path / "e.jsonl") as inner:
            assert get_event_log() is inner
        assert get_event_log() is outer

    def test_truncated_tail_tolerated(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with events_run(path) as log:
            log.emit("run.start")
            log.emit("step.done", step=1)
        # simulate a crash mid-write
        path.write_text(path.read_text()[:-9])
        events = read_events(path)
        assert [e["name"] for e in events] == ["run.start"]

    def test_non_event_file_rejected(self, tmp_path):
        path = tmp_path / "not.jsonl"
        path.write_text(json.dumps({"schema": "repro.bench/1"}) + "\n")
        with pytest.raises(ValueError, match="not an event log"):
            read_events(path)

    def test_summary_shape(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with events_run(path) as log:
            log.emit("a")
            log.emit("b", level="warning")
            doc = log.summary()
        assert doc["total"] == 2
        assert doc["by_level"] == {"info": 1, "warning": 1}
        assert doc["path"] == str(path)


class TestCrashRecord:
    """The JSONL stream is the forensic record of a failed run: it ends with
    the error, and the findings before it carry step/rank provenance."""

    @pytest.fixture(autouse=True)
    def fresh_sanitizer(self):
        from repro.verify import get_sanitizer

        yield
        san = get_sanitizer()
        san.reset()
        san.enabled = False
        san.was_active = False

    def test_sanitizer_nan_trip_event_carries_provenance(self, tmp_path):
        import numpy as np

        from repro.bte.problem import build_bte_problem, hotspot_scenario
        from repro.verify import SanitizerError, sanitize_run

        def poison(state):
            state.u[0, 0] = np.nan

        problem, _ = build_bte_problem(hotspot_scenario(
            nx=4, ny=4, ndirs=4, n_freq_bands=2, dt=1e-12, nsteps=3))
        problem.add_post_step(poison, name="poison")
        path = tmp_path / "e.jsonl"
        with pytest.raises(SanitizerError):
            with events_run(path), sanitize_run():
                problem.solve()
        events = read_events(path)
        finding = next(e for e in events if e["name"] == "sanitizer.finding")
        assert finding["step"] == 1
        assert finding["fields"]["code"] == "RPR301"
        failed = events[-1]
        assert failed["name"] == "run.failed"
        assert failed["fields"]["code"] == "RPR301"
        assert "step 1" in failed["fields"]["message"]

    def test_rank_failure_event_carries_rank_and_trace_id(self, tmp_path):
        from repro.runtime.executor import run_spmd
        from repro.util.errors import ReproError

        def prog(comm):
            comm.compute(1e-6)
            if comm.rank == 1:
                raise RuntimeError("device fell off the bus")
            return comm.rank

        path = tmp_path / "e.jsonl"
        with trace_run(tmp_path / "t.json") as tracer:
            with pytest.raises(ReproError, match="rank 1 failed"):
                with events_run(path):
                    run_spmd(2, prog)
        events = read_events(path)
        failed = next(e for e in events if e["name"] == "executor.rank_failed")
        assert failed["rank"] == 1
        assert failed["trace_id"] == tracer.trace_id
        assert "device fell off the bus" in failed["fields"]["error"]
        assert events[-1]["name"] == "run.failed"
