"""The span tracer and its Chrome-trace export."""

import json

import pytest

from repro import obs
from repro.obs import NULL_TRACER, SpanEvent, Tracer, phase_span, trace_run
from repro.util.context import current, scope


class TestSpanEvent:
    def test_duration(self):
        assert SpanEvent("t", "a", 1.0, 3.5).duration == 2.5

    def test_overlap(self):
        a = SpanEvent("t", "a", 0.0, 2.0)
        b = SpanEvent("t", "b", 1.0, 3.0)
        c = SpanEvent("t", "c", 2.0, 4.0)
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)  # touching endpoints do not overlap


class TestNullTracer:
    def test_disabled_and_reusable(self):
        assert NULL_TRACER.enabled is False
        s1 = NULL_TRACER.span("x", "a")
        s2 = NULL_TRACER.span("y", "b")
        assert s1 is s2  # single reusable null span, no allocation
        with s1:
            pass

    def test_recording_calls_are_noops(self):
        NULL_TRACER.complete("t", "a", 0.0, 1.0)
        NULL_TRACER.instant("t", "i", 0.0)
        NULL_TRACER.counter("t", "c", 0.0, 1.0)


class TestTracer:
    def test_complete_records_span(self):
        tr = Tracer()
        tr.complete("virtual/rank0", "solve", 1.0, 2.0, cat="phase", rank=0)
        (span,) = tr.spans_on("virtual/rank0")
        assert span.name == "solve"
        assert span.duration == 1.0
        assert span.args["rank"] == 0

    def test_span_context_manager_uses_clock(self):
        t = [0.0]

        def clock():
            t[0] += 1.0
            return t[0]

        tr = Tracer(clock=clock)
        with tr.span("host/main", "work"):
            pass
        (span,) = tr.find_spans("work")
        assert span.t0 == 1.0 and span.t1 == 2.0

    def test_tracks_sorted_union(self):
        tr = Tracer()
        tr.complete("b", "x", 0, 1)
        tr.counter("a", "c", 0.0, 2.0)
        tr.instant("c/d", "i", 0.0)
        assert tr.tracks() == ["a", "b", "c/d"]

    def test_chrome_trace_structure(self):
        tr = Tracer()
        tr.complete("gpu0/stream0", "kernel", 0.001, 0.002, cat="kernel")
        tr.complete("gpu0/transfer", "h2d", 0.0, 0.001, cat="transfer")
        tr.complete("host/rank0", "solve", 0.0, 0.5)
        tr.counter("host/rank0", "bytes", 0.1, 42.0)
        tr.instant("host/rank0", "mark", 0.2)
        doc = tr.to_chrome_trace()
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"M", "X", "i", "C"} <= phases
        # same process -> same pid, distinct tids
        by_name = {}
        for e in events:
            if e["ph"] == "M" and e["name"] == "thread_name":
                by_name[e["args"]["name"]] = (e["pid"], e["tid"])
        assert by_name["stream0"][0] == by_name["transfer"][0]
        assert by_name["stream0"][1] != by_name["transfer"][1]
        assert by_name["rank0"][0] != by_name["stream0"][0]
        # timestamps exported in microseconds
        kernel = next(e for e in events if e.get("name") == "kernel")
        assert kernel["ts"] == pytest.approx(1000.0)
        assert kernel["dur"] == pytest.approx(1000.0)

    def test_write_is_valid_json(self, tmp_path):
        tr = Tracer()
        tr.complete("t", "a", 0.0, 1.0)
        path = tr.write(tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_summary_counts(self):
        tr = Tracer()
        tr.complete("t", "a", 0.0, 1.0)
        tr.counter("t", "c", 0.0, 1.0)
        s = tr.summary()
        assert s["n_spans"] == 1 and s["n_counters"] == 1
        assert s["tracks"] == ["t"]


class TestCurrentTracer:
    def test_defaults_to_null(self):
        assert current().tracer is NULL_TRACER

    def test_set_and_restore(self):
        tr = Tracer()
        prev = current().tracer
        with scope(tracer=tr):
            assert current().tracer is tr
        assert current().tracer is prev

    def test_trace_run_installs_writes_and_restores(self, tmp_path):
        path = tmp_path / "t.json"
        with trace_run(path) as tr:
            assert current().tracer is tr
            tr.complete("t", "a", 0.0, 1.0)
        assert current().tracer is NULL_TRACER
        assert json.loads(path.read_text())["traceEvents"]

    def test_trace_run_writes_on_error(self, tmp_path):
        path = tmp_path / "t.json"
        with pytest.raises(RuntimeError):
            with trace_run(path) as tr:
                tr.complete("t", "partial", 0.0, 1.0)
                raise RuntimeError("boom")
        assert current().tracer is NULL_TRACER
        names = [e.get("name") for e in json.loads(path.read_text())["traceEvents"]]
        assert "partial" in names  # partial traces survive failures

    def test_phase_span_noop_when_disabled(self):
        span = phase_span("solve")
        assert span is obs.NULL_TRACER.span("", "")

    def test_phase_span_records_on_host_track(self):
        with trace_run() as tr:
            with phase_span("solve", nsteps=3):
                pass
        (span,) = tr.find_spans("solve")
        assert span.track.startswith("host/")
        assert span.args["nsteps"] == 3
