"""The trace/report analyzer: interval arithmetic, critical path, overlap
scores, and golden-file agreement on a recorded GPU-run trace."""

import json
from pathlib import Path

import pytest

from repro.obs.analyze import (
    Flow,
    Span,
    analysis_domain,
    analyze,
    critical_path,
    critical_path_measured,
    intersection_length,
    kernel_boundary_overlap,
    load_trace,
    load_trace_doc,
    merge_intervals,
    overlap_score,
    total_length,
)
from repro.obs.tracer import Tracer

DATA = Path(__file__).parent / "data"


class TestIntervals:
    def test_merge_overlapping(self):
        assert merge_intervals([(0, 2), (1, 3), (5, 6)]) == [(0, 3), (5, 6)]

    def test_merge_drops_empty(self):
        assert merge_intervals([(1, 1), (2, 1)]) == []

    def test_total_length(self):
        assert total_length([(0, 2), (5, 6)]) == pytest.approx(3.0)

    def test_intersection(self):
        a = [(0.0, 4.0), (6.0, 8.0)]
        b = [(2.0, 7.0)]
        assert intersection_length(a, b) == pytest.approx(2.0 + 1.0)

    def test_disjoint_intersection_is_zero(self):
        assert intersection_length([(0, 1)], [(2, 3)]) == 0.0


class TestOverlapScore:
    def test_full_overlap_is_one(self):
        a = [Span("d/s0", "k", 0.0, 10.0, cat="kernel")]
        b = [Span("h", "boundary_callbacks", 2.0, 4.0, cat="phase")]
        score = overlap_score(a, b, "kernel", "boundary")
        assert score["efficiency"] == pytest.approx(1.0)
        assert score["overlapped_s"] == pytest.approx(2.0)

    def test_partial_overlap(self):
        a = [Span("d/s0", "k", 0.0, 4.0, cat="kernel")]
        b = [Span("h", "b", 2.0, 8.0)]
        score = overlap_score(a, b, "kernel", "boundary")
        # overlapped 2s over the shorter side's 4s busy
        assert score["efficiency"] == pytest.approx(0.5)

    def test_missing_side_gives_none(self):
        assert overlap_score([], [Span("h", "b", 0, 1)], "a", "b") is None

    def test_kernel_boundary_selector(self):
        spans = [
            Span("d/s0", "k", 0.0, 3.0, cat="kernel"),
            Span("h", "boundary_callbacks", 1.0, 2.0, cat="phase"),
            Span("h", "other", 0.0, 9.0, cat="phase"),
        ]
        score = kernel_boundary_overlap(spans)
        assert score["efficiency"] == pytest.approx(1.0)


class TestCriticalPath:
    def test_phases_sum_to_makespan(self):
        spans = [
            Span("t", "a", 0.0, 2.0),
            Span("t", "b", 3.0, 5.0),
        ]
        crit = critical_path(spans)
        assert crit["makespan_s"] == pytest.approx(5.0)
        assert crit["phases"]["a"] == pytest.approx(2.0)
        assert crit["phases"]["b"] == pytest.approx(2.0)
        assert crit["phases"]["idle"] == pytest.approx(1.0)
        assert sum(crit["phases"].values()) == pytest.approx(crit["makespan_s"])

    def test_innermost_span_wins(self):
        spans = [
            Span("t", "outer", 0.0, 10.0),
            Span("t", "inner", 4.0, 6.0),
        ]
        crit = critical_path(spans)
        assert crit["phases"]["inner"] == pytest.approx(2.0)
        assert crit["phases"]["outer"] == pytest.approx(8.0)

    def test_envelope_categories_excluded(self):
        spans = [
            Span("t", "run[gpu]", 0.0, 10.0, cat="run"),
            Span("t", "work", 1.0, 2.0),
        ]
        crit = critical_path(spans)
        assert "run[gpu]" not in crit["phases"]
        assert crit["makespan_s"] == pytest.approx(1.0)

    def test_empty(self):
        assert critical_path([]) == {"makespan_s": 0.0, "phases": {}, "path": []}


class TestMeasuredCriticalPath:
    """Backward walk over the *recorded* dependency chain."""

    def two_rank_spans(self):
        # rank 0 computes, then sends; rank 1 blocks on the recv and
        # finishes last — the makespan is causally pinned to rank 0
        return [
            Span("virtual/rank0", "compute", 0.0, 2.0, cat="compute"),
            Span("virtual/rank0", "send->1", 2.0, 2.0, cat="comm",
                 args={"span_id": 10}),
            Span("virtual/rank1", "recv<-0", 0.0, 2.1, cat="comm",
                 args={"span_id": 20, "parent_span_id": 10, "waited_s": 2.0}),
            Span("virtual/rank1", "finish", 2.1, 2.5, cat="compute"),
        ]

    def test_p2p_jump_through_flow_edge(self):
        flows = [Flow("msg:0->1", 10, "virtual/rank0", 2.0,
                      "virtual/rank1", 2.1)]
        measured = critical_path_measured(self.two_rank_spans(), flows)
        assert measured["rank_hops"] == 1
        assert [s["name"] for s in measured["path"]] == [
            "compute", "send->1", "recv<-0", "finish"]
        assert measured["makespan_s"] == pytest.approx(2.5)
        # rank 0's compute dominates; the recv's blocked time is not
        # double-charged past the send it jumped to
        assert measured["phases"]["compute"] == pytest.approx(2.0)
        assert measured["phases"]["recv<-0"] == pytest.approx(0.1)

    def test_no_flow_means_no_jump(self):
        # without a recorded edge the walk stays on rank 1's own track
        measured = critical_path_measured(self.two_rank_spans(), [])
        assert measured["rank_hops"] == 0
        assert {s["track"] for s in measured["path"]} == {"virtual/rank1"}

    def test_nonblocking_recv_does_not_jump(self):
        spans = self.two_rank_spans()
        recv = spans[2]
        recv.args = dict(recv.args, waited_s=0.0)
        flows = [Flow("msg:0->1", 10, "virtual/rank0", 2.0,
                      "virtual/rank1", 2.1)]
        measured = critical_path_measured(spans, flows)
        assert measured["rank_hops"] == 0

    def test_collective_flow_resolves_src_span_arg(self):
        # collective arrows mint fresh ids and name the straggler's entry
        # span in args["src_span"] — the jump must still resolve
        spans = [
            Span("virtual/rank1", "compute", 0.0, 3.0, cat="compute"),
            Span("virtual/rank1", "allreduce-enter", 3.0, 3.0, cat="comm",
                 args={"span_id": 10}),
            Span("virtual/rank1", "allreduce", 3.0, 3.2, cat="comm",
                 args={"span_id": 11, "parent_span_id": 0, "waited_s": 0.2}),
            Span("virtual/rank0", "allreduce", 0.0, 3.2, cat="comm",
                 args={"span_id": 12, "parent_span_id": 10, "waited_s": 3.2}),
            Span("virtual/rank0", "post", 3.2, 3.3, cat="compute"),
        ]
        flows = [Flow("coll:allreduce", 99, "virtual/rank1", 3.0,
                      "virtual/rank0", 3.2, args={"src_span": 10,
                                                  "src_rank": 1})]
        measured = critical_path_measured(spans, flows)
        assert measured["rank_hops"] == 1
        names = [s["name"] for s in measured["path"]]
        assert names[0] == "compute" and names[-1] == "post"
        assert measured["phases"]["compute"] == pytest.approx(3.0)

    def test_idle_gap_is_charged(self):
        spans = [Span("t", "a", 0.0, 1.0), Span("t", "b", 2.0, 3.0)]
        measured = critical_path_measured(spans, [])
        assert measured["phases"]["idle"] == pytest.approx(1.0)
        assert measured["makespan_s"] == pytest.approx(3.0)

    def test_empty(self):
        measured = critical_path_measured([], [])
        assert measured == {"makespan_s": 0.0, "phases": {}, "path": [],
                            "rank_hops": 0, "n_flows": 0}


class TestLoadTrace:
    def test_roundtrip_through_chrome_json(self, tmp_path):
        tracer = Tracer()
        tracer.complete("virtual/rank0", "solve", 1.0, 2.5, cat="compute", n=3)
        tracer.complete("gpu0/stream0", "k", 0.0, 1.0, cat="kernel")
        path = tracer.write(tmp_path / "t.json")
        spans = load_trace(path)
        assert {s.track for s in spans} == {"virtual/rank0", "gpu0/stream0"}
        solve = next(s for s in spans if s.name == "solve")
        assert solve.t0 == pytest.approx(1.0)
        assert solve.t1 == pytest.approx(2.5)
        assert solve.cat == "compute"
        assert solve.args["n"] == 3

    def test_bare_array_form(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps([
            {"ph": "X", "name": "w", "pid": 1, "tid": 1, "ts": 0.0, "dur": 1e6},
        ]))
        spans = load_trace(path)
        assert len(spans) == 1
        assert spans[0].duration == pytest.approx(1.0)

    def test_empty_tracer_roundtrips_as_degenerate_trace(self, tmp_path):
        # a run with no spans still writes valid JSON (a trace_empty
        # instant) that loads back as zero spans and zero flows
        path = Tracer().write(tmp_path / "empty.json")
        doc = json.loads(path.read_text())
        assert any(e.get("ph") == "i" and e.get("name") == "trace_empty"
                   for e in doc["traceEvents"])
        spans, flows = load_trace_doc(path)
        assert spans == [] and flows == []

    def test_unpaired_flow_start_is_discarded(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps([
            {"ph": "X", "name": "w", "pid": 1, "tid": 1, "ts": 0.0,
             "dur": 1e6},
            {"ph": "s", "name": "msg", "id": 7, "pid": 1, "tid": 1,
             "ts": 0.0},
        ]))
        spans, flows = load_trace_doc(path)
        assert len(spans) == 1
        assert flows == []

    def test_domain_prefers_virtual_processes(self):
        spans = [
            Span("host/MainThread", "wall", 1e6, 1e6 + 1.0, cat="phase"),
            Span("gpu0/stream0", "k", 0.0, 1.0, cat="kernel"),
            Span("gpu0/transfer", "h2d", 0.0, 0.5, cat="transfer"),
        ]
        domain = analysis_domain(spans)
        assert all(s.process == "gpu0" for s in domain)


class TestGolden:
    """Analyze the committed recorded trace of a small hybrid GPU run."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads((DATA / "golden_analysis.json").read_text())

    @pytest.fixture(scope="class")
    def analysis(self):
        return analyze(DATA / "golden_trace.json", DATA / "golden_report.json")

    def test_trace_stats(self, analysis, golden):
        assert analysis.trace_stats["n_spans"] == golden["n_spans"]
        assert analysis.trace_stats["n_tracks"] == golden["n_tracks"]

    def test_makespan_and_phases(self, analysis, golden):
        crit = analysis.critical
        assert crit["makespan_s"] == pytest.approx(golden["makespan_s"], rel=1e-9)
        assert set(crit["phases"]) == set(golden["phases"])
        for name, secs in golden["phases"].items():
            assert crit["phases"][name] == pytest.approx(secs, rel=1e-9), name

    def test_overlap_efficiency_in_unit_interval(self, analysis, golden):
        score = analysis.overlap["kernel_boundary"]
        assert 0.0 < score["efficiency"] <= 1.0
        assert score["efficiency"] == pytest.approx(
            golden["kernel_boundary"]["efficiency"], rel=1e-9
        )

    def test_placement_has_predicted_vs_measured_rows(self, analysis):
        rows = analysis.placement["tasks"]
        both = [
            r for r in rows
            if r["predicted_s_per_step"] is not None
            and r["measured_s_per_step"] is not None
        ]
        assert both, "expected at least one predicted-vs-measured row"
        assert all("mispredicted" in r for r in rows)

    def test_render_text_mentions_key_sections(self, analysis):
        text = analysis.render_text()
        assert "critical path" in text
        assert "overlap: efficiency" in text
        assert "placement explainability" in text

    def test_to_dict_schema(self, analysis):
        doc = analysis.to_dict()
        assert doc["schema"] == "repro.analysis/1"
        json.dumps(doc)  # JSON-safe


class TestCLI:
    def test_analyze_command(self, capsys):
        from repro.cli import main

        rc = main([
            "analyze", str(DATA / "golden_trace.json"),
            str(DATA / "golden_report.json"),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "overlap: efficiency" in out

    def test_analyze_dot_output(self, tmp_path, capsys):
        from repro.cli import main

        dot = tmp_path / "p.dot"
        rc = main([
            "analyze", str(DATA / "golden_report.json"),
            str(DATA / "golden_trace.json"), "--dot", str(dot),
        ])
        assert rc == 0
        text = dot.read_text()
        assert "digraph" in text
        assert "fillcolor=plum" in text  # a GPU-placed task
        assert "fillcolor=lightblue" in text  # a CPU-placed task
        assert "KiB" in text or " B\"" in text  # byte-annotated edge

    def test_bte_alias_dispatch(self, capsys):
        from repro.cli import bte_main

        rc = bte_main([
            "analyze", str(DATA / "golden_trace.json"),
        ])
        assert rc == 0
        assert "critical path" in capsys.readouterr().out


class TestGeneratedRankProgram:
    """The measured path over a real 2-rank ``gpu_distributed`` trace: the
    causal edges are the ones the generated rank program records, not
    hand-built flows.  Rank 0 holds more bands, so it is the allreduce
    straggler of every step and the path never leaves it; a 2 ms stall of
    rank 1 in its second step makes rank 1 the straggler of that step."""

    ARGS = ["bte", "--nx", "12", "--ndirs", "4", "--bands", "4",
            "--steps", "4", "--gpu", "--ranks", "2"]

    def measured(self, tmp_path, capsys, *extra):
        from repro.cli import main

        trace = tmp_path / "rank_trace.json"
        assert main([*self.ARGS, "--trace", str(trace), *extra]) == 0
        capsys.readouterr()
        return analyze(trace).critical_measured

    def test_unfaulted_path_stays_on_the_straggler(self, tmp_path, capsys):
        measured = self.measured(tmp_path, capsys)
        assert measured["n_flows"] >= 1
        assert measured["rank_hops"] == 0
        assert {s["track"] for s in measured["path"]} == {"virtual/rank0"}

    def test_stalled_rank_pulls_the_path_across(self, tmp_path, capsys):
        measured = self.measured(tmp_path, capsys, "--faults",
                                 "stall:rank=1,at=5,delay=2e-3")
        assert measured["rank_hops"] >= 1
        assert {s["track"] for s in measured["path"]} == {
            "virtual/rank0", "virtual/rank1"}
