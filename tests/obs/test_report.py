"""The run document (``repro.run/2``) and its writer."""

import json
import math
from pathlib import Path

import pytest

from repro.codegen.placement.graph import Task, TaskGraph
from repro.codegen.placement.optimizer import optimize_placement
from repro.gpu.spec import A6000
from repro.obs import SCHEMA, RunReport, Tracer, placement_accuracy
from repro.obs.report import _json_safe


class TestJsonSafe:
    def test_replaces_non_finite(self):
        doc = _json_safe({"a": float("inf"), "b": [float("nan"), 1.0], "c": 2})
        assert doc == {"a": None, "b": [None, 1.0], "c": 2}
        json.dumps(doc)


class TestRunReport:
    def test_minimal_document(self):
        rep = RunReport(meta={"problem": "p"}, phases={})
        doc = rep.to_dict()
        assert doc["schema"] == SCHEMA == "repro.run/2"
        assert "comm" not in doc and "gpu" not in doc  # absent sections omitted
        assert list(doc) == ["schema", "meta", "ranks", "drift", "phases"]

    def test_write_round_trips(self, tmp_path):
        rows = [{"name": "solve", "kind": "phase", "min_s": 0.0}]
        rep = RunReport(meta={"x": 1}, ranks=[{"rank": 0, "rows": rows}])
        path = rep.write(tmp_path / "report.json")
        doc = json.loads(path.read_text())
        assert doc["meta"] == {"x": 1}
        assert doc["ranks"][0]["rows"] == rows

    def test_document_is_json_safe(self):
        rep = RunReport(meta={"bad": float("inf")})
        assert json.loads(rep.to_json())["meta"]["bad"] is None


class TestPlacementAccuracy:
    def _plan(self):
        g = TaskGraph()
        g.add_task(Task("interior", cost_cpu=1.0, cost_gpu=0.01))
        g.add_task(Task("callbacks", cost_cpu=0.02, pinned="cpu"))
        g.add_edge("interior", "callbacks", 1e6)
        return optimize_placement(g, A6000)

    def test_predicted_vs_measured(self):
        plan = self._plan()
        assert plan.device["interior"] == "gpu"
        # measured: the phase row's seconds per step (0.04 s over 4 steps)
        section = placement_accuracy(
            plan, {"solve": 0.04 / 4}, task_timer_map={"interior": "solve"}
        )
        entry = next(t for t in section["tasks"] if t["task"] == "interior")
        assert entry["device"] == "gpu"
        assert entry["predicted_s_per_step"] == pytest.approx(0.01)
        assert entry["measured_s_per_step"] == pytest.approx(0.01)
        assert entry["measured_over_predicted"] == pytest.approx(1.0)

    def test_unmeasured_task_has_none(self):
        plan = self._plan()
        section = placement_accuracy(plan, {})
        for entry in section["tasks"]:
            assert entry["measured_s_per_step"] is None

    def test_pinned_cpu_task_never_reports_inf(self):
        plan = self._plan()
        section = placement_accuracy(plan, {})
        entry = next(t for t in section["tasks"] if t["task"] == "callbacks")
        # cost_gpu defaults to inf but the CPU assignment reads cost_cpu
        assert entry["predicted_s_per_step"] == pytest.approx(0.02)
        json.dumps(_json_safe(section))


class TestBuildRunReport:
    @pytest.fixture(scope="class")
    def solver(self):
        from repro.bte import build_bte_problem, hotspot_scenario

        scenario = hotspot_scenario(
            nx=8, ny=8, ndirs=4, n_freq_bands=4, dt=1e-12, nsteps=3
        )
        problem, _ = build_bte_problem(scenario)
        return problem.solve()

    def test_cpu_solver_report(self, solver):
        rep = solver.run_report()
        doc = rep.to_dict()
        assert doc["schema"] == SCHEMA
        assert doc["meta"]["target"] == "cpu"
        assert doc["meta"]["nsteps_run"] == solver.state.step_index
        (rank,) = doc["ranks"]
        assert "solve" in {row["name"] for row in rank["rows"]}
        assert "timers" not in doc and "tuning" not in doc
        assert doc["phases"] == pytest.approx(solver.breakdown())
        # never-recorded timers stay JSON-safe
        json.dumps(doc)
        assert "gpu" not in doc and "comm" not in doc

    def test_tracer_summary_included(self, solver):
        tr = Tracer()
        tr.complete("t", "a", 0.0, 1.0)
        doc = solver.run_report(tr).to_dict()
        assert doc["trace"]["n_spans"] == 1

    def test_timer_min_normalised(self):
        from repro.util.timing import TimerStats

        s = TimerStats("never_recorded")
        assert s.min == math.inf  # raw dataclass default
        d = s.as_dict()
        assert d["min"] == 0.0  # normalised for export
        json.dumps(d)


class TestProfileSection:
    @pytest.fixture(scope="class")
    def gpu_solver(self):
        from repro.bte import build_bte_problem, hotspot_scenario

        scenario = hotspot_scenario(
            nx=8, ny=8, ndirs=4, n_freq_bands=4, dt=1e-12, nsteps=3
        )
        problem, _ = build_bte_problem(scenario)
        problem.enable_gpu()
        problem.extra["gpu_force_offload"] = True
        return problem.solve()

    def test_report_carries_per_rank_rows(self, gpu_solver):
        doc = gpu_solver.run_report().to_dict()
        assert "profile" not in doc  # the rows are the document's own
        assert doc["meta"]["target"] == "gpu"
        (rank,) = doc["ranks"]
        assert rank["rows"] and rank["transfers"]["count"] > 0
        json.dumps(doc)

    def test_device_section_has_roofline_rows(self, gpu_solver):
        doc = gpu_solver.run_report().to_dict()
        (device,) = doc["gpu"]["devices"]
        # the device section holds device facts; its kernels are rows
        assert set(device) == {"name", "spec", "allocated_bytes",
                               "stream_busy_s", "transfer_busy_s"}
        (row,) = [r for r in doc["ranks"][0]["rows"] if r["kind"] == "kernel"]
        assert row["name"] == "I_interior_step"
        for key in ("intensity_flop_per_byte", "ridge_flop_per_byte",
                    "bound", "flop_fraction_of_peak", "sm_utilization"):
            assert key in row

    def test_multi_gpu_rank_kernels(self):
        from repro.bte import build_bte_problem, hotspot_scenario

        scenario = hotspot_scenario(
            nx=8, ny=8, ndirs=4, n_freq_bands=4, dt=1e-12, nsteps=2
        )
        problem, _ = build_bte_problem(scenario)
        problem.enable_gpu()
        problem.extra["gpu_force_offload"] = True
        problem.set_partitioning("bands", 2, index="b")
        doc = problem.solve().run_report().to_dict()
        assert len(doc["ranks"]) == 2
        for entry in doc["ranks"]:
            assert any(r["name"] == "I_interior_step" for r in entry["rows"])
        assert doc["gpu"] == {"devices": [
            {"rank": r, "spec": "NVIDIA RTX A6000"} for r in (0, 1)]}


class TestOldFormatCompat:
    """``repro.run_report/1`` documents written before the profile/health
    sections existed must keep loading everywhere (analyze, CLI)."""

    FIXTURE = Path(__file__).parent / "data" / "golden_report.json"

    def test_fixture_predates_new_sections(self):
        doc = json.loads(self.FIXTURE.read_text())
        assert doc["schema"].startswith("repro.run_report/")
        assert "profile" not in doc and "health" not in doc
        (device,) = doc["gpu"]["devices"]
        assert "kernel_rows" not in device

    def test_analyze_tolerates_old_document(self):
        from repro.obs.analyze import analyze

        analysis = analyze(report_path=self.FIXTURE)
        assert analysis.kernels == []  # nothing fabricated
        assert analysis.profile_drift is None
        text = analysis.render_text()
        assert "per-kernel" not in text
        assert "perfmodel drift" not in text

    def test_cli_analyze_old_document(self, capsys):
        from repro.cli import main

        assert main(["analyze", str(self.FIXTURE)]) == 0
        out = capsys.readouterr().out
        assert "reported phase fractions" in out


class TestRetiredSections:
    """Reports and profiles written while the anomaly monitor, the
    autotuner and live calibration existed carry ``health``,
    ``tuning.tuned/config`` and ``drift.calibration``; a new report writes
    none of them, and the old ones still load everywhere."""

    @pytest.fixture(scope="class")
    def report_doc(self):
        from repro.bte import build_bte_problem, hotspot_scenario

        problem, _ = build_bte_problem(hotspot_scenario(
            nx=8, ny=8, ndirs=4, n_freq_bands=4, dt=1e-12, nsteps=2))
        problem.enable_gpu()
        problem.extra["gpu_force_offload"] = True
        return problem.solve().run_report().to_dict()

    @pytest.fixture
    def stale_path(self, tmp_path):
        # a repro.run_report/1 document: the report of the committed /1
        # registry entry
        entry = Path(__file__).parent / "data" / "golden_entry_v1.json"
        doc = json.loads(entry.read_text())["report"]
        doc["health"] = {"status": "warning", "checked_at": 0.0,
                         "alerts": [{"kind": "step_time_spike",
                                     "severity": "warning", "message": "",
                                     "value": 6.0, "threshold": 5.0,
                                     "context": {}}],
                         "thresholds": {"step_time_spike": 5.0}}
        doc.setdefault("tuning", {}).update(
            tuned=True, config={"assembly_order": ["b", "cells", "d"]})
        doc["profile"]["drift"]["calibration"] = {
            "factor": 3.0, "machine": "CascadeLake/Finch-generated",
            "suggested_intensity_per_dof": 3.66e-6,
            "measured_per_dof": 3.66e-6, "ndof": 1280, "note": ""}
        path = tmp_path / "stale_report.json"
        path.write_text(json.dumps(doc))
        return path

    def test_new_report_writes_none_of_them(self, report_doc):
        assert "health" not in report_doc
        assert "tuning" not in report_doc
        assert set(report_doc["drift"]) == {"tolerance", "max_abs", "exceeded"}

    def test_analyze_and_compare_read_a_stale_report(self, stale_path, capsys):
        from repro.cli import main

        assert main(["analyze", str(stale_path)]) == 0
        assert "I_interior_step" in capsys.readouterr().out
        assert main(["compare", str(stale_path), str(stale_path)]) == 0
        assert "top culprit: none" in capsys.readouterr().out

    def test_stale_profile_document_loads(self, stale_path, tmp_path):
        from repro.obs import load_run
        from repro.obs.profile import profile_table

        stale = json.loads(stale_path.read_text())
        for doc in (stale, stale["profile"]):
            loaded = load_run(doc)
            # the retired sections are dropped by the upgrade
            assert not {"health", "tuning", "profile"} & set(loaded)
            assert loaded["meta"]["generation"] == stale["tuning"]["cache"]
            assert loaded["drift"] == {"tolerance": 0.5, "max_abs": 2.740890619496895,
                                       "exceeded": True}
            assert "perfmodel drift" in profile_table(loaded)
