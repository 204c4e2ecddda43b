"""End-to-end traces across the execution targets.

These are the acceptance checks of the observability subsystem: a hybrid
GPU run must produce distinct host/device/rank tracks, with the interior
kernel span overlapping the host boundary-callback span (the paper's
Fig. 6 async overlap), and a run report carrying the placement
predicted-vs-measured section.
"""

import json

import pytest

from repro.bte import build_bte_problem, hotspot_scenario
from repro.obs import trace_run


def _tracks_by_kind(tracer):
    tracks = tracer.tracks()
    return {
        "host": [t for t in tracks if t.startswith("host/")],
        "virtual": [t for t in tracks if t.startswith("virtual/")],
        "hybrid": [t for t in tracks if t.startswith("hybrid/")],
        "device": [t for t in tracks if t.startswith("gpu")],
    }


@pytest.fixture(scope="module")
def hybrid_run(tmp_path_factory):
    scenario = hotspot_scenario(nx=12, ny=12, ndirs=4, n_freq_bands=4,
                                dt=1e-12, nsteps=3)
    problem, _ = build_bte_problem(scenario)
    problem.enable_gpu()
    problem.extra["gpu_force_offload"] = True
    path = tmp_path_factory.mktemp("trace") / "hybrid.json"
    with trace_run(path) as tracer:
        solver = problem.solve()
        report = solver.run_report(tracer)
    return solver, tracer, report, path


class TestHybridTrace:
    def test_distinct_track_domains(self, hybrid_run):
        _, tracer, _, _ = hybrid_run
        kinds = _tracks_by_kind(tracer)
        assert kinds["host"], "wall-clock host track missing"
        assert kinds["hybrid"], "generated host virtual track missing"
        assert any(t.endswith("/transfer") for t in kinds["device"])
        assert any(not t.endswith("/transfer") for t in kinds["device"])

    def test_kernel_overlaps_boundary_callbacks(self, hybrid_run):
        """The paper's Fig. 6: the async interior kernel runs on the device
        while the host executes the boundary contribution."""
        _, tracer, _, _ = hybrid_run
        kernels = [s for s in tracer.spans if s.cat == "kernel"]
        boundary = tracer.find_spans("boundary_callbacks")
        assert kernels and boundary
        assert any(k.overlaps(b) for k in kernels for b in boundary)

    def test_device_spans_carry_kernel_attrs(self, hybrid_run):
        _, tracer, _, _ = hybrid_run
        span = next(s for s in tracer.spans if s.cat == "kernel")
        assert span.args["flops"] > 0
        assert 0.0 < span.args["occupancy"] <= 1.0

    def test_trace_json_is_valid_chrome_trace(self, hybrid_run):
        _, _, _, path = hybrid_run
        doc = json.loads(path.read_text())
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert xs
        pids = {e["pid"] for e in xs}
        assert len(pids) >= 3  # host, hybrid host, device processes

    def test_report_has_placement_accuracy(self, hybrid_run):
        _, _, report, _ = hybrid_run
        doc = report.to_dict()
        assert doc["placement"]["tasks"]
        interior = next(
            t for t in doc["placement"]["tasks"] if t["task"] == "interior_update"
        )
        assert interior["device"] == "gpu"
        assert interior["predicted_s_per_step"] > 0
        assert interior["measured_s_per_step"] > 0
        json.dumps(doc)

    def test_report_gpu_section(self, hybrid_run):
        _, _, report, _ = hybrid_run
        doc = report.to_dict()
        devices = doc["gpu"]["devices"]
        assert devices and devices[0]["stream_busy_s"]
        (rank,) = doc["ranks"]
        assert [r for r in rank["rows"] if r["kind"] == "kernel"]
        assert rank["transfers"]["h2d"]["count"] > 0


class TestDistributedTrace:
    def test_per_rank_tracks_and_comm_section(self):
        scenario = hotspot_scenario(nx=8, ny=8, ndirs=4, n_freq_bands=4,
                                    dt=1e-12, nsteps=2)
        problem, _ = build_bte_problem(scenario)
        problem.set_partitioning("bands", 2, index="b")
        with trace_run() as tracer:
            solver = problem.solve()
            report = solver.run_report(tracer)
        kinds = _tracks_by_kind(tracer)
        assert kinds["virtual"] == ["virtual/rank0", "virtual/rank1"]
        assert set(kinds["host"]) >= {"host/rank0", "host/rank1"}
        doc = report.to_dict()
        assert doc["comm"]["nranks"] == 2
        assert doc["comm"]["makespan_s"] > 0

    def test_serial_run_emits_phase_spans(self):
        scenario = hotspot_scenario(nx=8, ny=8, ndirs=4, n_freq_bands=4,
                                    dt=1e-12, nsteps=2)
        problem, _ = build_bte_problem(scenario)
        with trace_run() as tracer:
            problem.solve()
        assert len(tracer.find_spans("solve")) == 2
        assert tracer.find_spans("run[cpu]")
