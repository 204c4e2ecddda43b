"""Placement & transfer-plan mutation tests against the real GPU solver."""

import pytest

from repro.bte.problem import build_bte_problem, hotspot_scenario
from repro.codegen.placement.graph import Task, TaskGraph
from repro.codegen.placement.optimizer import PlacementPlan
from repro.codegen.placement.transfers import ArrayUse
from repro.verify import (
    check_hazards,
    check_placement,
    check_transfers,
    verify_solver,
    verify_solver_placement,
)


def gpu_solver():
    sc = hotspot_scenario(nx=4, ny=4, ndirs=4, n_freq_bands=2,
                          dt=1e-12, nsteps=2)
    p, _ = build_bte_problem(sc)
    p.enable_gpu()
    p.extra["gpu_force_offload"] = True
    return p.generate()


def resident_solver(ranks=0):
    """The same solver with ``finish_step`` on the device: the unknown stays
    there, the boundary exchange and the band energies cross."""
    sc = hotspot_scenario(nx=4, ny=4, ndirs=4, n_freq_bands=2,
                          dt=1e-12, nsteps=2)
    p, _ = build_bte_problem(sc)
    p.enable_gpu()
    p.extra["gpu_force_offload"] = True
    p.extra["placement_override"] = {"finish_step": "gpu"}
    if ranks:
        p.set_partitioning("bands", ranks, index="b")
    return p.generate()


def make_plan(device, graph, **kw):
    return PlacementPlan(device=device, objective_seconds=0.0,
                         cut_edges=[], bytes_moved_per_step=0.0,
                         graph=graph, **kw)


class TestRealSolver:
    def test_generated_gpu_solver_verifies_clean(self):
        report = verify_solver(gpu_solver())
        assert not report.diagnostics, [d.render() for d in report.diagnostics]

    def test_missing_per_step_h2d_trips_rpr201(self):
        solver = gpu_solver()
        solver.transfer_plan.h2d_each_step.remove("u")
        report = verify_solver_placement(solver)
        assert "RPR201" in report.codes()
        diag = next(d for d in report.diagnostics if d.code == "RPR201")
        assert diag.where["array"] == "u"

    def test_missing_static_h2d_trips_rpr201(self):
        solver = gpu_solver()
        solver.transfer_plan.static_h2d.remove("geometry")
        report = verify_solver_placement(solver)
        assert "RPR201" in report.codes()

    def test_missing_d2h_trips_rpr202(self):
        solver = gpu_solver()
        solver.transfer_plan.d2h_each_step.remove("u")
        report = verify_solver_placement(solver)
        assert "RPR202" in report.codes()

    @pytest.mark.parametrize("ranks", [0, 2])
    def test_resident_plan_verifies_clean(self, ranks):
        solver = resident_solver(ranks)
        assert solver.transfer_plan.device_only == ["u"]
        report = verify_solver(solver)
        assert not report.diagnostics, [d.render() for d in report.diagnostics]

    @pytest.mark.parametrize("array, direction, code", [
        ("du_bdry", "h2d", "RPR201"), ("var_Io", "h2d", "RPR201"),
        ("var_beta", "h2d", "RPR201"), ("u_bdry", "d2h", "RPR202"),
        ("band_energy", "d2h", "RPR202"),
    ])
    def test_deleting_any_one_transfer_of_the_resident_plan_is_caught(
            self, array, direction, code):
        import copy

        solver = resident_solver()
        # the plan object is the cached artifact's: mutate a copy
        solver.transfer_plan = copy.deepcopy(solver.transfer_plan)
        getattr(solver.transfer_plan, f"{direction}_each_step").remove(array)
        report = verify_solver_placement(solver)
        assert report.codes() == [code]
        (diag,) = report.diagnostics
        assert diag.where["array"] == array

    def test_undescribed_array_in_plan_trips_rpr207(self):
        solver = gpu_solver()
        solver.transfer_plan.h2d_each_step.append("phantom")
        report = verify_solver_placement(solver)
        assert "RPR207" in report.codes()

    def test_unknown_task_assignment_trips_rpr206(self):
        solver = gpu_solver()
        solver.placement.device["bogus"] = "gpu"
        report = verify_solver_placement(solver)
        assert "RPR206" in report.codes()

    def test_pinned_task_moved_trips_rpr205(self):
        solver = gpu_solver()
        # boundary callbacks are pinned to the CPU (paper Sec. I)
        solver.placement.device["boundary_callbacks"] = "gpu"
        report = verify_solver_placement(solver)
        assert "RPR205" in report.codes()


class TestSyntheticHazards:
    def _two_task_graph(self, edge: bool):
        g = TaskGraph()
        g.add_task(Task("a", cost_cpu=1.0, cost_gpu=1.0))
        g.add_task(Task("b", cost_cpu=1.0, cost_gpu=1.0))
        if edge:
            g.add_edge("a", "b", 8.0)
        return g

    def test_unordered_double_write_trips_rpr203(self):
        g = self._two_task_graph(edge=False)
        plan = make_plan({"a": "cpu", "b": "cpu"}, g)
        arrays = [ArrayUse("buf", 8.0, writers=("a", "b"))]
        report = check_hazards(plan, arrays)
        assert "RPR203" in report.codes()

    def test_ordered_double_write_is_clean(self):
        g = self._two_task_graph(edge=True)
        plan = make_plan({"a": "cpu", "b": "cpu"}, g)
        arrays = [ArrayUse("buf", 8.0, writers=("a", "b"))]
        assert not check_hazards(plan, arrays).diagnostics

    def test_cross_device_overlap_race_trips_rpr204(self):
        g = self._two_task_graph(edge=False)
        plan = make_plan({"a": "gpu", "b": "cpu"}, g)
        arrays = [ArrayUse("buf", 8.0, readers=("b",), writers=("a",))]
        report = check_hazards(plan, arrays)
        assert "RPR204" in report.codes()

    def test_double_buffered_array_is_exempt(self):
        g = self._two_task_graph(edge=False)
        plan = make_plan({"a": "gpu", "b": "cpu"}, g)
        arrays = [ArrayUse("buf", 8.0, readers=("b",), writers=("a",),
                           double_buffered=True)]
        assert not check_hazards(plan, arrays).diagnostics

    def test_array_referencing_unknown_task_trips_rpr206(self):
        g = self._two_task_graph(edge=False)
        plan = make_plan({"a": "cpu", "b": "cpu"}, g)
        arrays = [ArrayUse("buf", 8.0, writers=("ghost",))]
        report = check_hazards(plan, arrays)
        assert "RPR206" in report.codes()

    def test_pinned_violation_trips_rpr205(self):
        g = TaskGraph()
        g.add_task(Task("cb", cost_cpu=1.0, cost_gpu=1.0, pinned="cpu"))
        plan = make_plan({"cb": "gpu"}, g)
        report = check_placement(plan)
        assert "RPR205" in report.codes()

    def test_gpu_task_without_gpu_cost_trips_rpr205(self):
        g = TaskGraph()
        g.add_task(Task("k", cost_cpu=1.0))  # cost_gpu defaults to inf
        plan = make_plan({"k": "gpu"}, g)
        report = check_placement(plan)
        assert "RPR205" in report.codes()

    def test_cyclic_graph_counts_as_ordered(self):
        # pathological, but the verifier must not hang or false-positive
        g = self._two_task_graph(edge=True)
        g.add_edge("b", "a", 8.0)
        plan = make_plan({"a": "cpu", "b": "gpu"}, g)
        arrays = [ArrayUse("buf", 8.0, readers=("b",), writers=("a",))]
        assert not check_hazards(plan, arrays).diagnostics


class TestSolverWithoutAttachments:
    def test_cpu_solver_verifies_trivially(self):
        sc = hotspot_scenario(nx=4, ny=4, ndirs=4, n_freq_bands=2,
                              dt=1e-12, nsteps=2)
        p, _ = build_bte_problem(sc)
        solver = p.generate()
        report = verify_solver(solver)
        assert not report.diagnostics
