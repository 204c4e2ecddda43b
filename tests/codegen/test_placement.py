"""Min-cut placement optimiser unit tests."""

import math

import pytest

from repro.codegen.placement import (
    DataEdge,
    Task,
    TaskGraph,
    optimize_placement,
    plan_transfers,
)
from repro.codegen.placement.transfers import ArrayUse
from repro.gpu.spec import A6000
from repro.util.errors import CodegenError


def graph_with(*tasks, edges=()):
    g = TaskGraph()
    for t in tasks:
        g.add_task(t)
    for src, dst, nbytes in edges:
        g.add_edge(src, dst, nbytes)
    return g


class TestBasicDecisions:
    def test_single_gpu_friendly_task_goes_gpu(self):
        g = graph_with(Task("work", cost_cpu=1.0, cost_gpu=0.01))
        plan = optimize_placement(g, A6000)
        assert plan.device["work"] == "gpu"
        assert plan.objective_seconds == pytest.approx(0.01)

    def test_single_cpu_friendly_task_stays_cpu(self):
        g = graph_with(Task("work", cost_cpu=0.01, cost_gpu=1.0))
        assert optimize_placement(g, A6000).device["work"] == "cpu"

    def test_pinned_cpu_respected_even_if_gpu_cheaper(self):
        g = graph_with(Task("callback", cost_cpu=1.0, cost_gpu=1e-6, pinned="cpu"))
        assert optimize_placement(g, A6000).device["callback"] == "cpu"

    def test_pinned_gpu_respected(self):
        g = graph_with(Task("kernel", cost_cpu=1e-6, cost_gpu=1.0, pinned="gpu"))
        assert optimize_placement(g, A6000).device["kernel"] == "gpu"

    def test_task_without_gpu_cost_stays_cpu(self):
        g = graph_with(Task("hostonly", cost_cpu=5.0))
        assert optimize_placement(g, A6000).device["hostonly"] == "cpu"


class TestDataMovementTradeoffs:
    def test_small_gain_not_worth_huge_transfer(self):
        """Offloading saves 1 ms but would move 1 GB/step: stay on CPU."""
        g = graph_with(
            Task("kernel", cost_cpu=0.002, cost_gpu=0.001),
            Task("post", cost_cpu=0.01, pinned="cpu"),
            edges=[("kernel", "post", 1e9)],
        )
        plan = optimize_placement(g, A6000)
        assert plan.device["kernel"] == "cpu"
        assert plan.bytes_moved_per_step == 0

    def test_large_gain_worth_the_transfer(self):
        """Offloading saves ~1 s and only moves 1 MB: go to the GPU."""
        g = graph_with(
            Task("kernel", cost_cpu=1.0, cost_gpu=0.001),
            Task("post", cost_cpu=0.01, pinned="cpu"),
            edges=[("kernel", "post", 1e6)],
        )
        plan = optimize_placement(g, A6000)
        assert plan.device["kernel"] == "gpu"
        assert plan.bytes_moved_per_step == 1e6
        assert len(plan.cut_edges) == 1

    def test_coupled_tasks_move_together(self):
        """Two tasks exchanging a lot of data co-locate on the GPU even if
        one of them is individually indifferent."""
        g = graph_with(
            Task("a", cost_cpu=1.0, cost_gpu=0.01),
            Task("b", cost_cpu=0.011, cost_gpu=0.01),  # nearly indifferent
            edges=[("a", "b", 5e8)],
        )
        plan = optimize_placement(g, A6000)
        assert plan.device["a"] == "gpu"
        assert plan.device["b"] == "gpu"

    def test_objective_counts_execution_and_cut(self):
        g = graph_with(
            Task("kernel", cost_cpu=1.0, cost_gpu=0.1),
            Task("post", cost_cpu=0.2, pinned="cpu"),
            edges=[("kernel", "post", 24e6)],  # 1 ms on the PCIe model
        )
        plan = optimize_placement(g, A6000)
        transfer = A6000.pcie_latency_s + 24e6 / A6000.pcie_bw_bytes()
        assert plan.objective_seconds == pytest.approx(0.1 + 0.2 + transfer, rel=1e-6)


class TestGraphValidation:
    def test_duplicate_task(self):
        g = graph_with(Task("a", 1.0))
        with pytest.raises(CodegenError):
            g.add_task(Task("a", 1.0))

    def test_edge_unknown_task(self):
        g = graph_with(Task("a", 1.0))
        with pytest.raises(CodegenError):
            g.add_edge("a", "b", 100)

    def test_negative_cost(self):
        with pytest.raises(CodegenError):
            Task("bad", cost_cpu=-1.0)

    def test_negative_bytes(self):
        g = graph_with(Task("a", 1.0), Task("b", 1.0))
        with pytest.raises(CodegenError):
            g.add_edge("a", "b", -5)

    def test_bad_pin(self):
        with pytest.raises(CodegenError):
            Task("bad", 1.0, pinned="fpga")

    def test_gpu_pin_needs_gpu_cost(self):
        g = graph_with(Task("bad", cost_cpu=1.0, cost_gpu=math.inf, pinned="gpu"))
        with pytest.raises(CodegenError):
            optimize_placement(g, A6000)


class TestTransferPlanning:
    def _plan(self):
        g = graph_with(
            Task("kernel", cost_cpu=1.0, cost_gpu=0.001),
            Task("post", cost_cpu=0.01, pinned="cpu"),
            edges=[("kernel", "post", 1e6)],
        )
        return optimize_placement(g, A6000)

    def test_static_vs_per_step(self):
        plan = self._plan()
        arrays = [
            ArrayUse("geometry", 1e6, readers=("kernel",), writers=(),
                     mutated_each_step=False),
            ArrayUse("Io", 1e5, readers=("kernel",), writers=("post",)),
            ArrayUse("u", 1e6, readers=("kernel", "post"), writers=("kernel", "post")),
            ArrayUse("log", 100, readers=("post",), writers=("post",)),
        ]
        tp = plan_transfers(plan, arrays)
        assert tp.static_h2d == ["geometry"]
        assert "Io" in tp.h2d_each_step
        assert "u" in tp.d2h_each_step and "u" in tp.h2d_each_step
        assert tp.host_only == ["log"]
        assert tp.bytes_d2h_per_step == 1e6
        assert tp.bytes_h2d_per_step == 1e5 + 1e6

    def test_device_only_intermediate(self):
        plan = self._plan()
        arrays = [ArrayUse("scratch", 1e5, readers=("kernel",), writers=("kernel",))]
        tp = plan_transfers(plan, arrays)
        assert tp.device_only == ["scratch"]

    def test_report_strings(self):
        plan = self._plan()
        assert "placement plan" in plan.report()
        tp = plan_transfers(plan, [ArrayUse("u", 8.0, readers=("kernel",), writers=("post",))])
        assert "every step H2D" in tp.report()


class TestFinishStepPlacement:
    """The movable task between the kernel and the callback: the optimiser
    places it, nothing forces it."""

    def artifact(self, nx, ndirs, bands, **extra):
        from repro.bte.problem import build_bte_problem, hotspot_scenario
        from repro.codegen import make_target

        problem, _ = build_bte_problem(hotspot_scenario(
            nx=nx, ny=nx, ndirs=ndirs, n_freq_bands=bands, dt=1e-12, nsteps=2))
        problem.enable_gpu()
        problem.extra.update(extra)
        return make_target("gpu").build_artifact(problem)

    def test_lands_on_the_gpu_unforced_at_the_paper_benchmark_size(self):
        """nx=48, 1100 components: 20.3 MB of unknown against 4.4 MB of
        boundary exchange and band energies."""
        art = self.artifact(48, 20, 40)
        placement, plan = art.attrs["placement"], art.attrs["transfer_plan"]
        tasks = placement.graph.tasks
        assert placement.device["finish_step"] == "gpu" and tasks["finish_step"].pinned is None
        assert placement.device["interior_update"] == "gpu"
        assert tasks["interior_update"].pinned is None  # nor was the interior
        u_bytes = 8 * 1100 * 48 * 48
        edges = {(e.src, e.dst, e.label): e.nbytes for e in placement.graph.edges}
        assert edges[("interior_update", "finish_step", "I")] == u_bytes
        assert edges[("finish_step", "post_step_callbacks", "band_energy")] == 8 * 55 * 48 * 48
        assert edges[("finish_step", "boundary_callbacks", "u_bdry")] == 8 * 1100 * 192
        assert edges[("boundary_callbacks", "finish_step", "du_bdry")] == 8 * 1100 * 188
        # what crosses: 22.303 + 20.275 MB under the paper's plan
        assert placement.bytes_moved_per_step <= 6.5e6
        assert (plan.bytes_h2d_per_step, plan.bytes_d2h_per_step) == (3_681_920, 2_703_360)
        assert max(plan.bytes_h2d_per_step, plan.bytes_d2h_per_step) < u_bytes / 4
        report = [ln.strip() for ln in art.source.splitlines() if "finish_step " in ln]
        assert report[0] == "#     finish_step              -> GPU"
        assert "#   transfer plan:" in art.source and "device only:        u" in art.source

    def test_the_override_reproduces_the_papers_plan(self):
        art = self.artifact(48, 20, 40, placement_override={"finish_step": "cpu"})
        placement, plan = art.attrs["placement"], art.attrs["transfer_plan"]
        assert placement.device["finish_step"] == "cpu"
        assert (plan.bytes_h2d_per_step, plan.bytes_d2h_per_step) == (22_302_720, 20_275_200)
        assert placement.bytes_moved_per_step == 22_302_720 + 20_275_200
        assert "finish_step              -> CPU   [pinned cpu]" in art.source

    def test_stays_on_the_cpu_with_the_interior_of_a_tiny_problem(self):
        art = self.artifact(4, 4, 2)
        placement = art.attrs["placement"]
        # the all-CPU plan emits the host form: no kernel, no device step
        assert "def compute_rhs(" in art.source and "interior_kernel" not in art.source
        assert placement.device["interior_update"] == placement.device["finish_step"] == "cpu"
        assert placement.bytes_moved_per_step == 0
        assert "finish_step              -> CPU\n" in art.source

    def test_three_plans_of_one_emitter_equal_the_cpu_target(self):
        """One BTE problem under the gpu target's three plans — the unknown
        resident, the paper's round trip, every task on the CPU — is one
        program: each ends in the cpu target's bits, and the all-CPU plan's
        interior is the cpu target's text, bound as the gpu target."""
        from repro.bte.problem import build_bte_problem, hotspot_scenario

        def solve(configure=None):
            problem, _ = build_bte_problem(hotspot_scenario(
                nx=4, ny=4, ndirs=4, n_freq_bands=2, dt=1e-12, nsteps=3))
            if configure is not None:
                problem.enable_gpu()
                configure(problem.extra)
            return problem.solve()

        def compute_rhs(source):
            return source[source.index("def compute_rhs("):].split("\n\n\n")[0]

        cpu = solve()
        plans = {
            "resident": solve(lambda extra: extra.update(
                gpu_force_offload=True, placement_override={"finish_step": "gpu"})),
            "round_trip": solve(lambda extra: extra.update(
                gpu_force_offload=True, placement_override={"finish_step": "cpu"})),
            "all_cpu": solve(lambda extra: None),
        }
        expected = {"resident": ("gpu", "gpu"), "round_trip": ("gpu", "cpu"),
                    "all_cpu": ("cpu", "cpu")}
        for name, solver in plans.items():
            device = solver.placement.device
            assert (device["interior_update"], device["finish_step"]) == expected[name]
            assert solver.target_name == "gpu"
            assert solver.solution().tobytes() == cpu.solution().tobytes(), name
            assert solver.state.extra["T"].tobytes() == cpu.state.extra["T"].tobytes()
        all_cpu = plans["all_cpu"]
        assert all_cpu.state.device is None and "interior_kernel" not in all_cpu.source
        assert compute_rhs(all_cpu.source) == compute_rhs(cpu.source)
        assert "def compute_rhs(" not in plans["resident"].source

    def test_below_break_even_a_forced_offload_keeps_the_round_trip(self):
        """Three transfer latencies and a launch against twice a 10 KB
        unknown: the optimiser's verdict, not a rule."""
        art = self.artifact(8, 4, 4, gpu_force_offload=True)
        placement = art.attrs["placement"]
        assert placement.device["interior_update"] == "gpu"
        assert placement.device["finish_step"] == "cpu"
        assert placement.graph.tasks["finish_step"].pinned is None
