"""GPU hybrid target: correctness, overlap timeline, placement integration."""

import numpy as np
import pytest

from repro.bte.problem import build_bte_problem, hotspot_scenario


@pytest.fixture
def gpu_scenario():
    # large enough that offloading beats staying on the CPU
    return hotspot_scenario(nx=16, ny=16, ndirs=8, n_freq_bands=8, dt=1e-12, nsteps=4)


class TestCorrectness:
    def test_matches_serial(self, gpu_scenario):
        p1, _ = build_bte_problem(gpu_scenario)
        u_ref = p1.solve().solution()
        p2, _ = build_bte_problem(gpu_scenario)
        p2.enable_gpu()
        s2 = p2.solve()
        assert s2.target_name == "gpu"
        assert np.array_equal(s2.solution(), u_ref)  # one step shape: to the bit

    def test_temperature_matches_serial(self, gpu_scenario):
        p1, _ = build_bte_problem(gpu_scenario)
        T_ref = p1.solve().state.extra["T"]
        p2, _ = build_bte_problem(gpu_scenario)
        p2.enable_gpu()
        T_gpu = p2.solve().state.extra["T"]
        assert np.array_equal(T_ref, T_gpu)


class TestPlacement:
    def test_interior_offloaded_for_large_problem(self, gpu_scenario):
        p, _ = build_bte_problem(gpu_scenario)
        p.enable_gpu()
        solver = p.generate()
        assert solver.placement.device["interior_update"] == "gpu"
        assert solver.placement.device["boundary_callbacks"] == "cpu"
        assert solver.placement.device["post_step_callbacks"] == "cpu"

    def test_tiny_problem_falls_back_to_cpu(self):
        sc = hotspot_scenario(nx=4, ny=4, ndirs=4, n_freq_bands=2, dt=1e-12, nsteps=2)
        p, _ = build_bte_problem(sc)
        p.enable_gpu()
        solver = p.generate()
        # the all-CPU plan of the gpu target: its host form, no device bound
        assert solver.target_name == "gpu" and solver.state.device is None
        assert solver.placement.device["interior_update"] == "cpu"
        assert "interior_update          -> CPU\n" in solver.source
        solver.run()  # and it still works

    def test_force_offload_override(self):
        sc = hotspot_scenario(nx=4, ny=4, ndirs=4, n_freq_bands=2, dt=1e-12, nsteps=2)
        p, _ = build_bte_problem(sc)
        p.enable_gpu()
        p.extra["gpu_force_offload"] = True
        solver = p.generate()
        assert solver.target_name == "gpu"

    def test_placement_override_pins_tasks(self, gpu_scenario):
        """The plan-override hook: pin the interior update to the CPU even
        though the optimiser would offload it."""
        p, _ = build_bte_problem(gpu_scenario)
        p.enable_gpu()
        p.extra["placement_override"] = {"interior_update": "cpu"}
        solver = p.generate()
        assert solver.placement.device["interior_update"] == "cpu"


class TestTransferPlan:
    def test_transfer_plan_classification(self, gpu_scenario):
        """'Finch will automatically determine what variables need to be
        updated and communicated during each step.'  The paper's plan, on
        record under the override: ``finish_step`` on the CPU."""
        p, _ = build_bte_problem(gpu_scenario)
        p.enable_gpu()
        p.extra["placement_override"] = {"finish_step": "cpu"}
        solver = p.generate()
        plan = solver.transfer_plan
        assert "geometry" in plan.static_h2d  # sent once
        assert "var_Io" in plan.h2d_each_step
        assert "var_beta" in plan.h2d_each_step
        assert "u" in plan.d2h_each_step
        assert "u" in plan.h2d_each_step  # the paper sends u both ways
        assert set(plan.host_only) == {"du_bdry", "u_bdry", "band_energy"}
        # ... and its virtual timeline is the one the round trip always had
        # (the parent commit's reading after five steps, to the last bit)
        solver.run(5)
        assert solver.state.host_clock.now() == 0.05418733333333332
        moved = solver.device.profiler.transfer_summary()
        u_bytes = solver.state.host_u.nbytes
        assert moved["d2h"]["bytes"] == 5 * u_bytes
        assert moved["h2d"]["bytes"] == 5 * plan.bytes_h2d_per_step + sum(
            solver.device.buffers[n].nbytes for n in ("u", "var_Io", "var_beta"))

    def test_transfer_plan_keeps_the_unknown_resident(self):
        """The default plan at a size where the unknown outweighs three small
        transfers: ``finish_step`` lands on the device unforced, the unknown
        never crosses, the five small arrays do."""
        p, _ = build_bte_problem(hotspot_scenario(
            nx=24, ny=24, ndirs=12, n_freq_bands=10, dt=1e-12, nsteps=4))
        p.enable_gpu()
        solver = p.generate()
        task = solver.placement.graph.tasks["finish_step"]
        assert solver.placement.device["finish_step"] == "gpu" and task.pinned is None
        plan = solver.transfer_plan
        assert plan.static_h2d == ["geometry"]
        assert plan.device_only == ["u"]
        assert sorted(plan.h2d_each_step) == ["du_bdry", "var_Io", "var_beta"]
        assert sorted(plan.d2h_each_step) == ["band_energy", "u_bdry"]
        assert not plan.host_only
        small = {a.name: a.nbytes for a in solver.array_uses}
        assert plan.bytes_d2h_per_step == small["band_energy"] + small["u_bdry"]
        assert solver.placement.bytes_moved_per_step == (
            plan.bytes_h2d_per_step + plan.bytes_d2h_per_step)
        # the executed step moves what the plan says, plus the health flag
        solver.run(1)
        before = solver.device.profiler.transfer_summary()
        solver.run(3)
        after = solver.device.profiler.transfer_summary()
        assert after["h2d"]["bytes"] - before["h2d"]["bytes"] == 3 * plan.bytes_h2d_per_step
        assert after["d2h"]["bytes"] - before["d2h"]["bytes"] == 3 * plan.bytes_d2h_per_step + 8
        for line in ("every step H2D:     du_bdry, var_", "every step D2H:     u_bdry, band_energy",
                     "device only:        u", "h2d(du_bdry, var_", "d2h(u_bdry, band_energy)"):
            assert line in solver.source, line

    def test_placement_report_in_source(self, gpu_scenario):
        p, _ = build_bte_problem(gpu_scenario)
        p.enable_gpu()
        solver = p.generate()
        assert "placement plan" in solver.source
        assert "transfer plan" in solver.source


class TestTimeline:
    def test_host_and_device_clocks_advance(self, gpu_scenario):
        p, _ = build_bte_problem(gpu_scenario)
        p.enable_gpu()
        solver = p.solve()
        assert solver.state.host_clock.now() > 0
        assert solver.device.default_stream.busy_until() > 0

    def test_phase_accounting(self, gpu_scenario):
        p, _ = build_bte_problem(gpu_scenario)
        p.enable_gpu()
        solver = p.solve()
        phases = solver.state.gpu_phases
        assert phases["solve for intensity"] > 0
        assert phases["temperature update"] > 0
        assert phases["communication"] > 0
        # per-step total equals the host clock
        assert sum(phases.values()) == pytest.approx(
            solver.state.host_clock.now(), rel=0.25
        )

    def test_boundary_overlaps_kernel(self, gpu_scenario):
        """Fig. 6: the intensity phase reflects max(kernel, boundary), not
        their sum — overlap must be modelled."""
        p, _ = build_bte_problem(gpu_scenario)
        p.enable_gpu()
        solver = p.solve()
        nsteps = gpu_scenario.nsteps
        kernel_total = sum(r.duration for r in solver.device.default_stream.records)
        boundary_total = solver.namespace["COST_BOUNDARY"] * nsteps
        intensity_phase = solver.state.gpu_phases["solve for intensity"]
        assert intensity_phase < kernel_total + boundary_total
        assert intensity_phase >= max(kernel_total, boundary_total) * 0.99

    def test_kernel_launch_per_step(self, gpu_scenario):
        p, _ = build_bte_problem(gpu_scenario)
        p.enable_gpu()
        solver = p.solve()
        assert len(solver.device.default_stream.records) == gpu_scenario.nsteps

    def test_profiler_collects_kernel_metrics(self, gpu_scenario):
        p, _ = build_bte_problem(gpu_scenario)
        p.enable_gpu()
        solver = p.solve()
        rep = solver.device.profiler.report("I_interior_step")
        assert rep.n_launches == gpu_scenario.nsteps
        assert rep.total_flops > 0
        assert 0 < rep.flop_fraction_of_peak <= 1


class TestResidentTimeline:
    """The same timeline properties with ``finish_step`` on the device (at
    this size the optimiser keeps it on the host, so it is pinned)."""

    @pytest.fixture
    def solver(self, gpu_scenario):
        p, _ = build_bte_problem(gpu_scenario)
        p.enable_gpu()
        p.extra["placement_override"] = {"finish_step": "gpu"}
        return p.solve()

    def test_three_kernels_per_run(self, solver, gpu_scenario):
        names = [r.kernel for r in solver.device.default_stream.records]
        n = gpu_scenario.nsteps
        assert names == ["I_interior_step", "finish_step"] * n + ["finite_check"]
        assert solver.device.profiler.report("I_interior_step").n_launches == n

    def test_phases_add_up_to_the_host_clock(self, solver):
        phases = solver.state.gpu_phases
        assert all(v > 0 for v in phases.values())
        assert sum(phases.values()) == pytest.approx(solver.state.host_clock.now(), rel=1e-12)

    def test_boundary_still_overlaps_the_interior_kernel(self, solver, gpu_scenario):
        records = solver.device.default_stream.records
        interior = sum(r.duration for r in records if r.kernel == "I_interior_step")
        finish = sum(r.duration for r in records if r.kernel == "finish_step")
        boundary = solver.namespace["COST_BOUNDARY"] * gpu_scenario.nsteps
        phase = solver.state.gpu_phases["solve for intensity"]
        assert phase < interior + finish + boundary
        assert phase >= (max(interior, boundary) + finish) * 0.99

    def test_the_unknown_is_fetched_once_for_the_caller(self, solver):
        moved = [t.nbytes for t in solver.device.profiler.transfers if t.kind == "d2h"]
        u_bytes = solver.state.host_u.nbytes
        assert u_bytes not in moved          # a whole run, and it never came back
        solver.solution()
        solver.solution()
        moved = [t.nbytes for t in solver.device.profiler.transfers if t.kind == "d2h"]
        assert moved.count(u_bytes) == 1     # the handoff; then the host owns it


class TestGeneratedKernelSource:
    def test_flattened_kernel_shape(self, gpu_scenario):
        p, _ = build_bte_problem(gpu_scenario)
        p.enable_gpu()
        solver = p.generate()
        src = solver.source
        assert (
            "def interior_kernel(u, var_Io, var_beta, u_new, buffer, sel=slice(None)):" in src
            or "def interior_kernel(u, var_beta, var_Io, u_new, buffer, sel=slice(None)):" in src
        )
        assert "def compute_boundary_contribution" in src
        assert "OWNER_INT" in src
        # u_new[sel] = u[sel] + DT * (source + div): the C tile over the
        # launch's rows into ``u_new``, no boundary part (finish_step's)
        assert "TILE(TILE_PLANS, (DT,), True, rows, u, u_new," in src
        assert "const double v = (" in solver.tile.text
        assert "o[c] = euler ? ur[c] + v * s0 : v;" in solver.tile.text

    def test_kernel_work_estimates_attached(self, gpu_scenario):
        p, _ = build_bte_problem(gpu_scenario)
        p.enable_gpu()
        solver = p.generate()
        assert solver.kernel.flops_per_thread > 100
        assert solver.kernel.bytes_per_thread > 10
