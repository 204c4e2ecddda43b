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
        scale = np.max(np.abs(u_ref))
        assert np.max(np.abs(s2.solution() - u_ref)) < 1e-12 * scale

    def test_temperature_matches_serial(self, gpu_scenario):
        p1, _ = build_bte_problem(gpu_scenario)
        T_ref = p1.solve().state.extra["T"]
        p2, _ = build_bte_problem(gpu_scenario)
        p2.enable_gpu()
        T_gpu = p2.solve().state.extra["T"]
        assert np.allclose(T_ref, T_gpu, rtol=1e-12)


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
        assert solver.target_name == "cpu"
        assert solver.placement.device["interior_update"] == "cpu"
        assert "kept every task on the CPU" in solver.source
        solver.run()  # and it still works

    def test_force_offload_override(self):
        sc = hotspot_scenario(nx=4, ny=4, ndirs=4, n_freq_bands=2, dt=1e-12, nsteps=2)
        p, _ = build_bte_problem(sc)
        p.enable_gpu()
        p.extra["gpu_force_offload"] = True
        solver = p.generate()
        assert solver.target_name == "gpu"

    def test_placement_override_pins_tasks(self, gpu_scenario):
        """The tuner's plan-override hook: pin the interior update to the
        CPU even though the optimiser would offload it."""
        p, _ = build_bte_problem(gpu_scenario)
        p.enable_gpu()
        p.extra["placement_override"] = {"interior_update": "cpu"}
        solver = p.generate()
        assert solver.placement.device["interior_update"] == "cpu"


class TestKernelChunking:
    """Tuner knob: split the interior kernel into per-component-row chunks."""

    def test_chunked_matches_unchunked(self, gpu_scenario):
        p1, _ = build_bte_problem(gpu_scenario)
        p1.enable_gpu()
        u_ref = p1.solve().solution()

        p2, _ = build_bte_problem(gpu_scenario)
        p2.enable_gpu()
        p2.extra["gpu_kernel_chunks"] = 4
        s2 = p2.solve()
        assert s2.target_name == "gpu"
        scale = np.max(np.abs(u_ref))
        assert np.max(np.abs(s2.solution() - u_ref)) < 1e-12 * scale

    def test_chunking_multiplies_launches(self, gpu_scenario):
        def launches(chunks):
            p, _ = build_bte_problem(gpu_scenario)
            p.enable_gpu()
            if chunks:
                p.extra["gpu_kernel_chunks"] = chunks
            solver = p.generate()
            solver.run()
            return len(solver.device.profiler.launches)

        assert launches(4) == 4 * launches(None)

    def test_chunks_change_the_cache_key(self, gpu_scenario):
        from repro.tune.signature import cache_key

        p1, _ = build_bte_problem(gpu_scenario)
        p1.enable_gpu()
        p2, _ = build_bte_problem(gpu_scenario)
        p2.enable_gpu()
        p2.extra["gpu_kernel_chunks"] = 4
        assert cache_key(p1, "gpu") != cache_key(p2, "gpu")

    def test_transfer_plan_classification(self, gpu_scenario):
        """'Finch will automatically determine what variables need to be
        updated and communicated during each step.'"""
        p, _ = build_bte_problem(gpu_scenario)
        p.enable_gpu()
        solver = p.generate()
        plan = solver.transfer_plan
        assert "geometry" in plan.static_h2d  # sent once
        assert "var_Io" in plan.h2d_each_step
        assert "var_beta" in plan.h2d_each_step
        assert "u" in plan.d2h_each_step
        assert "u" in plan.h2d_each_step  # the paper sends u both ways

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
        # u_new[sel] = u[sel] + DT * (source + div), finished in tile scratch
        for line in ("np.add(source, div, out=acc)", "np.multiply(acc, DT, out=acc)",
                     "np.add(us, acc, out=acc)", "u_new[sel] = acc"):
            assert line in src

    def test_kernel_work_estimates_attached(self, gpu_scenario):
        p, _ = build_bte_problem(gpu_scenario)
        p.enable_gpu()
        solver = p.generate()
        assert solver.kernel.flops_per_thread > 100
        assert solver.kernel.bytes_per_thread > 10
