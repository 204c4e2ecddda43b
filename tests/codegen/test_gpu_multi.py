"""Multi-GPU distributed target (the paper's Fig. 7 configuration)."""

import numpy as np
import pytest

from repro.bte.problem import build_bte_problem, hotspot_scenario
from repro.util.errors import CodegenError


@pytest.fixture(scope="module")
def case():
    scenario = hotspot_scenario(nx=10, ny=10, ndirs=8, n_freq_bands=6,
                                dt=1e-12, nsteps=5)
    problem, _ = build_bte_problem(scenario)
    ref = problem.solve()
    return scenario, ref.solution(), ref.state.extra["T"]


class TestCorrectness:
    @pytest.mark.parametrize("ndevices", [2, 4, 7])
    def test_matches_serial(self, case, ndevices):
        scenario, u_ref, T_ref = case
        problem, _ = build_bte_problem(scenario)
        problem.enable_gpu()
        problem.set_partitioning("bands", ndevices, index="b")
        solver = problem.solve()
        assert solver.target_name == "gpu_distributed"
        scale = np.max(np.abs(u_ref))
        assert np.max(np.abs(solver.solution() - u_ref)) < 1e-12 * scale
        assert np.allclose(solver.state.extra["T"], T_ref, atol=1e-9)

    def test_requires_band_partitioning(self, case):
        scenario, _, _ = case
        problem, _ = build_bte_problem(scenario)
        problem.enable_gpu()
        problem.set_partitioning("cells", 2)
        with pytest.raises(CodegenError, match="band partitioning"):
            problem.generate(target="gpu_distributed")


class TestExecutionStructure:
    @pytest.fixture(scope="class")
    def solved(self, case):
        scenario, _, _ = case
        problem, _ = build_bte_problem(scenario)
        problem.enable_gpu()
        problem.set_partitioning("bands", 3, index="b")
        solver = problem.solve()
        return scenario, solver

    def test_one_device_per_rank(self, solved):
        scenario, solver = solved
        profilers = solver.state.device_profilers
        assert len(profilers) == 3
        assert len({id(p) for p in profilers}) == 3
        for profiler in profilers:
            assert profiler.report("I_interior_step").n_launches == scenario.nsteps
        assert "device_profile" not in solver.state.spmd_result.results[0]

    def test_phase_accounting(self, solved):
        _, solver = solved
        phases = solver.state.spmd_result.phase_breakdown()
        assert phases["solve for intensity"] > 0
        assert phases["temperature update"] > 0
        assert phases["communication"] > 0

    def test_no_point_to_point_messages(self, solved):
        """Band partitioning across GPUs: only the reduction couples ranks
        (Sec. III-E's argument for the strategy)."""
        _, solver = solved
        assert all(
            s.messages_sent == 0 for s in solver.state.spmd_result.stats
        )

    def test_kernel_is_band_restricted(self, solved):
        _, solver = solved
        assert "u_new, buffer, sel=None):" in solver.source
        assert "dev.launch(KERNEL, ndof, state, *kernel_args, own," in solver.source
        assert "len(own) * NCELLS" in solver.source

    def test_auto_target_selection(self, case):
        scenario, _, _ = case
        problem, _ = build_bte_problem(scenario)
        problem.enable_gpu()
        problem.set_partitioning("bands", 2, index="b")
        solver = problem.generate()  # no explicit target
        assert solver.target_name == "gpu_distributed"
