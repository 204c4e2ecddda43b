"""Cross-target equivalence: every generation path computes the same physics.

The paper's value proposition is that switching targets (CPU loops, band or
cell SPMD, hybrid GPU) "required almost no additional programming effort" —
which is only meaningful if all targets agree.  These tests run the same
problems through every path and demand bitwise agreement for the BTE (whose
step has one shape on every target) and (near-)bitwise agreement for a
generic advection-reaction problem (whose two-sided body the device path
splits into interior and boundary parts).
"""

import numpy as np
import pytest

from repro.bte.problem import build_bte_problem, hotspot_scenario
from repro.dsl.problem import Problem
from repro.fvm.boundary import BCKind
from repro.mesh.grid import structured_grid


@pytest.fixture(scope="module")
def bte_case():
    scenario = hotspot_scenario(nx=12, ny=12, ndirs=8, n_freq_bands=6,
                                dt=1e-12, nsteps=6)
    problem, _ = build_bte_problem(scenario)
    ref = problem.solve()
    return scenario, ref.solution(), ref.state.extra["T"]


class TestBTEAcrossTargets:
    @pytest.mark.parametrize(
        "configure",
        [
            pytest.param(lambda p: p.set_partitioning("bands", 2, index="b"), id="bands2"),
            pytest.param(lambda p: p.set_partitioning("bands", 5, index="b"), id="bands5"),
            pytest.param(lambda p: p.set_partitioning("cells", 2), id="cells2"),
            pytest.param(lambda p: p.set_partitioning("cells", 5), id="cells5"),
        ],
    )
    def test_distributed_targets(self, bte_case, configure):
        scenario, u_ref, T_ref = bte_case
        problem, _ = build_bte_problem(scenario)
        configure(problem)
        solver = problem.solve()
        assert np.array_equal(solver.solution(), u_ref)
        assert np.array_equal(solver.state.extra["T"], T_ref)

    def test_gpu_target(self, bte_case):
        scenario, u_ref, T_ref = bte_case
        problem, _ = build_bte_problem(scenario)
        problem.enable_gpu()
        problem.extra["gpu_force_offload"] = True
        solver = problem.solve()
        # one step shape on every target since the fold through the
        # divergence: the device path agrees to the last bit too
        assert np.array_equal(solver.solution(), u_ref)
        assert np.array_equal(solver.state.extra["T"], T_ref)


def advection_diffusionless_problem(nsteps=40):
    p = Problem("xtarget-advect")
    p.set_domain(2)
    p.set_steps(0.4 / 16, nsteps)
    p.set_mesh(structured_grid((16, 8)))
    p.add_variable("u")
    p.add_coefficient("bx", 1.0)
    p.add_coefficient("by", 0.5)
    p.add_coefficient("k", 0.3)
    p.add_boundary("u", 1, BCKind.DIRICHLET, 1.0)
    p.add_boundary("u", 3, BCKind.DIRICHLET, 0.5)
    p.add_boundary("u", 2, BCKind.NEUMANN0)
    p.add_boundary("u", 4, BCKind.NEUMANN0)
    p.set_initial("u", 0.0)
    p.set_conservation_form("u", "-k*u - surface(upwind([bx;by], u))")
    return p


class TestGenericProblemAcrossTargets:
    def test_cell_distribution_matches_serial(self):
        ref = advection_diffusionless_problem().solve().solution()
        p = advection_diffusionless_problem()
        p.set_partitioning("cells", 3)
        assert np.array_equal(p.solve().solution(), ref)

    def test_gpu_matches_serial(self):
        ref = advection_diffusionless_problem().solve().solution()
        p = advection_diffusionless_problem()
        p.enable_gpu()
        p.extra["gpu_force_offload"] = True
        out = p.solve().solution()
        assert np.max(np.abs(out - ref)) < 1e-12 * max(np.max(np.abs(ref)), 1.0)

    def test_scalar_problem_has_no_band_strategy(self):
        p = advection_diffusionless_problem()
        from repro.util.errors import ConfigError

        p.set_partitioning("bands", 2, index="b")
        with pytest.raises(ConfigError):
            p.validate()
