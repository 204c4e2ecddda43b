"""CPU serial target: correctness against analytic solutions, source form."""

import numpy as np
import pytest

from repro.dsl.problem import Problem
from repro.fvm.boundary import BCKind
from repro.mesh.grid import structured_grid
from repro.util.errors import CodegenError


def decay_problem(stepper="euler", dt=1e-3, nsteps=100, k=3.0):
    p = Problem("decay")
    p.set_domain(2)
    p.set_stepper(stepper)
    p.set_steps(dt, nsteps)
    p.set_mesh(structured_grid((3, 3)))
    p.add_variable("u")
    p.add_coefficient("k", k)
    for r in (1, 2, 3, 4):
        p.add_boundary("u", r, BCKind.NEUMANN0)
    p.set_initial("u", 2.0)
    p.set_conservation_form("u", "-k*u")
    return p


def advection_problem(nx=24, cfl=0.4, t_end=0.5):
    p = Problem("advect")
    p.set_domain(2)
    dt = cfl / nx
    p.set_steps(dt, int(round(t_end / dt)))
    p.set_mesh(structured_grid((nx, 4)))
    p.add_variable("u")
    p.add_coefficient("bx", 1.0)
    p.add_coefficient("by", 0.0)
    p.add_boundary("u", 1, BCKind.DIRICHLET, 1.0)
    for r in (2, 3, 4):
        p.add_boundary("u", r, BCKind.NEUMANN0)
    p.set_initial("u", 0.0)
    p.set_conservation_form("u", "-surface(upwind([bx;by], u))")
    return p


class TestDecayAccuracy:
    def test_euler_matches_discrete_exact(self):
        p = decay_problem()
        solver = p.solve()
        # forward Euler is exactly (1 - k dt)^n
        expected = 2.0 * (1 - 3.0 * 1e-3) ** 100
        assert np.allclose(solver.solution(), expected, rtol=1e-12)

    def test_rk4_near_machine_accuracy(self):
        p = decay_problem(stepper="rk4", dt=1e-2, nsteps=100)
        solver = p.solve()
        assert np.allclose(solver.solution(), 2.0 * np.exp(-3.0), rtol=1e-9)

    def test_rk2_better_than_euler(self):
        exact = 2.0 * np.exp(-3.0 * 0.1)
        e_eul = abs(decay_problem("euler", 1e-2, 10).solve().solution()[0, 0] - exact)
        e_rk2 = abs(decay_problem("rk2", 1e-2, 10).solve().solution()[0, 0] - exact)
        assert e_rk2 < e_eul / 5


class TestAdvection:
    def test_steady_state_fills_domain(self):
        solver = advection_problem(t_end=4.0).solve()
        assert np.allclose(solver.solution(), 1.0, atol=1e-6)

    def test_upwind_is_monotone(self):
        """First-order upwind cannot create over/undershoots for this data."""
        solver = advection_problem(t_end=0.4).solve()
        sol = solver.solution()
        assert sol.min() >= -1e-12
        assert sol.max() <= 1.0 + 1e-12

    def test_front_position(self):
        t_end = 0.5
        solver = advection_problem(nx=48, t_end=t_end).solve()
        mesh = solver.state.mesh
        sol = solver.solution()[0]
        x = mesh.cell_centroids[:, 0]
        # well upstream of the front: filled; well downstream: empty
        assert sol[x < t_end - 0.15].min() > 0.9
        assert sol[x > t_end + 0.15].max() < 0.1


class TestAssemblyLoops:
    def test_loop_orders_equivalent(self, tiny_scenario):
        from repro.bte.problem import build_bte_problem

        results = []
        for order in (["cells"], ["b", "cells", "d"], ["d", "b", "cells"]):
            p, _ = build_bte_problem(tiny_scenario)
            p.set_assembly_loops([o for o in order])
            results.append(p.solve().solution())
        assert np.allclose(results[0], results[1])
        assert np.allclose(results[0], results[2])

    def test_component_blocks_structure(self, tiny_scenario):
        from repro.bte.problem import build_bte_problem

        p, _ = build_bte_problem(tiny_scenario)
        p.set_assembly_loops(["b", "cells", "d"])
        solver = p.generate()
        blocks = solver.state.comp_blocks
        # one block per (polarised) band value
        nbands = p.entities.indices["b"].size
        assert len(blocks) == nbands
        total = sum(len(b) for b in blocks)
        assert total == solver.state.ncomp


class TestGeneratedSource:
    def test_source_is_readable_and_commented(self):
        solver = decay_problem().generate()
        src = solver.source
        assert '"""' in src
        assert "# RHS volume" in src
        assert "IR:" in src
        assert "def compute_rhs" in src
        assert "def run_steps" in src

    def test_source_recompile_roundtrip(self):
        solver = decay_problem().generate()
        before = solver.solution().copy()
        solver.recompile()
        solver.run(10)
        assert solver.state.step_index == 10

    def test_hand_modification_of_source(self):
        """The paper: generated code can be hand-modified; recompile picks
        the edit up."""
        p = decay_problem(nsteps=1)
        solver = p.generate()
        solver.source = solver.source.replace(
            "state.time += state.dt", "state.time += 2 * state.dt"
        )
        solver.recompile()
        solver.run(1)
        assert solver.state.time == pytest.approx(2e-3)

    def test_hand_modification_of_the_loop(self):
        """The loop comes from one skeleton for every target; in the
        generated file it is still plain text that can be edited."""
        solver = decay_problem().generate()
        assert solver.source.count("state.end_step()") == 1
        solver.source = solver.source.replace(
            "state.end_step()",
            "state.end_step()\n        state.extra['laps'] = state.extra.get('laps', 0) + 1")
        solver.recompile()
        solver.run(3)
        assert solver.state.extra["laps"] == 3

    def test_missing_functions_detected(self):
        solver = decay_problem().generate()
        solver.source = "x = 1\n"
        with pytest.raises(CodegenError, match="step_once"):
            solver.recompile()

    def test_syntax_error_reported(self):
        solver = decay_problem().generate()
        solver.source = "def step_once(:\n    pass\n"
        with pytest.raises(CodegenError, match="does not compile"):
            solver.recompile()


class TestRunControls:
    def test_step_advances_time(self):
        solver = decay_problem().generate()
        solver.step()
        assert solver.state.step_index == 1
        assert solver.state.time == pytest.approx(1e-3)

    def test_run_partial_steps(self):
        solver = decay_problem().generate()
        solver.run(7)
        assert solver.state.step_index == 7

    def test_timers_record_solve_phase(self):
        solver = decay_problem().generate()
        solver.run(5)
        assert solver.state.timers.total("solve") > 0

    def test_nan_detection(self):
        # unstable dt: k*dt >> 2 blows up
        p = decay_problem(dt=10.0, nsteps=500, k=50.0)
        from repro.util.errors import SolverError

        with pytest.raises(SolverError, match="non-finite"):
            p.solve()
