"""Function coefficients: space- and time-dependent, end to end.

Coefficients "defined by a function of space-time coordinates" are part of
the paper's entity model; these tests drive them through generation and
solving.
"""

import numpy as np
import pytest

from repro.dsl.problem import Problem
from repro.fvm.boundary import BCKind
from repro.mesh.grid import structured_grid


def problem_with_source(source_fn, nsteps=50, dt=1e-3):
    p = Problem("fcoef")
    p.set_domain(2)
    p.set_steps(dt, nsteps)
    p.set_mesh(structured_grid((6, 6)))
    p.add_variable("u")
    p.add_coefficient("q", source_fn)
    for r in (1, 2, 3, 4):
        p.add_boundary("u", r, BCKind.NEUMANN0)
    p.set_initial("u", 0.0)
    p.set_conservation_form("u", "q")
    return p


class TestSpatialFunction:
    def test_du_dt_equals_q_of_x(self):
        p = problem_with_source(lambda x: x[:, 0] + 2.0 * x[:, 1])
        solver = p.solve()
        c = solver.state.mesh.cell_centroids
        expected = (c[:, 0] + 2.0 * c[:, 1]) * p.config.dt * p.config.nsteps
        assert np.allclose(solver.solution()[0], expected, rtol=1e-12)

    def test_source_in_generated_code(self):
        p = problem_with_source(lambda x: x[:, 0])
        src = p.generate().source
        assert "fcoef_q" in src
        assert "eval_fcoef" in src


class TestTimeDependentFunction:
    def test_f_of_x_and_t(self):
        """du/dt = t  ->  u(T) = T^2 / 2 (midpoint-in-time via Euler sums)."""
        p = problem_with_source(lambda x, t: np.full(len(x), t), nsteps=100)
        solver = p.solve()
        dt, n = p.config.dt, p.config.nsteps
        # forward Euler sums q(t_k) for k = 0..n-1
        expected = dt * dt * (n * (n - 1) / 2)
        assert np.allclose(solver.solution()[0], expected, rtol=1e-12)

    def test_space_time_product(self):
        p = problem_with_source(lambda x, t: x[:, 0] * (1.0 + t), nsteps=20)
        solver = p.solve()
        c = solver.state.mesh.cell_centroids
        dt, n = p.config.dt, p.config.nsteps
        time_sum = sum(1.0 + k * dt for k in range(n)) * dt
        assert np.allclose(solver.solution()[0], c[:, 0] * time_sum, rtol=1e-12)


class TestArityIsReadFromTheSignature:
    @pytest.mark.parametrize("target", ["cpu", "interp"])
    def test_a_type_error_raised_inside_f_of_x_t_is_the_one_reported(self, target):
        """The arity is resolved once, when the coefficient is declared — not
        by calling ``f(x, t)`` and, on ``TypeError``, ``f(x)``: that reported
        "missing 1 required positional argument: 't'" for a bug in the body."""
        def q(x, t):
            raise TypeError("unsupported operand in the user's own body")

        with pytest.raises(TypeError, match="the user's own body"):
            problem_with_source(q, nsteps=1).solve(target=target)

    def test_defaulted_and_variadic_time_parameters_are_passed_the_time(self):
        for q in (lambda x, t=0.0: np.full(len(x), t),
                  lambda *args: np.full(len(args[0]), args[1])):
            solver = problem_with_source(q, nsteps=3).solve()
            dt = solver.state.dt
            assert np.allclose(solver.solution()[0], dt * (0 + dt + 2 * dt), rtol=1e-12)


class TestFunctionCoefficientInFlux:
    def test_spatially_varying_velocity(self):
        """Advection with b(x) = 1 + x: the generated code evaluates the
        coefficient on *face* centres for the surface term."""
        p = Problem("varvel")
        p.set_domain(2)
        nx = 24
        p.set_steps(0.2 / nx / 2.0, 600)  # CFL against b_max = 2; to steady
        p.set_mesh(structured_grid((nx, 3)))
        p.add_variable("u")
        p.add_coefficient("bx", lambda x: 1.0 + x[:, 0])
        p.add_coefficient("zero", 0.0)
        p.add_boundary("u", 1, BCKind.DIRICHLET, 1.0)
        for r in (2, 3, 4):
            p.add_boundary("u", r, BCKind.NEUMANN0)
        p.set_initial("u", 0.0)
        p.set_conservation_form("u", "-surface(upwind([bx;zero], u))")
        solver = p.solve()
        assert "fcoef_bx_face" in solver.source
        # steady state of d(bu)/dx = 0 with u(0)=1, b(0)=1: upwinding makes
        # the *discrete* steady solution exactly u_i = 1/b(x at the cell's
        # right face) — first-order consistent with the continuum 1/b(x)
        sol = solver.solution()[0].reshape(3, nx).mean(axis=0)
        x_right = (np.arange(nx) + 1) / nx
        exact_discrete = 1.0 / (1.0 + x_right)
        assert np.abs(sol - exact_discrete).max() < 1e-6
        assert np.abs(sol - 1.0 / (1.0 + (x_right - 0.5 / nx))).max() < 0.05


class TestDevicePlacedInterior:
    """A function coefficient is evaluated per step on the host; a plan that
    puts ``interior_update`` on the device fails at build, naming it."""

    def test_forced_offload_names_the_coefficient(self):
        from repro.util.errors import CodegenError

        p = problem_with_source(lambda x, t: x[:, 0] * (1.0 + t), nsteps=2)
        p.enable_gpu()
        p.extra["gpu_force_offload"] = True
        with pytest.raises(CodegenError, match="function coefficient 'q'") as err:
            p.generate()
        assert err.value.code == "RPR140"

    def test_gpu_distributed_names_the_coefficient(self):
        from tests.codegen.test_fold_selection import indexed_problem

        from repro.util.errors import CodegenError

        p = indexed_problem(
            "(Io[b] - I[d,b]) / tau[b] - surface(q * vg[b] * upwind([Sx[d];Sy[d]], I[d,b]))",
            q=lambda x, t: 1.0 + x[:, 0] + 10.0 * t)
        p.enable_gpu()
        p.set_partitioning("bands", 2, index="b")
        with pytest.raises(CodegenError, match="function coefficient 'q'") as err:
            p.generate()
        assert err.value.code == "RPR140"

    def test_unforced_tiny_problem_keeps_solving_on_the_host(self):
        q = lambda x, t: x[:, 0] * (1.0 + t)  # noqa: E731
        cpu = problem_with_source(q, nsteps=5).solve()
        p = problem_with_source(q, nsteps=5)
        p.enable_gpu()
        solver = p.solve()
        assert solver.target_name == "gpu"
        assert solver.placement.device["interior_update"] == "cpu"
        assert solver.solution().tobytes() == cpu.solution().tobytes()
