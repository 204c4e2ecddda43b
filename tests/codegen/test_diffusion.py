"""The ``diffuse`` operator: heat conduction through the full pipeline."""

import numpy as np
import pytest

from repro.dsl.problem import Problem
from repro.fvm.boundary import BCKind
from repro.mesh.grid import structured_grid
from repro.symbolic.expr import FaceDistance
from repro.symbolic.operators import default_registry
from repro.symbolic.parser import parse


def heat_problem(shape, D=0.7, dt=None, nsteps=None, t_end=0.02, dim=None,
                 init=None, bcs=None):
    dim = dim or len(shape)
    n = shape[0]
    dt = dt or 0.2 * (1.0 / n) ** 2 / D
    nsteps = nsteps or int(round(t_end / dt))
    p = Problem("heat")
    p.set_domain(dim)
    p.set_steps(dt, nsteps)
    p.set_mesh(structured_grid(shape))
    p.add_variable("u")
    p.add_coefficient("D", D)
    regions = range(1, 2 * dim + 1)
    for r in regions:
        if bcs and r in bcs:
            kind, val = bcs[r]
            p.add_boundary("u", r, kind, val)
        else:
            p.add_boundary("u", r, BCKind.DIRICHLET, 0.0)
    p.set_initial("u", init if init is not None else 0.0)
    p.set_conservation_form("u", "surface(diffuse(D, u))")
    return p


class TestOperatorExpansion:
    def test_diffuse_expands_to_two_point_flux(self):
        reg = default_registry()
        from repro.symbolic.expr import Call, Sym

        out = reg.expand_call(Call("diffuse", Sym("D"), Sym("u")))
        s = str(out)
        assert "CELL2_u" in s and "CELL1_u" in s
        assert "FACEDIST" in s

    def test_facedist_is_singleton_leaf(self):
        assert FaceDistance() == FaceDistance()
        assert hash(FaceDistance()) == hash(FaceDistance())


class TestHeatEquationAccuracy:
    def test_1d_sine_decay_rate(self):
        D, t_end = 0.7, 0.02
        solver = heat_problem((64,), D=D, t_end=t_end,
                              init=lambda x: np.sin(np.pi * x[:, 0])).solve()
        x = solver.state.mesh.cell_centroids[:, 0]
        exact = np.exp(-D * np.pi**2 * t_end) * np.sin(np.pi * x)
        assert np.abs(solver.solution()[0] - exact).max() < 2e-3

    def test_spatial_convergence_second_order(self):
        D, t_end = 0.7, 0.02
        dt = 0.2 * (1.0 / 128) ** 2 / D  # fixed fine step isolates space error
        errors = []
        for n in (8, 16, 32):
            solver = heat_problem((n,), D=D, dt=dt, t_end=t_end,
                                  init=lambda x: np.sin(np.pi * x[:, 0])).solve()
            x = solver.state.mesh.cell_centroids[:, 0]
            exact = np.exp(-D * np.pi**2 * t_end) * np.sin(np.pi * x)
            errors.append(np.abs(solver.solution()[0] - exact).max())
        order = np.log2(errors[0] / errors[2]) / 2
        assert order > 1.8

    def test_2d_steady_state_linear_profile(self):
        """Dirichlet 0/1 on opposite walls, insulated sides: steady solution
        is the linear ramp (exact for the two-point flux)."""
        p = heat_problem(
            (16, 4), D=1.0, dt=5e-4, nsteps=4000, dim=2,
            bcs={
                1: (BCKind.DIRICHLET, 0.0),
                2: (BCKind.DIRICHLET, 1.0),
                3: (BCKind.NEUMANN0, None),
                4: (BCKind.NEUMANN0, None),
            },
        )
        solver = p.solve()
        x = solver.state.mesh.cell_centroids[:, 0]
        assert np.abs(solver.solution()[0] - x).max() < 1e-6

    def test_maximum_principle(self):
        """Diffusion cannot create new extrema (monotone two-point scheme
        under the dt restriction)."""
        rng = np.random.default_rng(3)
        init = rng.random(16 * 16)
        p = heat_problem((16, 16), D=1.0, dim=2, nsteps=200,
                         init=init.reshape(1, -1).repeat(1, axis=0)[0])
        # pass a full-field initial condition
        p.initial_values["u"] = init[None, :].copy()
        solver = p.solve()
        sol = solver.solution()[0]
        assert sol.max() <= init.max() + 1e-12
        assert sol.min() >= 0.0 - 1e-12  # walls at 0

    def test_conservation_with_insulated_walls(self):
        """All-Neumann box: total heat is conserved exactly."""
        rng = np.random.default_rng(5)
        init = rng.random(12 * 12) + 1.0
        p = heat_problem(
            (12, 12), D=1.0, dim=2, nsteps=100,
            bcs={r: (BCKind.NEUMANN0, None) for r in (1, 2, 3, 4)},
        )
        p.initial_values["u"] = init[None, :].copy()
        solver = p.solve()
        V = solver.state.geom.volume
        assert float(solver.solution()[0] @ V) == pytest.approx(
            float(init @ V), rel=1e-13
        )


class TestDiffusionOnGPU:
    def test_gpu_target_supports_facedist(self):
        p = heat_problem((24, 24), D=1.0, dim=2, nsteps=20,
                         init=lambda x: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]))
        ref = p.solve().solution()
        p2 = heat_problem((24, 24), D=1.0, dim=2, nsteps=20,
                          init=lambda x: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]))
        p2.enable_gpu()
        p2.extra["gpu_force_offload"] = True
        out = p2.solve()
        # the interior faces' geometry and divergence are the state's
        # geometry's, built once: the kernel is a loop over those faces
        kernel = out.source[out.source.index("def interior_kernel("):].split("\ndef ")[0]
        assert "faces = geom.face_loop('interior')" in kernel
        assert out.tile.shape == "faces" and "ghost, overrides = None, ()" in kernel
        assert np.max(np.abs(out.solution() - ref)) < 1e-12
