"""Second-order (MUSCL) flux reconstruction via ``flux_order(2)``.

The paper: "Since we are using the default flux reconstruction order of
one, this will generate a first-order upwind approximation" — implying the
order is configurable.  These tests cover the order-2 path: accuracy gain,
TVD behaviour, reduction to order 1 where the limiter engages, and the
CPU-only guard.
"""

import math

import numpy as np
import pytest

from repro.dsl.entities import CELL, VAR_ARRAY
from repro.dsl.problem import Problem
from repro.fvm.boundary import BCKind
from repro.fvm.geometry import FVGeometry
from repro.mesh.grid import perturbed_grid, structured_grid, triangulated_grid
from repro.util.errors import CodegenError, ConfigError


def advection_problem(nx, order, stepper="euler", t_end=0.25, init=None):
    p = Problem(f"fluxorder-{nx}-{order}")
    p.set_domain(2)
    dt = 0.3 / nx
    p.set_steps(dt, int(round(t_end / dt)))
    p.set_stepper(stepper)
    p.set_mesh(structured_grid((nx, 3), [(0.0, 1.0), (0.0, 3.0 / nx)]))
    p.add_variable("u")
    p.add_coefficient("bx", 1.0)
    p.add_coefficient("by", 0.0)
    p.add_boundary("u", 1, BCKind.DIRICHLET, 0.0)
    for r in (2, 3, 4):
        p.add_boundary("u", r, BCKind.NEUMANN0)
    x0, s = 0.3, 0.12
    p.set_initial(
        "u", init if init is not None else (lambda c: np.exp(-(((c[:, 0] - x0) / s) ** 2)))
    )
    p.set_flux_order(order)
    p.set_conservation_form("u", "-surface(upwind([bx;by], u))")
    return p


#: directions (x components; the strip's y faces carry no flux), bands
SX, VG, TAU, IO = [1.0, -0.5, 0.75, -1.0], [1.0, 0.6, 0.3], [0.5, 1.0, 2.0], [0.8, 1.0, 1.2]


def bump(x):
    """A smooth pulse of compact support: the inflow ghosts stay exact."""
    return np.cos(0.5 * np.pi * np.clip((x - 0.5) / 0.35, -1.0, 1.0)) ** 4


def relaxation_problem(nx, t_end=0.125):
    """The strip of :func:`advection_problem` with the BTE's indexed shape:
    ``I[d,b]`` advected at ``vg[b] * Sx[d]`` and relaxing to a constant
    ``Io[b]`` — a surface statement that folds through the divergence.  Its
    exact solution is ``Io + exp(-t/tau) * bump(x - vg * Sx * t)``, with
    DIRICHLET ``Io`` ghosts; ``dt`` is proportional to ``h``."""
    p = Problem(f"relaxation-{nx}")
    p.set_domain(2)
    dt = 0.5 / nx
    p.set_steps(dt, int(round(t_end / dt)))
    p.set_mesh(structured_grid((nx, 3), [(0.0, 1.0), (0.0, 3.0 / nx)]))
    d = p.add_index("d", (1, len(SX)))
    b = p.add_index("b", (1, len(VG)))
    p.add_variable("I", VAR_ARRAY, CELL, index=[d, b])
    p.add_variable("Io", VAR_ARRAY, CELL, index=[b])
    p.add_coefficient("Sx", np.array(SX), VAR_ARRAY, index=[d])
    p.add_coefficient("Sy", np.zeros(len(SX)), VAR_ARRAY, index=[d])
    p.add_coefficient("vg", np.array(VG), VAR_ARRAY, index=[b])
    p.add_coefficient("tau", np.array(TAU), VAR_ARRAY, index=[b])
    io = np.array([IO[bi] for _ in SX for bi in range(len(VG))])
    for r in (1, 2, 3, 4):
        p.add_boundary("I", r, BCKind.DIRICHLET, io)
    x = p.mesh.cell_centroids[:, 0]
    p.initial_values["I"] = io[:, None] + bump(x)[None, :]
    p.initial_values["Io"] = np.repeat(np.array(IO)[:, None], len(x), axis=1)
    p.set_conservation_form(
        "I", "(Io[b] - I[d,b]) / tau[b] - surface(vg[b] * upwind([Sx[d];Sy[d]], I[d,b]))")
    return p


def relaxation_error(solver) -> float:
    """L1 error against the exact solution at the solver's time."""
    t, x = solver.state.time, solver.state.mesh.cell_centroids[:, 0]
    exact = np.array([IO[b] + math.exp(-t / TAU[b]) * bump(x - VG[b] * sx * t)
                      for sx in SX for b in range(len(VG))])
    return float(np.abs(solver.solution() - exact).mean())


def l1_error(problem):
    solver = problem.solve()
    x = solver.state.mesh.cell_centroids[:, 0]
    cfg = problem.config
    exact = np.exp(-(((x - 0.3 - cfg.nsteps * cfg.dt) / 0.12) ** 2))
    return float(np.abs(solver.solution()[0] - exact).mean()), solver


def on_gpu(finish_step):
    def configure(p):
        p.enable_gpu()
        p.extra.update(gpu_force_offload=True, placement_override={"finish_step": finish_step})
    return configure


#: every Euler target, and the gpu target under both finish_step placements
TARGETS = {
    "gpu_resident": on_gpu("gpu"),
    "gpu_round_trip": on_gpu("cpu"),
    "cells2": lambda p: p.set_partitioning("cells", 2),
    "bands2": lambda p: p.set_partitioning("bands", 2, index="b"),
    "gpu_distributed2": lambda p: (p.enable_gpu(), p.set_partitioning("bands", 2, index="b")),
}


class TestConvergenceAcrossTargets:
    """An absolute anchor for the cross-target contract: bit-identity says
    the targets agree, this says what they agree on converges at first
    order.  A bug applied alike on every target passes the first and
    fails this."""

    def test_first_order_and_every_target_equals_cpu_bit_for_bit(self):
        errors = []
        for nx in (16, 32, 64):
            cpu = relaxation_problem(nx).solve()
            assert cpu.tile is not None  # the folded tile, as C
            errors.append(relaxation_error(cpu))
            for name, configure in TARGETS.items():
                p = relaxation_problem(nx)
                configure(p)
                solver = p.solve()
                assert solver.solution().tobytes() == cpu.solution().tobytes(), (name, nx)
                assert relaxation_error(solver) == errors[-1]
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert min(orders) >= 0.9, (errors, orders)


class TestGreenGaussGradient:
    def test_exact_for_linear_fields(self):
        geom = FVGeometry(structured_grid((6, 5)))
        u = 2.0 * geom.cell_center[:, 0] - 3.0 * geom.cell_center[:, 1]
        ghost = 2.0 * geom.center[geom.bfaces, 0] - 3.0 * geom.center[geom.bfaces, 1]
        u1, u2 = geom.gather_sides(u, ghost)
        ubar = 0.5 * (u1 + u2)
        ubar[geom.bfaces] = u2[geom.bfaces]  # ghosts live at the face
        gx, gy = geom.green_gauss_gradient(ubar)
        assert np.allclose(gx, 2.0, atol=1e-10)
        assert np.allclose(gy, -3.0, atol=1e-10)


class TestAccuracy:
    def test_order2_beats_order1(self):
        e1, _ = l1_error(advection_problem(60, 1))
        e2, _ = l1_error(advection_problem(60, 2, stepper="rk2"))
        assert e2 < 0.4 * e1

    def test_convergence_rate_above_1p5(self):
        errs = []
        for n in (40, 80, 160):
            e, _ = l1_error(advection_problem(n, 2, stepper="rk2"))
            errs.append(e)
        rate = math.log2(errs[1] / errs[2])
        assert rate > 1.5

    def test_first_order_unchanged_by_default(self):
        p = advection_problem(40, 1)
        assert p.config.flux_order == 1
        assert "conditional" in p.generate().source


class TestTVD:
    def test_square_wave_stays_monotone(self):
        """The minmod limiter must suppress the oscillations an unlimited
        second-order scheme would produce at discontinuities.  (Forward
        Euler here: the TVD property of MUSCL+minmod is tied to SSP time
        stepping; the midpoint RK2 can admit ~1 % overshoots.)"""
        init = lambda c: np.where((c[:, 0] > 0.2) & (c[:, 0] < 0.45), 1.0, 0.0)  # noqa: E731
        p = advection_problem(80, 2, stepper="euler", init=init)
        solver = p.solve()
        sol = solver.solution()
        assert sol.max() <= 1.0 + 1e-10
        assert sol.min() >= -1e-10

    def test_square_wave_sharper_than_first_order(self):
        init = lambda c: np.where((c[:, 0] > 0.2) & (c[:, 0] < 0.45), 1.0, 0.0)  # noqa: E731

        def width(order):
            p = advection_problem(80, order, stepper="euler", init=init)
            sol = p.solve().solution()[0]
            return int(np.sum((sol > 0.05) & (sol < 0.95))) / 3  # smeared cells/row

        assert width(2) < width(1)


class TestGeneratedSource:
    def test_order2_emits_kernel_call(self):
        p = advection_problem(20, 2)
        src = p.generate().source
        assert "kernels.muscl_flux(geom," in src
        assert "RECONSTRUCTmuscl" in src  # the classified term comment

    def test_gpu_targets_reject_order2(self):
        p = advection_problem(24, 2)
        p.enable_gpu()
        p.extra["gpu_force_offload"] = True
        with pytest.raises(CodegenError, match="CPU-only"):
            p.generate()

    def test_invalid_order_rejected(self):
        p = advection_problem(20, 1)
        with pytest.raises(ConfigError):
            p.set_flux_order(3)

    def test_distributed_supports_order2(self):
        """Cell partitioning widens the halo to two layers for the wider
        MUSCL stencil and still matches the serial solver bitwise."""
        p1 = advection_problem(24, 2)
        ref = p1.solve().solution()
        p2 = advection_problem(24, 2)
        p2.set_partitioning("cells", 3)
        solver = p2.solve()
        assert np.array_equal(solver.solution(), ref)
        # each ghost region really is two cells deep
        layout = solver.layout
        adj = p2.mesh.cell_neighbors()
        for r in range(3):
            owned = set(layout.owned[r].tolist())
            depth2 = {g for g in layout.ghosts[r]
                      if not any(nb in owned for nb in adj[int(g)])}
            assert depth2, "no second-layer ghosts found"


class TestBTEWithOrder2:
    def test_bte_runs_and_stays_physical(self, tiny_scenario):
        from repro.bte.problem import build_bte_problem

        problem, model = build_bte_problem(tiny_scenario)
        problem.set_flux_order(2)
        solver = problem.solve()
        T = solver.state.extra["T"]
        assert np.all(np.isfinite(T))
        assert T.min() >= tiny_scenario.T0 - 1e-6

    def test_order2_bte_differs_but_stays_close(self):
        from repro.bte.problem import build_bte_problem, hotspot_scenario

        sc = hotspot_scenario(nx=8, ny=8, ndirs=8, n_freq_bands=5,
                              dt=1e-12, nsteps=20)
        sc.sigma = 150e-6  # wide spot so the coarse grid sees a transient
        p1, _ = build_bte_problem(sc)
        u1 = p1.solve().solution()
        p2, _ = build_bte_problem(sc)
        p2.set_flux_order(2)
        u2 = p2.solve().solution()
        # genuinely different discretisation, same magnitude
        assert not np.array_equal(u1, u2)
        assert np.abs(u2 - u1).max() < 0.1 * np.abs(u1).max()


# -- an oblique-ordinate manufactured solution on the meshes the DSL accepts --
#: oblique ordinates (no axis-aligned one), bands
OBLIQUE = [(0.8, 0.6), (-0.6, 0.8), (-0.8, -0.6), (0.28, -0.96)]
MESHES = {
    "structured": lambda n: structured_grid((n, n)),
    "perturbed": lambda n: perturbed_grid((n, n), amplitude=0.2, seed=3),
    "triangulated": lambda n: triangulated_grid((n, n)),
}


def bump2d(x, y):
    """A smooth pulse of compact support inside the unit square."""
    r = np.hypot(x - 0.45, y - 0.5) / 0.3
    return np.cos(0.5 * np.pi * np.clip(r, 0.0, 1.0)) ** 4


def oblique_problem(kind: str, n: int, t_end: float = 0.1, order: int = 1,
                    stepper: str = "euler") -> Problem:
    """``I[d,b]`` advected at ``vg[b] * S[d]`` along oblique ordinates and
    relaxing to ``Io[b]``: exact ``Io + exp(-t/tau) * bump(x - vg S t)``,
    with DIRICHLET ``Io`` ghosts the pulse never reaches.  On a structured
    or perturbed grid (the same numbering, moved nodes) the fold reads
    neighbours through offset entries; on a triangulated one through gather
    entries.  At flux ``order`` 2 the statement reads both sides of a face
    (MUSCL): it does not fold, and its tile is a loop over the faces (the
    limiter, which has no C form, evaluated over the sweep's rows first)."""
    p = Problem(f"oblique-{kind}-{n}")
    p.set_domain(2)
    dt = 0.2 / n
    p.set_steps(dt, int(round(t_end / dt)))
    p.set_stepper(stepper)
    p.set_flux_order(order)
    p.set_mesh(MESHES[kind](n))
    d = p.add_index("d", (1, len(OBLIQUE)))
    b = p.add_index("b", (1, 2))
    p.add_variable("I", VAR_ARRAY, CELL, index=[d, b])
    p.add_variable("Io", VAR_ARRAY, CELL, index=[b])
    p.add_coefficient("Sx", np.array([s[0] for s in OBLIQUE]), VAR_ARRAY, index=[d])
    p.add_coefficient("Sy", np.array([s[1] for s in OBLIQUE]), VAR_ARRAY, index=[d])
    p.add_coefficient("vg", np.array(VG[:2]), VAR_ARRAY, index=[b])
    p.add_coefficient("tau", np.array(TAU[:2]), VAR_ARRAY, index=[b])
    io = np.array([IO[bi] for _ in OBLIQUE for bi in range(2)])
    for r in (1, 2, 3, 4):
        p.add_boundary("I", r, BCKind.DIRICHLET, io)
    x, y = p.mesh.cell_centroids.T
    p.initial_values["I"] = io[:, None] + bump2d(x, y)[None, :]
    p.initial_values["Io"] = np.repeat(np.array(IO[:2])[:, None], len(x), axis=1)
    p.set_conservation_form(
        "I", "(Io[b] - I[d,b]) / tau[b] - surface(vg[b] * upwind([Sx[d];Sy[d]], I[d,b]))")
    return p


def oblique_error(solver) -> float:
    """Volume-weighted L1 error against the exact solution."""
    t, (x, y) = solver.state.time, solver.state.mesh.cell_centroids.T
    exact = np.array([IO[b] + math.exp(-t / TAU[b]) * bump2d(x - VG[b] * sx * t,
                                                              y - VG[b] * sy * t)
                      for sx, sy in OBLIQUE for b in range(2)])
    volume = solver.state.geom.volume
    return float((np.abs(solver.solution() - exact) @ volume).mean() / volume.sum())


#: the Euler targets held to ``cpu`` bit for bit on the 2-D meshes
MESH_TARGETS = {
    "gpu": on_gpu("gpu"),
    "cells2": lambda p: p.set_partitioning("cells", 2),
    "cells3": lambda p: p.set_partitioning("cells", 3),
}


@pytest.mark.parametrize("kind", sorted(MESHES))
def test_oblique_ordinates_converge_at_first_order_on_every_target(kind):
    """Offset entries (structured, perturbed) and gather entries
    (triangulated) of the folded operator, on every Euler target bit for bit
    — cell ranks cut the mesh two and three ways, so halos meet at corners —
    and the interpreter to rounding: L1 order >= 0.9 (EXPERIMENTS.md, "The
    tile as C")."""
    errors = []
    for n in (32, 64):  # (16 -> 32 is still pre-asymptotic: 0.88 structured)
        cpu = oblique_problem(kind, n).solve()
        fold = cpu.state.tables(cpu.namespace["folded_tables"], "interior", divergence=True)[0]
        gathers = (fold.entries[:, 3] >= 0).any()
        assert gathers == (kind == "triangulated"), kind
        errors.append(oblique_error(cpu))
        for name, configure in MESH_TARGETS.items():
            p = oblique_problem(kind, n)
            configure(p)
            assert p.solve().solution().tobytes() == cpu.solution().tobytes(), (kind, name, n)
        np.testing.assert_allclose(cpu.solution(), oblique_problem(kind, n).solve(
            target="interp").solution(), rtol=1e-13, atol=0)
    order = math.log2(errors[0] / errors[1])
    assert order >= 0.9, (kind, errors, order)


#: ``flux_order(2)`` under rk2: the L1 order from n=32 to 64 each mesh kind
#: keeps (measured 2.09 structured, 1.30 perturbed, 1.08 triangulated;
#: EXPERIMENTS.md, "One tile, two printers")
ORDER2_FLOORS = {"structured": 1.8, "perturbed": 1.2, "triangulated": 1.0}


@pytest.mark.parametrize("kind", sorted(MESHES))
def test_second_order_flux_on_every_2d_mesh_kind(kind):
    """The MUSCL flux along oblique ordinates reads both sides of every
    face: the statement does not fold and the tile is a loop over the
    faces, the reconstruction (no C form) evaluated before it.  Under rk2 the L1 error falls at
    least at its floor's order from n=32 to 64; under forward Euler the
    cell ranks, two and three of them with halos meeting at corners, match
    the serial sweep bit for bit."""
    errors = []
    for n in (32, 64):
        solver = oblique_problem(kind, n, order=2, stepper="rk2").solve()
        assert solver.tile.shape == "faces" and "kernels.muscl_flux(" in solver.source
        errors.append(oblique_error(solver))
    order = math.log2(errors[0] / errors[1])
    assert order >= ORDER2_FLOORS[kind], (kind, errors, order)
    cpu = oblique_problem(kind, 32, order=2).solve()
    for ranks in (2, 3):
        p = oblique_problem(kind, 32, order=2)
        p.set_partitioning("cells", ranks)
        assert p.solve().solution().tobytes() == cpu.solution().tobytes(), (kind, ranks)
