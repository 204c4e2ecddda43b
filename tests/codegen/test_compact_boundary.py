"""The compact boundary exchange of the device targets, against the dense
arrays it replaced.

* ``compute_boundary_contribution`` reads the owner values of the boundary
  faces and returns the boundary cells' columns.  Run over the full-row
  operator — the same generated body with the geometry's boundary slots and
  ``bcells`` swapped, which is the dense ``(ncomp, ncells)`` function it was
  — it gives the same bits in those columns and exact ``+0.0`` everywhere else:
  on a structured grid, a triangle mesh and a mixed mesh, for every kind of
  boundary condition, corner cells included, with signed zeros, inf and NaN
  in the flux.
* ``finish_step`` is one body wherever the plan puts it; the hazards of
  moving the combine there are pinned one by one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dsl.entities import CELL, VAR_ARRAY, Reduction
from repro.dsl.problem import Problem
from repro.fvm import kernels
from repro.fvm.boundary import BCKind
from tests.fvm.test_tile_helpers import MESHES, hostile

ND, NB = 3, 2
KINDS = (BCKind.DIRICHLET, BCKind.NEUMANN0, BCKind.SYMMETRY,
         BCKind.GHOST_CALLBACK, BCKind.FLUX)


def hostile_flux(ctx):
    """A FLUX callback whose values hold every special case, and depend on
    what the context hands it."""
    values = hostile((ND * NB, ctx.nfaces), seed=ctx.region)
    values[2] = -ctx.owner_values[2] * ctx.normals[:, 0]
    return values


def build_solver(mesh: str, shift: int, reductions=(), flux=hostile_flux,
                 pin: str | None = None, handed: list | None = None):
    """A BTE-shaped problem on ``mesh`` with a different kind of condition on
    every region (``shift`` rotates which), on the hybrid target; a post-step
    callback per declared reduction appends what it is handed to
    ``handed``."""
    p = Problem(f"compact-{mesh}-{shift}")
    p.set_domain(2)
    p.set_steps(1e-3, 2)
    p.set_mesh(MESHES[mesh]())
    d = p.add_index("d", (1, ND))
    b = p.add_index("b", (1, NB))
    p.add_variable("I", VAR_ARRAY, CELL, index=[d, b])
    p.add_coefficient("Sx", np.array([0.8, -0.5, 0.1]), VAR_ARRAY, index=[d])
    p.add_coefficient("Sy", np.array([-0.3, 0.6, -0.9]), VAR_ARRAY, index=[d])
    p.add_coefficient("vg", np.array([0.4, 1.0]), VAR_ARRAY, index=[b])
    for i, region in enumerate(p.mesh.boundary_regions()):
        kind = KINDS[(i + shift) % len(KINDS)]
        spec = {BCKind.DIRICHLET: 0.7,
                BCKind.GHOST_CALLBACK: lambda ctx: 2.0 * ctx.owner_values - ctx.time,
                BCKind.FLUX: flux}.get(kind)
        p.add_boundary("I", region, kind, spec,
                       reflection_map=np.arange(ND * NB)[::-1]
                       if kind == BCKind.SYMMETRY else None)
    p.initial_values["I"] = np.ones((ND * NB, p.mesh.ncells))
    p.set_conservation_form(
        "I", "-0.5*I[d,b] - surface(vg[b] * upwind([Sx[d];Sy[d]], I[d,b]))")
    for reduce in reductions:
        p.add_post_step(lambda state, reduced: handed is None or handed.append(
            reduced.tobytes()), name=f"reader_{reduce.name}", reduce=reduce)
    p.enable_gpu()
    p.extra["gpu_force_offload"] = True
    if pin is not None:
        p.extra["placement_override"] = {"finish_step": pin}
    return p.generate()


@pytest.mark.parametrize("mesh", ["structured", "triangles", "mixed"])
@pytest.mark.parametrize("shift", range(len(KINDS)))
def test_compact_boundary_equals_the_dense_one_on_the_boundary_columns(mesh, shift):
    solver = build_solver(mesh, shift)
    ns, state, geom = solver.namespace, solver.state, solver.state.geom
    kinds = {bc.kind for bc in state.bset.conditions.values()}
    assert kinds <= set(KINDS) and (len(kinds) == 4 or mesh == "mixed")
    assert np.bincount(geom.bowner).max() >= 2  # a corner cell, two or three faces
    u = np.random.default_rng(shift).standard_normal((ND * NB, geom.ncells))
    u[0, geom.bowner[::2]] = -0.0
    bcells = geom.bcells
    with np.errstate(invalid="ignore"):
        # (the function consumes the owner values it is handed)
        compact = ns["compute_boundary_contribution"](state, u[:, geom.bowner].copy(), 0.25).copy()
        assert compact.shape == (ND * NB, len(bcells))
        # the dense function it replaced: the same sweep, the full-row operator
        loop = geom.face_loop("boundary")
        dense_rows = kernels.entry_rows(*geom._stencil(geom.area), (geom.ncells, geom.nfaces),
                                        col_ids=geom.bfaces)
        geom._loops["boundary"] = loop._replace(**dict(zip(("begin", "columns", "weights"),
                                                            dense_rows)))
        geom.bcells = np.arange(geom.ncells)
        state.plans.clear()
        dense = ns["compute_boundary_contribution"](state, u[:, geom.bowner].copy(), 0.25)
    assert dense.shape == u.shape
    assert compact.tobytes() == dense[:, bcells].tobytes()
    rest = np.setdiff1d(np.arange(geom.ncells), bcells)
    assert not dense[:, rest].any() and not np.signbit(dense[:, rest]).any()
    if BCKind.FLUX in kinds:  # the special values did reach the result
        assert not np.isfinite(compact).all()


def test_without_surface_terms_the_boundary_part_is_zero_columns():
    p = Problem("compact-volume-only")
    p.set_domain(2)
    p.set_steps(1e-3, 2)
    p.set_mesh(MESHES["structured"]())
    p.add_variable("u")
    p.add_coefficient("k", 0.5)
    for r in (1, 2, 3, 4):
        p.add_boundary("u", r, BCKind.NEUMANN0)
    p.set_initial("u", 1.0)
    p.set_conservation_form("u", "-k*u")
    p.enable_gpu()
    p.extra["gpu_force_offload"] = True
    solver = p.generate()
    solver.run()
    assert np.allclose(solver.solution(), (1 - 0.5e-3) ** 2)
    geom = solver.state.geom
    du = solver.namespace["compute_boundary_contribution"](
        solver.state, solver.state.u[:, geom.bowner], 0.0)
    assert du.shape == (1, len(geom.bcells)) and not du.any()


# --------------------------------------------------------------------------
# finish_step: the hazards of moving the combine into it
# --------------------------------------------------------------------------

class TestFinishStep:
    @pytest.fixture
    def parts(self):
        """The declared reduction sums every row into one."""
        column_sum = Reduction("column_sum", np.zeros(ND * NB, int), np.ones(ND * NB), 1)
        solver = build_solver("structured", 0, (column_sum,))
        geom = solver.state.geom
        rng = np.random.default_rng(4)
        u = rng.standard_normal((ND * NB, geom.ncells))
        du = rng.standard_normal((ND * NB, len(geom.bcells)))
        return solver, geom, u, du

    def finish(self, solver, u, du, rows=None):
        geom = solver.state.geom
        u_bdry = np.full((len(u), len(geom.bowner)), np.nan)
        reduced = [np.full((1, geom.ncells), np.nan)]
        call_finish(solver.namespace["finish_step"], solver.state.dt, geom, u, du.copy(),
                    u_bdry, reduced, rows)
        return u_bdry, reduced

    def test_only_the_boundary_columns_change_and_negative_zero_survives(self, parts):
        """(a) the dense combine computed ``u_new + 0.0`` in every other
        cell, turning an exact -0.0 into +0.0; the column update leaves
        them alone — the one permitted difference from it."""
        solver, geom, u, du = parts
        rest = np.setdiff1d(np.arange(geom.ncells), geom.bcells)
        u[:, rest[::2]] = -0.0
        before = u.copy()
        self.finish(solver, u, du)
        assert u[:, rest].tobytes() == before[:, rest].tobytes()
        assert np.signbit(u[:, rest[::2]]).all()
        assert not np.array_equal(u[:, geom.bcells], before[:, geom.bcells])

    def test_the_association_is_u_plus_the_scaled_boundary_part(self, parts):
        """(b) ``u_new + (du_b * dt)``: not ``(u_new + du_b) * dt``, no
        weights scaled beforehand."""
        solver, geom, u, du = parts
        dt = solver.state.dt
        expected = u[:, geom.bcells] + (du * dt)
        self.finish(solver, u, du)
        assert u[:, geom.bcells].tobytes() == expected.tobytes()

    def test_owner_values_are_gathered_after_the_column_update(self, parts):
        """(c) the next step's boundary callbacks read the finished step."""
        solver, geom, u, du = parts
        before = u.copy()
        u_bdry, _ = self.finish(solver, u, du)
        assert u_bdry.tobytes() == u[:, geom.bowner].tobytes()
        assert u_bdry.tobytes() != before[:, geom.bowner].tobytes()

    def test_the_declared_reduction_runs_on_the_finished_array(self, parts):
        """(d) the declared reduction — ``group=0, weight=1``: every row
        summed into one, in order — of the finished array, every column."""
        solver, geom, u, du = parts
        _, reduced = self.finish(solver, u, du)
        assert reduced[0].tobytes() == np.sum(u, axis=0)[None].tobytes()

    def test_a_band_rank_touches_only_its_rows(self, parts):
        solver, geom, u, du = parts
        own = np.array([1, 4])
        before = u.copy()
        _, reduced = self.finish(solver, u, du, own)
        others = np.setdiff1d(np.arange(len(u)), own)
        assert u[others].tobytes() == before[others].tobytes()
        dt = solver.state.dt
        expected = before[np.ix_(own, geom.bcells)] + (du[own] * dt)
        assert u[np.ix_(own, geom.bcells)].tobytes() == expected.tobytes()
        assert reduced[0].tobytes() == (u[1] + u[4])[None].tobytes()

    def test_one_body_wherever_the_plan_puts_it(self):
        """The device launch and the host call are the same function, and a
        run gives the same bits under either placement."""
        runs = []
        for where in ("gpu", "cpu"):
            solver = build_solver(
                "triangles", 1, pin=where,
                flux=lambda ctx: -0.3 * ctx.owner_values * ctx.normals[:, 1])
            assert solver.placement.device["finish_step"] == where
            assert BCKind.FLUX in {bc.kind for bc in solver.state.bset.conditions.values()}
            assert solver.namespace["FINISH"].body is solver.namespace["finish_step"]
            solver.run()
            runs.append(solver.solution().tobytes())
        assert runs[0] == runs[1]


# --------------------------------------------------------------------------
# finish_step as C: the NumPy body it replaced, kept here as the oracle
# --------------------------------------------------------------------------

#: two declared reductions: band energies with a weight per component, and
#: every row summed into one
MIXED = (Reduction("bands", np.arange(ND * NB) % NB, 1.0 + np.arange(ND * NB) / 7.0, NB),
         Reduction("column_sum", np.zeros(ND * NB, int), np.ones(ND * NB), 1))


def call_finish(finish, dt, geom, u, du_bdry, u_bdry, reduced, rows=None, bcells=None):
    """``finish`` as the generated device step calls it, over ``geom``'s
    boundary faces (and cells, or ``bcells``)."""
    finish({}, (dt,), rows, u, u, u_bdry, geom.bcells if bcells is None else bcells, du_bdry,
           geom.bowner, reduced)


def numpy_finish(reductions):
    """The NumPy ``finish_step`` the C function replaced, line for line."""

    def finish_step(memo, scalars, rows, u, out, u_bdry, bcells, du_bdry, bowner, reduced):
        (dt,) = scalars
        sel = slice(None) if rows is None else rows
        cols = u.take(bcells, axis=1, mode="clip")
        np.add(cols, np.multiply(du_bdry, dt), out=cols)
        u[sel if isinstance(sel, slice) else sel[:, None], bcells] = cols[sel]
        for reduction, o in zip(reductions, reduced):
            kernels.reduce_rows(u, reduction.group, reduction.weight, o, rows)
        u.take(bowner, axis=1, out=u_bdry, mode="clip")

    return finish_step


class TestCFinish:
    """The finish printed into a device program's unit
    (``solver.tile.finish``), against the NumPy body."""

    @pytest.fixture(scope="class")
    def solvers(self):
        return {mesh: build_solver(mesh, 1, MIXED) for mesh in ("structured", "triangles")}

    @pytest.mark.parametrize("mesh", ["structured", "triangles"])
    @pytest.mark.parametrize("rows", [None, [4, 1, 3]], ids=["all-rows", "band-rank"])
    @pytest.mark.parametrize("odd", [False, True], ids=["even", "odd"])
    def test_the_c_finish_is_the_numpy_body_bit_for_bit(self, solvers, mesh, rows, odd):
        """Every row or a band rank's non-contiguous rows, an odd or even
        count of boundary cells, two reductions with mixed weights, special
        values throughout (NaN terms among them): ``u``, ``u_bdry`` and each
        reduction output carry the NumPy body's bits."""
        solver = solvers[mesh]
        geom, state = solver.state.geom, solver.state
        bcells = geom.bcells[:len(geom.bcells) - (odd and len(geom.bcells) % 2 == 0)]
        assert len(bcells) % 2 == odd
        rows = None if rows is None else np.array(rows)
        results = []
        for finish in (solver.namespace["finish_step"], numpy_finish(state.reductions)):
            u = hostile((ND * NB, geom.ncells), seed=geom.ncells)
            du = hostile((ND * NB, len(bcells)), seed=len(bcells))
            u_bdry = np.full((ND * NB, len(geom.bowner)), np.nan)
            reduced = [np.full((r.rows, geom.ncells), np.nan) for r in MIXED]
            with np.errstate(invalid="ignore", over="ignore"):
                call_finish(finish, state.dt, geom, u, du, u_bdry, reduced, rows, bcells)
            assert all(np.isnan(r).any() for r in reduced)  # a NaN term reached each
            results.append([u.tobytes(), u_bdry.tobytes(), *(r.tobytes() for r in reduced)])
        assert results[0] == results[1]

    def test_a_bad_argument_is_refused_before_any_pointer_is_passed(self, solvers):
        """A wrong dtype, shape or layout, an index out of range, an output
        sharing memory with the unknown: a ``CodegenError``, and the
        function is never called."""
        from repro.codegen import ctile
        from repro.util.errors import CodegenError

        solver = solvers["structured"]
        geom, state = solver.state.geom, solver.state
        c = ctile.Tile(ctile.build(solver.tile.text), solver.tile.finish, state.reductions)
        called = []
        c.fn = lambda *args: called.append(args)
        ncells, nb, nbfaces = geom.ncells, len(geom.bcells), len(geom.bowner)
        u = np.ones((ND * NB, ncells))
        du, u_bdry = np.ones((ND * NB, nb)), np.ones((ND * NB, nbfaces))
        reduced = [np.zeros((r.rows, ncells)) for r in MIXED]

        def in_u(columns):  # a C-ordered array over the unknown's memory
            return u.reshape(-1)[:ND * NB * columns].reshape(ND * NB, columns)

        shared = np.ones(ND * NB * max(nb, nbfaces))  # the boundary part and the owner values
        du_ub = [shared[:ND * NB * k].reshape(ND * NB, k) for k in (nb, nbfaces)]
        out_of_range = geom.bowner.copy()
        out_of_range[0] = ncells
        bad = [
            ("no C-ordered float64", (u.astype(np.float32), du, u_bdry, reduced)),
            ("no C-ordered float64", (np.asfortranarray(u), du, u_bdry, reduced)),
            ("no C-ordered float64", (u, du[:, :-1], u_bdry, reduced)),
            ("no C-ordered float64", (u, du, u_bdry[:-1], reduced)),
            ("no C-ordered float64", (u, du, u_bdry, [reduced[0][:, :-1], reduced[1]])),
            ("out of range", (u, du, u_bdry, reduced, np.array([0, ND * NB]))),
            ("every declared reduction", (u, du, u_bdry, reduced[:1])),
            ("into its input", (u, du, u_bdry, [u[:NB], reduced[1]])),
            ("shares memory", (u, du, in_u(nbfaces), reduced)),
            ("shares memory", (u, in_u(nb), u_bdry, reduced)),
            ("share memory with the boundary part", (u, *du_ub, reduced)),
        ]
        for match, (u_, du_, ub, red, *rows) in bad:
            with pytest.raises(CodegenError, match=match):
                c({}, (state.dt,), rows[0] if rows else None, u_, u_, ub, geom.bcells, du_,
                  geom.bowner, red)
        with pytest.raises(CodegenError, match="not increasing"):
            c({}, (state.dt,), None, u, u, u_bdry, geom.bcells[::-1], du, geom.bowner, reduced)
        with pytest.raises(CodegenError, match="out of range"):
            c({}, (state.dt,), None, u, u, u_bdry, geom.bcells, du, out_of_range, reduced)
        assert not called

    @pytest.mark.parametrize("case", ["device", "host", "kernel-fault", "oom-fault"])
    def test_every_placement_finishes_as_the_numpy_body(self, case):
        """On the device, pinned to the host, and re-executed on the host
        after an injected kernel or out-of-memory fault: the C finish gives
        the run the NumPy body gives it, bit for bit — the solution, the
        owner values and every reduction a callback was handed."""
        from repro.codegen.gpu_hybrid import FINISH_WORK
        from repro.gpu.kernel import Kernel
        from repro.runtime.faults import fault_run
        from repro.util.context import current

        faults = {"kernel-fault": "kernel:device=gpu0,op=launch,at=2",
                  "oom-fault": "oom:device=gpu0,op=h2d,at=3"}.get(case)
        pin = "cpu" if case == "host" else "gpu"
        runs = []
        for numpy_body in (False, True):
            handed: list = []
            solver = build_solver("triangles", 2, MIXED, pin=pin, handed=handed,
                                  flux=lambda ctx: -0.3 * ctx.owner_values * ctx.normals[:, 1])
            ns, state = solver.namespace, solver.state
            if numpy_body:
                ns["finish_step"] = numpy_finish(state.reductions)
                ns["FINISH"] = Kernel(body=ns["finish_step"], **FINISH_WORK)
            with fault_run(faults, seed=0):
                solver.run()
                degraded = bool(current().resilience.degraded)
            assert degraded == (faults is not None)
            u_bdry = state.buffer("u_bdry", (ND * NB, len(state.geom.bowner)))
            runs.append((solver.solution().tobytes(), u_bdry.tobytes(), handed))
        assert len(runs[0][2]) == 2 * len(MIXED)
        assert runs[0] == runs[1]
