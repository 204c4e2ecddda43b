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


def build_solver(mesh: str, shift: int, reduce: Reduction | None = None,
                 flux=hostile_flux, pin: str | None = None):
    """A BTE-shaped problem on ``mesh`` with a different kind of condition on
    every region (``shift`` rotates which), on the hybrid target."""
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
    if reduce is not None:
        p.add_post_step(lambda state, reduced: None, name="reader", reduce=reduce)
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
        compact = ns["compute_boundary_contribution"](state, u[:, geom.bowner], 0.25).copy()
        assert compact.shape == (ND * NB, len(bcells))
        # the dense function it replaced: the same body, the full-row operator
        geom._bdry_slots = kernels.csr_slots(geom.divergence[:, geom.bfaces])
        geom.bcells = np.arange(geom.ncells)
        dense = ns["compute_boundary_contribution"](state, u[:, geom.bowner], 0.25)
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
        calls = []

        def energy(u, comps, out, work):
            calls.append((comps, out, work))
            np.sum(u, axis=0, out=out[0])
            return out

        solver = build_solver("structured", 0, Reduction("column_sum", energy, 1))
        geom = solver.state.geom
        rng = np.random.default_rng(4)
        u = rng.standard_normal((ND * NB, geom.ncells))
        du = rng.standard_normal((ND * NB, len(geom.bcells)))
        return solver, geom, u, du, calls

    def finish(self, solver, u, du, sel=slice(None), comps=None):
        geom = solver.state.geom
        u_bdry = np.full((len(u), len(geom.bowner)), np.nan)
        reduced = [np.full((1, geom.ncells), np.nan)]
        solver.namespace["finish_step"](u, du.copy(), u_bdry, reduced,
                                        solver.state.buffer, sel, comps)
        return u_bdry, reduced

    def test_only_the_boundary_columns_change_and_negative_zero_survives(self, parts):
        """(a) the dense combine computed ``u_new + 0.0`` in every other
        cell, turning an exact -0.0 into +0.0; the column update leaves
        them alone — the one permitted difference from it."""
        solver, geom, u, du, _ = parts
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
        solver, geom, u, du, _ = parts
        dt = solver.namespace["DT"]
        expected = u[:, geom.bcells] + (du * dt)
        self.finish(solver, u, du)
        assert u[:, geom.bcells].tobytes() == expected.tobytes()

    def test_owner_values_are_gathered_after_the_column_update(self, parts):
        """(c) the next step's boundary callbacks read the finished step."""
        solver, geom, u, du, _ = parts
        before = u.copy()
        u_bdry, _ = self.finish(solver, u, du)
        assert u_bdry.tobytes() == u[:, geom.bowner].tobytes()
        assert u_bdry.tobytes() != before[:, geom.bowner].tobytes()

    def test_the_declared_reduction_runs_on_the_finished_array(self, parts):
        """(d) the same function with the same ``comps``/``out``/``work``
        contract, after the column update."""
        solver, geom, u, du, calls = parts
        _, reduced = self.finish(solver, u, du)
        (comps, out, work), = calls
        assert comps is None and out is reduced[0] and work.shape == out.shape
        assert reduced[0].tobytes() == np.sum(u, axis=0)[None].tobytes()

    def test_a_band_rank_touches_only_its_rows(self, parts):
        solver, geom, u, du, calls = parts
        own = np.array([1, 4])
        before = u.copy()
        self.finish(solver, u, du, own, own)
        others = np.setdiff1d(np.arange(len(u)), own)
        assert u[others].tobytes() == before[others].tobytes()
        dt = solver.namespace["DT"]
        expected = before[np.ix_(own, geom.bcells)] + (du[own] * dt)
        assert u[np.ix_(own, geom.bcells)].tobytes() == expected.tobytes()
        assert calls[0][0] is own

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
