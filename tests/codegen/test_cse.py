"""Sub-expression hoisting in emitted code: step-invariant tables, per-sweep
variable terms and per-tile temporaries."""

import numpy as np
import pytest

from repro.bte.problem import build_bte_problem
from repro.codegen.emit import ExprEmitter
from repro.ir.lowering import lower_conservation_form


def _surface_statement(src: str) -> list[str]:
    """The lines of the tile body's surface statement."""
    lines = [ln.strip() for ln in src.splitlines()]
    start = max(i for i, ln in enumerate(lines) if ln.startswith("# RHS surface"))
    stop = next(i for i in range(start, len(lines)) if lines[i].startswith("flux = "))
    return lines[start + 1:stop + 1]


def _tile_loop(src: str) -> str:
    """Everything from the row-tile loop of the first kernel body on."""
    return src[src.index("for sel in kernels.row_tiles("):].split("\ndef ")[0]


@pytest.fixture
def bte_solver(tiny_scenario):
    problem, _ = build_bte_problem(tiny_scenario)
    return problem.generate()


class TestHoisting:
    def test_projected_velocity_hoisted_once(self, bte_solver):
        """The upwind conditional references v.n three times; the generated
        source must compute it outside the step loop, over the 8 directions
        it depends on, and the tile only row-gathers it."""
        src = bte_solver.source
        tables = src[src.index("def invariant_tables("):src.index("def compute_rhs(")]
        defs = [ln for ln in tables.splitlines() if ln.strip().startswith("tab_s1 =")]
        assert len(defs) == 1 and "normal_x[None, :] * coef_Sx[sel]" in defs[0]
        assert "sel = trep_d" in tables
        flux = "\n".join(_surface_statement(src))
        # select before scale: the tile's rows of the table, read once
        assert flux.count("kernels.table_rows(tab_s1, tmap_d, sel, f0)") == 1
        assert "normal_x" not in flux and "np.where" not in flux
        state = bte_solver.state
        mask, projected, columns = state.tables(bte_solver.namespace["invariant_tables"])
        assert projected.shape == mask.shape == columns.shape == (8, state.geom.nfaces)
        assert mask.dtype == bool and np.array_equal(mask, projected > 0.0)

    def test_tile_loop_recomputes_nothing_invariant(self, bte_solver):
        """Source shape of the hotspot kernel body: no geometry product, no
        division, no select and no full-size array inside the tile loop."""
        src = bte_solver.source
        loop = _tile_loop(src)
        assert "normal_x[None, :] *" not in loop
        assert "1.0 /" not in loop and "np.where" not in loop
        assert "cse_" not in src
        assert "np.empty((NCOMP" not in src and "euler_update" not in src
        # u[sel] = u[sel] + dt * (source + div), finished in tile scratch
        chain = ["np.add(source, div, out=acc)", "np.multiply(acc, dt, out=acc)",
                 "np.add(us, acc, out=acc)  # explicit update, Eq. (3)", "u[sel] = acc"]
        assert [ln.strip() for ln in loop.splitlines() if ln.strip()][-len(chain):] == chain
        # one gather per tile, through the upwind column table
        assert loop.count("geom.gather_sides(") == 1 and "upwind=(upw, uw_rows)" in loop
        assert "uw_rows = tmap_d[sel]" in loop
        # 1/beta and Io/beta: once per sweep over the 5 bands' rows, in place,
        # the second reading the first by name
        head = src[src.index("def compute_rhs("):src.index("for block in")]
        assert "sel = trep_b" in head and head.count("np.divide(1.0, s") == 1
        assert "np.multiply(s1, swp_v0, out=s1)" in head

    def test_tile_loop_allocates_and_copies_nothing(self, bte_solver):
        """Every array statement of the hotspot tile writes through ``out=``
        into the state's scratch: no fancy-indexed table rows, no transposed
        copy, no expression temporary, and the store comes last."""
        loop = _tile_loop(bte_solver.source)
        assert "[tmap_" not in loop and ".T" not in loop
        body = [ln.strip() for ln in loop.splitlines()[1:] if ln.strip()]
        arrays = [ln for ln in body if ln.startswith(("np.", "uw =", "div =", "us ="))]
        assert len(arrays) == 11 and all("out=" in ln for ln in arrays)
        assert body[-1] == "u[sel] = acc"

    def test_cse_can_be_disabled(self, tiny_scenario):
        problem, _ = build_bte_problem(tiny_scenario)
        _, form = lower_conservation_form(
            problem.equation.source, problem.unknown, problem.entities,
            problem.operators,
        )
        em = ExprEmitter(problem, form)
        with_cse = em.emit_sum(form.surface_terms, "surface")
        without = em.emit_sum(form.surface_terms, "surface", cse=False)
        assert with_cse.tables and with_cse.gathers_upwind
        assert not any(ln.startswith("cse_") for ln in with_cse.prelude)
        assert not (without.tables or without.sweep or without.prelude or without.upwind)
        assert "tab_" not in without.code and "uw" not in without.code
        # the geometry is read where the tables are built, not in the sweep
        assert {"normal_x", "normal_y"} <= with_cse.table_reads - with_cse.reads
        # the work estimates describe the symbolic term, not its emission
        assert with_cse.reads | with_cse.table_reads == without.reads
        assert (with_cse.flops, with_cse.bytes_per_value) == (
            without.flops, without.bytes_per_value)

    def test_solution_independent_of_cse(self, tiny_scenario):
        """Hoisting must not change a single bit of the result."""
        p1, _ = build_bte_problem(tiny_scenario)
        ref = p1.solve().solution()

        # hand-build a solver with hoisting disabled by patching the source
        p2, _ = build_bte_problem(tiny_scenario)
        solver = p2.generate()
        _, form = lower_conservation_form(
            p2.equation.source, p2.unknown, p2.entities, p2.operators
        )
        em = ExprEmitter(p2, form)
        surface = em.emit_sum(form.surface_terms, "surface", cse=False)
        volume = em.emit_sum(form.volume_terms, "volume", cse=False)
        new_src = []
        for ln in solver.source.splitlines():
            indent = ln[: len(ln) - len(ln.lstrip())]
            if ln.strip().startswith("uw = "):
                new_src += [f"{indent}u1, u2 = geom.gather_sides(u, ghost, sel)",
                            f"{indent}normal_x, normal_y = geom.normal.T"]
            elif ln.strip().startswith("flux = "):
                new_src.append(f"{indent}flux = {surface.code}")
            elif ln.strip().startswith("source = "):
                new_src.append(f"{indent}source = {volume.code}")
            elif not ln.strip().startswith(("np.multiply(uw", "np.multiply((-1.0 * coef_vg",
                                            "np.multiply(-1.0, us", "np.multiply(c",
                                            "np.add(c")):
                new_src.append(ln)  # all but the register lines of the statements
        solver.source = "\n".join(new_src)
        assert "tab_" not in _tile_loop(solver.source)
        solver.recompile()
        solver.run()
        assert np.array_equal(solver.solution(), ref)

    def test_variant_expressions_not_hoisted(self):
        """Anything touching the unknown/face sides must stay inline."""
        from repro.dsl.problem import Problem
        from repro.fvm.boundary import BCKind
        from repro.mesh.grid import structured_grid

        p = Problem("no-hoist")
        p.set_domain(2)
        p.set_steps(1e-3, 1)
        p.set_mesh(structured_grid((4, 4)))
        p.add_variable("u")
        p.add_coefficient("k", 2.0)
        for r in (1, 2, 3, 4):
            p.add_boundary("u", r, BCKind.NEUMANN0)
        p.set_initial("u", 1.0)
        p.set_conservation_form("u", "-k*u - 0.5*k*u")
        solver = p.generate()
        # k*u is variant (contains the unknown): nothing to hoist
        assert "cse_" not in solver.source and "tab_" not in solver.source
        assert "invariant_tables" not in solver.source

    def test_full_index_compound_stays_a_tile_temporary(self):
        """A compound that depends on every index of the unknown (here: none
        at all) would make a table as large as a face array."""
        from tests.codegen.test_emit import make_problem

        p, form = make_problem("-surface(upwind(b, u))")
        out = ExprEmitter(p, form).emit_sum(form.surface_terms, "surface")
        assert not out.tables and out.upwind is None
        # select before scale: the shared factors multiply the select once
        assert out.prelude == [
            "cse_s0 = (coef_b * normal_x[None, :])",
            "f0[...] = np.where((cse_s0 > 0.0), u1, u2)",
            "np.multiply((coef_b * normal_x[None, :]), f0, out=f0)",
            "np.multiply(-1.0, f0, out=f0)"]
        assert out.code == "f0"

    def test_gpu_kernel_also_hoists(self, tiny_scenario):
        problem, _ = build_bte_problem(tiny_scenario)
        problem.enable_gpu()
        problem.extra["gpu_force_offload"] = True
        solver = problem.generate()
        assert ("INT_TABLES = invariant_tables(NORMALS_INT, FACEDIST_INT, "
                "OWNER_INT, NEIGH_INT)") in solver.source
        kernel_src = solver.source.split("def interior_kernel")[1]
        kernel_src = kernel_src.split("def ")[0]
        assert "[tab_s0, tab_s1, upw] = INT_TABLES" in kernel_src
        loop = _tile_loop(kernel_src)
        assert "kernels.gather_upwind(u, sel, upw, uw_rows, fu)" in loop
        assert "kernels.slot_divergence(DIV_INT, flux, acc, cw)" in loop and ".T" not in loop
        assert "normal_x[None, :] *" not in loop and "np.where" not in loop
        # the CPU boundary part selects between its (already gathered) sides
        boundary = solver.source.split("def compute_boundary_contribution")[1]
        assert "uw = np.where(kernels.table_rows(tab_s0, tmap_d, sel, None), u1, u2)" in boundary
