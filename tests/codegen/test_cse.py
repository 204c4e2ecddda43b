"""Sub-expression hoisting in emitted code: step-invariant tables, per-sweep
variable terms and per-tile temporaries."""

import numpy as np
import pytest

from repro.bte.problem import build_bte_problem
from repro.codegen.emit import ExprEmitter
from repro.fvm import kernels
from repro.ir.lowering import lower_conservation_form


def _c_statements(solver) -> list[str]:
    """The element statements of a C tile's loop over the cells, up to the
    store (``solver.tile.text``)."""
    lines = [ln.strip() for ln in solver.tile.text.splitlines()]
    start = lines.index("for (long c = 0; c < n; c++) {")
    stop = next(i for i in range(start, len(lines)) if lines[i].startswith("o[c] ="))
    return lines[start + 2:stop + 1]  # (after the registers' declaration)


def _operand(solver, source: str) -> str:
    """The positional C name of the operand the sweep passes as ``source``."""
    return f"a{solver.tile.operands.index(source)}"


@pytest.fixture
def bte_solver(tiny_scenario):
    problem, _ = build_bte_problem(tiny_scenario)
    return problem.generate()


class TestHoisting:
    def test_projected_velocity_hoisted_once(self, bte_solver):
        """The upwind conditional references v.n three times; the generated
        source must compute it outside the step loop, over the 8 directions
        it depends on — and, the flux being linear in the upwinded side, fold
        it through the divergence: the tile applies one operator to its rows."""
        src = bte_solver.source
        tables = src[src.index("def invariant_tables("):src.index("def folded_tables(")]
        defs = [ln for ln in tables.splitlines() if ln.strip().startswith("tab_s1 =")]
        assert len(defs) == 1 and "normal_x[None, :] * coef_Sx[sel]" in defs[0]
        assert "sel = trep_d" in tables
        folded = src[src.index("def folded_tables("):src.index("def compute_boundary_")]
        assert "fold_s0 = kernels.fold_upwind(divergence, tab_s1, upw)" in folded
        assert "return [fold_s0]" in folded  # the face tables went into it
        # the tile is C: one folded operator, read once, then the flat factor
        # once per row, after the divergence
        tile = bte_solver.tile
        assert tile.folds == 1 and tile.operands.count("fold_s0") == 1
        assert "tab_" not in " ".join(tile.operands)
        div = _c_statements(bte_solver)[:2]
        vg = _operand(bte_solver, "coef_vg")
        assert div == ["r0 = f0[c];", f"r0 = (((-1.0) * {vg}[g]) * r0);"]
        # no select: the choice went into the fold
        assert not any("?" in ln for ln in _c_statements(bte_solver)[:-1])
        state, ns = bte_solver.state, bte_solver.namespace
        geom = state.geom
        (fold,) = state.tables(ns["folded_tables"], "interior", divergence=True)
        assert fold.own.shape == (8, geom.ncells) and np.diff(fold.begin).tolist() == [2] * 8
        # the boundary part keeps the face tables, over its own faces
        mask, projected, columns, inflow = state.tables(ns["boundary_tables"], "boundary")
        assert projected.shape == mask.shape == columns.shape == (8, len(geom.bfaces))
        assert mask.dtype == bool and np.array_equal(mask, projected > 0.0)
        # ... and, per component, where the flow enters: bound once, not per step
        assert np.array_equal(inflow, ~mask[ns["tmap_d"]])
        assert state.tables(ns["boundary_tables"], "boundary")[3] is inflow
        # the face-centric statement there, in C: the table's row, read once per row
        boundary = tile.boundary
        assert boundary.operands.count("tab_s1") == 1 and boundary.kinds[1] == "T"
        assert boundary.text.count("const double *p0 = a1 + a2[g] * nf;") == 1

    def test_tile_loop_recomputes_nothing_invariant(self, bte_solver):
        """Source shape of the hotspot kernel body: no geometry product, no
        division, no select and no full-size array inside the tile loop."""
        src = bte_solver.source
        statements = _c_statements(bte_solver)
        assert "normal" not in bte_solver.tile.text
        assert not any("/" in ln or "?" in ln for ln in statements[:-1])
        assert "cse_" not in src
        assert "np.empty((NCOMP" not in src and "euler_update" not in src
        # u = u + dt * (source + div), the boundary cells' columns completed
        # with the boundary part, stored into the rows of u (in place)
        assert statements[-2:] == ["const double v = (r3 + r1);",
                                   "o[c] = ur[c] + v * s0;"]
        assert "o[bc[k]] = o[bc[k]] + bd[g * nb + k] * s0;" in bte_solver.tile.text
        sweep = src[src.index("def compute_rhs("):].split("\ndef ")[0]
        assert sweep.count("TILE(state.plans, (dt,), rows, u, u,") == 1
        # no face array at all: one folded operator, straight from ``u``
        assert "gather_sides" not in src and "surface_divergence" not in src
        assert "face_pool" not in sweep and "for sel, n, " not in sweep
        # 1/beta and Io/beta: once per sweep over the 5 bands' rows, in place,
        # the second reading the first by name
        head = src[src.index("def compute_rhs("):src.rindex("TILE(")]
        assert "sel = trep_b" in head and head.count("np.divide(1.0, s") == 1
        assert "np.multiply(s1, swp_v0, out=s1)" in head

    def test_tile_loop_allocates_and_copies_nothing(self, bte_solver):
        """The hotspot tile is one foreign call after the boundary part: no
        array statement of its own, no table rows gathered, no scratch but
        the one row per folded operator and the row it finishes in."""
        src = bte_solver.source
        sweep = src[src.index("def compute_rhs("):].split("\ndef ")[0]
        tail = sweep[sweep.index("bdry = compute_boundary_contribution("):].splitlines()[2:]
        code = [ln.strip() for ln in tail if ln.strip() and not ln.strip().startswith("#")]
        assert code[0].startswith("return TILE(") and not any("np." in ln for ln in code)
        assert "state.buffer('tile', (1 * geom.ncells,))" in sweep
        # no pass for a sign: ``Io/beta - I/beta``, not ``(-1 * I)/beta + Io/beta``
        statements = _c_statements(bte_solver)
        assert not any("(-1.0) * ur[c]" in ln for ln in statements)
        assert statements[2:5] == ["r1 = r0;", "r2 = (ur[c] * p0[c]);", "r2 = (p1[c] - r2);"]

    def test_cse_can_be_disabled(self, tiny_scenario):
        problem, _ = build_bte_problem(tiny_scenario)
        _, form = lower_conservation_form(
            problem.equation.source, problem.unknown, problem.entities,
            problem.operators,
        )
        em = ExprEmitter(problem, form)
        with_cse = em.emit_sum(form.surface_terms, "surface")
        without = em.emit_sum(form.surface_terms, "surface", cse=False)
        assert with_cse.tables and with_cse.upwind and with_cse.folded
        assert not any(ln.startswith("cse_") for ln in with_cse.prelude)
        assert not (without.tables or without.sweep or without.prelude or without.upwind
                    or without.folded)
        assert "tab_" not in without.code and "uw" not in without.code
        # the geometry is read where the tables are built, not in the sweep
        assert {"normal_x", "normal_y"} <= with_cse.table_reads - with_cse.reads
        # the work estimates describe the symbolic term, not its emission
        assert with_cse.reads | with_cse.table_reads == without.reads
        assert (with_cse.flops, with_cse.bytes_per_value) == (
            without.flops, without.bytes_per_value)

    def test_solution_independent_of_cse(self, tiny_scenario):
        """Hoisting must not change a single bit of the result: tables,
        per-sweep terms and select-before-scale against the statements as
        written — the volume statement in the tile, the face-centric surface
        statement in the boundary part, here evaluated by NumPy.  (The fold
        through the divergence is the one rewrite that rounds differently;
        it stays on both sides: the folded operator's oracle applies it.)"""
        from tests.fvm.folded_oracle import apply_folded

        problem, _ = build_bte_problem(tiny_scenario)
        solver = problem.generate()
        state, ns = solver.state, solver.namespace
        geom, dt, t = state.geom, state.dt, state.time
        u = state.u.copy()
        _, form = lower_conservation_form(
            problem.equation.source, problem.unknown, problem.entities, problem.operators)
        em = ExprEmitter(problem, form)
        surface = em.emit_sum(form.surface_terms, "surface", cse=False)
        volume = em.emit_sum(form.volume_terms, "volume", cse=False)
        scope = {**ns, "np": np, "sel": slice(None), "u": u,
                 **{f"var_{n}": state.fields[n].data for n in ("Io", "beta")}}
        source = eval(volume.code, scope)  # noqa: S307 - our own emission
        # the boundary part as written: both sides, the overrides, the divergence
        owner = u[:, geom.bowner]
        ghost = state.bset.ghost_values(owner, t, dt, state.extra)
        normal_x, normal_y = geom.normal[geom.bfaces].T
        flux = eval(surface.code, {**scope, "u1": owner, "u2": ghost,  # noqa: S307
                                   "normal_x": normal_x, "normal_y": normal_y})
        faces, values = state.bset.flux_overrides(owner, t, dt, state.extra)
        flux[:, geom.bface_slot[faces]] = values
        bdry = kernels.slot_divergence(
            kernels.row_slots(geom.divergence_rows(geom.bcells, geom.bfaces)), flux,
            np.empty((state.ncomp, len(geom.bcells))))
        # the interior folded, its flat factor after it, as the tile has it
        (fold,) = state.tables(ns["folded_tables"], "interior", divergence=True)
        div = apply_folded(fold, u, kernels.table_runs(ns["tmap_d"]), np.empty_like(u),
                           np.empty_like(u))
        div = (-1.0 * ns["coef_vg"][:, None]) * div
        expected = u + (source + div) * dt
        expected[:, geom.bcells] += bdry * dt
        solver.run(1)
        assert state.u.tobytes() == expected.tobytes()

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
            "np.copyto(f0, np.where((cse_s0 > 0.0), u1, u2))",
            "np.multiply((coef_b * normal_x[None, :]), f0, out=f0)",
            "np.multiply(-1.0, f0, out=f0)"]
        assert out.code == "f0"

    def test_gpu_kernel_also_hoists(self, tiny_scenario):
        problem, _ = build_bte_problem(tiny_scenario)
        problem.enable_gpu()
        problem.extra["gpu_force_offload"] = True
        solver = problem.generate()
        kernel_src = solver.source.split("def interior_kernel")[1]
        kernel_src = kernel_src.split("def ")[0]
        assert "[fold_s0] = state.tables(folded_tables, 'interior', divergence=True)" \
            in kernel_src
        # the one C tile of every target, into ``u_new``, no boundary part
        # and no reduction (``finish_step``'s)
        call = kernel_src[kernel_src.index("TILE("):]
        assert call.startswith("TILE(state.plans, (dt,), rows, u, u_new,")
        assert "None, None, (), fold_s0, tmap_d, coef_vg, swp_v0, tmap_b, swp_v1)" in call
        assert solver.tile == build_bte_problem(tiny_scenario)[0].generate().tile
        assert "slot_divergence" not in kernel_src and "face_pool" not in kernel_src
        assert "for sel, n, " not in kernel_src and "np.where" not in kernel_src
        # the CPU boundary part — the one every target calls — forms the
        # upwinded side in place: ghost values where the tabled flow enters
        boundary = solver.source.split("def compute_boundary_contribution")[1]
        boundary = boundary.split("\ndef ")[0]
        assert "inflow] = state.tables(boundary_tables, 'boundary')" in boundary
        assert "np.logical_not" not in boundary and "where=inflow" in boundary
        assert "(u_bdry, t, dt, state.extra, u_bdry, where=inflow)" in boundary
        assert "np.where" not in boundary
        cpu = build_bte_problem(tiny_scenario)[0].generate()
        assert boundary in cpu.source
