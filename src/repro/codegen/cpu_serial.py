"""CPU serial code-generation target.

Generates the nested-loop solver of the paper's Section II-B sketch: a
sequential time loop around a (vectorised) cell sweep, with the component
loop structure taken from ``assemblyLoops`` and each block swept in
cache-sized tiles of component rows (no face-sized whole-array temporary
exists; the only per-step array is the returned RHS).  The emitted source
is plain Python over NumPy + :mod:`repro.fvm.kernels`, kept deliberately
readable (comments carry the classified symbolic terms they implement).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.codegen.emit import ExprEmitter, emit_tile_body
from repro.codegen.state import SolverState
from repro.codegen.target_base import (
    ADVANCE,
    CodegenTarget,
    GeneratedSolver,
    emit_step_loop,
    indent,
    source_header,
)
from repro.ir.build import build_ir
from repro.ir.lowering import lower_conservation_form
from repro.ir.nodes import print_ir
from repro.fvm.timesteppers import make_stepper
from repro.util.errors import CodegenError

if TYPE_CHECKING:
    from repro.dsl.problem import Problem


_EULER = ("euler", "euler_explicit")


def emit_rhs_function(problem: "Problem", emitter: ExprEmitter,
                      owned_columns: bool = False) -> list[str]:
    """Source of ``compute_rhs(state, u, t, rows=None)`` — shared by CPU targets.

    One cache-sized tile of component rows at a time
    (:func:`repro.codegen.emit.emit_tile_body`) inside each
    ``assemblyLoops`` block, so no face-sized whole-array temporary exists.
    Under forward Euler the sweep stores the explicit update itself, ``u[sel]
    = u[sel] + dt * rhs`` — added into ``u``'s own rows where the tile is a
    view of them (a cell-partitioned rank, with ``owned_columns``, stores
    only the mesh columns it owns): no full-size ``rhs`` exists either.
    Other steppers get the RHS back as a fresh array.  When the surface
    statement folds through the divergence the tile covers the interior
    faces only: the source then also defines the shared
    ``compute_boundary_contribution``, called once before the sweep, and
    every tile adds its rows of the result into the boundary cells' columns.
    """
    form = emitter.form
    fcoefs = emitter.function_coefficients()
    inplace = problem.config.stepper in _EULER
    if not inplace:
        store = "rhs[sel] = acc"
    elif owned_columns:
        store = "kernels.store_columns(u, sel, state.owned_cells, acc, out=cw)"
    else:
        store = "u[sel] = acc"
    tile = emit_tile_body(
        emitter,
        gather=["u1, u2 = geom.gather_sides(u, ghost, sel, out=(fu, fv))"],
        divergence="geom.surface_divergence(flux, out=acc, work=cw)",
        overrides="overrides",
        boundary=["cols = {new}.take(bcells, axis=1, out=bcols[:n], mode='clip')",
                  "np.add(cols, bdry[sel], out=cols)",
                  "{new}[:, bcells] = cols"],
        store=store,
        dt="dt" if inplace else None,
        inplace=None if owned_columns else "us",
        buffer="state.buffer", nfaces="geom.nfaces", ncells="geom.ncells",
    )
    folded = tile.surface.folded is not None

    body = [
        '"""Semi-discrete RHS du/dt: volume sources + surface divergence —',
        "returned, or under forward Euler stepped in place, ``u += dt * rhs`` (a",
        "tile reads the unknown only through its own rows, and the boundary",
        "values are evaluated from the pre-step ``u`` before the first store).",
        "",
        "``rows`` restricts the sweep to those component rows (a rank's owned",
        'bands); the other rows are left untouched."""',
        "geom = state.geom",
        "dt = state.dt",
    ]
    if form.surface_terms and not folded:
        body.append("owner = geom.owner")
        for axis, name in enumerate(("normal_x", "normal_y", "normal_z")):
            if name in tile.reads:
                body.append(f"{name} = geom.normal[:, {axis}]")
        if "face_dist" in tile.reads:
            body.append("face_dist = geom.face_dist")
    if folded:
        body.append(f"[{tile.tables}] = state.tables("
                    "folded_tables, geom.interior_faces, divergence=True)")
    elif tile.tables:
        body.append(f"[{tile.tables}] = state.tables(invariant_tables)")
    for name, coef in fcoefs.items():
        body += [
            f"# function coefficient {name!r} evaluated on centres",
            f"fcoef_{name} = eval_fcoef_{name}(geom.cell_center, t)",
        ]
        if f"fcoef_{name}_face" in tile.reads:
            body.append(f"fcoef_{name}_face = eval_fcoef_{name}(geom.center, t)")
    body += [
        "# scratch, owned by the state: nothing below allocates a tile",
        "height = kernels.tile_rows(geom.nfaces, NCOMP)",
        *tile.scratch,
    ]
    if tile.sweep:
        body += ["# sub-expressions of known variables, once over their own rows"]
        body += tile.sweep
    if folded:
        body += [
            "",
            "# the boundary faces' part, from their owner values, once per",
            "# evaluation (user callbacks execute on the CPU)",
            "bcells = geom.bcells",
            "bcols = state.buffer('bdry_cols', (height, len(bcells)))",
            "u_bdry = state.buffer('u_bdry', (NCOMP, len(geom.bowner)))",
            "bdry = compute_boundary_contribution(",
            "    state, u.take(geom.bowner, axis=1, out=u_bdry, mode='clip'), t)",
        ]
        if inplace:
            body.append("np.multiply(bdry, dt, out=bdry)  # u + (du_bdry * dt), as finish_step")
    else:
        body += [
            "",
            "# boundary ghost values and FLUX overrides, once per evaluation",
            "# (user callbacks execute on the CPU)",
            "ghost = state.bset.ghost_values(",
            "    u, t, dt, state.extra, out=state.buffer('ghost', (NCOMP, len(geom.bfaces))))",
        ]
        if form.surface_terms:
            body.append("overrides = state.bset.flux_overrides(u, t, dt, state.extra)")
        if inplace:
            body.append("state.require_private_inputs(u, ghost"
                        f"{', overrides' if form.surface_terms else ''})")
    if not inplace:
        body.append("rhs = np.empty((NCOMP, geom.ncells))")
    body += [
        "",
        "# cache-sized tiles of rows, blocks in assemblyLoops order ("
        + ", ".join(problem.config.assembly_order) + "): planned once",
        f"for {tile.tiles} in kernels.tile_plan("
        "state.plans, rows, NCOMP, height, TMAPS, state.row_blocks):",
    ]
    body += indent(tile.lines)
    if not inplace:
        body.append("return rhs")

    boundary = tile.boundary if folded else []
    return tile.setup + boundary + ["def compute_rhs(state, u, t, rows=None):"] + indent(body)


def emit_step_and_run(scheme: str) -> list[str]:
    """Source of ``step_once``/``run_steps`` (serial time loop)."""
    if scheme in _EULER:
        solve = ["compute_rhs(state, state.u, state.time)"]
    else:
        solve = [
            "u_new = stepper.advance(state.u, state.time, state.dt,",
            "                        lambda uu, tt: compute_rhs(state, uu, tt))",
            "state.u = u_new",
        ]
    return [
        "", "", "def step_once(state):",
        *indent([
            '"""Advance one explicit step (Eq. 3 of the paper)."""',
            "with state.phase('solve'):",
            *indent(solve),
            *ADVANCE,
        ]),
        *emit_step_loop("cpu_serial"),
    ]


def build_cpu_artifact(target: CodegenTarget, problem: "Problem"):
    """The serial CPU build phase, reusable by the hybrid target's
    CPU-fallback flavor: lowering + IR + emission + source."""
    if problem.equation is None:
        raise CodegenError("no conservation_form declared")
    unknown = problem.unknown
    expanded, form = lower_conservation_form(
        problem.equation.source, unknown, problem.entities, problem.operators
    )
    ir = build_ir(problem, form, flavor="cpu")
    emitter = ExprEmitter(problem, form)

    lines = source_header("cpu_serial", problem, print_ir(ir))
    lines += emit_rhs_function(problem, emitter)
    lines += emit_step_and_run(problem.config.stepper)
    source = "\n".join(lines) + "\n"

    return target.make_artifact(
        problem, source,
        static_env={
            **emitter.component_tables(),
            "NCOMP": unknown.space.ncomp,
            "NCELLS": problem.mesh.ncells,
        },
        attrs={
            "ir": ir,
            "classified_form": form,
            "expanded_expr": expanded,
        },
    )


class CPUSerialTarget(CodegenTarget):
    """Serial CPU generation (the baseline the paper's Fig. 9 starts from)."""

    name = "cpu"

    def build_artifact(self, problem: "Problem"):
        return build_cpu_artifact(self, problem)

    def bind_artifact(self, problem: "Problem", artifact) -> GeneratedSolver:
        return self.bind_solver(problem, artifact, SolverState(problem),
                                {"stepper": make_stepper(problem.config.stepper)})


__all__ = [
    "CPUSerialTarget",
    "build_cpu_artifact",
    "emit_rhs_function",
    "emit_step_and_run",
]
