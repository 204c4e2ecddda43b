"""Interpreted execution target — the emitter's cross-implementation oracle.

Instead of generating NumPy source, this target walks the classified
symbolic terms with :func:`repro.symbolic.evaluate.evaluate`, one component
at a time, binding leaves directly to mesh/field arrays.  It is orders of
magnitude slower than the generated code and exists for exactly one
reason: *an independent path from the same symbolic form to numbers*.  The
oracle tests in ``tests/codegen/test_interpreter_oracle.py`` demand that
the generated CPU solver and this interpreter agree to round-off on
arbitrary equations, which pins down the expression emitter far more
tightly than hand-picked cases could.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.codegen.state import SolverState
from repro.codegen.target_base import (
    ADVANCE,
    REDUCE_STEP,
    CodegenTarget,
    GeneratedSolver,
    emit_step_loop,
    indent,
    source_header,
)
from repro.ir.build import build_ir
from repro.ir.lowering import ClassifiedForm, lower_conservation_form
from repro.ir.nodes import print_ir
from repro.symbolic.evaluate import evaluate
from repro.symbolic.expr import (
    Expr,
    FaceDistance,
    FaceNormal,
    Indexed,
    Reconstruction,
    SideValue,
    Sym,
    preorder,
)
from repro.util.errors import CodegenError, DSLError

if TYPE_CHECKING:
    from repro.dsl.problem import Problem

_STEP_ONCE = [
    "", "", "def step_once(state):",
    *indent([
        '"""Interpreted step: evaluate the classified symbolic form directly."""',
        "with state.phase('solve'):",
        "    rhs = interpret_rhs(state, state.u, state.time)",
        "    with np.errstate(all='ignore'):  # (a blow-up is check_health's to report)",
        "        state.u = state.u + state.dt * rhs",
        *indent(REDUCE_STEP, 2),
        *ADVANCE,
    ]),
]


class _TermInterpreter:
    """Evaluates classified integrands against a solver state."""

    def __init__(self, problem: "Problem", form: ClassifiedForm):
        self.problem = problem
        self.form = form
        self.unknown = form.unknown
        self.space = self.unknown.space
        for term in form.surface_terms:
            for node in preorder(term):
                if isinstance(node, Reconstruction):
                    raise CodegenError(
                        "the interpreted target supports order-1 fluxes only"
                    )

    # ------------------------------------------------------------- leaf envs
    def _entity_value(self, name: str, comp_values: tuple[int, ...], state,
                      where: str) -> Any:
        """Value array of entity ``name`` at the unknown-component context."""
        ents = self.problem.entities
        kind = ents.kind_of(name)
        if kind == "variable":
            var = ents.variables[name]
            data = state.fields[name].data
            if not var.indices:
                return data[0]
            vcomp = tuple(
                comp_values[self.space.position(ix)] for ix in var.index_names()
            )
            return data[var.space.flatten(vcomp)]
        if kind == "coefficient":
            coef = ents.coefficients[name]
            if coef.is_function:
                points = (
                    state.geom.cell_center if where == "volume" else state.geom.center
                )
                return coef.at(points, state.time)
            if not coef.indices:
                return float(coef.value)
            ccomp = tuple(
                comp_values[self.space.position(ix)] for ix in coef.index_names()
            )
            return float(np.asarray(coef.value)[ccomp])
        raise DSLError(f"cannot interpret entity {name!r}")

    def rhs(self, state: SolverState, u: np.ndarray, t: float) -> np.ndarray:
        geom = state.geom
        owner_values = u[:, geom.bowner]
        ids, overrides = state.bset.flux_overrides(owner_values, t, state.dt, state.extra)
        ghost = state.bset.ghost_values(owner_values, t, state.dt, state.extra)
        u1, u2 = geom.gather_sides(u, ghost)
        ncomp = state.ncomp
        out = np.zeros_like(u)
        # silent on overflow and NaN, as the C sweeps are: a blow-up is
        # check_health's to report (the callbacks above warn as they would)
        with np.errstate(all="ignore"):
            for flat in range(ncomp):
                comp_values = self.space.unflatten(flat) if self.space.names else ()

                def lookup_volume(node: Expr) -> Any:
                    if isinstance(node, Indexed):
                        return self._entity_value(node.base, comp_values, state, "volume")
                    if isinstance(node, Sym):
                        if node.name == "dt":
                            return state.dt
                        if node.name.startswith("_") and node.name.endswith("_1"):
                            return self._entity_value(
                                node.name[1:-2], comp_values, state, "volume"
                            )
                    raise DSLError(f"unbound volume leaf {node}")

                def lookup_surface(node: Expr) -> Any:
                    if isinstance(node, SideValue):
                        inner = node.expr
                        name = inner.base if isinstance(inner, Indexed) else inner.name[1:-2]
                        if name != self.unknown.name:
                            raise DSLError("only the unknown has face sides")
                        return (u1 if node.side == 1 else u2)[flat]
                    if isinstance(node, FaceNormal):
                        return geom.normal[:, node.component - 1]
                    if isinstance(node, FaceDistance):
                        return geom.face_dist
                    if isinstance(node, Indexed):
                        vals = self._entity_value(node.base, comp_values, state, "surface")
                        kind = self.problem.entities.kind_of(node.base)
                        if kind == "variable":
                            return vals[geom.owner]  # owner-side evaluation
                        return vals
                    if isinstance(node, Sym):
                        if node.name == "dt":
                            return state.dt
                        name = node.name[1:-2]
                        vals = self._entity_value(name, comp_values, state, "surface")
                        if self.problem.entities.kind_of(name) == "variable":
                            return vals[geom.owner]
                        return vals
                    raise DSLError(f"unbound surface leaf {node}")

                if self.form.volume_terms:
                    for term in self.form.volume_terms:
                        value = evaluate(term, lookup_volume)
                        out[flat] += np.broadcast_to(value, (state.ncells,))
                if self.form.surface_terms:
                    flux = np.zeros(geom.nfaces)
                    for term in self.form.surface_terms:
                        value = evaluate(term, lookup_surface)
                        flux += np.broadcast_to(value, (geom.nfaces,))
                    flux[ids] = overrides[flat]
                    out[flat] += geom.surface_divergence(flux)
        return out


class InterpretedTarget(CodegenTarget):
    """No-codegen execution path (slow; for oracle testing and debugging)."""

    name = "interp"

    def build_artifact(self, problem: "Problem"):
        if problem.equation is None:
            raise CodegenError("no conservation_form declared")
        if problem.config.stepper not in ("euler", "euler_explicit"):
            raise CodegenError("the interpreted target implements forward Euler only")
        unknown = problem.unknown
        expanded, form = lower_conservation_form(
            problem.equation.source, unknown, problem.entities, problem.operators
        )
        ir = build_ir(problem, form, flavor="cpu")

        lines = source_header("interpreted", problem, print_ir(ir))
        lines.append("# no generated numerics: interpret_rhs walks the symbolic form")
        lines += _STEP_ONCE + emit_step_loop("interpreted")
        source = "\n".join(lines) + "\n"
        return self.make_artifact(
            problem, source,
            attrs={
                "ir": ir,
                "classified_form": form,
                "expanded_expr": expanded,
            },
        )

    def bind_artifact(self, problem: "Problem", artifact) -> GeneratedSolver:
        # the interpreter holds problem references, so it is rebuilt per
        # bind from the cached classified form (the expensive lowering)
        interp = _TermInterpreter(problem, artifact.attrs["classified_form"])
        return self.bind_solver(problem, artifact, SolverState(problem),
                                {"interpret_rhs": interp.rhs})


__all__ = ["InterpretedTarget"]
