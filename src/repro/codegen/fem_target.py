"""FEM code-generation target (P1, lumped-mass explicit stepping).

Selected by ``solver_type(FEM)`` + ``weak_form(u, "...")``.  The weak-form
pipeline classifies the input into the paper's bilinear/linear groups
(:mod:`repro.fem.weakform`); this target assembles the corresponding sparse
operators once, composes the semi-discrete system

    M_L du/dt = A u + F        (A = sum of signed stiffness/mass/advection)

and generates the explicit step source around it.  Dirichlet regions pin
their boundary nodes after every update (strong enforcement); all other
regions are natural (zero-flux) boundaries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np
import scipy.sparse as sp

from repro.codegen.state import StepHooks
from repro.codegen.target_base import (
    ADVANCE,
    CodegenTarget,
    GeneratedSolver,
    emit_step_loop,
    indent,
)
from repro.fem.assemble import (
    assemble_advection,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    boundary_lumped_mass,
    dirichlet_nodes,
    lumped_mass,
)
from repro.fem.p1 import build_p1
from repro.fem.weakform import lower_weak_form
from repro.fvm.boundary import BCKind
from repro.symbolic.evaluate import evaluate
from repro.symbolic.expr import Expr, Sym
from repro.util.errors import CodegenError, ConfigError
from repro.util.misc import check_finite
from repro.util.timing import TimerRegistry

if TYPE_CHECKING:
    from repro.dsl.problem import Problem


class FEMState(StepHooks):
    """Nodal solver state (the FEM analogue of ``SolverState``): of the
    end-of-step hooks it has the sanitizer's — no checkpoints, no elastic
    runtime, no solver metrics."""

    def __init__(self, problem: "Problem", p1) -> None:
        self.problem = problem
        self.mesh = problem.mesh
        self.p1 = p1
        self.dt = problem.config.dt
        self.nsteps = problem.config.nsteps
        self.time = 0.0
        self.step_index = 0
        self.timers = TimerRegistry()
        self.extra: dict[str, Any] = dict(problem.extra)
        self.nnodes = p1.nnodes
        self._u = np.zeros((1, self.nnodes))
        self._apply_initial()

    @property
    def u(self) -> np.ndarray:
        return self._u

    @u.setter
    def u(self, values: np.ndarray) -> None:
        self._u[...] = values

    def _apply_initial(self) -> None:
        unknown = self.problem.unknown.name
        init = self.problem.initial_values.get(unknown)
        if init is None:
            return
        if callable(init):
            vals = np.asarray(init(self.p1.mesh.nodes), dtype=np.float64)
            if vals.shape != (self.nnodes,):
                raise ConfigError(
                    f"FEM initial condition returned {vals.shape}, expected "
                    f"({self.nnodes},) nodal values"
                )
            self._u[0] = vals
        else:
            arr = np.asarray(init, dtype=np.float64)
            if arr.ndim == 0:
                self._u[0] = float(arr)
            elif arr.shape == (self.nnodes,):
                self._u[0] = arr
            else:
                raise ConfigError(
                    f"FEM initial condition shape {arr.shape} != ({self.nnodes},)"
                )

    def check_health(self) -> None:
        check_finite(self.problem.unknown.name, self._u)


_STEP_ONCE = [
    "", "", "def step_once(state):",
    *indent([
        '"""Explicit lumped-mass step: u += dt * invM_L * (A u + F)."""',
        "with state.phase('solve'):",
        "    rhs = A_OPERATOR @ state.u[0] + LOAD",
        "    state.u[0] = state.u[0] + state.dt * rhs * INV_LUMPED_MASS",
        "    # strong Dirichlet enforcement",
        "    state.u[0][DIRICHLET_NODES] = DIRICHLET_VALUES",
        *ADVANCE,
    ]),
]


def _eval_coefficient(problem: "Problem", expr: Expr, points: np.ndarray):
    """Evaluate a weak-term coefficient product at points (or a scalar)."""
    ents = problem.entities

    def lookup(node: Expr):
        if isinstance(node, Sym):
            coef = ents.coefficients.get(node.name)
            if coef is None:
                raise CodegenError(f"unknown coefficient {node.name!r}")
            if coef.is_function:
                return np.asarray(coef.value(points), dtype=np.float64)
            return float(coef.value)
        raise CodegenError(f"cannot evaluate weak coefficient leaf {node}")

    return evaluate(expr, lookup)


class FEMTarget(CodegenTarget):
    """P1 explicit FEM generation."""

    name = "fem"

    def build_artifact(self, problem: "Problem"):
        if problem.equation is None or problem.equation.source is None:
            raise CodegenError("no weak_form declared")
        if getattr(problem, "equation_kind", "conservation") != "weak":
            raise CodegenError("the FEM target needs weak_form input")
        if problem.config.stepper not in ("euler", "euler_explicit"):
            raise CodegenError("the FEM target implements forward Euler")
        unknown = problem.unknown

        p1 = build_p1(problem.mesh)
        form = lower_weak_form(problem, unknown.name, problem.equation.source)

        # --- assemble the signed operator sum -------------------------------
        A = sp.csr_matrix((p1.nnodes, p1.nnodes))
        load = np.zeros(p1.nnodes)
        for term in form.bilinear:
            coeff = _eval_coefficient(problem, term.coefficient, p1.mesh.cell_centroids)
            if term.kind == "stiffness":
                A = A + assemble_stiffness(p1, coeff)
            elif term.kind == "mass":
                A = A + assemble_mass(p1, coeff)
            elif term.kind == "advection":
                vel_cols = [
                    _eval_coefficient(problem, c, p1.mesh.cell_centroids)
                    * np.ones(p1.nelem)
                    for c in term.velocity
                ]
                A = A + assemble_advection(p1, np.stack(vel_cols, axis=1))
            else:  # pragma: no cover - guarded by the classifier
                raise CodegenError(f"unexpected bilinear kind {term.kind}")
        for term in form.linear:
            coeff = term.coefficient
            # the load integrates f * phi_i with nodal quadrature: evaluate
            # the coefficient at the nodes
            values = _eval_coefficient(problem, coeff, p1.mesh.nodes)
            load += lumped_mass(p1) * (values * np.ones(p1.nnodes))

        inv_ml = 1.0 / lumped_mass(p1)

        # --- boundary bookkeeping ---------------------------------------------
        dir_regions: list[int] = []
        dir_values: dict[int, float] = {}
        neumann_listing: list[str] = []
        for spec in problem.boundaries:
            if spec.variable != unknown.name:
                continue
            if spec.kind == BCKind.DIRICHLET:
                dir_regions.append(spec.region)
                dir_values[spec.region] = float(np.asarray(spec.value))
            elif spec.kind == BCKind.NEUMANN0:
                continue  # natural zero-flux boundary
            elif spec.kind == BCKind.NEUMANN:
                # the boundary linear group: ∮ g v dA  (outward flux g into
                # the domain enters with +, the weak-form sign convention)
                g = float(np.asarray(spec.value))
                load += g * boundary_lumped_mass(p1, spec.region)
                neumann_listing.append(
                    f"  boundary load(region={spec.region}, g={g})"
                )
            else:
                raise CodegenError(
                    f"FEM target supports DIRICHLET/NEUMANN0/NEUMANN "
                    f"boundaries, got {spec.kind} on region {spec.region}"
                )
        node_table = p1.node_regions()
        nodes_list: list[int] = []
        values_list: list[float] = []
        for r in dir_regions:
            for nd in node_table[r]:
                nodes_list.append(int(nd))
                values_list.append(dir_values[r])
        dir_nodes = np.array(nodes_list, dtype=np.int64)
        dir_vals = np.array(values_list)

        # --- source ------------------------------------------------------------
        lines = [
            f'"""Generated by repro.codegen.fem_target for {problem.name!r}.',
            "",
            f"weak form: {problem.equation.source}",
            "classification (paper Sec. II-A, weak-form path):",
        ]
        lines += ["    " + ln for ln in form.listing().splitlines()]
        if neumann_listing:
            lines.append("    Linear boundary:")
            lines += ["    " + ln for ln in neumann_listing]
        lines += ['"""', *_STEP_ONCE, *emit_step_loop("fem")]
        source = "\n".join(lines) + "\n"

        # operators, load, boundary tables: all picklable — the whole
        # assembly is the cacheable half (function coefficients are baked
        # in here; their code identity is part of the cache key)
        return self.make_artifact(
            problem, source,
            static_env={
                "A_OPERATOR": A,
                "LOAD": load,
                "INV_LUMPED_MASS": inv_ml,
                "DIRICHLET_NODES": dir_nodes,
                "DIRICHLET_VALUES": dir_vals,
            },
            attrs={
                "weak_form": form,
                "p1": p1,
                "operators": {"A": A, "load": load, "lumped_mass": 1.0 / inv_ml},
            },
        )

    def bind_artifact(self, problem: "Problem", artifact) -> GeneratedSolver:
        state = FEMState(problem, artifact.attrs["p1"])
        dir_nodes = artifact.static_env["DIRICHLET_NODES"]
        if len(dir_nodes):
            # consistent initial boundary
            state.u[0, dir_nodes] = artifact.static_env["DIRICHLET_VALUES"]
        return self.bind_solver(problem, artifact, state, {})


__all__ = ["FEMTarget", "FEMState"]
