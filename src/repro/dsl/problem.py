"""The problem context: configuration + entities + equations.

A :class:`Problem` accumulates everything the paper's input script declares
(domain, solver type, stepper, mesh, entities, boundary conditions, hooks,
loop ordering, GPU flag) and hands a validated description to the code
generators.  :mod:`repro.dsl.api` wraps it in Finch's script-global style.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.dsl.entities import (
    CELL,
    VAR_ARRAY,
    VAR_SCALAR,
    CallbackFunction,
    Coefficient,
    EntityTable,
    Index,
    Reduction,
    Variable,
)
from repro.fvm.boundary import BCKind
from repro.mesh.mesh import Mesh
from repro.symbolic.expr import Call, Expr, Num, Sym
from repro.symbolic.operators import OperatorRegistry, default_registry
from repro.symbolic.parser import parse
from repro.util.errors import ConfigError, DSLError


@dataclass
class SolverConfig:
    """Numerical/config choices gathered from the DSL commands."""

    dimension: int = 2
    solver_type: str = "FV"
    stepper: str = "euler"
    dt: float = 0.0
    nsteps: int = 0
    use_gpu: bool = False
    gpu_spec: Any = None  # DeviceSpec; default chosen by the GPU target
    # partitioning: 'none' (serial), 'cells' (mesh partition) or 'bands'
    # (equation partition over a named index)
    partition_strategy: str = "none"
    partition_index: str | None = None  # index name for equation partitioning
    nparts: int = 1
    assembly_order: list[str] = field(default_factory=lambda: ["cells"])
    flux_order: int = 1

    def validate(self) -> None:
        if self.solver_type not in ("FV", "FEM"):
            raise ConfigError(
                f"solver type must be FV or FEM (got {self.solver_type!r})"
            )
        if self.dimension not in (1, 2, 3):
            raise ConfigError(f"dimension must be 1, 2 or 3 (got {self.dimension})")
        if self.dt <= 0 or self.nsteps <= 0:
            raise ConfigError(
                f"set_steps(dt, nsteps) required before solving (dt={self.dt}, "
                f"nsteps={self.nsteps})"
            )
        if self.partition_strategy not in ("none", "cells", "bands"):
            raise ConfigError(
                f"unknown partition strategy {self.partition_strategy!r}"
            )
        if self.partition_strategy == "bands" and not self.partition_index:
            raise ConfigError("band partitioning needs the index to split over")
        if self.nparts < 1:
            raise ConfigError(f"nparts must be >= 1 (got {self.nparts})")


@dataclass
class BoundarySpec:
    """One ``boundary(var, region, kind, spec)`` declaration (pre-lowering)."""

    variable: str
    region: int
    kind: BCKind
    # exactly one of the following is used, depending on kind
    value: float | np.ndarray | None = None
    call: Call | None = None  # parsed callback invocation string
    reflection_map: np.ndarray | None = None
    python_callback: Callable | None = None


@dataclass
class EquationSpec:
    """One ``conservation_form(var, input)`` declaration."""

    variable: str
    source: str
    parsed: Expr


class Problem:
    """Mutable DSL context for one simulation setup."""

    def __init__(self, name: str = "problem"):
        self.name = name
        self.config = SolverConfig()
        self.entities = EntityTable()
        self.operators: OperatorRegistry = default_registry()
        self.mesh: Mesh | None = None
        self.equation: EquationSpec | None = None
        self.equation_kind: str = "conservation"
        self.boundaries: list[BoundarySpec] = []
        self.initial_values: dict[str, Any] = {}
        self.pre_step_callbacks: list[CallbackFunction] = []
        self.post_step_callbacks: list[CallbackFunction] = []
        self.extra: dict[str, Any] = {}  # user data passed to callbacks

    # ------------------------------------------------------------ configuration
    def set_domain(self, dimension: int) -> None:
        self.config.dimension = int(dimension)

    def set_solver_type(self, solver_type: str) -> None:
        self.config.solver_type = solver_type

    def set_stepper(self, name: str) -> None:
        self.config.stepper = name

    def set_steps(self, dt: float, nsteps: int) -> None:
        if dt <= 0:
            raise ConfigError(f"dt must be positive (got {dt})")
        if nsteps < 1:
            raise ConfigError(f"nsteps must be >= 1 (got {nsteps})")
        self.config.dt = float(dt)
        self.config.nsteps = int(nsteps)

    def enable_gpu(self, spec: Any = None) -> None:
        """The ``useCUDA()`` analogue: switch generation to the hybrid target."""
        self.config.use_gpu = True
        if spec is not None:
            self.config.gpu_spec = spec

    def set_partitioning(
        self, strategy: str, nparts: int = 1, index: str | Index | None = None
    ) -> None:
        self.config.partition_strategy = strategy
        self.config.nparts = int(nparts)
        self.config.partition_index = index.name if isinstance(index, Index) else index

    def set_flux_order(self, order: int) -> None:
        """Flux-reconstruction order for ``upwind`` (paper: order one is
        "the default flux reconstruction order").

        Order 1 is the paper's conditional upwinding; order 2 swaps the
        ``upwind`` operator for the limited-linear MUSCL reconstruction
        (CPU targets only in this reproduction).
        """
        from repro.symbolic.operators import SymbolicOperator, expand_upwind, expand_upwind2

        if order not in (1, 2):
            raise ConfigError(f"flux reconstruction order must be 1 or 2, got {order}")
        expand = expand_upwind if order == 1 else expand_upwind2
        self.operators.register(
            SymbolicOperator("upwind", 2, expand,
                             f"order-{order} upwind flux reconstruction"),
            replace=True,
        )
        self.config.flux_order = order

    def set_assembly_loops(self, order: Sequence[str | Index]) -> None:
        """``assemblyLoops([band, "cells", direction])`` — loop-nest order.

        Entries are index entities/names plus the literal ``"cells"`` (the
        paper also spells it ``"elements"``).
        """
        names: list[str] = []
        for item in order:
            if isinstance(item, Index):
                names.append(item.name)
            elif item in ("cells", "elements"):
                names.append("cells")
            else:
                if self.entities.kind_of(str(item)) != "index":
                    raise DSLError(f"assembly_loops: unknown loop {item!r}")
                names.append(str(item))
        if "cells" not in names:
            raise DSLError("assembly_loops must include the cell loop ('cells')")
        if len(set(names)) != len(names):
            raise DSLError(f"assembly_loops: duplicate entries in {names}")
        self.config.assembly_order = names

    def set_mesh(self, mesh: Mesh) -> None:
        if mesh.dim != self.config.dimension:
            raise ConfigError(
                f"mesh dimension {mesh.dim} != configured domain {self.config.dimension}"
            )
        self.mesh = mesh

    # ------------------------------------------------------------------ entities
    def add_index(self, name: str, range: tuple[int, int]) -> Index:  # noqa: A002
        lo, hi = range
        return self.entities.add_index(Index(name, int(lo), int(hi)))

    def add_variable(
        self,
        name: str,
        var_type: str = VAR_SCALAR,
        location: str = CELL,
        index: Sequence[Index] | None = None,
    ) -> Variable:
        return self.entities.add_variable(
            Variable(name, var_type, location, tuple(index or ()))
        )

    def add_coefficient(
        self,
        name: str,
        value: Any,
        var_type: str = VAR_SCALAR,
        index: Sequence[Index] | None = None,
    ) -> Coefficient:
        return self.entities.add_coefficient(
            Coefficient(name, value, var_type, tuple(index or ()))
        )

    def add_callback(self, fn: Callable, name: str | None = None) -> CallbackFunction:
        cb = CallbackFunction(name or fn.__name__, fn, doc=fn.__doc__ or "")
        return self.entities.add_callback(cb)

    def add_custom_operator(self, name: str, expand: Callable, arity: int | None = None) -> None:
        """Import a user-defined symbolic operator (paper Sec. II-A)."""
        self.operators.define(name, expand, arity)

    # ------------------------------------------------------- equations and BCs
    def set_conservation_form(self, variable: Variable | str, source: str) -> None:
        var = self._variable(variable)
        if self.equation is not None:
            raise DSLError("an equation was already declared")
        parsed = parse(source)
        self.equation = EquationSpec(variable=var.name, source=source, parsed=parsed)
        self.equation_kind = "conservation"

    def set_weak_form(self, variable: Variable | str, source: str) -> None:
        """Declare the PDE in weak form (the FEM path, paper Sec. II-A).

        The test function is the reserved symbol ``v``; the time term
        ``∫ du/dt v`` is implicit.  Example::

            problem.set_solver_type("FEM")
            problem.set_weak_form(u, "-k*dot(grad(u), grad(v)) + f*v")
        """
        var = self._variable(variable)
        if self.equation is not None:
            raise DSLError("an equation was already declared")
        if self.entities.kind_of("v") is not None:
            raise DSLError("the name 'v' is reserved for the test function")
        parsed = parse(source)
        self.equation = EquationSpec(variable=var.name, source=source, parsed=parsed)
        self.equation_kind = "weak"

    def add_boundary(
        self,
        variable: Variable | str,
        region: int,
        kind: BCKind | str,
        spec: Any = None,
        reflection_map: np.ndarray | None = None,
    ) -> None:
        """Declare a boundary condition.

        ``spec`` depends on ``kind``: a value for DIRICHLET; a callback
        invocation string (``"isothermal(I, vg, ..., 300)"``) or a Python
        callable for FLUX / ghost callbacks; nothing for NEUMANN0; an
        optional ``reflection_map`` for SYMMETRY.
        """
        var = self._variable(variable)
        if isinstance(kind, str):
            kind = BCKind(kind.lower())
        bspec = BoundarySpec(variable=var.name, region=int(region), kind=kind)
        if kind == BCKind.DIRICHLET:
            if spec is None:
                raise DSLError("Dirichlet boundary needs a value")
            bspec.value = spec
        elif kind in (BCKind.FLUX, BCKind.GHOST_CALLBACK):
            if isinstance(spec, str):
                call = parse(spec)
                if not isinstance(call, Call):
                    raise DSLError(
                        f"boundary spec {spec!r} must be a callback invocation"
                    )
                if self.entities.kind_of(call.func) != "callback":
                    raise DSLError(
                        f"boundary callback {call.func!r} is not an imported callback"
                    )
                bspec.call = call
            elif callable(spec):
                bspec.python_callback = spec
            else:
                raise DSLError(
                    "flux boundary needs a callback string or Python callable"
                )
        elif kind == BCKind.SYMMETRY:
            if reflection_map is None and spec is not None:
                reflection_map = spec
            if reflection_map is None:
                raise DSLError("symmetry boundary needs a reflection map")
            bspec.reflection_map = np.asarray(reflection_map, dtype=np.int64)
        elif kind == BCKind.NEUMANN:
            if spec is None:
                raise DSLError("Neumann boundary needs a flux value")
            bspec.value = spec
        elif kind == BCKind.NEUMANN0:
            pass
        else:
            raise DSLError(f"unsupported boundary kind {kind}")
        for existing in self.boundaries:
            if existing.variable == var.name and existing.region == bspec.region:
                raise DSLError(
                    f"variable {var.name}: region {region} already has a condition"
                )
        self.boundaries.append(bspec)

    def set_initial(self, variable: Variable | str, values: Any) -> None:
        """Initial condition: scalar, (ncomp,) per-component array,
        (ncomp, ncells) full array, or callable ``f(x) -> value``."""
        var = self._variable(variable)
        self.initial_values[var.name] = values

    def add_pre_step(self, fn: Callable, name: str | None = None) -> None:
        self.pre_step_callbacks.append(
            CallbackFunction(name or fn.__name__, fn, doc=fn.__doc__ or "")
        )

    def add_post_step(self, fn: Callable, name: str | None = None,
                      reduce: Reduction | None = None) -> None:
        """``postStepFunction`` — e.g. the BTE temperature update.  With
        ``reduce`` the callback declares that all it reads of the unknown is
        that :class:`Reduction`; the device targets then compute it where
        the unknown lives and call ``fn(state, reduced)``."""
        self.post_step_callbacks.append(
            CallbackFunction(name or fn.__name__, fn, doc=fn.__doc__ or "",
                             reduce=reduce)
        )

    # ------------------------------------------------------------------ helpers
    def _variable(self, variable: Variable | str) -> Variable:
        name = variable.name if isinstance(variable, Variable) else str(variable)
        if name not in self.entities.variables:
            raise DSLError(f"unknown variable {name!r}")
        return self.entities.variables[name]

    @property
    def unknown(self) -> Variable:
        if self.equation is None:
            raise ConfigError("no conservation_form declared")
        return self.entities.variables[self.equation.variable]

    def validate(self) -> None:
        """Check the configuration is complete and consistent."""
        self.config.validate()
        if self.mesh is None:
            raise ConfigError("no mesh set")
        if self.equation is None:
            raise ConfigError("no conservation_form/weak_form declared")
        if self.config.solver_type == "FEM":
            if self.equation_kind != "weak":
                raise ConfigError("the FEM solver needs weak_form input")
            if self.unknown.indices:
                raise ConfigError("the FEM path supports scalar unknowns")
            return  # uncovered FEM regions are natural (zero-flux) boundaries
        if self.equation_kind != "conservation":
            raise ConfigError("the FV solver needs conservation_form input")
        unknown = self.unknown
        regions = set(self.mesh.boundary_regions())
        covered = {b.region for b in self.boundaries if b.variable == unknown.name}
        missing = regions - covered
        if missing:
            raise ConfigError(
                f"boundary regions without conditions for {unknown.name!r}: "
                f"{sorted(missing)}"
            )
        extra_regions = covered - regions
        if extra_regions:
            raise ConfigError(
                f"boundary conditions reference unknown regions {sorted(extra_regions)}"
            )
        for name in self.config.assembly_order:
            if name != "cells" and name not in unknown.space.names:
                raise ConfigError(
                    f"assembly loop {name!r} is not an index of {unknown.name!r}"
                )
        if self.config.partition_strategy == "bands":
            ix = self.config.partition_index
            if ix not in unknown.space.names:
                raise ConfigError(
                    f"band-partition index {ix!r} is not an index of {unknown.name!r}"
                )

    # --------------------------------------------------------------- generation
    def resolve_target(self, target: str | None = None) -> str:
        """The codegen target ``generate`` would dispatch to.

        ``target`` passes an explicit choice through; ``None`` applies the
        automatic dispatch over the configuration.  The solver service uses
        this to compute a request's cache key without generating.
        """
        if target is not None:
            return target
        if self.config.solver_type == "FEM":
            return "fem"
        if self.config.use_gpu and self.config.nparts > 1:
            return "gpu_distributed"  # one CPU process per device (Fig. 7)
        if self.config.use_gpu:
            return "gpu"
        if self.config.nparts > 1:
            return "distributed"
        return "cpu"

    def generate(self, target: str | None = None):
        """Generate a solver.  ``target`` overrides the automatic choice:
        ``'cpu'``, ``'distributed'`` or ``'gpu'``."""
        from repro.codegen import make_target  # local import: avoid cycle

        self.validate()
        return make_target(self.resolve_target(target)).generate(self)

    def solve(self, variable: Variable | str | None = None, target: str | None = None):
        """Generate and run to completion; returns the finished solver."""
        if variable is not None:
            var = self._variable(variable)
            if self.equation is not None and var.name != self.equation.variable:
                raise DSLError(
                    f"solve({var.name}) does not match the declared unknown "
                    f"{self.equation.variable!r}"
                )
        solver = self.generate(target)
        solver.run()
        return solver


__all__ = ["Problem", "SolverConfig", "BoundarySpec", "EquationSpec"]
