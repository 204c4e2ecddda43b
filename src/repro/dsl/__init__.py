"""Finch-like DSL front end.

This package is the user-facing surface of the reproduction — the Python
analogue of the Julia input deck in the paper's appendix::

    import repro.dsl as finch

    finch.init_problem("bte-gpu")
    finch.domain(2)
    finch.solver_type(finch.FV)
    finch.time_stepper(finch.EULER_EXPLICIT)
    finch.set_steps(1e-12, 10000)
    finch.use_gpu()                       # useCUDA() analogue

    finch.mesh(structured_grid((120, 120), bounds))

    d = finch.index("d", range=(1, ndirs))
    b = finch.index("b", range=(1, nbands))
    I = finch.variable("I", finch.VAR_ARRAY, finch.CELL, index=[d, b])
    ...
    finch.boundary(I, 1, finch.FLUX, "isothermal(I, vg, Sx, Sy, b, d, normal, 300)")
    finch.assembly_loops(["elements", b, d])
    finch.post_step(update_temperature)
    finch.conservation_form(I, "(Io[b] - I[d,b]) / beta[b] - "
                               "surface(vg[b] * upwind([Sx[d];Sy[d]], I[d,b]))")
    solver = finch.solve(I)

See :mod:`repro.dsl.api` for the full command list and
:mod:`repro.dsl.problem` for the underlying object API (usable directly when
the script-global style is not wanted).
"""

from repro.dsl.entities import (
    Index,
    Variable,
    Coefficient,
    CallbackFunction,
    Reduction,
    EntityTable,
    VAR_ARRAY,
    VAR_SCALAR,
    CELL,
    NODE,
)
from repro.dsl.problem import Problem, SolverConfig
from repro.dsl.api import (
    init_problem,
    current_problem,
    domain,
    solver_type,
    time_stepper,
    set_steps,
    use_gpu,
    use_cuda,
    mesh,
    index,
    variable,
    coefficient,
    callback_function,
    boundary,
    initial,
    assembly_loops,
    flux_order,
    pre_step,
    post_step,
    conservation_form,
    weak_form,
    custom_operator,
    register_function,
    partitioning,
    generate,
    solve,
    finalize,
    FV,
    FEM,
    EULER_EXPLICIT,
    RK2,
    RK4,
    FLUX,
    DIRICHLET,
    NEUMANN0,
    SYMMETRY,
)

__all__ = [
    "Index",
    "Variable",
    "Coefficient",
    "CallbackFunction",
    "Reduction",
    "EntityTable",
    "VAR_ARRAY",
    "VAR_SCALAR",
    "CELL",
    "NODE",
    "Problem",
    "SolverConfig",
    "init_problem",
    "current_problem",
    "domain",
    "solver_type",
    "time_stepper",
    "set_steps",
    "use_gpu",
    "use_cuda",
    "mesh",
    "index",
    "variable",
    "coefficient",
    "callback_function",
    "boundary",
    "initial",
    "assembly_loops",
    "flux_order",
    "pre_step",
    "post_step",
    "conservation_form",
    "weak_form",
    "custom_operator",
    "register_function",
    "partitioning",
    "generate",
    "solve",
    "finalize",
    "FV",
    "FEM",
    "EULER_EXPLICIT",
    "RK2",
    "RK4",
    "FLUX",
    "DIRICHLET",
    "NEUMANN0",
    "SYMMETRY",
]
