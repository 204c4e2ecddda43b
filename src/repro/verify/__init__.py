"""Static verification + runtime sanitizing for the DSL->IR->codegen pipeline.

Three layers, one diagnostic vocabulary (stable ``RPR###`` codes, see
:mod:`repro.verify.codes`):

1. **static DSL/IR checks** (:mod:`repro.verify.static_checks`) — undefined
   symbols, index/shape consistency, boundary coverage, loop ordering,
   conservation-form well-formedness;
2. **placement & schedule hazards** (:mod:`repro.verify.placement_checks`,
   :mod:`repro.verify.schedule`) — transfer-plan completeness, WAW and
   kernel-vs-CPU races, SPMD send/recv matching and deadlock detection;
3. **runtime sanitizer** (:mod:`repro.verify.sanitizer`) — NaN/Inf guards,
   halo checksums, residency and stability checks during a ``--sanitize``
   run.

Entry points: ``bte lint <script>`` on the CLI, :func:`lint_problem` /
:func:`verify_solver` from code, :func:`sanitize_run` around a solve.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "codes": ("CATALOGUE", "CodeInfo", "describe", "render_catalogue"),
    "diagnostics": ("Diagnostic", "DiagnosticReport"),
    "lint": ("ScriptLint", "lint_paths", "lint_problem", "lint_script", "verify_solver"),
    "placement_checks": (
        "check_hazards",
        "check_placement",
        "check_transfers",
        "verify_solver_placement",
    ),
    "sanitizer": ("Sanitizer", "SanitizerError", "sanitize_run"),
    "schedule": (
        "CollectiveOp",
        "RecvOp",
        "SendOp",
        "check_halo_symmetry",
        "halo_programs",
        "simulate_schedule",
        "verify_halo_layout",
        "verify_solver_schedule",
    ),
    "static_checks": ("check_problem",),
})
