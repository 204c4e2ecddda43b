"""Layer 1: static DSL / IR verification of a :class:`~repro.dsl.problem.Problem`.

Unlike :meth:`Problem.validate` (which raises on the first inconsistency),
these checks walk the whole declaration and collect *every* finding as a
:class:`~repro.verify.diagnostics.Diagnostic`, pointing back into the
equation source with a caret where possible.  The checks deliberately
re-derive their facts from the declaration (instead of trusting the setter
guards) so problems assembled programmatically — or mutated by tests — are
verified just as strictly as script-built ones.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

from repro.symbolic.expr import Call, Indexed, Surface, Sym, preorder
from repro.util.errors import DSLError, ParseError, ReproError
from repro.verify.diagnostics import Diagnostic, DiagnosticReport

if TYPE_CHECKING:
    from repro.dsl.problem import Problem

#: names the expression language resolves implicitly (see ir.lowering)
_RESERVED = {"dt", "t", "time", "normal", "x", "y", "z"}


def _find_name(source: str, name: str) -> int:
    """Offset of the first whole-word occurrence of ``name`` (-1 if absent)."""
    m = re.search(rf"(?<![\w.]){re.escape(name)}(?![\w])", source)
    return m.start() if m else -1


def check_problem(problem: "Problem") -> DiagnosticReport:
    """Run every static check against ``problem``; never raises."""
    report = DiagnosticReport()
    _check_config(problem, report)
    _check_mesh(problem, report)
    _check_equation(problem, report)
    _check_boundaries(problem, report)
    _check_assembly_order(problem, report)
    _check_partitioning(problem, report)
    if not report.has_errors:
        _check_well_formedness(problem, report)
    return report


# ---------------------------------------------------------------------- config

def _check_config(problem: "Problem", report: DiagnosticReport) -> None:
    cfg = problem.config
    report.checks_run += 1
    if cfg.dimension not in (1, 2, 3):
        report.add(Diagnostic.from_code(
            "RPR001", f"dimension must be 1, 2 or 3 (got {cfg.dimension})"))
    report.checks_run += 1
    if cfg.dt <= 0 or cfg.nsteps <= 0:
        report.add(Diagnostic.from_code(
            "RPR132",
            f"set_steps(dt, nsteps) required before solving "
            f"(dt={cfg.dt}, nsteps={cfg.nsteps})"))


def _check_mesh(problem: "Problem", report: DiagnosticReport) -> None:
    report.checks_run += 1
    if problem.mesh is None:
        report.add(Diagnostic.from_code("RPR120", "no mesh set"))
        return
    if problem.mesh.dim != problem.config.dimension:
        report.add(Diagnostic.from_code(
            "RPR133",
            f"mesh dimension {problem.mesh.dim} != declared domain "
            f"{problem.config.dimension}"))


# -------------------------------------------------------------------- equation

def _check_equation(problem: "Problem", report: DiagnosticReport) -> None:
    report.checks_run += 1
    eq = problem.equation
    if eq is None:
        report.add(Diagnostic.from_code("RPR110", "no conservation_form declared"))
        return
    _check_expression(problem, report)


def _check_expression(problem: "Problem", report: DiagnosticReport) -> None:
    eq = problem.equation
    entities = problem.entities
    source = eq.source

    from repro.symbolic.evaluate import DEFAULT_FUNCTIONS

    report.checks_run += 3  # symbols, indices, functions
    seen: set[tuple[str, str]] = set()  # (code, subject) dedup

    def add_once(code: str, subject: str, message: str) -> None:
        if (code, subject) in seen:
            return
        seen.add((code, subject))
        report.add(Diagnostic.from_code(
            code, message, source=source, position=_find_name(source, subject)))

    for node in preorder(eq.parsed):
        if isinstance(node, Call):
            known = (
                node.func in problem.operators
                or entities.kind_of(node.func) == "callback"
                or node.func in DEFAULT_FUNCTIONS
            )
            if not known:
                add_once("RPR102", node.func,
                         f"unknown function {node.func!r}: neither a symbolic "
                         "operator, a math function, nor an imported callback")
        elif isinstance(node, Sym):
            kind = entities.kind_of(node.name)
            if kind is None and node.name not in _RESERVED:
                add_once("RPR101", node.name,
                         f"unknown symbol {node.name!r} in equation input")
            elif kind == "callback":
                add_once("RPR106", node.name,
                         f"callback {node.name!r} must be called, not referenced")
            elif kind in ("variable", "coefficient"):
                ent = (entities.variables[node.name] if kind == "variable"
                       else entities.coefficients[node.name])
                if getattr(ent, "indices", ()):
                    add_once("RPR105", node.name,
                             f"{kind} {node.name!r} is indexed and must be "
                             f"referenced as "
                             f"{node.name}[{','.join(ent.index_names())}]")
        elif isinstance(node, Indexed):
            _check_indexed_node(node, problem, add_once)

    # nested surface integrals
    report.checks_run += 1
    for node in preorder(eq.parsed):
        if isinstance(node, Call) and node.func == "surface":
            for inner in preorder(node):
                if inner is not node and isinstance(inner, Call) \
                        and inner.func == "surface":
                    add_once("RPR107", "surface",
                             "nested surface(...) integrals are not allowed")
        if isinstance(node, Surface):  # pre-expanded trees
            for inner in preorder(node.expr):
                if isinstance(inner, Surface):
                    add_once("RPR107", "surface",
                             "nested surface(...) integrals are not allowed")

    # the unknown should appear in its own equation
    report.checks_run += 1
    unknown = eq.variable
    appears = any(
        (isinstance(n, Sym) and n.name == unknown)
        or (isinstance(n, Indexed) and n.base == unknown)
        for n in preorder(eq.parsed)
    )
    if not appears:
        report.add(Diagnostic.from_code(
            "RPR109",
            f"unknown {unknown!r} does not appear in its own equation",
            source=source, position=-1))


def _check_indexed_node(node: Indexed, problem: "Problem", add_once) -> None:
    entities = problem.entities
    kind = entities.kind_of(node.base)
    if kind == "variable":
        declared = entities.variables[node.base].index_names()
    elif kind == "coefficient":
        declared = entities.coefficients[node.base].index_names()
    else:
        add_once("RPR101", node.base,
                 f"unknown indexed entity {node.base!r}")
        return
    if len(node.indices) != len(declared):
        add_once("RPR103", node.base,
                 f"{node.base}[{','.join(map(str, node.indices))}]: expected "
                 f"{len(declared)} index(es) {list(declared)}")
        return
    for given, want in zip(node.indices, declared):
        if not isinstance(given, str):
            continue
        if given not in entities.indices:
            add_once("RPR104", given,
                     f"{node.base}: subscript {given!r} is not a declared index")
        elif given != want:
            add_once("RPR104", given,
                     f"{node.base}: index {given!r} does not match declared "
                     f"{want!r}")


# ------------------------------------------------------------------ boundaries

def _check_boundaries(problem: "Problem", report: DiagnosticReport) -> None:
    if problem.mesh is None or problem.equation is None:
        return
    report.checks_run += 3  # coverage, unknown regions, duplicates
    unknown = problem.equation.variable
    regions = set(problem.mesh.boundary_regions())
    specs = [b for b in problem.boundaries if b.variable == unknown]
    covered: dict[int, int] = {}
    for spec in specs:
        covered[spec.region] = covered.get(spec.region, 0) + 1
    for region in sorted(regions - set(covered)):
        report.add(Diagnostic.from_code(
            "RPR121",
            f"mesh boundary region {region} has no condition for {unknown!r}",
            region=region, variable=unknown))
    for region in sorted(set(covered) - regions):
        report.add(Diagnostic.from_code(
            "RPR122",
            f"boundary condition references region {region}, which the mesh "
            f"does not have (regions: {sorted(regions)})",
            region=region, variable=unknown))
    for region, count in sorted(covered.items()):
        if count > 1:
            report.add(Diagnostic.from_code(
                "RPR123",
                f"region {region} has {count} conditions for {unknown!r}",
                region=region, variable=unknown))

    report.checks_run += 1
    from repro.fvm.boundary import BCKind

    for spec in problem.boundaries:
        if spec.kind == BCKind.DIRICHLET and spec.value is None:
            report.add(Diagnostic.from_code(
                "RPR124", f"region {spec.region}: Dirichlet condition has no "
                "value", region=spec.region, variable=spec.variable))
        if spec.kind in (BCKind.FLUX, BCKind.GHOST_CALLBACK):
            if spec.call is None and spec.python_callback is None:
                report.add(Diagnostic.from_code(
                    "RPR124", f"region {spec.region}: {spec.kind.value} "
                    "condition has no callback",
                    region=spec.region, variable=spec.variable))
            elif spec.call is not None and \
                    problem.entities.kind_of(spec.call.func) != "callback":
                report.add(Diagnostic.from_code(
                    "RPR124", f"region {spec.region}: callback "
                    f"{spec.call.func!r} is not an imported callback",
                    region=spec.region, variable=spec.variable))
        if spec.kind == BCKind.SYMMETRY and spec.reflection_map is None:
            report.add(Diagnostic.from_code(
                "RPR124", f"region {spec.region}: symmetry condition has no "
                "reflection map", region=spec.region, variable=spec.variable))


# ------------------------------------------------------------ loops/partition

def _check_assembly_order(problem: "Problem", report: DiagnosticReport) -> None:
    if problem.equation is None:
        return
    report.checks_run += 1
    order = problem.config.assembly_order
    unknown = problem.entities.variables.get(problem.equation.variable)
    if "cells" not in order:
        report.add(Diagnostic.from_code(
            "RPR130", f"assemblyLoops {order} must include the cell loop "
            "('cells')"))
    if len(set(order)) != len(order):
        report.add(Diagnostic.from_code(
            "RPR130", f"assemblyLoops {order} has duplicate entries"))
    if unknown is not None:
        for name in order:
            if name != "cells" and name not in unknown.space.names:
                report.add(Diagnostic.from_code(
                    "RPR130",
                    f"assembly loop {name!r} is not an index of "
                    f"{unknown.name!r} (indices: {list(unknown.space.names)})"))


def _check_partitioning(problem: "Problem", report: DiagnosticReport) -> None:
    cfg = problem.config
    report.checks_run += 1
    if cfg.partition_strategy not in ("none", "cells", "bands"):
        report.add(Diagnostic.from_code(
            "RPR131", f"unknown partition strategy {cfg.partition_strategy!r}"))
        return
    if cfg.nparts < 1:
        report.add(Diagnostic.from_code(
            "RPR131", f"nparts must be >= 1 (got {cfg.nparts})"))
    if cfg.partition_strategy != "bands":
        return
    if not cfg.partition_index:
        report.add(Diagnostic.from_code(
            "RPR131", "band partitioning needs the index to split over"))
        return
    if problem.equation is None:
        return
    unknown = problem.entities.variables.get(problem.equation.variable)
    if unknown is None:
        return
    if cfg.partition_index not in unknown.space.names:
        report.add(Diagnostic.from_code(
            "RPR131",
            f"band-partition index {cfg.partition_index!r} is not an index of "
            f"{unknown.name!r}"))
    elif cfg.nparts > unknown.space.size(cfg.partition_index):
        report.add(Diagnostic(
            code="RPR131", severity="warning", layer="ir",
            message=f"{cfg.nparts} ranks split index "
                    f"{cfg.partition_index!r} of size "
                    f"{unknown.space.size(cfg.partition_index)}: some ranks "
                    "own no bands"))


# -------------------------------------------------------- full-pipeline check

def _check_well_formedness(problem: "Problem", report: DiagnosticReport) -> None:
    """Run the real lowering pipeline; any residual DSLError means the
    conservation form is not well-formed for explicit stepping."""
    if problem.equation is None:
        return
    report.checks_run += 1
    from repro.ir.lowering import lower_conservation_form

    unknown = problem.entities.variables.get(problem.equation.variable)
    if unknown is None:
        return
    try:
        lower_conservation_form(
            problem.equation.source, unknown, problem.entities,
            problem.operators)
    except ParseError as exc:
        report.add(Diagnostic.from_error(exc))
    except DSLError as exc:
        report.add(Diagnostic.from_code(
            "RPR112", str(exc).split("\n", 1)[0],
            source=problem.equation.source))
    except ReproError as exc:
        report.add(Diagnostic.from_error(exc))


__all__ = ["check_problem"]
