"""The ``bte lint`` orchestrator: static + placement + schedule verification.

:func:`lint_problem` runs every check a :class:`Problem` declaration allows;
with ``deep=True`` (the default) it also *generates* the solver — without
running it — so the placement plan, transfer schedule and partition layout
get the layer-2 hazard analysis.

:func:`lint_script` verifies a DSL script file.  The script is executed
with ``Problem.solve`` and ``GeneratedSolver.run`` intercepted: the setup
code runs for real (meshes, entities, callbacks — everything lint needs),
but the moment a transient would start, the captured problem is linted
instead.  Scripts that never reach a solve (pure perf-model studies) fall
back to the script's current problem (``init_problem``), or report "nothing
to lint".  The script runs in a scope of its own: the caller's current
problem is neither linted nor lost.
"""

from __future__ import annotations

import runpy
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.util.context import current, scope
from repro.util.errors import ReproError
from repro.verify.diagnostics import Diagnostic, DiagnosticReport
from repro.verify.placement_checks import verify_solver_placement
from repro.verify.schedule import verify_solver_schedule
from repro.verify.static_checks import check_problem


def lint_problem(problem, *, deep: bool = True) -> DiagnosticReport:
    """All static checks; with ``deep`` also generate + verify the solver."""
    report = check_problem(problem)
    if not deep or report.has_errors:
        return report  # generation would fail or mask the findings
    try:
        solver = problem.generate()
    except ReproError as exc:
        report.add(Diagnostic.from_error(exc))
        return report
    report.extend(verify_solver(solver))
    return report


def verify_solver(solver) -> DiagnosticReport:
    """Layer-2 checks over an already generated (unrun) solver."""
    report = DiagnosticReport()
    report.extend(verify_solver_placement(solver))
    report.extend(verify_solver_schedule(solver))
    return report


# --------------------------------------------------------------------- scripts

class _LintStop(Exception):
    """Raised inside an intercepted solve to halt the script cleanly."""


@dataclass
class ScriptLint:
    """Result of linting one script file."""

    path: str
    report: DiagnosticReport = field(default_factory=DiagnosticReport)
    problems_checked: int = 0
    note: str = ""

    @property
    def ok(self) -> bool:
        return not self.report.has_errors

    def render_text(self) -> str:
        head = f"{self.path}: "
        if self.problems_checked == 0 and not self.report.diagnostics:
            return head + (self.note or "nothing to lint (no problem built)")
        body = self.report.summary()
        if self.problems_checked:
            body += f" [{self.problems_checked} problem(s)]"
        lines = [head + body]
        lines += ["  " + ln for d in self.report.sorted()
                  for ln in d.render().splitlines()]
        return "\n".join(lines)


def lint_script(path: str | Path, *, deep: bool = True,
                argv: list[str] | None = None) -> ScriptLint:
    """Execute ``path`` with solves intercepted and lint what it builds."""
    from repro.codegen.target_base import GeneratedSolver
    from repro.dsl.problem import Problem

    path = Path(path)
    result = ScriptLint(path=str(path))
    captured: list = []  # Problem or GeneratedSolver, in build order

    orig_solve = Problem.solve
    orig_generate_run = GeneratedSolver.run

    def fake_solve(self, variable=None, target=None):
        captured.append(self)
        raise _LintStop

    def fake_run(self, *a, **k):
        captured.append(self)
        raise _LintStop

    old_argv = sys.argv
    sys.argv = [str(path), *(argv or [])]
    Problem.solve = fake_solve
    GeneratedSolver.run = fake_run
    with scope(problem=None):
        try:
            runpy.run_path(str(path), run_name="__main__")
        except _LintStop:
            pass
        except SystemExit:
            pass  # argparse --help etc.
        except ReproError as exc:
            result.report.add(Diagnostic.from_error(exc))
        except Exception as exc:  # noqa: BLE001 — a crashing script is a finding
            result.report.add(Diagnostic.from_code(
                "RPR000", f"script raised {type(exc).__name__}: {exc}"))
        finally:
            Problem.solve = orig_solve
            GeneratedSolver.run = orig_generate_run
            sys.argv = old_argv
        if not captured and current().problem is not None:
            captured.append(current().problem)

    seen: set[int] = set()
    for obj in captured:
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, GeneratedSolver):
            result.report.extend(check_problem(obj.state.problem))
            result.report.extend(verify_solver(obj))
        else:
            result.report.extend(lint_problem(obj, deep=deep))
        result.problems_checked += 1
    if not captured:
        result.note = "nothing to lint (script builds no problem)"
    return result


def lint_paths(paths: list[str | Path], *,
               deep: bool = True) -> list[ScriptLint]:
    """Lint several script files, keeping going after failures."""
    return [lint_script(p, deep=deep) for p in paths]


__all__ = [
    "lint_problem",
    "verify_solver",
    "lint_script",
    "lint_paths",
    "ScriptLint",
]
