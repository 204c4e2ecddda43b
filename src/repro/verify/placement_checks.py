"""Layer 2a: hazard analysis over a placement plan + transfer schedule.

The task graph declares the only ordering the generated schedules honour:
data edges.  Two tasks with no edge-path between them (in either direction)
are genuinely unordered — the hybrid step may overlap them — so any shared
buffer with a writer among them is a race.  Arrays the generated code
double-buffers (the unknown: the kernel writes ``u_new`` while the CPU
boundary callbacks read the pre-step owner values ``u_bdry``) are declared
as such on :class:`ArrayUse` and exempted.

Transfer-plan completeness is checked by *recomputing* the expected
classification from the placement + array uses and diffing it against the
plan the solver actually carries: a device read whose per-step h2d is
missing is a stale-device-buffer bug (RPR201), a host read without its d2h
is the mirror image (RPR202).  That covers whatever the plan holds: the
unknown both ways under the paper's plan, the boundary exchange
(``du_bdry`` down, ``u_bdry`` up) and the declared reductions when
``finish_step`` runs on the device.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.verify.diagnostics import Diagnostic, DiagnosticReport

if TYPE_CHECKING:
    from repro.codegen.placement.optimizer import PlacementPlan
    from repro.codegen.placement.transfers import ArrayUse, TransferPlan


def _reachable(adj: dict[str, set[str]], start: str) -> set[str]:
    seen: set[str] = set()
    stack = [start]
    while stack:
        node = stack.pop()
        for nxt in adj.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _ordering(plan: "PlacementPlan") -> dict[str, set[str]]:
    """For each task, every task related to it by an edge path (either
    direction) — i.e. the tasks the schedule serializes against it."""
    adj: dict[str, set[str]] = {}
    if plan.graph is None:
        return {}
    for e in plan.graph.edges:
        adj.setdefault(e.src, set()).add(e.dst)
    related: dict[str, set[str]] = {}
    down = {t: _reachable(adj, t) for t in plan.graph.tasks}
    for t in plan.graph.tasks:
        related[t] = set(down[t])
    for t, reach in down.items():
        for r in reach:
            related.setdefault(r, set()).add(t)
    return related


def check_placement(plan: "PlacementPlan") -> DiagnosticReport:
    """Structural validity of one placement plan (RPR205, RPR206)."""
    import math

    report = DiagnosticReport()
    report.checks_run += 2
    graph = plan.graph
    if graph is not None:
        for name in plan.device:
            if name not in graph.tasks:
                report.add(Diagnostic.from_code(
                    "RPR206", f"placement assigns unknown task {name!r}",
                    task=name))
        for name in graph.tasks:
            if name not in plan.device:
                report.add(Diagnostic.from_code(
                    "RPR206", f"task {name!r} has no device assignment",
                    task=name))
        for e in graph.edges:
            for end in (e.src, e.dst):
                if end not in graph.tasks:
                    report.add(Diagnostic.from_code(
                        "RPR206", f"edge {e.src}->{e.dst} references unknown "
                        f"task {end!r}", task=end))
    for name, device in plan.device.items():
        task = graph.tasks.get(name) if graph is not None else None
        if task is None:
            continue
        if task.pinned is not None and device != task.pinned:
            report.add(Diagnostic.from_code(
                "RPR205",
                f"task {name!r} is pinned to {task.pinned} but placed on "
                f"{device}", task=name, device=device))
        if device == "gpu" and not math.isfinite(task.cost_gpu):
            report.add(Diagnostic.from_code(
                "RPR205", f"task {name!r} placed on gpu without a gpu cost",
                task=name, device=device))
    return report


def check_hazards(plan: "PlacementPlan",
                  arrays: Iterable["ArrayUse"]) -> DiagnosticReport:
    """Write-after-write and kernel-vs-CPU races on shared buffers
    (RPR203, RPR204)."""
    report = DiagnosticReport()
    report.checks_run += 2
    related = _ordering(plan)
    known = set(plan.device)

    def concurrent(a: str, b: str) -> bool:
        return b not in related.get(a, set()) and a not in related.get(b, set())

    for arr in arrays:
        for t in (*arr.readers, *arr.writers):
            if t not in known:
                report.add(Diagnostic.from_code(
                    "RPR206", f"array {arr.name!r} references unknown task "
                    f"{t!r}", array=arr.name, task=t))
        if getattr(arr, "double_buffered", False):
            continue
        writers = [t for t in arr.writers if t in known]
        readers = [t for t in arr.readers if t in known]
        for i, w1 in enumerate(writers):
            for w2 in writers[i + 1:]:
                if w1 != w2 and concurrent(w1, w2):
                    report.add(Diagnostic.from_code(
                        "RPR203",
                        f"tasks {w1!r} and {w2!r} both write {arr.name!r} "
                        "with no ordering edge between them",
                        array=arr.name, tasks=f"{w1},{w2}"))
        for w in writers:
            for r in readers:
                if r == w or not concurrent(w, r):
                    continue
                dw, dr = plan.device.get(w), plan.device.get(r)
                if dw != dr:
                    report.add(Diagnostic.from_code(
                        "RPR204",
                        f"{dw} task {w!r} writes {arr.name!r} while "
                        f"unordered {dr} task {r!r} reads it (overlap race)",
                        array=arr.name, writer=w, reader=r))
    return report


def check_transfers(plan: "PlacementPlan", transfer: "TransferPlan",
                    arrays: list["ArrayUse"]) -> DiagnosticReport:
    """Transfer-plan completeness against the placement (RPR201/202/207)."""
    from repro.codegen.placement.transfers import plan_transfers

    report = DiagnosticReport()
    report.checks_run += 3
    expected = plan_transfers(plan, arrays)

    for name in expected.h2d_each_step:
        if name not in transfer.h2d_each_step:
            report.add(Diagnostic.from_code(
                "RPR201",
                f"array {name!r} is written on the host and read on the "
                "device each step, but the transfer plan schedules no h2d "
                "for it (device would read a stale buffer)", array=name))
    for name in expected.static_h2d:
        if name not in transfer.static_h2d \
                and name not in transfer.h2d_each_step:
            report.add(Diagnostic.from_code(
                "RPR201",
                f"device-read array {name!r} has no h2d transfer at all "
                "(neither setup nor per-step)", array=name))
    for name in expected.d2h_each_step:
        if name not in transfer.d2h_each_step:
            report.add(Diagnostic.from_code(
                "RPR202",
                f"array {name!r} is written on the device and read on the "
                "host, but the transfer plan schedules no d2h for it (host "
                "would read a stale buffer)", array=name))

    described = {a.name for a in arrays}
    listed = (set(transfer.static_h2d) | set(transfer.h2d_each_step)
              | set(transfer.d2h_each_step) | set(transfer.host_only)
              | set(transfer.device_only))
    for name in sorted(listed - described):
        report.add(Diagnostic.from_code(
            "RPR207",
            f"transfer plan lists array {name!r}, which no task reads or "
            "writes", array=name))
    return report


def verify_solver_placement(solver) -> DiagnosticReport:
    """All placement-layer checks a generated solver's attachments allow."""
    report = DiagnosticReport()
    plan = getattr(solver, "placement", None)
    if plan is None:
        return report
    report.extend(check_placement(plan))
    arrays = getattr(solver, "array_uses", None)
    if arrays:
        report.extend(check_hazards(plan, arrays))
        transfer = getattr(solver, "transfer_plan", None)
        if transfer is not None:
            report.extend(check_transfers(plan, transfer, arrays))
    return report


__all__ = [
    "check_placement",
    "check_hazards",
    "check_transfers",
    "verify_solver_placement",
]
