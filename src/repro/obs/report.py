"""The run document: every fact of one run, written once (``repro.run/2``).

:func:`build_run_report` merges whichever timing stores a solver has — the
phase timers (one registry per rank), the per-rank
:class:`~repro.runtime.comm.CommStats`, the device
:class:`~repro.gpu.profiler.Profiler`, the virtual timelines — and what the
run context recorded into one document; :func:`load_run` reads one back:

.. code-block:: text

    schema       "repro.run/2"
    meta         problem, target, steps, virtual makespan, problem_key,
                 nranks, generation (the compilation-cache outcome)
    ranks        [{rank, rows, transfers}]: a row per phase (its timer's
                 statistics) and per device kernel (the roofline columns),
                 each with measured vs predicted s/step (repro.obs.profile)
    drift        {tolerance, max_abs, exceeded}: the one drift verdict
    phases       phase fractions summed over ranks (Figs. 5/8 shape)
    comm         per-rank compute/comm seconds, messages, bytes
    gpu          device facts: name, spec, allocated bytes, busy clocks
    placement    per-task predicted vs measured (slowest rank) cost
    resilience / rebalance / diagnostics / events / trace / metrics
                 faults and recoveries, migrations, sanitizer findings,
                 event counts, span counts, the metrics registry

A run-registry entry is this document plus ``recorded: {key, seq, at,
wall_s}``.  The context's sections (resilience, diagnostics, events,
metrics) come from where the document is built: build it inside the
``fault_run`` / ``sanitize_run`` / ``metrics_run`` blocks of its run.
Sections whose source a run lacks are omitted, never emptied; every number
is JSON-safe (no ``inf``/``nan``).

Nothing writes a ``/1`` form any more; :func:`load_run` upgrades them:

.. code-block:: text

    repro.run_report/1  sections kept; profile -> ranks, drift and meta
                        (problem_key, nranks, generation); timers -> the
                        phase rows' statistics (one rank) or, without a
                        profile, the phase rows; tuning.cache ->
                        meta.generation; gpu -> device facts only
    repro.profile/1     kernels -> rows; meta.nsteps -> meta.nsteps_run;
                        phases from the rows
    repro.runs/1        report (taking the entry's profile) else profile,
                        as above; key, seq, recorded_at, meta.wall_s ->
                        recorded
    dropped             health, fusion, tuning.tuned, bench, meta.per_launch,
                        ranks[*].launches, drift.calibration
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.util.context import current
from repro.util.errors import AnalysisInputError
from repro.util.timing import shares

SCHEMA = "repro.run/2"

#: A measured/predicted ratio farther than this from 1.0 flags the cost
#: model's drift as exceeded.
DRIFT_TOLERANCE = 0.5

#: The sections after ``phases``, in document order.
_SECTIONS = ("comm", "gpu", "placement", "resilience", "rebalance",
             "diagnostics", "events", "trace", "metrics")

#: What of a device the ``gpu`` section keeps (its kernels are rows).
_DEVICE_FACTS = ("rank", "name", "spec", "allocated_bytes", "stream_busy_s",
                 "transfer_busy_s")


def _json_safe(value: Any) -> Any:
    """Replace non-finite floats with ``None`` so the document stays JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


@dataclass
class RunReport:
    """The ``repro.run/2`` document of one run."""

    meta: dict[str, Any] = field(default_factory=dict)
    ranks: list[dict[str, Any]] = field(default_factory=list)
    drift: dict[str, Any] = field(default_factory=dict)
    phases: dict[str, float] = field(default_factory=dict)
    comm: dict[str, Any] | None = None
    gpu: dict[str, Any] | None = None
    placement: dict[str, Any] | None = None
    resilience: dict[str, Any] | None = None
    rebalance: dict[str, Any] | None = None
    diagnostics: dict[str, Any] | None = None
    events: dict[str, Any] | None = None
    trace: dict[str, Any] | None = None
    metrics: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        doc = {"schema": SCHEMA, "meta": self.meta, "ranks": self.ranks,
               "drift": self.drift, "phases": self.phases}
        doc.update((key, getattr(self, key)) for key in _SECTIONS
                   if getattr(self, key) is not None)
        return _json_safe(doc)

    def to_json(self, indent: int = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path


# ---------------------------------------------------------------------------
# section builders (each tolerates the section's source being absent)
# ---------------------------------------------------------------------------

def _comm_section(spmd_result) -> dict[str, Any]:
    return {
        "nranks": len(spmd_result.stats),
        "makespan_s": spmd_result.makespan,
        "rank_times_s": list(spmd_result.times),
        "ranks": [s.as_dict() for s in spmd_result.stats],
        "phase_breakdown_s": spmd_result.phase_breakdown(),
    }


def _gpu_section(solver) -> dict[str, Any] | None:
    device = getattr(solver, "device", None)
    if device is not None:
        from repro.gpu.device import STREAM

        return {"devices": [{
            "name": device.name,
            "spec": device.spec.name,
            "allocated_bytes": device.allocated_bytes,
            "stream_busy_s": {STREAM: device.kernel_clock.now()},
            "transfer_busy_s": device.transfer_clock.now(),
        }]}
    # multi-GPU runs: the devices lived on the rank threads, their launch
    # records are the ranks' kernel rows
    profilers = getattr(solver.state, "device_profilers", None)
    if profilers:
        return {"devices": [{"rank": rank, "spec": p.spec.name}
                            for rank, p in enumerate(profilers)]}
    return None


def _phases(ranks: list[dict]) -> dict[str, float]:
    """Each phase's share of the phase time summed over ranks."""
    totals: dict[str, float] = {}
    for row in _phase_rows(ranks):
        totals[row["name"]] = totals.get(row["name"], 0.0) + (row.get("total_s") or 0.0)
    return shares(totals)


def _phase_rows(ranks: list[dict]):
    return (row for entry in ranks for row in entry.get("rows", [])
            if row.get("kind") == "phase")


def _drift(ranks: list[dict], tolerance: float | None) -> dict[str, Any]:
    """The drift verdict: it judges only the wall-measured phase rows —
    virtual kernel rows compare the *device* model against the *CPU*
    prediction, which is a placement sanity check, not machine drift."""
    tol = DRIFT_TOLERANCE if tolerance is None else float(tolerance)
    max_abs = max((abs(row["drift"] - 1.0) for row in _phase_rows(ranks)
                   if row.get("drift") is not None), default=0.0)
    return {"tolerance": tol, "max_abs": max_abs, "exceeded": max_abs > tol}


def placement_accuracy(plan, measured: dict[str, float],
                       task_timer_map: dict[str, str] | None = None) -> dict[str, Any]:
    """Per-task predicted vs measured cost for one placement plan.

    ``predicted`` is the cost-model seconds per step on the assigned device
    (the quantity the min-cut optimised); ``alternative`` the modelled cost
    had the task been placed on the *other* device; ``measured`` is the
    wall-clock seconds per step of the matching phase timer (``measured``:
    timer name -> seconds per step, the slowest rank's; ``task_timer_map``:
    task name -> timer name), when the target recorded one.
    A task is flagged ``mispredicted`` when its measured time exceeds the
    modelled cost of the unpinned alternative — the optimiser would have
    chosen differently with perfect information.
    """
    task_timer_map = task_timer_map or {}
    tasks = []
    for name in sorted(plan.device):
        device = plan.device[name]
        task = plan.graph.tasks.get(name) if plan.graph is not None else None
        predicted = None
        alternative = None
        pinned = None
        if task is not None:
            predicted = task.cost_gpu if device == "gpu" else task.cost_cpu
            alternative = task.cost_cpu if device == "gpu" else task.cost_gpu
            pinned = task.pinned
        measured_s = measured.get(task_timer_map.get(name))
        entry: dict[str, Any] = {
            "task": name,
            "device": device,
            "pinned": pinned,
            "predicted_s_per_step": predicted,
            "alternative_s_per_step": alternative,
            "measured_s_per_step": measured_s,
        }
        if predicted is not None and alternative is not None \
                and math.isfinite(alternative):
            # modelled saving of the chosen device (>0: choice looks right)
            entry["predicted_delta_s"] = alternative - predicted
        if predicted and measured_s:
            entry["measured_over_predicted"] = measured_s / predicted
        entry["mispredicted"] = bool(
            measured_s is not None
            and alternative is not None
            and math.isfinite(alternative)
            and pinned is None
            and measured_s > alternative
        )
        tasks.append(entry)
    edges = []
    if plan.graph is not None:
        edges = [
            {"src": e.src, "dst": e.dst, "bytes": e.nbytes, "label": e.label,
             "cut": (plan.device.get(e.src) != plan.device.get(e.dst))}
            for e in plan.graph.edges
        ]
    return {
        "objective_s_per_step": plan.objective_seconds,
        "bytes_moved_per_step": plan.bytes_moved_per_step,
        "cut_edges": [
            {"src": s, "dst": d, "bytes": b} for s, d, b in plan.cut_edges
        ],
        "edges": edges,
        "tasks": tasks,
    }


def problem_key(problem, target_name: str | None = None) -> str:
    """Stable per-problem identity for the run registry and ``bte history``:
    the digest of the *tuning* key, i.e. the problem signature with the
    knobs normalised out — so a run with an injected ``gpu_flop_factor``
    or another loop order lands in the same timeline as the default run."""
    from repro.tune.signature import signature_digest, tuning_key

    return signature_digest(tuning_key(problem, target_name))


def build_run_report(solver, tracer=None, *, tolerance: float | None = None,
                     **extra_meta: Any) -> RunReport:
    """The :class:`RunReport` of one executed solver.

    Works for every target: sections whose source the solver lacks (no
    device, no SPMD result, no placement plan) are simply omitted.
    ``tolerance`` is the drift verdict's (default :data:`DRIFT_TOLERANCE`).
    """
    from repro.obs.profile import rank_rows

    state = solver.state
    ranks = rank_rows(solver)
    meta: dict[str, Any] = {
        "problem": state.problem.name,
        "target": solver.target_name,
        "nsteps_run": state.step_index,
        "dt": state.dt,
        "virtual_time_s": state.time,
        "ncells": state.ncells,
        "ncomp": state.ncomp,
    }
    host_clock = getattr(state, "host_clock", None)
    if host_clock is not None:
        meta["host_virtual_s"] = host_clock.now()
    meta["problem_key"] = problem_key(state.problem, solver.target_name)
    meta["nranks"] = len(ranks)
    info = getattr(solver, "generation_info", None)
    if info:
        meta["generation"] = dict(info)
    meta.update(extra_meta)

    report = RunReport(meta=meta, ranks=ranks, drift=_drift(ranks, tolerance),
                       phases=_phases(ranks))

    spmd = getattr(state, "spmd_result", None)
    if spmd is not None:
        report.comm = _comm_section(spmd)

    report.gpu = _gpu_section(solver)

    plan = getattr(solver, "placement", None)
    if plan is not None:
        slowest: dict[str, float] = {}
        for row in _phase_rows(ranks):
            slowest[row["name"]] = max(slowest.get(row["name"], 0.0),
                                       row["measured_s_per_step"])
        report.placement = placement_accuracy(
            plan, slowest, getattr(solver, "task_timer_map", None))

    # what the run context recorded: injected faults, retries, checkpoints,
    # degraded placements; sanitizer findings; the event counts
    ctx = current()
    if ctx.resilience.has_events() or ctx.injector.enabled:
        report.resilience = ctx.resilience.as_dict()
    if ctx.sanitizer is not None:
        report.diagnostics = ctx.sanitizer.section()
    if ctx.events.enabled and ctx.events.counts():
        report.events = ctx.events.summary()
    elastic = getattr(solver, "namespace", {}).get("ELASTIC")
    if elastic is not None and elastic.log.has_events():
        report.rebalance = elastic.log.as_dict()

    if tracer is not None and tracer.enabled:
        report.trace = tracer.summary()

    if ctx.metrics.enabled:
        report.metrics = ctx.metrics.to_dict()
    return report


# ---------------------------------------------------------------------------
# reading: /2 as written, /1 upgraded (the table in the module docstring)
# ---------------------------------------------------------------------------

def load_run(source: str | Path | dict) -> dict:
    """The ``repro.run/2`` form of a run document, given its path or its
    parsed JSON: a ``/2`` document as it is, a ``/1`` report, profile or
    registry entry upgraded.  Raises :class:`AnalysisInputError` on an
    unreadable file or a document of any other kind."""
    doc, where = source, ""
    if not isinstance(source, dict):
        where = f"{source}: "
        try:
            doc = json.loads(Path(source).read_text())
        except (OSError, ValueError) as exc:
            raise AnalysisInputError(f"{where}unreadable run document: {exc}") from exc
    schema = doc.get("schema") if isinstance(doc, dict) else None
    upgrade = _UPGRADES.get(schema)
    if upgrade is None:
        raise AnalysisInputError(f"{where}not a run document (schema={schema!r})")
    return upgrade(doc)


def _verdict(drift: dict) -> dict:
    return {k: drift[k] for k in ("tolerance", "max_abs", "exceeded")
            if k in drift}


def _profile_meta(meta: dict) -> dict:
    return {("nsteps_run" if k == "nsteps" else k): v
            for k, v in meta.items() if k != "per_launch"}


def _profile_ranks(profile: dict) -> list[dict]:
    ranks = []
    for entry in profile.get("ranks") or []:
        up = {"rank": entry.get("rank", 0),
              "rows": [dict(row) for row in entry.get("kernels") or []]}
        if entry.get("transfers") is not None:
            up["transfers"] = entry["transfers"]
        ranks.append(up)
    return ranks


def _from_profile(profile: dict) -> dict:
    ranks = _profile_ranks(profile)
    doc = {"schema": SCHEMA, "meta": _profile_meta(profile.get("meta") or {}),
           "ranks": ranks}
    if profile.get("drift"):
        doc["drift"] = _verdict(profile["drift"])
    doc["phases"] = _phases(ranks)
    return doc


def _from_report(report: dict) -> dict:
    from repro.obs.profile import phase_row

    doc = _from_profile(report.get("profile") or {})
    meta = dict(report.get("meta") or {})
    for key, value in doc["meta"].items():
        meta.setdefault(key, value)
    doc["meta"] = meta
    cache = (report.get("tuning") or {}).get("cache")
    if cache:
        meta.setdefault("generation", cache)
    timers, ranks = report.get("timers") or {}, doc["ranks"]
    if not ranks:  # written before reports carried a profile
        nsteps = max(int(meta.get("nsteps_run") or 0), 1)
        ranks.append({"rank": 0, "rows": [phase_row(name, stats, nsteps, {})
                                          for name, stats in timers.items()]})
    elif len(ranks) == 1:  # the one rank's phase rows are the timers
        for row in ranks[0]["rows"]:
            if row.get("kind") == "phase" and row.get("name") in timers:
                stats = timers[row["name"]]
                row.update({f"{k}_s": stats.get(k) for k in ("min", "max", "p50", "p95")})
    doc["phases"] = report.get("phases") or {}
    doc.update((key, report[key]) for key in _SECTIONS if report.get(key) is not None)
    gpu = report.get("gpu")
    if gpu:
        doc["gpu"] = {"devices": [{k: d[k] for k in _DEVICE_FACTS if k in d}
                                  for d in gpu.get("devices") or []]
                      or [{"rank": rank, "spec": p.get("device")}
                          for rank, p in enumerate(gpu.get("rank_profiles") or [])]}
    return doc


def _from_entry(entry: dict) -> dict:
    report, profile = entry.get("report"), entry.get("profile")
    if report is not None:
        doc = _from_report(dict(report, profile=profile) if profile else report)
    else:
        doc = _from_profile(profile or {})
    meta = entry.get("meta") or {}
    for key, old in (("target", "target"), ("nsteps_run", "nsteps")):
        if old in meta:
            doc["meta"].setdefault(key, meta[old])
    doc["recorded"] = {"key": entry.get("key"), "seq": entry.get("seq", 0),
                       "at": entry.get("recorded_at"),
                       "wall_s": meta.get("wall_s")}
    return doc


_UPGRADES = {
    SCHEMA: lambda doc: doc,
    "repro.run_report/1": _from_report,
    "repro.profile/1": _from_profile,
    "repro.runs/1": _from_entry,
}


__all__ = [
    "DRIFT_TOLERANCE",
    "RunReport",
    "SCHEMA",
    "build_run_report",
    "load_run",
    "placement_accuracy",
    "problem_key",
]
