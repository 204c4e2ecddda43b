"""The aggregated run report: one schema-versioned JSON per run.

The repo's timing state is spread over four stores — the wall-clock
:class:`~repro.util.timing.TimerRegistry`, the per-rank
:class:`~repro.runtime.comm.CommStats`, the device
:class:`~repro.gpu.profiler.Profiler` and the per-stream virtual timelines.
:func:`build_run_report` merges all of them (whichever a given solver
actually has) into a single document:

.. code-block:: text

    schema   "repro.run_report/1"
    meta     problem / target / steps / virtual makespan
    timers   wall-clock phase timers (TimerStats.as_dict)
    phases   phase fractions (the Figs. 5/8 breakdown shape)
    comm     per-rank compute/comm seconds, messages, bytes, phase seconds
    gpu      per-device kernel-launch records, profile metrics, transfers
    placement  per-task predicted vs measured cost — the direct check on
               the paper's data-movement-aware placement model
    resilience injected faults, retries, recoveries, checkpoints and
               degraded placements (when the fault/recovery layer was live)
    diagnostics  runtime sanitizer findings (``--sanitize`` runs only):
               every RPR### diagnostic with its provenance, plus the
               number of checks performed
    events   structured-event-log summary (counts per event name/level)
    trace    span/track counts when a tracer was active
    tuning   how this solver was produced: compilation-cache outcome
             (hit/miss, key prefix, build seconds)
    profile  nested ``repro.profile/1`` document: per-rank per-kernel
             self/total time with roofline attribution and the perfmodel
             drift column (:mod:`repro.obs.profile`)

Loaders must tolerate documents predating a section (older reports have no
``profile``) and sections no longer written (``health``, ``tuning.tuned``):
read sections with ``.get``, never ``[...]``.

Every numeric field is JSON-safe (no ``inf``/``nan``): never-recorded
timers normalise ``min`` to ``0.0`` via ``TimerStats.as_dict``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

SCHEMA = "repro.run_report/1"


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
    """The merged, schema-versioned observability document of one run."""

    meta: dict[str, Any] = field(default_factory=dict)
    timers: dict[str, Any] = field(default_factory=dict)
    phases: dict[str, float] = field(default_factory=dict)
    comm: dict[str, Any] | None = None
    gpu: dict[str, Any] | None = None
    placement: dict[str, Any] | None = None
    resilience: dict[str, Any] | None = None
    rebalance: dict[str, Any] | None = None
    diagnostics: dict[str, Any] | None = None
    events: dict[str, Any] | None = None
    trace: dict[str, Any] | None = None
    tuning: dict[str, Any] | None = None
    metrics: dict[str, Any] | None = None
    profile: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "schema": SCHEMA,
            "meta": self.meta,
            "timers": self.timers,
            "phases": self.phases,
        }
        for key in ("comm", "gpu", "placement", "resilience", "rebalance",
                    "diagnostics", "events", "trace", "tuning", "metrics",
                    "profile"):
            value = getattr(self, key)
            if value is not None:
                doc[key] = value
        return _json_safe(doc)

    def to_json(self, indent: int = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json())
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


def _device_section(device) -> dict[str, Any]:
    prof = device.profiler
    launches: dict[str, dict[str, Any]] = {}
    for rec in prof.launches:
        agg = launches.setdefault(rec.kernel, {
            "count": 0, "total_s": 0.0, "total_flops": 0.0,
            "total_bytes": 0.0, "bound": rec.bound,
        })
        agg["count"] += 1
        agg["total_s"] += rec.duration
        agg["total_flops"] += rec.total_flops
        agg["total_bytes"] += rec.total_bytes
    for agg in launches.values():
        agg["mean_s"] = agg["total_s"] / agg["count"] if agg["count"] else 0.0
    return {
        "name": device.name,
        "spec": device.spec.name,
        "allocated_bytes": device.allocated_bytes,
        "kernels": launches,
        # per-kernel roofline attribution (achieved intensity vs the ridge,
        # fraction-of-peak columns) — the Tab. 1 Nsight-profile analogue
        "kernel_rows": prof.kernel_rows(),
        "profile": prof.report().as_dict(),
        "transfers": prof.transfer_summary(),
        "stream_busy_s": {
            device.default_stream.name: device.default_stream.busy_until(),
        },
        "transfer_busy_s": device.transfer_clock.now(),
    }


def _gpu_section(solver) -> dict[str, Any] | None:
    devices = []
    device = getattr(solver, "device", None)
    if device is not None:
        devices.append(_device_section(device))
    # multi-GPU runs keep only the per-rank profile reports (devices live on
    # rank threads); include them so the section is never silently empty
    profiles = getattr(solver.state, "device_profiles", None)
    if profiles:
        section = {
            "devices": devices,
            "rank_profiles": [p.as_dict() for p in profiles],
        }
        profilers = getattr(solver.state, "device_profilers", None)
        if profilers:
            section["rank_kernels"] = [p.kernel_rows() for p in profilers]
        return section
    if not devices:
        return None
    return {"devices": devices}


def placement_accuracy(plan, timers, nsteps: int,
                       task_timer_map: dict[str, str] | None = None) -> dict[str, Any]:
    """Per-task predicted vs measured cost for one placement plan.

    ``predicted`` is the cost-model seconds per step on the assigned device
    (the quantity the min-cut optimised); ``alternative`` the modelled cost
    had the task been placed on the *other* device; ``measured`` is the
    wall-clock seconds per step of the matching phase timer, when the
    target recorded one (``task_timer_map``: task name -> timer name).
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
        timer_name = task_timer_map.get(name)
        measured = None
        if timer_name and timer_name in timers.stats and nsteps > 0:
            measured = timers.stats[timer_name].total / nsteps
        entry: dict[str, Any] = {
            "task": name,
            "device": device,
            "pinned": pinned,
            "predicted_s_per_step": predicted,
            "alternative_s_per_step": alternative,
            "measured_s_per_step": measured,
        }
        if predicted is not None and alternative is not None \
                and math.isfinite(alternative):
            # modelled saving of the chosen device (>0: choice looks right)
            entry["predicted_delta_s"] = alternative - predicted
        if predicted and measured:
            entry["measured_over_predicted"] = measured / predicted
        entry["mispredicted"] = bool(
            measured is not None
            and alternative is not None
            and math.isfinite(alternative)
            and pinned is None
            and measured > alternative
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


def build_run_report(solver, tracer=None, **extra_meta: Any) -> RunReport:
    """Merge one solver's fragmented metric stores into a :class:`RunReport`.

    Works for every target: sections whose source the solver lacks (no
    device, no SPMD result, no placement plan) are simply omitted.
    """
    state = solver.state
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
    meta.update(extra_meta)

    report = RunReport(
        meta=meta,
        timers={name: s.as_dict() for name, s in state.timers.stats.items()},
        phases=solver.breakdown(),
    )

    spmd = getattr(state, "spmd_result", None)
    if spmd is not None:
        report.comm = _comm_section(spmd)

    report.gpu = _gpu_section(solver)

    plan = getattr(solver, "placement", None)
    if plan is not None:
        report.placement = placement_accuracy(
            plan, state.timers, max(state.step_index, 1),
            getattr(solver, "task_timer_map", None),
        )

    # resilience: injected faults, retries, checkpoints, degraded placements
    # (lazy import — repro.runtime must stay importable without repro.obs)
    from repro.runtime.resilience import resilience_section

    report.resilience = resilience_section()

    from repro.runtime.rebalance import rebalance_section

    report.rebalance = rebalance_section()

    from repro.verify.sanitizer import sanitizer_section

    report.diagnostics = sanitizer_section()

    from repro.obs.log import get_event_log

    elog = get_event_log()
    if elog.enabled and elog.counts():
        report.events = elog.summary()

    if tracer is not None and tracer.enabled:
        report.trace = tracer.summary()

    info = getattr(solver, "generation_info", None)
    if info:
        report.tuning = {"cache": dict(info)}

    from repro.obs.metrics import get_metrics

    metrics = get_metrics()
    if metrics.enabled:
        report.metrics = metrics.to_dict()

    # per-kernel profile with the perfmodel drift column — always built
    # (aggregation over already-recorded timers/launches; nested schema,
    # like the metrics section)
    from repro.obs.profile import build_profile

    report.profile = build_profile(solver)
    return report


__all__ = ["RunReport", "SCHEMA", "build_run_report", "placement_accuracy"]
