"""Per-kernel run profiling: the ``repro.profile/1`` artifact.

The paper's evidence is per-phase/per-kernel breakdowns (Figs. 5/8 and the
Nsight profile of Tab. 1).  This module turns one executed solve into a
document with that granularity:

* one row per (rank, kernel-or-phase) with count, **self** and **total**
  time, bytes moved and achieved-vs-roofline FLOP/byte attribution (GPU
  rows come from :class:`repro.gpu.profiler.Profiler` launch records, CPU
  rows from the phase timers every generated run loop already drives);
* a **perfmodel drift** column per row: measured seconds-per-step divided
  by the :class:`repro.perfmodel.costs.CostModel` prediction, so the
  analytic model that placement decisions rest on is audited by every
  profiled run.

Document layout (``repro.profile/1``)::

    schema   "repro.profile/1"
    meta     {problem, target, problem_key, nsteps, ncells, ncomp, ...}
    ranks    [{rank, kernels: [row...], transfers: {...},
               launches: [{name, step, seconds}...]?}, ...]
    drift    {tolerance, max_abs, exceeded}

Runtime side: a process-wide :class:`RunProfiler` singleton mirrors the
event-log/metrics pattern — disabled by default, attribute-check cheap when
off.  When enabled (``profile_run()`` / CLI ``--profile``) the generated run
loops additionally record one entry *per phase launch* (not just the
aggregated timer stats), which lands in each rank's ``launches`` list.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

SCHEMA = "repro.profile/1"

#: A measured/predicted ratio farther than this from 1.0 flags the cost
#: model's drift as exceeded.
DRIFT_TOLERANCE = 0.5

#: Phase-timer names mapped to cost-model phases (mirrors the
#: ``task_timer_map`` used by placement accuracy).
_PHASE_COSTS = {
    "solve": "intensity",
    "boundary": "boundary",
    "post_step": "temperature",
}


class RunProfiler:
    """Process-wide per-launch CPU profiling switchboard.

    ``record()`` is called by :meth:`SolverState.profile_scope
    <repro.codegen.state.SolverState.profile_scope>` wrappers in every
    generated run loop; it appends one plain tuple per phase launch.  When
    ``enabled`` is False the generated code never constructs the wrapper in
    the first place (the scope falls back to the plain timer), so a
    disabled profiler allocates nothing per step.
    """

    __slots__ = ("enabled", "records")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        #: (rank, name, step, seconds) per recorded launch
        self.records: list[tuple[int, str, int, float]] = []

    def record(self, name: str, seconds: float, *, rank: int = 0,
               step: int = -1) -> None:
        if not self.enabled:
            return
        self.records.append((rank, name, step, seconds))

    def launches_for_rank(self, rank: int) -> list[dict]:
        return [
            {"name": name, "step": step, "seconds": secs}
            for (r, name, step, secs) in self.records
            if r == rank
        ]

    def reset(self) -> None:
        self.records.clear()


_current = RunProfiler(enabled=False)


def get_profiler() -> RunProfiler:
    """The installed profiler (disabled singleton by default)."""
    return _current


def set_profiler(profiler: RunProfiler | None) -> RunProfiler:
    """Install ``profiler`` (None restores the disabled default); returns
    the previously installed one."""
    global _current
    previous = _current
    _current = profiler if profiler is not None else RunProfiler(enabled=False)
    return previous


@contextmanager
def profile_run(enabled: bool = True) -> Iterator[RunProfiler]:
    """Enable per-launch profiling for the duration of the block."""
    profiler = RunProfiler(enabled=enabled)
    previous = set_profiler(profiler)
    try:
        yield profiler
    finally:
        set_profiler(previous)


# --------------------------------------------------------------------- builder
def _cell_counts(state) -> tuple[float, float]:
    """(ncells, ncomp) of a state; FEM states count nodes, one component."""
    ncells = float(getattr(state, "ncells", 0) or getattr(state, "nnodes", 0))
    return ncells, float(getattr(state, "ncomp", 1))


def _rank_work(state, nranks: int) -> tuple[float, float]:
    """(ncells, ncomp) a single rank owns, under the problem's partitioning.

    Balanced-split approximation: the profile audits the *model*, and the
    model itself assumes balanced parts.
    """
    ncells, ncomp = _cell_counts(state)
    if nranks <= 1:
        return ncells, ncomp
    strategy = getattr(state.problem.config, "partition_strategy", None)
    if strategy == "cells":
        return ncells / nranks, ncomp
    return ncells, ncomp / nranks


def _predicted_phase_seconds(state, nranks: int) -> dict[str, float]:
    """Cost-model prediction per phase for one rank's step."""
    from repro.perfmodel.costs import CostModel, predicted_phase_costs
    from repro.perfmodel.machines import CASCADE_LAKE_FINCH

    machine = state.problem.extra.get("machine_rates", CASCADE_LAKE_FINCH)
    cost = CostModel(machine)
    ncells, ncomp = _rank_work(state, nranks)
    try:
        from repro.codegen.cpu_distributed import _band_count

        nbands = _band_count(state.problem)
    except Exception:
        nbands = 1
    if nranks > 1 and getattr(state.problem.config, "partition_strategy",
                              None) != "cells":
        nbands = max(nbands // nranks, 1)
    geom = getattr(state, "geom", None)
    if geom is None:
        # non-FV state (FEM): the BTE cost model does not apply, so the
        # profile carries timings without a drift column
        return {}
    return predicted_phase_costs(
        cost,
        ncells=ncells,
        ncomp=ncomp,
        nbands=nbands,
        n_boundary_faces=geom.boundary_face_count(),
    )


def _timer_rows(timers, nsteps: int, predicted: dict[str, float]) -> list[dict]:
    """Phase rows from one rank's TimerRegistry."""
    rows = []
    for name, stats in timers.stats.items():
        total = stats.total
        per_step = total / nsteps if nsteps > 0 else 0.0
        row = {
            "name": name,
            "kind": "phase",
            "clock": "wall",
            "count": stats.count,
            "total_s": total,
            "self_s": total,  # refined below for phases that launch kernels
            "mean_s": stats.mean if stats.count else 0.0,
            "measured_s_per_step": per_step,
            "predicted_s_per_step": None,
            "drift": None,
        }
        pred = predicted.get(name)
        if pred is not None and pred > 0:
            row["predicted_s_per_step"] = pred
            row["drift"] = per_step / pred
        rows.append(row)
    return rows


def _kernel_rows(device_profiler, nsteps: int,
                 predicted: dict[str, float]) -> list[dict]:
    """Kernel rows from one device's launch records (roofline columns)."""
    rows = []
    for kr in device_profiler.kernel_rows():
        per_step = kr["self_s"] / nsteps if nsteps > 0 else 0.0
        row = dict(kr)
        row["kind"] = "kernel"
        row["clock"] = "virtual"
        row["total_s"] = kr["self_s"]  # kernels are leaves
        row["measured_s_per_step"] = per_step
        # the interior kernel implements the intensity sweep: judge it
        # against the same prediction the placement optimiser used
        pred = predicted.get("solve")
        if pred is not None and pred > 0 and kr["name"].endswith("interior_step"):
            row["predicted_s_per_step"] = pred
            row["drift"] = per_step / pred
        else:
            row["predicted_s_per_step"] = None
            row["drift"] = None
        rows.append(row)
    return rows


def _attribute_kernel_self(rows: list[dict]) -> None:
    """Subtract device-kernel time from the launching ``solve`` phase so the
    phase's ``self_s`` is host-side work only (clamped at zero: phase timers
    are wall clock while device time is virtual, so the difference is an
    attribution, not an identity)."""
    kernel_s = sum(r["self_s"] for r in rows if r["kind"] == "kernel")
    if kernel_s <= 0:
        return
    for row in rows:
        if row["kind"] == "phase" and row["name"] == "solve":
            row["self_s"] = max(row["total_s"] - kernel_s, 0.0)


def build_profile(solver, *, tolerance: float | None = None) -> dict:
    """The ``repro.profile/1`` document for one executed solve."""
    state = solver.state
    nsteps = max(int(getattr(state, "step_index", 0)), 1)
    spmd = getattr(state, "spmd_result", None)
    nranks = len(spmd.results) if spmd is not None else 1
    predicted = _predicted_phase_seconds(state, nranks)
    profiler = get_profiler()

    ranks: list[dict] = []
    if spmd is not None:
        device_profilers = getattr(state, "device_profilers", None) or []
        for rank, result in enumerate(spmd.results):
            rows: list[dict] = []
            timers = (result or {}).get("timers")
            if timers is not None:
                rows.extend(_timer_rows(timers, nsteps, predicted))
            if rank < len(device_profilers):
                rows.extend(
                    _kernel_rows(device_profilers[rank], nsteps, predicted))
            _attribute_kernel_self(rows)
            entry: dict[str, Any] = {"rank": rank, "kernels": rows}
            if rank < len(device_profilers):
                entry["transfers"] = device_profilers[rank].transfer_summary()
            if profiler.enabled:
                entry["launches"] = profiler.launches_for_rank(rank)
            ranks.append(entry)
    else:
        rows = _timer_rows(state.timers, nsteps, predicted)
        device = getattr(solver, "device", None)
        entry = {"rank": 0, "kernels": rows}
        if device is not None:
            rows.extend(_kernel_rows(device.profiler, nsteps, predicted))
            _attribute_kernel_self(rows)
            entry["transfers"] = device.profiler.transfer_summary()
        if profiler.enabled:
            entry["launches"] = profiler.launches_for_rank(0)
        ranks.append(entry)

    tol = DRIFT_TOLERANCE if tolerance is None else float(tolerance)
    # the exceeded flag judges only the wall-measured phase rows: virtual
    # kernel rows compare the *device* model against the *CPU* prediction,
    # which is a placement sanity check, not machine drift
    drifts = [
        abs(row["drift"] - 1.0)
        for entry in ranks
        for row in entry["kernels"]
        if row.get("drift") is not None and row.get("clock") == "wall"
    ]
    max_abs = max(drifts) if drifts else 0.0
    drift_section = {"tolerance": tol, "max_abs": max_abs,
                     "exceeded": max_abs > tol}

    ncells, ncomp = _cell_counts(state)
    meta: dict[str, Any] = {
        "problem": state.problem.name,
        "target": getattr(solver, "target_name", None),
        "nsteps": int(getattr(state, "step_index", 0)),
        "ncells": int(ncells),
        "ncomp": int(ncomp),
        "nranks": nranks,
        "problem_key": problem_key(state.problem,
                                   getattr(solver, "target_name", None)),
        "per_launch": bool(profiler.enabled),
    }
    generation = getattr(solver, "generation_info", None)
    if generation:
        meta["generation"] = dict(generation)

    return {"schema": SCHEMA, "meta": meta, "ranks": ranks,
            "drift": drift_section}


def problem_key(problem, target_name: str | None = None) -> str:
    """Stable per-problem identity for the run registry and ``bte history``:
    the digest of the *tuning* key, i.e. the problem signature with the
    knobs normalised out — so a run with an injected ``gpu_flop_factor``
    or another loop order lands in the same timeline as the default run."""
    from repro.tune.signature import signature_digest, tuning_key

    return signature_digest(tuning_key(problem, target_name))


def write_profile(doc: dict, path: str | Path) -> Path:
    """Write a ``repro.profile/1`` document (JSON-safe, non-finite → null)."""
    from repro.obs.report import _json_safe

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_json_safe(doc), indent=1) + "\n")
    return path


def load_profile(path: str | Path) -> dict:
    """Read a ``repro.profile/1`` document, validating the schema prefix."""
    from repro.util.errors import ReproError

    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"{path}: unreadable profile: {exc}") from exc
    schema = str(doc.get("schema", ""))
    if not schema.startswith("repro.profile/"):
        raise ReproError(f"{path}: not a profile document (schema={schema!r})")
    return doc


def extract_profile(doc: dict) -> dict:
    """The ``repro.profile/1`` document inside ``doc``, whatever ``doc`` is.

    Accepts a bare profile, a ``repro.run_report/1`` document or a
    ``repro.runs/1`` registry entry (both nest the profile under
    ``"profile"``), so ``bte compare`` takes any of the three.
    """
    from repro.util.errors import ReproError

    schema = str(doc.get("schema", ""))
    if schema.startswith("repro.profile/"):
        return doc
    if schema.startswith(("repro.run_report/", "repro.runs/")):
        profile = doc.get("profile")
        if profile is None and schema.startswith("repro.runs/"):
            profile = doc.get("report", {}).get("profile")
        if profile:
            return profile
        raise ReproError(
            f"document (schema={schema!r}) carries no profile section")
    raise ReproError(f"not a profile-bearing document (schema={schema!r})")


def compare_profiles(a: dict, b: dict) -> dict:
    """Per-(rank, kind, name) self-time delta between two profiles (A → B).

    Rows are sorted by ``delta_s`` descending — the row that slowed down
    the most ranks first, so a regression's culprit kernel/phase leads the
    table.  Rows missing on one side (a kernel that only exists in one
    run) compare against zero.
    """
    def rows_by_key(doc: dict) -> dict[tuple, dict]:
        out: dict[tuple, dict] = {}
        for entry in doc.get("ranks", []):
            rank = entry.get("rank", 0)
            for row in entry.get("kernels", []):
                out[(rank, row.get("kind", "?"), row.get("name", "?"))] = row
        return out

    ra, rb = rows_by_key(a), rows_by_key(b)
    rows: list[dict] = []
    for key in sorted(set(ra) | set(rb)):
        rank, kind, name = key
        sa = float(ra.get(key, {}).get("self_s", 0.0) or 0.0)
        sb = float(rb.get(key, {}).get("self_s", 0.0) or 0.0)
        rows.append({
            "rank": rank, "kind": kind, "name": name,
            "self_s_a": sa, "self_s_b": sb, "delta_s": sb - sa,
            "ratio": (sb / sa) if sa > 0.0 else None,
        })
    rows.sort(key=lambda r: r["delta_s"], reverse=True)
    total_a = sum(r["self_s_a"] for r in rows)
    total_b = sum(r["self_s_b"] for r in rows)
    meta_a, meta_b = a.get("meta", {}), b.get("meta", {})
    return {
        "schema": "repro.compare/1",
        "meta": {
            "a": meta_a, "b": meta_b,
            "same_problem": (meta_a.get("problem_key") is not None
                             and meta_a.get("problem_key")
                             == meta_b.get("problem_key")),
            "total_self_s_a": total_a,
            "total_self_s_b": total_b,
            "total_delta_s": total_b - total_a,
        },
        "rows": rows,
        # the regression culprit: only meaningful when something actually
        # got slower
        "culprit": dict(rows[0]) if rows and rows[0]["delta_s"] > 0.0 else None,
    }


def compare_table(cmp: dict, *, top: int = 0) -> str:
    """Human-readable ``bte compare`` table, culprit first."""
    lines = []
    header = (f"{'rank':>4} {'kind':<7} {'name':<28} {'A self_s':>11} "
              f"{'B self_s':>11} {'delta_s':>11} {'ratio':>7}")
    lines.append(header)
    lines.append("-" * len(header))
    rows = cmp.get("rows", [])
    if top:
        rows = rows[:top]
    for row in rows:
        ratio = row.get("ratio")
        rstr = "-" if ratio is None else f"{ratio:.2f}x"
        lines.append(
            f"{row.get('rank', 0):>4} {row.get('kind', '?'):<7} "
            f"{row.get('name', '?'):<28} {row.get('self_s_a', 0.0):>11.3e} "
            f"{row.get('self_s_b', 0.0):>11.3e} "
            f"{row.get('delta_s', 0.0):>+11.3e} {rstr:>7}"
        )
    meta = cmp.get("meta", {})
    lines.append(
        f"total self time: {meta.get('total_self_s_a', 0.0):.6f} s -> "
        f"{meta.get('total_self_s_b', 0.0):.6f} s "
        f"({meta.get('total_delta_s', 0.0):+.6f} s)"
    )
    culprit = cmp.get("culprit")
    if culprit is not None:
        ratio = culprit.get("ratio")
        rstr = "" if ratio is None else f" ({ratio:.2f}x)"
        lines.append(
            f"top culprit: rank {culprit.get('rank', 0)} "
            f"{culprit.get('kind', '?')} {culprit.get('name', '?')} "
            f"{culprit.get('delta_s', 0.0):+.6f} s{rstr}"
        )
    else:
        lines.append("top culprit: none (nothing got slower)")
    return "\n".join(lines)


# ------------------------------------------------------------------ rendering
def profile_table(doc: dict, *, top: int = 0) -> str:
    """Human-readable per-kernel table (``bte profile`` output)."""
    lines = []
    header = (f"{'rank':>4} {'kind':<7} {'name':<28} {'count':>6} "
              f"{'self_s':>10} {'total_s':>10} {'s/step':>10} "
              f"{'bound':<8} {'drift':>7}")
    lines.append(header)
    lines.append("-" * len(header))
    rows = [
        (entry.get("rank", 0), row)
        for entry in doc.get("ranks", [])
        for row in entry.get("kernels", [])
    ]
    rows.sort(key=lambda pair: pair[1].get("self_s", 0.0), reverse=True)
    if top:
        rows = rows[:top]
    for rank, row in rows:
        drift = row.get("drift")
        dstr = "-" if drift is None else f"{drift:.2f}"
        lines.append(
            f"{rank:>4} {row.get('kind', '?'):<7} {row.get('name', '?'):<28} "
            f"{row.get('count', 0):>6} {row.get('self_s', 0.0):>10.3e} "
            f"{row.get('total_s', 0.0):>10.3e} "
            f"{row.get('measured_s_per_step', 0.0):>10.3e} "
            f"{row.get('bound', '-') or '-':<8} {dstr:>7}"
        )
    drift_info = doc.get("drift", {})
    if drift_info:
        status = "EXCEEDED" if drift_info.get("exceeded") else "ok"
        lines.append(
            f"perfmodel drift: max |measured/predicted - 1| = "
            f"{drift_info.get('max_abs', 0.0):.2f} "
            f"(tolerance {drift_info.get('tolerance', DRIFT_TOLERANCE):.2f}, "
            f"{status})"
        )
    return "\n".join(lines)


__all__ = [
    "DRIFT_TOLERANCE",
    "RunProfiler",
    "SCHEMA",
    "build_profile",
    "compare_profiles",
    "compare_table",
    "extract_profile",
    "get_profiler",
    "load_profile",
    "problem_key",
    "profile_run",
    "profile_table",
    "set_profiler",
    "write_profile",
]
