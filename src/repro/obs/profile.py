"""Per-kernel run profiling: the rows of a run document's ``ranks`` section.

The paper's evidence is per-phase/per-kernel breakdowns (Figs. 5/8 and the
Nsight profile of Tab. 1).  This module turns one executed solve into rows
with that granularity (:mod:`repro.obs.report` writes them into the run
document, ``ranks: [{rank, rows, transfers}]``):

* one row per (rank, phase-or-kernel) with count, **self** and **total**
  time, and the per-phase timer statistics or, for a kernel, bytes moved and
  achieved-vs-roofline FLOP/byte attribution (GPU rows come from
  :class:`repro.gpu.profiler.Profiler` launch records, CPU rows from the
  phase timers every generated run loop already drives — the one recorder
  of a phase's duration);
* a **perfmodel drift** column per row: measured seconds-per-step divided
  by the :class:`repro.perfmodel.costs.CostModel` prediction, so the
  analytic model that placement decisions rest on is audited by every
  profiled run.

It also diffs two run documents row by row (``bte compare``) and renders
both tables.
"""

from __future__ import annotations

from typing import Any

from repro.obs.report import DRIFT_TOLERANCE


# -------------------------------------------------------------------- builders
def _rank_work(state, nranks: int) -> tuple[float, float]:
    """(ncells, ncomp) a single rank owns, under the problem's partitioning.

    Balanced-split approximation: the profile audits the *model*, and the
    model itself assumes balanced parts.
    """
    ncells, ncomp = float(state.ncells), float(state.ncomp)
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

    cost = CostModel(CASCADE_LAKE_FINCH)
    ncells, ncomp = _rank_work(state, nranks)
    try:
        from repro.codegen.cpu_distributed import _band_count

        nbands = _band_count(state.problem)
    except Exception:
        nbands = 1
    if nranks > 1 and getattr(state.problem.config, "partition_strategy",
                              None) != "cells":
        nbands = max(nbands // nranks, 1)
    return predicted_phase_costs(
        cost,
        ncells=ncells,
        ncomp=ncomp,
        nbands=nbands,
        n_boundary_faces=state.geom.boundary_face_count(),
    )


def phase_row(name: str, stats: dict, nsteps: int,
              predicted: dict[str, float]) -> dict:
    """One phase row from a timer's statistics (``TimerStats.as_dict``)."""
    total = stats["total"]
    per_step = total / nsteps if nsteps > 0 else 0.0
    row = {
        "name": name,
        "kind": "phase",
        "clock": "wall",
        "count": stats["count"],
        "total_s": total,
        "self_s": total,  # refined below for phases that launch kernels
        "mean_s": stats["mean"],
        "min_s": stats.get("min"),
        "max_s": stats.get("max"),
        "p50_s": stats.get("p50"),
        "p95_s": stats.get("p95"),
        "measured_s_per_step": per_step,
        "predicted_s_per_step": None,
        "drift": None,
    }
    pred = predicted.get(name)
    if pred is not None and pred > 0:
        row["predicted_s_per_step"] = pred
        row["drift"] = per_step / pred
    return row


def kernel_row(kr: dict, nsteps: int, predicted: dict[str, float]) -> dict:
    """One kernel row from a device's per-kernel roofline row
    (:meth:`~repro.gpu.profiler.Profiler.kernel_rows`)."""
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
    return row


def attribute_kernel_self(rows: list[dict]) -> None:
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


def rank_rows(solver) -> list[dict]:
    """The ``ranks`` section of one executed solve: per rank, a row per
    phase timer and per device kernel, and the device's transfers."""
    state = solver.state
    nsteps = max(int(getattr(state, "step_index", 0)), 1)
    spmd = getattr(state, "spmd_result", None)
    if spmd is not None:
        timers = [result["timers"] for result in spmd.results]
        profilers = getattr(state, "device_profilers", None) or []
    else:
        timers = [state.timers]
        device = getattr(solver, "device", None)
        profilers = [device.profiler] if device is not None else []
    predicted = _predicted_phase_seconds(state, len(timers))
    ranks: list[dict] = []
    for rank, registry in enumerate(timers):
        rows = [phase_row(name, stats.as_dict(), nsteps, predicted)
                for name, stats in registry.stats.items()]
        entry: dict[str, Any] = {"rank": rank, "rows": rows}
        if rank < len(profilers):
            rows.extend(kernel_row(kr, nsteps, predicted)
                        for kr in profilers[rank].kernel_rows())
            attribute_kernel_self(rows)
            entry["transfers"] = profilers[rank].transfer_summary()
        ranks.append(entry)
    return ranks


# ------------------------------------------------------------------ comparison
def compare_profiles(a: dict, b: dict) -> dict:
    """Per-(rank, kind, name) self-time delta between two run documents
    (A → B).

    Rows are sorted by ``delta_s`` descending — the row that slowed down
    the most ranks first, so a regression's culprit kernel/phase leads the
    table.  Rows missing on one side (a kernel that only exists in one
    run) compare against zero.
    """
    def rows_by_key(doc: dict) -> dict[tuple, dict]:
        out: dict[tuple, dict] = {}
        for entry in doc.get("ranks", []):
            rank = entry.get("rank", 0)
            for row in entry.get("rows", []):
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
    """Human-readable per-kernel table of a run document (``bte profile``)."""
    lines = []
    header = (f"{'rank':>4} {'kind':<7} {'name':<28} {'count':>6} "
              f"{'self_s':>10} {'total_s':>10} {'s/step':>10} "
              f"{'bound':<8} {'drift':>7}")
    lines.append(header)
    lines.append("-" * len(header))
    rows = [
        (entry.get("rank", 0), row)
        for entry in doc.get("ranks", [])
        for row in entry.get("rows", [])
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
    "attribute_kernel_self",
    "compare_profiles",
    "compare_table",
    "kernel_row",
    "phase_row",
    "profile_table",
    "rank_rows",
]
