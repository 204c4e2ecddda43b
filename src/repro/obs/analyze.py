"""Post-hoc analysis of exported traces and run reports.

The tracer (:mod:`repro.obs.tracer`) writes a Chrome-trace JSON and the
report builder (:mod:`repro.obs.report`) a schema-versioned summary; this
module turns the two back into the paper's headline quantities:

* **critical path** — a sweep over the virtual timeline attributes every
  slice of the makespan to the innermost span covering it (or ``idle``),
  giving a per-phase breakdown of *elapsed* time rather than summed busy
  time — the shape of the paper's Figs. 5/8 bars;
* **overlap efficiency** — the Fig. 6 picture as one number: the fraction
  of the shorter side (device kernels vs CPU boundary callbacks; rank
  compute vs communication) that runs concurrently with the other,
  ``overlapped / min(busy_a, busy_b)`` in ``(0, 1]`` when both exist;
* **placement explainability** — the report's per-task table (chosen
  device, modelled cost on both devices, measured cost, misprediction
  flag) rendered so the min-cut optimiser's decisions can be audited;
* **measured cross-rank critical path** — when the trace carries flow
  events (the comm layer's causal send->recv edges), the path is walked
  *backwards* from the last span to finish: a receive that blocked jumps
  to the sending rank's send span, everything else chains to the latest
  preceding span on the same track.  Unlike the innermost-covering sweep
  above (an inference from span nesting), this follows recorded causal
  dependencies across ranks, so the breakdown names the spans that
  actually gated the makespan and counts the rank hops along the way.

Wall-clock and virtual-clock spans share one trace but not one time axis;
the analyzer works on the *virtual* processes (any process owning a
kernel/transfer/comm/compute/sync span) when the run has them, falling
back to the wall-clock spans for pure host runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.util.errors import AnalysisInputError

SCHEMA = "repro.analysis/1"

#: Span categories recorded with virtual (simulated) timestamps.
_VIRTUAL_CATS = {"kernel", "transfer", "comm", "compute", "sync"}

#: Envelope categories excluded from critical-path attribution (they wrap
#: the whole run and would mask genuine idle time).
_ENVELOPE_CATS = {"run", "pipeline"}


@dataclass
class Span:
    """One completed span reconstructed from the trace-event JSON."""

    track: str
    name: str
    t0: float
    t1: float
    cat: str = ""
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def process(self) -> str:
        return self.track.partition("/")[0]


@dataclass
class Flow:
    """One causal edge reconstructed from a paired ``s``/``f`` flow event."""

    name: str
    flow_id: int
    src_track: str
    src_t: float
    dst_track: str
    dst_t: float
    args: dict[str, Any] = field(default_factory=dict)


def load_trace_doc(path: str | Path) -> tuple[list[Span], list[Flow]]:
    """Parse a Chrome trace-event JSON into spans plus causal flows.

    Accepts both the object form (``{"traceEvents": [...]}``) the tracer
    writes and the bare array form the format also allows.  Track names
    are rebuilt from the ``process_name``/``thread_name`` metadata events.
    Flow starts (``ph:"s"``) and finishes (``ph:"f"``) are paired by their
    ``id``; unpaired halves (a send whose message was dropped and never
    redelivered) are discarded.
    """
    doc = json.loads(Path(path).read_text())
    events = doc.get("traceEvents", []) if isinstance(doc, dict) else doc
    processes: dict[int, str] = {}
    threads: dict[tuple[int, int], str] = {}
    for ev in events:
        if ev.get("ph") != "M":
            continue
        if ev.get("name") == "process_name":
            processes[ev["pid"]] = ev["args"]["name"]
        elif ev.get("name") == "thread_name":
            threads[(ev["pid"], ev["tid"])] = ev["args"]["name"]

    def track_of(ev: dict[str, Any]) -> str:
        pid, tid = ev.get("pid", 0), ev.get("tid", 0)
        process = processes.get(pid, f"pid{pid}")
        thread = threads.get((pid, tid), f"tid{tid}")
        return process if thread == process else f"{process}/{thread}"

    spans = []
    starts: dict[int, dict[str, Any]] = {}
    ends: dict[int, dict[str, Any]] = {}
    for ev in events:
        ph = ev.get("ph")
        if ph == "X":
            t0 = ev["ts"] / 1e6
            spans.append(Span(
                track=track_of(ev), name=ev.get("name", "?"),
                t0=t0, t1=t0 + ev.get("dur", 0.0) / 1e6,
                cat=ev.get("cat", ""), args=ev.get("args", {}),
            ))
        elif ph == "s":
            starts[ev["id"]] = ev
        elif ph == "f":
            ends[ev["id"]] = ev

    flows = []
    for fid, s_ev in starts.items():
        f_ev = ends.get(fid)
        if f_ev is None:
            continue
        flows.append(Flow(
            name=s_ev.get("name", "?"), flow_id=fid,
            src_track=track_of(s_ev), src_t=s_ev["ts"] / 1e6,
            dst_track=track_of(f_ev), dst_t=f_ev["ts"] / 1e6,
            args=s_ev.get("args", {}),
        ))
    flows.sort(key=lambda f: f.src_t)
    return spans, flows


def load_trace(path: str | Path) -> list[Span]:
    """Parse a Chrome trace-event JSON back into :class:`Span` records."""
    return load_trace_doc(path)[0]


# ---------------------------------------------------------------------------
# interval arithmetic
# ---------------------------------------------------------------------------

def merge_intervals(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of half-open intervals as a sorted, disjoint list."""
    out: list[tuple[float, float]] = []
    for a, b in sorted(i for i in intervals if i[1] > i[0]):
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def total_length(merged: list[tuple[float, float]]) -> float:
    return sum(b - a for a, b in merged)


def intersection_length(a: list[tuple[float, float]],
                        b: list[tuple[float, float]]) -> float:
    """Measure of the intersection of two merged interval lists."""
    i = j = 0
    out = 0.0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            out += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


# ---------------------------------------------------------------------------
# the three analyses
# ---------------------------------------------------------------------------

def analysis_domain(spans: list[Span]) -> list[Span]:
    """The spans sharing one time axis: virtual processes when present."""
    virtual = {s.process for s in spans if s.cat in _VIRTUAL_CATS}
    if virtual:
        return [s for s in spans if s.process in virtual]
    return spans


def overlap_score(side_a: list[Span], side_b: list[Span],
                  label_a: str, label_b: str) -> dict[str, Any] | None:
    """Fig.-6-style overlap between two span populations, or ``None``.

    ``efficiency`` is the overlapped time divided by the *shorter* side's
    busy time: 1.0 means the cheaper side is fully hidden behind the other.
    """
    a = merge_intervals([(s.t0, s.t1) for s in side_a])
    b = merge_intervals([(s.t0, s.t1) for s in side_b])
    busy_a, busy_b = total_length(a), total_length(b)
    if busy_a <= 0 or busy_b <= 0:
        return None
    overlapped = intersection_length(a, b)
    return {
        "sides": [label_a, label_b],
        f"{label_a}_busy_s": busy_a,
        f"{label_b}_busy_s": busy_b,
        "overlapped_s": overlapped,
        "efficiency": overlapped / min(busy_a, busy_b),
    }


def kernel_boundary_overlap(spans: list[Span]) -> dict[str, Any] | None:
    """Device kernels vs CPU boundary callbacks (the paper's Fig. 6)."""
    kernels = [s for s in spans if s.cat == "kernel"]
    boundary = [s for s in spans if s.name == "boundary_callbacks"]
    return overlap_score(kernels, boundary, "kernel", "boundary")


def compute_comm_overlap(spans: list[Span]) -> dict[str, Any] | None:
    """Rank compute vs communication: how much comm hides behind work."""
    compute = [s for s in spans if s.cat == "compute"]
    comm = [s for s in spans if s.cat == "comm"]
    return overlap_score(compute, comm, "compute", "comm")


def critical_path(spans: list[Span]) -> dict[str, Any]:
    """Attribute every slice of the makespan to the innermost covering span.

    The sweep walks the sorted union of span boundaries; each segment is
    charged to the *shortest* span covering its midpoint (the most specific
    work happening then), or to ``idle`` when nothing covers it.  The
    returned phase seconds therefore sum to the makespan exactly — an
    elapsed-time breakdown, unlike summed busy time which double-counts
    overlapped work.
    """
    usable = [s for s in spans if s.cat not in _ENVELOPE_CATS and s.duration > 0]
    if not usable:
        return {"makespan_s": 0.0, "phases": {}, "path": []}
    cuts = sorted({t for s in usable for t in (s.t0, s.t1)})
    phases: dict[str, float] = {}
    path: list[dict[str, Any]] = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = (lo + hi) / 2.0
        covering = [s for s in usable if s.t0 <= mid < s.t1]
        name = min(covering, key=lambda s: s.duration).name if covering else "idle"
        phases[name] = phases.get(name, 0.0) + (hi - lo)
        if path and path[-1]["name"] == name and path[-1]["t1"] == lo:
            path[-1]["t1"] = hi
        else:
            path.append({"name": name, "t0": lo, "t1": hi})
    makespan = cuts[-1] - cuts[0]
    return {
        "makespan_s": makespan,
        "phases": dict(sorted(phases.items(), key=lambda kv: -kv[1])),
        "path": path,
    }


def critical_path_measured(spans: list[Span], flows: list[Flow],
                           eps: float = 1e-12) -> dict[str, Any]:
    """Walk the *recorded* dependency chain backwards from the last finisher.

    The inferred sweep above attributes elapsed time by span nesting; this
    one follows causality: starting at the latest-ending non-envelope span,
    the predecessor of a receive span that actually blocked (its
    ``waited_s`` is positive) is the *sending rank's* send span, reached
    through the flow edge the comm layer recorded for exactly the delivered
    message copy.  Every other span chains to the latest span on its own
    track ending at or before its start.  The result is a chain of spans
    whose time, plus the idle gaps between them, spans the makespan —
    with ``rank_hops`` counting how often the path crossed ranks.
    """
    usable = [s for s in spans if s.cat not in _ENVELOPE_CATS]
    if not usable:
        return {"makespan_s": 0.0, "phases": {}, "path": [],
                "rank_hops": 0, "n_flows": len(flows)}
    by_track: dict[str, list[Span]] = {}
    for s in usable:
        by_track.setdefault(s.track, []).append(s)
    for lst in by_track.values():
        lst.sort(key=lambda s: (s.t1, s.t0))
    sends = {s.args["span_id"]: s for s in usable
             if isinstance(s.args.get("span_id"), int)}
    # spans with a recorded outgoing causal edge: point-to-point flows bind
    # by the send span id itself; collective flows mint a fresh arrow id and
    # name the straggler's entry span in their args instead
    flow_srcs: set[int] = set()
    for f in flows:
        flow_srcs.add(f.flow_id)
        src = f.args.get("src_span")
        if isinstance(src, int) and src:
            flow_srcs.add(src)

    cur: Span | None = max(usable, key=lambda s: s.t1)
    chain: list[Span] = []
    hops = 0
    seen: set[int] = set()
    while cur is not None and id(cur) not in seen:
        seen.add(id(cur))
        chain.append(cur)
        nxt: Span | None = None
        parent = cur.args.get("parent_span_id")
        waited = float(cur.args.get("waited_s") or 0.0)
        if parent in flow_srcs and waited > eps:
            # the receive blocked: the sender gated it, not local history
            sender = sends.get(parent)
            if sender is not None:
                if sender.track != cur.track:
                    hops += 1
                nxt = sender
        if nxt is None:
            prior = [s for s in by_track.get(cur.track, [])
                     if s.t1 <= cur.t0 + eps and id(s) not in seen]
            nxt = prior[-1] if prior else None
        cur = nxt

    chain.reverse()
    phases: dict[str, float] = {}
    segments: list[dict[str, Any]] = []
    frontier = chain[0].t0
    for s in chain:
        gap = s.t0 - frontier
        if gap > eps:
            phases["idle"] = phases.get("idle", 0.0) + gap
        charged = max(s.t1 - max(s.t0, frontier), 0.0)
        phases[s.name] = phases.get(s.name, 0.0) + charged
        segments.append({"track": s.track, "name": s.name,
                         "t0": s.t0, "t1": s.t1})
        frontier = max(frontier, s.t1)
    return {
        "makespan_s": chain[-1].t1 - chain[0].t0,
        "phases": dict(sorted(phases.items(), key=lambda kv: -kv[1])),
        "path": segments,
        "rank_hops": hops,
        "n_flows": len(flows),
    }


# ---------------------------------------------------------------------------
# the combined analysis document
# ---------------------------------------------------------------------------

@dataclass
class Analysis:
    """Everything the analyzer derived from one trace/report pair."""

    meta: dict[str, Any] = field(default_factory=dict)
    critical: dict[str, Any] = field(default_factory=dict)
    critical_measured: dict[str, Any] | None = None
    overlap: dict[str, Any] = field(default_factory=dict)
    report_phases: dict[str, float] = field(default_factory=dict)
    placement: dict[str, Any] | None = None
    trace_stats: dict[str, Any] = field(default_factory=dict)
    kernels: list[dict[str, Any]] = field(default_factory=list)
    profile_drift: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "schema": SCHEMA,
            "meta": self.meta,
            "critical_path": self.critical,
            "overlap": self.overlap,
            "report_phases": self.report_phases,
            "trace": self.trace_stats,
        }
        if self.critical_measured is not None:
            doc["critical_path_measured"] = self.critical_measured
        if self.placement is not None:
            doc["placement"] = self.placement
        if self.kernels:
            doc["kernels"] = self.kernels
        if self.profile_drift is not None:
            doc["profile_drift"] = self.profile_drift
        return doc

    # ------------------------------------------------------------- rendering
    def render_text(self) -> str:
        lines: list[str] = []
        if self.meta:
            head = " ".join(
                f"{k}={self.meta[k]}" for k in
                ("problem", "target", "nsteps_run") if k in self.meta
            )
            lines.append(f"run: {head}" if head else "run:")
        crit = self.critical
        if crit.get("phases"):
            lines.append("")
            lines.append(f"critical path (makespan {crit['makespan_s']:.6f} s):")
            width = max(len(n) for n in crit["phases"])
            for name, secs in crit["phases"].items():
                frac = secs / crit["makespan_s"] if crit["makespan_s"] else 0.0
                bar = "#" * int(round(frac * 30))
                lines.append(
                    f"  {name:<{width}}  {secs:.6f} s  {frac * 100:5.1f}%  {bar}"
                )
            lines.append(f"  segments on path: {len(crit.get('path', []))}")
        meas = self.critical_measured
        if meas and meas.get("phases"):
            lines.append("")
            lines.append(
                f"measured critical path (causal, {meas['n_flows']} flow "
                f"edge(s), {meas['rank_hops']} rank hop(s), makespan "
                f"{meas['makespan_s']:.6f} s):")
            width = max(len(n) for n in meas["phases"])
            for name, secs in meas["phases"].items():
                frac = secs / meas["makespan_s"] if meas["makespan_s"] else 0.0
                bar = "#" * int(round(frac * 30))
                lines.append(
                    f"  {name:<{width}}  {secs:.6f} s  {frac * 100:5.1f}%  {bar}"
                )
            lines.append(f"  spans on path: {len(meas.get('path', []))}")
        for key, score in self.overlap.items():
            if score is None:
                continue
            a, b = score["sides"]
            lines.append("")
            lines.append(
                f"{key} overlap: efficiency {score['efficiency']:.3f} "
                f"({a} busy {score[f'{a}_busy_s']:.6f} s, "
                f"{b} busy {score[f'{b}_busy_s']:.6f} s, "
                f"overlapped {score['overlapped_s']:.6f} s)"
            )
        if self.report_phases:
            lines.append("")
            lines.append("reported phase fractions (Figs. 5/8 shape):")
            for name, frac in sorted(self.report_phases.items(),
                                     key=lambda kv: -kv[1]):
                lines.append(f"  {name:<22} {frac * 100:5.1f}%")
        if self.placement and self.placement.get("tasks"):
            lines.append("")
            lines.append("placement explainability (modelled vs measured, s/step):")
            lines.append(
                f"  {'task':<24} {'dev':<4} {'pin':<4} {'predicted':>11} "
                f"{'alternative':>11} {'delta':>11} {'measured':>11}  flag"
            )
            for row in self.placement["tasks"]:
                lines.append(
                    f"  {row['task']:<24} {row['device']:<4} "
                    f"{(row.get('pinned') or '-'):<4} "
                    f"{_fmt(row.get('predicted_s_per_step')):>11} "
                    f"{_fmt(row.get('alternative_s_per_step')):>11} "
                    f"{_fmt(row.get('predicted_delta_s')):>11} "
                    f"{_fmt(row.get('measured_s_per_step')):>11}  "
                    f"{'MISPREDICTED' if row.get('mispredicted') else 'ok'}"
                )
            moved = self.placement.get("bytes_moved_per_step")
            if moved is not None:
                lines.append(f"  bytes moved per step: {moved:.0f}")
        if self.kernels:
            lines.append("")
            lines.append("per-kernel roofline attribution (device timeline):")
            lines.append(
                f"  {'kernel':<24} {'count':>5} {'self_s':>11} "
                f"{'flop/byte':>10} {'ridge':>8} {'bound':<7} "
                f"{'%peak':>6} {'%bw':>6}"
            )
            for row in self.kernels:
                peak = row.get("flop_fraction_of_peak")
                bw = row.get("memory_throughput_fraction")
                lines.append(
                    f"  {row.get('name', '?'):<24} {row.get('count', 0):>5} "
                    f"{row.get('self_s', 0.0):>11.6f} "
                    f"{_fmt_ratio(row.get('intensity_flop_per_byte')):>10} "
                    f"{_fmt_ratio(row.get('ridge_flop_per_byte')):>8} "
                    f"{row.get('bound', '?'):<7} "
                    f"{_fmt_pct(peak):>6} {_fmt_pct(bw):>6}"
                )
        if self.profile_drift is not None:
            drift = self.profile_drift
            status = "EXCEEDED" if drift.get("exceeded") else "ok"
            lines.append("")
            lines.append(
                f"perfmodel drift: max |measured/predicted - 1| = "
                f"{_fmt_ratio(drift.get('max_abs'))} "
                f"(tolerance {_fmt_ratio(drift.get('tolerance'))}, {status})"
            )
        if self.trace_stats:
            lines.append("")
            lines.append(
                f"trace: {self.trace_stats.get('n_spans', 0)} spans on "
                f"{self.trace_stats.get('n_tracks', 0)} tracks "
                f"({self.trace_stats.get('n_virtual_spans', 0)} on the "
                "virtual timeline)"
            )
        return "\n".join(lines) + "\n"


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    return f"{value:.3e}"


def _fmt_ratio(value: Any) -> str:
    if value is None:
        return "-"
    return f"{value:.2f}"


def _fmt_pct(value: Any) -> str:
    if value is None:
        return "-"
    return f"{value * 100:.1f}%"


def analyze(trace_path: str | Path | None = None,
            report_path: str | Path | dict | None = None) -> Analysis:
    """Analyze a trace JSON and/or a run document (its path, or the parsed
    JSON; any form :func:`~repro.obs.report.load_run` reads) into one
    document."""
    if trace_path is None and report_path is None:
        raise AnalysisInputError("need a trace file, a report file, or both")
    analysis = Analysis()

    if report_path is not None:
        from repro.obs.report import load_run

        report = load_run(report_path)
        analysis.meta = report["meta"]
        analysis.report_phases = report["phases"]
        analysis.placement = report.get("placement")
        # the device kernels' roofline rows; an SPMD run's named by rank
        spmd = "comm" in report or len(report["ranks"]) > 1
        analysis.kernels = [
            dict(row, name=f"rank{entry['rank']}/{row['name']}") if spmd else row
            for entry in report["ranks"] for row in entry["rows"]
            if row.get("kind") == "kernel"
        ]
        analysis.profile_drift = report.get("drift")

    if trace_path is not None:
        spans, flows = load_trace_doc(trace_path)
        domain = analysis_domain(spans)
        analysis.trace_stats = {
            "n_spans": len(spans),
            "n_tracks": len({s.track for s in spans}),
            "n_virtual_spans": len(domain) if domain is not spans else 0,
            "n_flows": len(flows),
        }
        analysis.critical = critical_path(domain)
        if flows:
            analysis.critical_measured = critical_path_measured(domain, flows)
        analysis.overlap = {
            "kernel_boundary": kernel_boundary_overlap(domain),
            "compute_comm": compute_comm_overlap(domain),
        }
    return analysis


__all__ = [
    "Analysis",
    "Flow",
    "SCHEMA",
    "Span",
    "analysis_domain",
    "analyze",
    "compute_comm_overlap",
    "critical_path",
    "critical_path_measured",
    "intersection_length",
    "kernel_boundary_overlap",
    "load_trace",
    "load_trace_doc",
    "merge_intervals",
    "overlap_score",
    "total_length",
]
