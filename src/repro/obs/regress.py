"""Benchmark envelopes and regression gating.

All benchmark JSON in the repo shares one schema-versioned envelope,
``repro.bench/1``::

    schema    "repro.bench/1"
    name      suite or figure name
    meta      free-form provenance (sizes, targets, date)
    timings   {benchmark name: seconds}

The figure-regeneration benchmarks (``benchmarks/conftest.py``) write it
per figure; :func:`run_benchmarks` produces one for a small deterministic
suite of solves; :func:`compare` diffs two envelopes with a configurable
relative-slowdown threshold so CI can gate on the committed baseline
(``BENCH_seed.json``) — ``repro bench --compare`` exits nonzero when any
benchmark regressed.

The suite's seconds are **virtual** (simulated clocks): deterministic for a
given model, so the gate detects cost-model and scheduling changes rather
than CI-machine noise.  Wall time enters only as on/off ratios of one
solve, which guard a live feature's overhead; how fast a solve runs in wall
seconds is the end-to-end harness's question (``benchmarks/e2e``).
"""

from __future__ import annotations

import gc
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.util.errors import BenchFormatError

SCHEMA = "repro.bench/1"

#: Relative slowdown ((cur - base) / base) above which a benchmark fails.
DEFAULT_THRESHOLD = 0.25

#: Observability-overhead ratio entries (``*_on_vs_off_*``) are ratios
#: near 1.0, not seconds — gated by the 5% always-on overhead budget.
OBS_OVERHEAD_THRESHOLD = 0.05

#: Elastic-runtime overhead (``rebalance_overhead*``): on/off wall ratio
#: gated against the ideal 1.0.  The imbalance watcher's periodic
#: decision allgather is real work (one allgather every ``check_every``
#: steps is a visible share of the tiny bench solve), so the budget is
#: looser than the passive observability toggles'.
REBALANCE_OVERHEAD_THRESHOLD = 0.25

#: Solver-service overhead (``serve_overhead_wall_s``): served/direct
#: wall ratio of one warm solve, gated against the ideal 1.0 — the
#: asyncio/executor/admission hops must stay inside the 10% budget.
SERVE_OVERHEAD_THRESHOLD = 0.10

#: Dedup speedup (``serve_dedup_speedup_x``) is a *floor*, not a
#: slowdown: a burst of identical requests served (coalesced onto one
#: solve) must beat solving each directly by at least this factor.
SERVE_DEDUP_SPEEDUP_MIN = 2.0

#: Baselines below this are too small to judge relatively.
MIN_BASE_SECONDS = 1e-6

#: How an entry is judged, by the first rule whose substring its name
#: holds: ``(substring, threshold, reference, sign)``, the slowdown being
#: ``sign * (current - reference) / reference``.  Overhead ratios are
#: judged against the ideal 1.0 — "the instrumentation is free" — not
#: against the baseline's own equally noisy measurement of the same ideal;
#: the dedup speedup is a floor, so only a shortfall below it counts.  Any
#: other entry is judged against its baseline at the default threshold.
_RULES = (
    ("_on_vs_off_", OBS_OVERHEAD_THRESHOLD, 1.0, 1.0),
    ("rebalance_overhead", REBALANCE_OVERHEAD_THRESHOLD, 1.0, 1.0),
    ("serve_overhead", SERVE_OVERHEAD_THRESHOLD, 1.0, 1.0),
    ("dedup_speedup", 0.0, SERVE_DEDUP_SPEEDUP_MIN, -1.0),
)


def _rule(name: str) -> tuple[float | None, float | None, float]:
    """``(threshold, reference, sign)`` of one entry; ``None`` threshold
    and reference mean the default threshold and the baseline's value."""
    for substring, threshold, reference, sign in _RULES:
        if substring in name:
            return threshold, reference, sign
    return None, None, 1.0


def load_bench(path: str | Path) -> dict[str, Any]:
    """Load and validate one benchmark envelope: every timing must be a
    finite real number, or the entry is named in a :class:`BenchFormatError`."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise BenchFormatError(f"{path}: unreadable envelope: {exc}") from exc
    schema = doc.get("schema", "") if isinstance(doc, dict) else ""
    if not isinstance(schema, str) or not schema.startswith("repro.bench/"):
        raise BenchFormatError(
            f"{path}: not a benchmark envelope (schema={schema!r})"
        )
    if not isinstance(doc.get("timings"), dict):
        raise BenchFormatError(f"{path}: envelope has no 'timings' mapping")
    for name, value in doc["timings"].items():
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            raise BenchFormatError(
                f"{path}: timing {name!r} is {value!r}, not a finite number")
    return doc


def write_bench(path: str | Path, name: str, timings: dict[str, float],
                **meta: Any) -> Path:
    """Write one ``repro.bench/1`` envelope."""
    doc = {
        "schema": SCHEMA,
        "name": name,
        "meta": meta,
        "timings": {k: float(v) for k, v in timings.items()},
    }
    path = Path(path)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

@dataclass
class BenchDelta:
    """One benchmark's baseline-vs-current judgement."""

    name: str
    base_s: float | None
    cur_s: float | None
    threshold: float
    status: str = "ok"  # ok | regression | improved | new | missing

    @property
    def slowdown(self) -> float | None:
        if self.cur_s is None:
            return None
        _, reference, sign = _rule(self.name)
        if reference is None:
            reference = self.base_s
        if not reference:
            return None
        return sign * (self.cur_s - reference) / reference


@dataclass
class RegressionReport:
    """The full comparison of two benchmark envelopes."""

    baseline_name: str
    current_name: str
    deltas: list[BenchDelta] = field(default_factory=list)

    @property
    def regressions(self) -> list[BenchDelta]:
        return [d for d in self.deltas if d.status == "regression"]

    @property
    def has_regressions(self) -> bool:
        return bool(self.regressions)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": "repro.bench_compare/1",
            "baseline": self.baseline_name,
            "current": self.current_name,
            "regressions": len(self.regressions),
            "deltas": [
                {
                    "name": d.name, "base_s": d.base_s, "cur_s": d.cur_s,
                    "slowdown": d.slowdown, "threshold": d.threshold,
                    "status": d.status,
                }
                for d in self.deltas
            ],
        }

    def render_text(self) -> str:
        lines = [
            f"benchmark comparison: {self.current_name} vs "
            f"baseline {self.baseline_name}",
            f"  {'benchmark':<32} {'baseline':>12} {'current':>12} "
            f"{'slowdown':>9}  status",
        ]
        for d in self.deltas:
            base = f"{d.base_s:.6f}" if d.base_s is not None else "-"
            cur = f"{d.cur_s:.6f}" if d.cur_s is not None else "-"
            slow = f"{d.slowdown * 100:+8.1f}%" if d.slowdown is not None else "        -"
            mark = d.status.upper() if d.status == "regression" else d.status
            lines.append(f"  {d.name:<32} {base:>12} {cur:>12} {slow}  {mark}")
        n = len(self.regressions)
        lines.append(
            f"  -> {n} regression(s) (relative-slowdown threshold "
            f"{DEFAULT_THRESHOLD:.0%} by default)"
            if n else "  -> no regressions"
        )
        return "\n".join(lines) + "\n"


def _threshold_for(name: str, threshold: float | None) -> float:
    rule_threshold = _rule(name)[0]
    if rule_threshold is not None:
        return rule_threshold
    return threshold if threshold is not None else DEFAULT_THRESHOLD


def compare(baseline: dict[str, Any], current: dict[str, Any],
            threshold: float | None = None) -> RegressionReport:
    """Diff two envelopes; a benchmark regresses when its slowdown exceeds
    its threshold (``threshold`` overrides the default for the entries no
    rule of :data:`_RULES` judges)."""
    base_t = baseline.get("timings", {})
    cur_t = current.get("timings", {})
    report = RegressionReport(
        baseline_name=baseline.get("name", "baseline"),
        current_name=current.get("name", "current"),
    )
    for name in sorted(set(base_t) | set(cur_t)):
        thr = _threshold_for(name, threshold)
        delta = BenchDelta(name, base_t.get(name), cur_t.get(name), thr)
        if delta.base_s is None:
            delta.status = "new"
        elif delta.cur_s is None:
            delta.status = "missing"
        elif delta.base_s < MIN_BASE_SECONDS:
            delta.status = "ok"  # too small to judge relatively
        elif delta.slowdown > thr:
            delta.status = "regression"
        elif delta.slowdown < -thr:
            delta.status = "improved"
        report.deltas.append(delta)
    return report


# ---------------------------------------------------------------------------
# the benchmark suite
# ---------------------------------------------------------------------------

def _bte_problem(nx: int, ndirs: int, bands: int, nsteps: int,
                 gpu: bool = False, ranks: int = 1):
    from repro.bte import build_bte_problem, hotspot_scenario

    scenario = hotspot_scenario(
        nx=nx, ny=nx, ndirs=ndirs, n_freq_bands=bands, nsteps=nsteps,
    )
    scenario.sigma = max(scenario.sigma, 2.5 * scenario.lx / nx)
    problem, _ = build_bte_problem(scenario)
    if gpu:
        problem.enable_gpu()
        problem.extra["gpu_force_offload"] = True
    if ranks > 1:
        problem.set_partitioning("bands", ranks, index="b")
    return problem


def _wall(fn: Callable[[], Any]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _paired_ratio(side: Callable[[bool], float], repeats: int = 4) -> float:
    """``min side(True) / min side(False)`` over ``repeats`` interleaved
    pairs, the order alternating each repeat so monotonic machine drift
    hits both sides alike, with the cyclic GC paused: by the time the suite
    gets here it has churned enough garbage that a collector pause landing
    on one side can push a ~1.0 ratio past its budget."""
    best = {True: float("inf"), False: float("inf")}
    gc.collect()
    gc.disable()
    try:
        for i in range(repeats):
            for on in ((True, False) if i % 2 == 0 else (False, True)):
                best[on] = min(best[on], side(on))
    finally:
        gc.enable()
    return best[True] / max(best[False], 1e-9)


def run_benchmarks(nx: int = 16, ndirs: int = 4, bands: int = 4,
                   nsteps: int = 5) -> dict[str, float]:
    """Run the small deterministic suite; returns the timings mapping.

    Virtual entries (deterministic, model-derived; the default threshold
    against the baseline):

    * ``gpu_hybrid_virtual_s``   — host virtual clock of the hybrid run
    * ``spmd_bands_virtual_s``   — SPMD makespan of a 2-rank band run
    * ``gpu_multi_virtual_s``    — SPMD makespan of a 2-rank, 2-device run
    * ``skewed_rebalance_virtual_s_r4`` / ``_r16`` — makespans of a skewed
      4- and 16-rank cell run under the proactive rebalancer

    On/off wall ratios (~1.0, judged against the ideal 1.0 by
    :data:`_RULES`): ``events_on_vs_off_wall_s`` (the structured event-log
    ring), ``rebalance_overhead_wall_s`` (the elastic controller on a
    balanced run) and ``serve_overhead_wall_s`` (one warm solve served vs
    called directly).  ``serve_dedup_speedup_x`` is the wall speedup of a
    coalesced identical-request burst over direct per-request solves, a
    :data:`SERVE_DEDUP_SPEEDUP_MIN` floor.
    """
    timings: dict[str, float] = {}

    solver = _bte_problem(nx, ndirs, bands, nsteps, gpu=True).solve()
    host_clock = getattr(solver.state, "host_clock", None)
    if host_clock is not None:
        timings["gpu_hybrid_virtual_s"] = host_clock.now()

    solver = _bte_problem(nx, ndirs, bands, nsteps, ranks=2).solve()
    spmd = getattr(solver.state, "spmd_result", None)
    if spmd is not None:
        timings["spmd_bands_virtual_s"] = spmd.makespan

    solver = _bte_problem(nx, ndirs, bands, nsteps, gpu=True, ranks=2).solve()
    spmd = getattr(solver.state, "spmd_result", None)
    if spmd is not None:
        timings["gpu_multi_virtual_s"] = spmd.makespan

    # always-on observability overhead: "the event log on by default is
    # free" is a tested property, not a claim
    from contextlib import nullcontext

    from repro.obs.log import EventLog
    from repro.util.context import scope

    def events_side(on: bool) -> float:
        with nullcontext() if on else scope(events=EventLog(enabled=False)):
            return _wall(lambda: _bte_problem(nx, ndirs, bands, nsteps).solve())

    events_side(True)  # warmup solve outside both timed sides
    timings["events_on_vs_off_wall_s"] = _paired_ratio(events_side)

    # elastic runtime.  (a) rebalance_overhead_wall_s: the controller on a
    # balanced, fault-free 2-rank cell run vs the plain SPMD path ("elastic
    # is free when nothing is wrong"), over a longer window than one suite
    # run: the watcher's per-check cost is a constant fraction, but
    # thread-scheduling noise is not.  (b) skewed strong scaling: rank 0
    # computes 3x slower (rank_slow:...,count=0) with the proactive
    # rebalancer on; a regression means it stopped migrating work off the
    # degraded rank.
    def elastic_problem(ranks: int, rebalance: bool, steps: int):
        p = _bte_problem(nx, ndirs, bands, steps)
        p.set_partitioning("cells", ranks)
        if rebalance:
            p.extra["rebalance"] = True
        return p

    def rebalance_side(on: bool) -> float:
        return _wall(elastic_problem(2, on, 4 * nsteps).solve)

    rebalance_side(True)
    rebalance_side(False)  # warmups: codegen + import costs land here
    timings["rebalance_overhead_wall_s"] = _paired_ratio(rebalance_side)

    from repro.runtime.faults import fault_run

    for ranks in (4, 16):
        p = elastic_problem(ranks, True, 2 * nsteps)
        with fault_run("rank_slow:rank=0,factor=3,count=0"):
            solver = p.solve()
        spmd = getattr(solver.state, "spmd_result", None)
        if spmd is not None:
            timings[f"skewed_rebalance_virtual_s_r{ranks}"] = spmd.makespan

    # solver service.  (a) serve_overhead_wall_s: admission, dedup keying
    # and the asyncio/executor hop must fit the 10% serve budget.  (b)
    # serve_dedup_speedup_x: a held burst of identical requests coalesced
    # onto ONE solve vs answering each with its own direct solve.  Result
    # reuse is disabled so both measure the scheduling path, not the answer
    # cache.  One shared metrics registry for both sides: without it the
    # service would install its own (the /metrics endpoint needs one) and
    # the served solves would pay per-step metric costs the direct ones skip.
    from repro.obs.metrics import metrics_run
    from repro.serve import ServiceConfig, serve_session
    from repro.tune.cache import cache_scope

    with cache_scope(), metrics_run():
        # the service's fixed per-job cost (submit hop, dedup keying, warm
        # generate, result packaging; ~3 ms) only amortises over a solve
        # longer than one suite run
        serve_steps = 24 * nsteps

        def serve_problem():
            return _bte_problem(nx, ndirs, bands, serve_steps)

        serve_problem().generate()  # warm the artifact for every side
        with serve_session(ServiceConfig(
                workers=2, reuse_results=False)) as service:
            client = service.client
            client.solve(serve_problem())  # service-side warmup

            def serve_side(served: bool) -> float:
                p = serve_problem()  # construction outside the window
                return _wall(lambda: client.solve(p) if served else p.solve())

            timings["serve_overhead_wall_s"] = _paired_ratio(serve_side)

            burst = 6
            direct_probs = [serve_problem() for _ in range(burst)]
            served_probs = [serve_problem() for _ in range(burst)]

            def direct_burst() -> None:
                for p in direct_probs:
                    p.solve()

            def served_burst() -> None:
                client.hold()  # stage the burst so every request coalesces
                tickets = [client.submit(p) for p in served_probs]
                client.release()
                for ticket in tickets:
                    ticket.result(300)

            direct_wall = _wall(direct_burst)
            timings["serve_dedup_speedup_x"] = direct_wall / max(
                _wall(served_burst), 1e-9)

    return timings


__all__ = [
    "BenchDelta",
    "DEFAULT_THRESHOLD",
    "MIN_BASE_SECONDS",
    "OBS_OVERHEAD_THRESHOLD",
    "SERVE_DEDUP_SPEEDUP_MIN",
    "SERVE_OVERHEAD_THRESHOLD",
    "RegressionReport",
    "SCHEMA",
    "compare",
    "load_bench",
    "run_benchmarks",
    "write_bench",
]
