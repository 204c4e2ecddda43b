"""Benchmark envelopes and regression gating.

All benchmark JSON in the repo shares one schema-versioned envelope,
``repro.bench/1``::

    schema    "repro.bench/1"
    name      suite or figure name
    meta      free-form provenance (sizes, targets, date)
    timings   {benchmark name: seconds}

The figure-regeneration benchmarks (``benchmarks/conftest.py``) write it
per figure; :func:`run_benchmarks` produces one for a small deterministic
suite of end-to-end solves; :func:`compare` diffs two envelopes with a
configurable relative-slowdown threshold so CI can gate on the committed
baseline (``BENCH_seed.json``) — ``repro bench --compare`` exits nonzero
when any benchmark regressed.

The suite prefers **virtual** seconds (simulated clocks) over wall time
wherever a run has them: virtual timings are deterministic for a given
model, so the gate detects cost-model and scheduling changes rather than
CI-machine noise.  Wall-clock entries are kept under ``*_wall_s`` names
and judged with a larger default tolerance.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.util.errors import BenchFormatError

SCHEMA = "repro.bench/1"

#: Relative slowdown ((cur - base) / base) above which a benchmark fails.
DEFAULT_THRESHOLD = 0.25

#: Wall-clock benchmarks get a looser default (CI machines are noisy).
DEFAULT_WALL_THRESHOLD = 1.0

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


def load_bench(path: str | Path) -> dict[str, Any]:
    """Load and validate one benchmark envelope."""
    doc = json.loads(Path(path).read_text())
    schema = doc.get("schema", "")
    if not schema.startswith("repro.bench/"):
        raise BenchFormatError(
            f"{path}: not a benchmark envelope (schema={schema!r})"
        )
    if not isinstance(doc.get("timings"), dict):
        raise BenchFormatError(f"{path}: envelope has no 'timings' mapping")
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
        if "dedup_speedup" in self.name:
            # a speedup floor: positive (= regression) only when the
            # measured speedup falls below the required minimum
            return (SERVE_DEDUP_SPEEDUP_MIN - self.cur_s) / SERVE_DEDUP_SPEEDUP_MIN
        if ("_on_vs_off_" in self.name
                or "rebalance_overhead" in self.name
                or "serve_overhead" in self.name):
            # overhead ratios are judged against the ideal 1.0 — "the
            # instrumentation is free" — not against the baseline's own
            # equally-noisy measurement of the same ideal
            return self.cur_s - 1.0
        if not self.base_s:
            return None
        return (self.cur_s - self.base_s) / self.base_s


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
            f"  -> {n} regression(s) "
            f"(relative-slowdown thresholds: virtual "
            f"{DEFAULT_THRESHOLD:.0%}, wall {DEFAULT_WALL_THRESHOLD:.0%} "
            "by default)"
            if n else "  -> no regressions"
        )
        return "\n".join(lines) + "\n"


def _threshold_for(name: str, threshold: float | None,
                   wall_threshold: float | None) -> float:
    if "_on_vs_off_" in name:
        # overhead ratios sit near 1.0; the budget is absolute-ish (5%)
        return OBS_OVERHEAD_THRESHOLD
    if "rebalance_overhead" in name:
        # elastic-controller overhead ratio, judged against the ideal 1.0
        # with its own (looser) budget — the watcher does real collective
        # work, unlike the passive observability toggles
        return REBALANCE_OVERHEAD_THRESHOLD
    if "serve_overhead" in name:
        # solver-service per-request overhead ratio vs the ideal 1.0
        return SERVE_OVERHEAD_THRESHOLD
    if "dedup_speedup" in name:
        # the floor itself lives in the slowdown computation; any shortfall
        # below the required minimum is a regression
        return 0.0
    if name.endswith("_wall_s"):
        return wall_threshold if wall_threshold is not None else DEFAULT_WALL_THRESHOLD
    return threshold if threshold is not None else DEFAULT_THRESHOLD


def compare(baseline: dict[str, Any], current: dict[str, Any],
            threshold: float | None = None,
            wall_threshold: float | None = None) -> RegressionReport:
    """Diff two envelopes; a benchmark regresses when its relative
    slowdown exceeds its threshold (``*_wall_s`` names use the looser
    wall threshold)."""
    base_t = baseline.get("timings", {})
    cur_t = current.get("timings", {})
    report = RegressionReport(
        baseline_name=baseline.get("name", "baseline"),
        current_name=current.get("name", "current"),
    )
    for name in sorted(set(base_t) | set(cur_t)):
        thr = _threshold_for(name, threshold, wall_threshold)
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


def run_benchmarks(nx: int = 16, ndirs: int = 4, bands: int = 4,
                   nsteps: int = 5) -> dict[str, float]:
    """Run the small deterministic suite; returns the timings mapping.

    Virtual entries (deterministic, model-derived):

    * ``serial_virtual_s``       — no virtual clock; omitted
    * ``gpu_hybrid_virtual_s``   — host virtual clock of the hybrid run
    * ``spmd_bands_virtual_s``   — SPMD makespan of a 2-rank band run
    * ``gpu_multi_virtual_s``    — SPMD makespan of a 2-rank, 2-device run

    Wall entries (noisy; looser gate): ``*_wall_s`` per target, plus
    ``codegen_cold_wall_s`` / ``codegen_warm_wall_s`` — the same problem
    generated twice inside a private compilation cache; the warm path
    skips lowering, codegen and ``compile()`` entirely.

    Overhead ratios (``*_on_vs_off_*``; ~1.0; the
    :data:`OBS_OVERHEAD_THRESHOLD` budget, judged against the ideal 1.0
    rather than the baseline): interleaved min-of-4 serial solves with the
    observability enabled vs disabled — ``events_on_vs_off_wall_s``
    toggles the structured event-log ring, ``profile_on_vs_off_wall_s``
    the per-launch kernel profiler.

    Solver-service entries: ``serve_overhead_wall_s`` (served/direct wall
    ratio of one warm solve, vs the ideal 1.0 under
    :data:`SERVE_OVERHEAD_THRESHOLD`) and ``serve_dedup_speedup_x`` (wall
    speedup of a coalesced identical-request burst over direct
    per-request solves; a :data:`SERVE_DEDUP_SPEEDUP_MIN` floor, not a
    slowdown tolerance).
    """
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    _bte_problem(nx, ndirs, bands, nsteps).solve()
    timings["serial_wall_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    solver = _bte_problem(nx, ndirs, bands, nsteps, gpu=True).solve()
    timings["gpu_hybrid_wall_s"] = time.perf_counter() - t0
    host_clock = getattr(solver.state, "host_clock", None)
    if host_clock is not None:
        timings["gpu_hybrid_virtual_s"] = host_clock.now()

    t0 = time.perf_counter()
    solver = _bte_problem(nx, ndirs, bands, nsteps, ranks=2).solve()
    timings["spmd_bands_wall_s"] = time.perf_counter() - t0
    spmd = getattr(solver.state, "spmd_result", None)
    if spmd is not None:
        timings["spmd_bands_virtual_s"] = spmd.makespan

    t0 = time.perf_counter()
    solver = _bte_problem(nx, ndirs, bands, nsteps, gpu=True, ranks=2).solve()
    timings["gpu_multi_wall_s"] = time.perf_counter() - t0
    spmd = getattr(solver.state, "spmd_result", None)
    if spmd is not None:
        timings["gpu_multi_virtual_s"] = spmd.makespan

    from repro.tune.cache import cache_scope

    with cache_scope() as cache:
        t0 = time.perf_counter()
        _bte_problem(nx, ndirs, bands, nsteps).generate()
        timings["codegen_cold_wall_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        _bte_problem(nx, ndirs, bands, nsteps).generate()
        timings["codegen_warm_wall_s"] = time.perf_counter() - t0
        assert cache.stats.hits == 1, "warm generate must hit the cache"

    # always-on observability overhead: interleaved min-of-N serial solves
    # with the subsystem enabled vs disabled (alternating each repeat so
    # machine drift hits both sides equally).  The ratios land near 1.0 and
    # the gate holds them to the 5% budget against the ideal, making
    # "observability on by default is free" a tested property, not a claim.
    from repro.obs.log import EventLog, set_event_log

    def one_wall() -> float:
        t0 = time.perf_counter()
        _bte_problem(nx, ndirs, bands, nsteps).solve()
        return time.perf_counter() - t0

    def paired_ratio(set_off, set_on, repeats: int = 4) -> float:
        import gc

        def timed_off() -> float:
            set_off()
            try:
                return one_wall()
            finally:
                set_on()

        # pause the cyclic GC while timing: by this point the suite has
        # churned enough garbage that a collector pause landing on one
        # side of the pair can push a ~1.0 ratio past the 5% budget
        on_best = off_best = float("inf")
        gc.collect()
        gc.disable()
        try:
            one_wall()  # warmup solve outside both timed sides
            for i in range(repeats):
                # alternate pair order so monotonic machine drift hits
                # both sides equally instead of always taxing the first
                if i % 2 == 0:
                    on_best = min(on_best, one_wall())
                    off_best = min(off_best, timed_off())
                else:
                    off_best = min(off_best, timed_off())
                    on_best = min(on_best, one_wall())
        finally:
            gc.enable()
        return on_best / max(off_best, 1e-9)

    saved_log: list = []
    timings["events_on_vs_off_wall_s"] = paired_ratio(
        lambda: saved_log.append(set_event_log(EventLog(enabled=False))),
        lambda: set_event_log(saved_log.pop()))

    # per-launch kernel profiler: OFF by default, so unlike the event log
    # the "on" side must be installed first — same 5% budget, making the
    # opt-in profiler's "cheap enough to leave on" claim a tested property
    from repro.obs.profile import RunProfiler, set_profiler

    set_profiler(RunProfiler(enabled=True))
    try:
        timings["profile_on_vs_off_wall_s"] = paired_ratio(
            lambda: set_profiler(None),
            lambda: set_profiler(RunProfiler(enabled=True)))
    finally:
        set_profiler(None)

    # elastic runtime.  (a) rebalance_overhead_wall_s: the controller on a
    # balanced, fault-free 2-rank cell run vs the plain SPMD path —
    # interleaved min-of-4 ratio against the ideal 1.0 (the watcher is one
    # attribute check per step plus a cheap periodic allgather, so
    # "elastic is free when nothing is wrong" is a tested property).
    # (b) skewed strong scaling: rank 0 computes 3x slower
    # (rank_slow:...,count=0) with the proactive rebalancer on; the
    # resulting virtual makespans at 4 and 16 ranks are deterministic
    # model outputs, gated at the default 10% like the other virtual
    # entries — a regression here means the rebalancer stopped migrating
    # work off the degraded rank.
    def elastic_problem(ranks: int, rebalance: bool, steps: int):
        p = _bte_problem(nx, ndirs, bands, steps)
        p.set_partitioning("cells", ranks)
        if rebalance:
            p.extra["rebalance"] = True
        return p

    def elastic_ratio() -> float:
        import gc

        # longer window than one suite run: the watcher's per-check cost
        # is a constant fraction, but thread-scheduling noise is not
        steps = 4 * nsteps

        def one(rebalance: bool) -> float:
            p = elastic_problem(2, rebalance, steps)
            t0 = time.perf_counter()
            p.solve()
            return time.perf_counter() - t0

        on_best = off_best = float("inf")
        gc.collect()
        gc.disable()
        try:
            one(True)
            one(False)  # warmups: codegen + import costs land here
            for i in range(4):
                for rebalance in ((True, False) if i % 2 == 0 else (False, True)):
                    t = one(rebalance)
                    if rebalance:
                        on_best = min(on_best, t)
                    else:
                        off_best = min(off_best, t)
        finally:
            gc.enable()
        return on_best / max(off_best, 1e-9)

    timings["rebalance_overhead_wall_s"] = elastic_ratio()

    from repro.runtime.faults import fault_run

    for ranks in (4, 16):
        p = elastic_problem(ranks, True, 2 * nsteps)
        with fault_run("rank_slow:rank=0,factor=3,count=0"):
            solver = p.solve()
        spmd = getattr(solver.state, "spmd_result", None)
        if spmd is not None:
            timings[f"skewed_rebalance_virtual_s_r{ranks}"] = spmd.makespan

    # solver service.  (a) serve_overhead_wall_s: one warm solve submitted
    # through the running service vs called directly — interleaved
    # min-of-4 ratio against the ideal 1.0 (admission, dedup keying and
    # the asyncio/executor hop must fit the 10% serve budget).
    # (b) serve_dedup_speedup_x: a held burst of identical requests is
    # coalesced onto ONE solve; its wall time vs answering each request
    # with its own direct solve is gated as a >=2x floor (in practice it
    # approaches the burst size).  Result reuse is disabled so both
    # benches measure the scheduling path, not the answer cache.
    from repro.obs.metrics import metrics_run
    from repro.serve import ServiceConfig, serve_session

    # one shared metrics registry for BOTH sides: without it the service
    # would install its own (the /metrics endpoint needs one) and the
    # served solves would pay per-step metric costs the direct solves
    # skip, polluting the ratio with instrumentation instead of the hop
    with cache_scope(), metrics_run():
        # longer window than one suite run: the service's fixed per-job
        # cost (submit hop, dedup keying, warm generate, result packaging;
        # ~3 ms) is constant, so the ratio only means something once a
        # solve is long enough to amortise it
        serve_steps = 24 * nsteps

        def serve_problem():
            return _bte_problem(nx, ndirs, bands, serve_steps)

        serve_problem().generate()  # warm the artifact for every side
        with serve_session(ServiceConfig(
                workers=2, reuse_results=False)) as service:
            client = service.client
            client.solve(serve_problem())  # service-side warmup

            def one_side(served: bool) -> float:
                p = serve_problem()  # construction outside the window
                t0 = time.perf_counter()
                if served:
                    client.solve(p)
                else:
                    p.solve()
                return time.perf_counter() - t0

            import gc

            served_best = direct_best = float("inf")
            gc.collect()
            gc.disable()
            try:
                for i in range(4):
                    for served in ((True, False) if i % 2 == 0
                                   else (False, True)):
                        t = one_side(served)
                        if served:
                            served_best = min(served_best, t)
                        else:
                            direct_best = min(direct_best, t)
            finally:
                gc.enable()
            timings["serve_overhead_wall_s"] = served_best / max(
                direct_best, 1e-9)

            burst = 6
            direct_probs = [serve_problem() for _ in range(burst)]
            served_probs = [serve_problem() for _ in range(burst)]
            t0 = time.perf_counter()
            for p in direct_probs:
                p.solve()
            direct_wall = time.perf_counter() - t0
            t0 = time.perf_counter()
            client.hold()  # stage the burst so every request coalesces
            tickets = [client.submit(p) for p in served_probs]
            client.release()
            for ticket in tickets:
                ticket.result(300)
            served_wall = time.perf_counter() - t0
            timings["serve_dedup_speedup_x"] = direct_wall / max(
                served_wall, 1e-9)

    return timings


__all__ = [
    "BenchDelta",
    "DEFAULT_THRESHOLD",
    "DEFAULT_WALL_THRESHOLD",
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
