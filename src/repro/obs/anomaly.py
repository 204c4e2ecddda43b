"""Streaming anomaly detection over the observability singletons.

Four detectors watch the quantities the paper's scaling study cares about,
each with a named threshold in :data:`DEFAULT_THRESHOLDS`:

* **step-time spikes** — a step's wall time exceeding ``step_time_spike``
  times the rolling median of its rank's recent steps (a straggler step:
  GC pause, injected stall, degraded device path);
* **rank imbalance** — the slowest rank's virtual time exceeding
  ``rank_imbalance`` times the mean (the node x GPU x band imbalance the
  Perturbo scaling work diagnoses);
* **comm retry storms** — more receive retries than ``retry_storm`` (the
  fabric is lossy or a sender is wedged);
* **cache-miss storms** — compilation-cache miss ratio above
  ``cache_miss_storm`` once enough lookups happened (the cache key is
  unstable or the cache directory is cold when it should not be).

Alerts are emitted as ``anomaly.*`` warning events into the structured
event log as they fire, and collected into the run report's ``health``
section by :func:`health_section`.

The thresholds double as the regression gate's defaults: the benchmark
comparator (:mod:`repro.obs.regress`) takes its virtual/wall slowdown
tolerances and the observability-overhead budget from this table, so "what
counts as anomalous" lives in exactly one place.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

#: Single source of truth for "how bad is bad" across anomaly detection
#: and the ``repro.bench/1`` regression gate.
DEFAULT_THRESHOLDS: dict[str, float] = {
    # a step slower than this multiple of its rank's rolling median spikes
    "step_time_spike": 5.0,
    # slowest rank's virtual time over the mean rank time
    "rank_imbalance": 1.5,
    # receive retries per run before the fabric counts as storming
    "retry_storm": 8.0,
    # compilation-cache miss ratio (misses / lookups) once warmed up
    "cache_miss_storm": 0.5,
    # bench gate: tolerated relative slowdown for virtual timings
    "bench_regression": 0.25,
    # bench gate: tolerated relative slowdown for wall-clock timings
    "bench_wall_regression": 1.0,
    # bench gate: tolerated overhead ratio drift of the always-on
    # observability (event log ring + flight recorder), the 5% budget
    "obs_overhead": 0.05,
    # bench gate: tolerated elastic-runtime on/off wall ratio above the
    # ideal 1.0.  Looser than obs_overhead: the imbalance watcher does
    # real periodic work (one decision allgather every check_every
    # steps), which on the tiny bench problem is a visible fraction of a
    # ~10 ms solve even though it vanishes at production sizes
    "rebalance_overhead": 0.25,
    # bench gate: tolerated solver-service on/off wall ratio above the
    # ideal 1.0 — one warm solve submitted through the running service vs
    # called directly.  The asyncio + executor + signature hops are the
    # price of admission control; the 10% budget keeps them honest
    "serve_overhead": 0.10,
    # bench gate: minimum wall speedup the service's request coalescing
    # must deliver on a burst of identical requests vs solving each one
    # directly (a *floor*, unlike the slowdown tolerances above)
    "serve_dedup_speedup_min": 2.0,
    # per-kernel profile: tolerated |measured/predicted - 1| before the
    # drift column flags the cost model for recalibration
    "perfmodel_drift": 0.5,
    # run history: wall-time growth vs the previous recorded run of the
    # same problem key before `bte history` flags a regression
    "history_regression": 0.25,
}

#: Steps a rank must complete before its spike detector arms.
_MIN_SAMPLES = 4

#: Cache lookups before the miss-ratio detector arms.
_MIN_CACHE_LOOKUPS = 4


@dataclass
class Alert:
    """One fired anomaly."""

    kind: str
    message: str
    value: float
    threshold: float
    severity: str = "warning"
    context: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "severity": self.severity,
            "message": self.message,
            "value": self.value,
            "threshold": self.threshold,
            "context": self.context,
        }


class AnomalyMonitor:
    """Streaming + post-run detectors; one singleton per process.

    The streaming half (:meth:`observe_step_time`) is fed by every
    generated run loop through ``SolverState.observe_step``; the post-run
    half (:meth:`scan`) inspects the comm result, the resilience log and
    the compilation cache when the run report is built.  Always-on and
    cheap: per-step cost is one deque append and a median of a small
    window, and each (kind, rank) alerts at most once per run.
    """

    enabled = True

    def __init__(self, thresholds: dict[str, float] | None = None,
                 window: int = 16):
        self._lock = threading.Lock()
        self.thresholds = dict(DEFAULT_THRESHOLDS)
        if thresholds:
            self.thresholds.update(thresholds)
        self.window = int(window)
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self._windows: dict[Any, deque[float]] = {}
            self._fired: set[tuple[str, Any]] = set()
            self.alerts: list[Alert] = []

    # ---------------------------------------------------------------- alerts
    def _fire(self, kind: str, key: Any, message: str, value: float,
              threshold: float, **context: Any) -> Alert | None:
        with self._lock:
            if (kind, key) in self._fired:
                return None
            self._fired.add((kind, key))
            alert = Alert(kind, message, float(value), float(threshold),
                          context=context)
            self.alerts.append(alert)
        from repro.obs.log import get_event_log

        get_event_log().emit(
            f"anomaly.{kind}", level="warning", message=message,
            value=float(value), threshold=float(threshold), **context)
        return alert

    # ------------------------------------------------------------- streaming
    def observe_step_time(self, seconds: float, rank: int | None = None,
                          step: int | None = None) -> Alert | None:
        """Feed one step's wall seconds; fires on a spike vs the rolling
        median of this rank's recent steps."""
        if not self.enabled:
            return None
        with self._lock:
            window = self._windows.get(rank)
            if window is None:
                window = self._windows[rank] = deque(maxlen=self.window)
            history = sorted(window)
            window.append(float(seconds))
        alert = None
        if len(history) >= _MIN_SAMPLES:
            median = history[len(history) // 2]
            k = self.thresholds["step_time_spike"]
            if median > 0 and seconds > k * median:
                where = f"rank {rank}" if rank is not None else "serial run"
                alert = self._fire(
                    "step_time_spike", rank,
                    f"step {step} on {where} took {seconds:.3e}s, "
                    f"{seconds / median:.1f}x the rolling median "
                    f"{median:.3e}s", seconds / median, k,
                    rank=rank, step=step, median_s=median, step_s=seconds)
        return alert

    # --------------------------------------------------------------- post-run
    def scan_rank_times(self, rank_times: list[float]) -> Alert | None:
        """Rank-imbalance check over per-rank virtual times."""
        if not self.enabled or len(rank_times) < 2:
            return None
        mean = sum(rank_times) / len(rank_times)
        if mean <= 0:
            return None
        worst = max(rank_times)
        ratio = worst / mean
        k = self.thresholds["rank_imbalance"]
        if ratio > k:
            return self._fire(
                "rank_imbalance", None,
                f"slowest rank ran {ratio:.2f}x the mean rank time "
                f"({worst:.3e}s vs {mean:.3e}s over {len(rank_times)} ranks)",
                ratio, k, nranks=len(rank_times), worst_s=worst, mean_s=mean)
        return None

    def scan_resilience(self, resilience) -> Alert | None:
        """Retry-storm check over the resilience log."""
        if not self.enabled:
            return None
        retries = getattr(resilience, "retries", 0)
        k = self.thresholds["retry_storm"]
        if retries > k:
            return self._fire(
                "retry_storm", None,
                f"{retries} receive retries this run (threshold {k:g}): "
                "the fabric is lossy or a sender is wedged",
                float(retries), k, retries=retries)
        return None

    def scan_cache(self, stats) -> Alert | None:
        """Cache-miss-storm check over compilation-cache statistics."""
        if not self.enabled:
            return None
        hits = getattr(stats, "hits", 0)
        misses = getattr(stats, "misses", 0)
        lookups = hits + misses
        if lookups < _MIN_CACHE_LOOKUPS:
            return None
        ratio = misses / lookups
        k = self.thresholds["cache_miss_storm"]
        if ratio > k:
            return self._fire(
                "cache_miss_storm", None,
                f"compilation cache missed {misses}/{lookups} lookups "
                f"({ratio:.0%}): unstable cache key or cold cache dir",
                ratio, k, hits=hits, misses=misses)
        return None

    def scan(self, solver=None) -> list[Alert]:
        """Run every post-run detector against the live singletons."""
        if not self.enabled:
            return []
        spmd = getattr(getattr(solver, "state", None), "spmd_result", None)
        if spmd is not None:
            self.scan_rank_times(list(spmd.times))
        from repro.runtime.resilience import get_resilience_log

        self.scan_resilience(get_resilience_log())
        from repro.tune.cache import get_cache

        cache = get_cache()
        if cache.enabled:
            self.scan_cache(cache.stats)
        with self._lock:
            return list(self.alerts)

    # ----------------------------------------------------------------- report
    def section(self) -> dict[str, Any]:
        """The run report's ``health`` section."""
        with self._lock:
            alerts = [a.to_dict() for a in self.alerts]
        status = "ok"
        if any(a["severity"] == "error" for a in alerts):
            status = "error"
        elif alerts:
            status = "warning"
        return {
            "status": status,
            "alerts": alerts,
            "thresholds": dict(self.thresholds),
            "checked_at": time.time(),
        }


_MONITOR = AnomalyMonitor()


def get_anomaly_monitor() -> AnomalyMonitor:
    """The process-wide anomaly monitor singleton."""
    return _MONITOR


def health_section(solver=None) -> dict[str, Any]:
    """Scan the finished run and render the report's ``health`` section."""
    monitor = get_anomaly_monitor()
    monitor.scan(solver)
    return monitor.section()


def history_flags(entries: list[dict[str, Any]],
                  thresholds: dict[str, float] | None = None
                  ) -> list[list[str]]:
    """Anomaly flags for a run-registry timeline (``bte history``).

    ``entries`` are ``repro.runs/1`` documents of one problem key, oldest
    first.  Per entry:

    * ``regression`` — recorded wall seconds grew more than
      ``history_regression`` over the previous entry's;
    * ``drift`` — the entry's profile flagged cost-model drift;
    * ``health`` — the entry's run report recorded a non-ok health status.
    """
    table = dict(DEFAULT_THRESHOLDS)
    if thresholds:
        table.update(thresholds)
    flags: list[list[str]] = []
    prev_wall: float | None = None
    for entry in entries:
        entry_flags: list[str] = []
        wall = entry.get("meta", {}).get("wall_s")
        if (wall is not None and prev_wall is not None and prev_wall > 0
                and (wall - prev_wall) / prev_wall
                > table["history_regression"]):
            entry_flags.append("regression")
        if wall is not None:
            prev_wall = float(wall)
        if entry.get("profile", {}).get("drift", {}).get("exceeded"):
            entry_flags.append("drift")
        health = entry.get("report", {}).get("health", {})
        if health.get("status", "ok") != "ok":
            entry_flags.append("health")
        flags.append(entry_flags)
    return flags


__all__ = [
    "Alert",
    "AnomalyMonitor",
    "DEFAULT_THRESHOLDS",
    "get_anomaly_monitor",
    "health_section",
    "history_flags",
]
