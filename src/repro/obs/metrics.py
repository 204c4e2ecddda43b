"""Prometheus-style metrics: labelled counters, gauges and histograms.

The tracer (:mod:`repro.obs.tracer`) answers "*when* did it happen";
this module answers "*how much*, cumulatively".  Instrumented code all
over the runtime emits into the run context's :class:`MetricsRegistry`
(:mod:`repro.util.context`):

* the simulated communicator counts messages/bytes per rank and observes
  receive-wait times;
* the simulated device observes kernel occupancy, counts H2D/D2H bytes
  per direction and samples the launch-queue backlog;
* the generated solver loops record per-step residuals, the
  energy-conservation drift and step counts.

Like tracing, metrics are **zero-overhead when disabled**: the default
:data:`NULL_METRICS` absorbs every call with reusable no-op instruments,
so call sites stay unconditional (cheap paths additionally guard on
``metrics.enabled`` before computing expensive observations).

Exposition comes in two flavours: :meth:`MetricsRegistry.to_text` renders
the Prometheus text format (``# HELP`` / ``# TYPE`` / samples), and
:meth:`MetricsRegistry.to_dict` a schema-versioned JSON document
(``"repro.metrics/1"``) that rides inside the run report.

Histograms keep fixed buckets *and* a bounded sample reservoir, so they
can report exact-ish p50/p95 quantiles without unbounded memory — the
same scheme :class:`~repro.util.timing.TimerStats` uses for its
percentiles.
"""

from __future__ import annotations

import json
import math
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any

from repro.util.errors import MetricsError
from repro.util.stats import RESERVOIR_SIZE, Reservoir, percentile

SCHEMA = "repro.metrics/1"

#: Default histogram buckets: log-ish spacing from microseconds to minutes,
#: wide enough for both wall times and virtual times.
DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 60.0,
)

def _label_key(labels: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _format_labels(key: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class _Metric:
    """Common machinery: one named family holding per-label-set series."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", lock: threading.Lock | None = None):
        self.name = name
        self.help = help
        self._lock = lock or threading.Lock()
        self._series: dict[tuple[tuple[str, str], ...], Any] = {}

    def _get(self, labels: dict[str, Any]) -> Any:
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._new_series()
                self._series[key] = series
            return series

    def _new_series(self) -> Any:
        raise NotImplementedError

    def series(self) -> dict[tuple[tuple[str, str], ...], Any]:
        with self._lock:
            return dict(self._series)


class Counter(_Metric):
    """Monotonically increasing value (bytes sent, messages, steps)."""

    kind = "counter"

    def _new_series(self) -> list[float]:
        return [0.0]

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        if value < 0:
            raise MetricsError(f"counter {self.name} cannot decrease (inc {value})")
        cell = self._get(labels)
        with self._lock:
            cell[0] += value

    def value(self, **labels: Any) -> float:
        return self._get(labels)[0]

    def samples(self) -> list[tuple[str, float]]:
        return [
            (self.name + _format_labels(key), cell[0])
            for key, cell in sorted(self.series().items())
        ]

    def as_dict(self) -> dict[str, Any]:
        return {
            "type": self.kind,
            "help": self.help,
            "values": {
                _format_labels(key) or "": cell[0]
                for key, cell in sorted(self.series().items())
            },
        }


class Gauge(_Metric):
    """Point-in-time value (queue depth, allocated bytes, occupancy)."""

    kind = "gauge"

    def _new_series(self) -> list[float]:
        return [0.0]

    def set(self, value: float, **labels: Any) -> None:
        self._get(labels)[0] = float(value)

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        cell = self._get(labels)
        with self._lock:
            cell[0] += value

    def dec(self, value: float = 1.0, **labels: Any) -> None:
        self.inc(-value, **labels)

    def value(self, **labels: Any) -> float:
        return self._get(labels)[0]

    def samples(self) -> list[tuple[str, float]]:
        return [
            (self.name + _format_labels(key), cell[0])
            for key, cell in sorted(self.series().items())
        ]

    def as_dict(self) -> dict[str, Any]:
        return {
            "type": self.kind,
            "help": self.help,
            "values": {
                _format_labels(key) or "": cell[0]
                for key, cell in sorted(self.series().items())
            },
        }


class _HistSeries:
    __slots__ = ("bucket_counts", "sum", "count", "reservoir", "min", "max")

    def __init__(self, nbuckets: int):
        self.bucket_counts = [0] * (nbuckets + 1)  # +inf bucket last
        self.sum = 0.0
        self.count = 0
        self.reservoir = Reservoir()
        self.min = math.inf
        self.max = -math.inf


class Histogram(_Metric):
    """Distribution of observations with buckets and p50/p95 quantiles."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS,
                 lock: threading.Lock | None = None):
        super().__init__(name, help, lock)
        self.buckets = tuple(sorted(buckets))

    def _new_series(self) -> _HistSeries:
        return _HistSeries(len(self.buckets))

    def observe(self, value: float, **labels: Any) -> None:
        series = self._get(labels)
        with self._lock:
            idx = len(self.buckets)
            for i, edge in enumerate(self.buckets):
                if value <= edge:
                    idx = i
                    break
            series.bucket_counts[idx] += 1
            series.sum += value
            series.count += 1
            series.min = min(series.min, value)
            series.max = max(series.max, value)
            series.reservoir.add(value)

    def snapshot(self, **labels: Any) -> dict[str, Any]:
        """JSON-safe summary of one label-set's distribution."""
        s = self._get(labels)
        with self._lock:
            return _hist_dict(self.buckets, s)

    def samples(self) -> list[tuple[str, float]]:
        out: list[tuple[str, float]] = []
        for key, s in sorted(self.series().items()):
            cumulative = 0
            for edge, n in zip(self.buckets, s.bucket_counts):
                cumulative += n
                out.append((
                    self.name + "_bucket" + _format_labels(key, f'le="{edge:g}"'),
                    float(cumulative),
                ))
            out.append((
                self.name + "_bucket" + _format_labels(key, 'le="+Inf"'),
                float(s.count),
            ))
            out.append((self.name + "_sum" + _format_labels(key), s.sum))
            out.append((self.name + "_count" + _format_labels(key), float(s.count)))
        return out

    def as_dict(self) -> dict[str, Any]:
        return {
            "type": self.kind,
            "help": self.help,
            "buckets": list(self.buckets),
            "values": {
                _format_labels(key) or "": _hist_dict(self.buckets, s)
                for key, s in sorted(self.series().items())
            },
        }


def _hist_dict(buckets: tuple[float, ...], s: _HistSeries) -> dict[str, Any]:
    return {
        "count": s.count,
        "sum": s.sum,
        "min": s.min if s.count else 0.0,
        "max": s.max if s.count else 0.0,
        "mean": s.sum / s.count if s.count else 0.0,
        "p50": s.reservoir.percentile(50.0),
        "p95": s.reservoir.percentile(95.0),
        "bucket_counts": list(s.bucket_counts),
    }


class _NullInstrument:
    """Absorbs every instrument call; shared by the null registry."""

    __slots__ = ()

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        return None

    def dec(self, value: float = 1.0, **labels: Any) -> None:
        return None

    def set(self, value: float, **labels: Any) -> None:
        return None

    def observe(self, value: float, **labels: Any) -> None:
        return None

    def value(self, **labels: Any) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """The disabled registry: instruments are shared no-ops."""

    enabled = False

    def counter(self, name: str, help: str = "") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "",
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> _NullInstrument:
        return _NULL_INSTRUMENT


#: Module-wide disabled registry (singleton — identity comparisons are safe).
NULL_METRICS = NullMetrics()


class MetricsRegistry:
    """Get-or-create home of every metric family in one run.

    Families are identified by name; re-requesting a name returns the
    existing family (a kind mismatch is a programming error and raises).
    Thread-safe: rank threads and the hybrid host path register and emit
    concurrently.
    """

    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _register(self, cls, name: str, help: str, **kwargs) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"requested {cls.kind}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        return self._register(Histogram, name, help, buckets=buckets)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    # ---------------------------------------------------------------- export
    def to_text(self) -> str:
        """Prometheus text exposition format."""
        lines: list[str] = []
        with self._lock:
            metrics = [self._metrics[n] for n in sorted(self._metrics)]
        for m in metrics:
            if m.help:
                lines.append(f"# HELP {m.name} {m.help}")
            lines.append(f"# TYPE {m.name} {m.kind}")
            for sample_name, value in m.samples():
                lines.append(f"{sample_name} {value:g}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> dict[str, Any]:
        """Schema-versioned JSON exposition (rides in the run report)."""
        with self._lock:
            metrics = {n: self._metrics[n] for n in sorted(self._metrics)}
        return {
            "schema": SCHEMA,
            "metrics": {name: m.as_dict() for name, m in metrics.items()},
        }

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        if path.suffix == ".txt" or path.suffix == ".prom":
            path.write_text(self.to_text())
        else:
            path.write_text(json.dumps(self.to_dict(), indent=1))
        return path


@contextmanager
def metrics_run(path: str | Path | None = None, *,
                registry: MetricsRegistry | None = None):
    """A live registry in the run context for the block; optionally write
    the exposition on exit.  Mirrors :func:`repro.obs.trace_run`::

        with metrics_run("metrics.json") as metrics:
            solver = problem.solve()
    """
    from repro.util.context import scope

    registry = registry or MetricsRegistry()
    try:
        with scope(metrics=registry):
            yield registry
    finally:
        if path is not None:
            registry.write(path)


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NullMetrics",
    "Reservoir",
    "SCHEMA",
    "metrics_run",
    "percentile",
]
