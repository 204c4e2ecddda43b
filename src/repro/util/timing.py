"""Wall-clock and virtual clocks plus named timers.

The simulated GPU (:mod:`repro.gpu`) and the simulated communicator
(:mod:`repro.runtime`) both advance a :class:`VirtualClock`; real host
compute segments are measured with :class:`Timer` against a
:class:`WallClock` and can be *charged* onto a virtual timeline, which is how
hybrid host/device overlap is modelled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.util.errors import ClockError
from repro.util.stats import Reservoir, percentile


class WallClock:
    """Monotonic wall clock (thin wrapper so it can be swapped in tests)."""

    def now(self) -> float:
        return time.perf_counter()


class VirtualClock:
    """A clock that only moves when told to.

    Used for simulated timelines (per-rank, per-device, per-stream).  The
    unit is seconds.
    """

    def __init__(self, start: float = 0.0):
        self._t = float(start)

    def now(self) -> float:
        return self._t

    def advance(self, dt: float) -> float:
        """Move the clock forward by ``dt`` seconds (``dt`` must be >= 0)."""
        if dt < 0:
            raise ClockError(f"cannot advance a clock backwards (dt={dt})")
        self._t += dt
        return self._t

    def advance_to(self, t: float) -> float:
        """Move the clock forward to absolute time ``t`` if ``t`` is later."""
        if t > self._t:
            self._t = t
        return self._t

    def reset(self, t: float = 0.0) -> None:
        self._t = float(t)


@dataclass
class TimerStats:
    """Accumulated statistics for one named timer.

    Besides the running total/min/max, every recorded duration feeds a
    bounded :class:`~repro.util.stats.Reservoir`, so the per-phase p50/p95
    percentiles in the run report and the metrics exposition stay exact-ish
    without unbounded memory.
    """

    name: str
    total: float = 0.0
    count: int = 0
    min: float = float("inf")
    max: float = 0.0
    samples: Reservoir = field(default_factory=Reservoir, repr=False, compare=False)

    def record(self, dt: float) -> None:
        self.total += dt
        self.count += 1
        self.min = min(self.min, dt)
        self.max = max(self.max, dt)
        self.samples.add(dt)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def p50(self) -> float:
        return percentile(self.samples.samples, 50.0)

    @property
    def p95(self) -> float:
        return percentile(self.samples.samples, 95.0)

    def as_dict(self) -> dict[str, float | int]:
        """JSON-safe view: a never-recorded timer's ``min`` is ``inf`` —
        normalise it to ``0.0`` so report exports stay valid JSON."""
        return {
            "total": self.total,
            "count": self.count,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
        }


class Timer:
    """Context-manager timer that records into a :class:`TimerRegistry`."""

    def __init__(self, registry: "TimerRegistry", name: str):
        self._registry = registry
        self._name = name
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Timer":
        self._start = self._registry.clock.now()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = self._registry.clock.now() - self._start
        self._registry.record(self._name, self.elapsed)


@dataclass
class TimerRegistry:
    """Collection of named timers sharing one clock.

    ``registry.time("assembly")`` is used throughout the generated solver
    code to attribute wall time to the phases reported in the paper's
    execution-time breakdowns (Figs. 5 and 8).
    """

    clock: WallClock = field(default_factory=WallClock)
    stats: dict[str, TimerStats] = field(default_factory=dict)

    def time(self, name: str) -> Timer:
        return Timer(self, name)

    def record(self, name: str, dt: float) -> None:
        if name not in self.stats:
            self.stats[name] = TimerStats(name)
        self.stats[name].record(dt)

    def total(self, name: str) -> float:
        return self.stats[name].total if name in self.stats else 0.0

    def reset(self) -> None:
        self.stats.clear()

    def report(self) -> str:
        lines = [f"{'timer':<28}{'total [s]':>12}{'count':>8}{'mean [s]':>12}"]
        for name in sorted(self.stats):
            s = self.stats[name]
            lines.append(f"{name:<28}{s.total:>12.6f}{s.count:>8d}{s.mean:>12.6f}")
        return "\n".join(lines)


def phase_shares(registries) -> dict[str, float]:
    """Each timer's share of the total summed over ``registries`` — one per
    rank of an SPMD run (the breakdown figures, Figs. 5 and 8)."""
    totals: dict[str, float] = {}
    for registry in registries:
        for name, stats in registry.stats.items():
            totals[name] = totals.get(name, 0.0) + stats.total
    return shares(totals)


def shares(totals: dict[str, float]) -> dict[str, float]:
    """Each entry's share of the sum (all zero when nothing was recorded)."""
    grand = sum(totals.values())
    if grand <= 0:
        return {name: 0.0 for name in totals}
    return {name: total / grand for name, total in totals.items()}
