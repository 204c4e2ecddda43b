"""Seeded, policy-driven fault injection for the simulated runtime.

Production solvers do not get fault-free machines: messages are dropped or
delayed by congested fabrics, ranks stall behind OS jitter, devices run out
of memory mid-campaign and kernels fault.  This module *injects* exactly
those failure classes — deterministically, from a seed — so the recovery
machinery (:mod:`repro.runtime.resilience`) can be exercised and the
cross-target differential tests can prove that every execution path still
converges to the same physics through the faults.

Fault-spec grammar (the CLI ``--faults`` argument)::

    spec   := rule (';' rule)*
    rule   := kind [':' key '=' value (',' key '=' value)*]
    kind   := 'drop' | 'delay' | 'dup' | 'stall' | 'rank_kill'
            | 'rank_slow' | 'oom' | 'kernel'

    keys (all optional; unset keys match anything):
      rank=R      match events on rank R (sender rank for messages)
      dest=R      match messages addressed to rank R
      tag=T       match messages with tag T
      device=NAME match device-name substring ('gpu0' matches 'gpu0:A6000')
      op=OP       match device operation: alloc | h2d | launch
      at=N        fire on the Nth matching event (1-based occurrence)
      count=C     fire at most C times (default 1; count=0 means unlimited)
      p=X         fire with probability X per matching event (seeded RNG)
      delay=S     extra virtual seconds ('delay' and 'stall' kinds)
      factor=F    compute slowdown multiplier ('rank_slow' kind, default 4)

Examples::

    drop:rank=0,dest=1,at=2            # drop the 2nd message 0 -> 1
    stall:rank=2,at=7,delay=5e-4       # stall rank 2's 7th compute call
    rank_kill:rank=1,at=5              # rank 1 dies at its 5th compute call
    rank_slow:rank=0,factor=3,count=0  # rank 0 computes 3x slower, forever
    oom:device=gpu1,op=h2d,at=3        # 3rd H2D on device gpu1 raises OOM
    delay:p=0.1,delay=1e-5;dup:p=0.05  # chaos mode, seeded

Like the tracer and metrics registry, the injector is a field of the run
context (:mod:`repro.util.context`) defaulting to a disabled no-op, so
instrumented call sites stay unconditional and zero-overhead in fault-free
runs.  Install one around a run with :func:`fault_run`::

    with fault_run("stall:rank=2,at=7;oom:device=gpu0", seed=42):
        solver = problem.solve()
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.runtime.resilience import ResilienceLog
from repro.util.errors import FaultSpecError

#: Kinds understood by the injector, grouped by the subsystem they hit.
MESSAGE_KINDS = ("drop", "delay", "dup")
RANK_KINDS = ("stall", "rank_kill", "rank_slow")
DEVICE_KINDS = ("oom", "kernel")
ALL_KINDS = MESSAGE_KINDS + RANK_KINDS + DEVICE_KINDS

_FLOAT_KEYS = {"p", "delay", "factor"}
_INT_KEYS = {"rank", "dest", "tag", "at", "count"}
_STR_KEYS = {"device", "op"}


@dataclass
class FaultRule:
    """One parsed rule of a fault spec: a filter plus a trigger policy."""

    kind: str
    rank: int | None = None
    dest: int | None = None
    tag: int | None = None
    device: str | None = None
    op: str | None = None
    at: int | None = None  # fire on the Nth matching occurrence (1-based)
    count: int = 1  # max firings; 0 = unlimited
    p: float | None = None  # per-event probability (seeded)
    delay_s: float = 1e-4  # extra virtual seconds for delay/stall
    factor: float = 4.0  # compute slowdown multiplier for rank_slow
    # runtime trigger state (owned by the injector, under its lock)
    occurrences: int = field(default=0, compare=False)
    fired: int = field(default=0, compare=False)

    def matches(self, **event: Any) -> bool:
        """Does this rule's filter accept the event's attributes?"""
        for key in ("rank", "dest", "tag", "op"):
            want = getattr(self, key)
            if want is not None and event.get(key) != want:
                return False
        if self.device is not None:
            name = event.get("device")
            if name is None or self.device not in name:
                return False
        return True

    def describe(self) -> str:
        parts = [self.kind]
        for key in ("rank", "dest", "tag", "device", "op", "at"):
            value = getattr(self, key)
            if value is not None:
                parts.append(f"{key}={value}")
        return ":".join([parts[0], ",".join(parts[1:])]) if parts[1:] else parts[0]


def parse_fault_spec(spec: str) -> list[FaultRule]:
    """Parse the ``--faults`` grammar into :class:`FaultRule` objects."""
    rules: list[FaultRule] = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        kind, _, args = chunk.partition(":")
        kind = kind.strip()
        if kind not in ALL_KINDS:
            raise FaultSpecError(
                f"unknown fault kind {kind!r} (expected one of {', '.join(ALL_KINDS)})"
            )
        rule = FaultRule(kind)
        for pair in filter(None, (p.strip() for p in args.split(","))):
            key, eq, value = pair.partition("=")
            key = key.strip()
            if not eq:
                raise FaultSpecError(f"malformed key=value pair {pair!r} in {chunk!r}")
            try:
                if key in _INT_KEYS:
                    setattr(rule, key, int(value))
                elif key in _FLOAT_KEYS:
                    setattr(rule, "delay_s" if key == "delay" else key, float(value))
                elif key in _STR_KEYS:
                    setattr(rule, key, value.strip())
                else:
                    raise FaultSpecError(
                        f"unknown fault-spec key {key!r} in {chunk!r}"
                    )
            except ValueError as exc:
                raise FaultSpecError(
                    f"bad value for {key!r} in {chunk!r}: {exc}"
                ) from None
        if rule.p is not None and not (0.0 <= rule.p <= 1.0):
            raise FaultSpecError(f"probability p={rule.p} outside [0, 1]")
        rules.append(rule)
    return rules


class FaultInjector:
    """Deterministic fault oracle: instrumented code asks, rules answer.

    Thread-safe: rank programs run on real threads, and occurrence counting
    plus the seeded RNG are shared state.
    """

    enabled = True

    def __init__(self, rules: list[FaultRule] | str, seed: int = 0):
        if isinstance(rules, str):
            rules = parse_fault_spec(rules)
        self.rules = rules
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self._lock = threading.Lock()

    # ------------------------------------------------------------- triggering
    def _fire(self, rule: FaultRule) -> bool:
        """Occurrence bookkeeping + trigger decision (caller holds the lock)."""
        rule.occurrences += 1
        if rule.count and rule.fired >= rule.count:
            return False
        if rule.at is not None and rule.occurrences != rule.at:
            return False
        if rule.p is not None and self.rng.random() >= rule.p:
            return False
        rule.fired += 1
        return True

    def _query(self, kinds: tuple[str, ...], **event: Any) -> FaultRule | None:
        with self._lock:
            for rule in self.rules:
                if rule.kind in kinds and rule.matches(**event):
                    if self._fire(rule):
                        return rule
        return None

    # -------------------------------------------------------------- queries
    def message_fault(self, rank: int, dest: int, tag: int) -> FaultRule | None:
        """Fault to apply to one point-to-point send (drop/delay/dup)."""
        return self._query(MESSAGE_KINDS, rank=rank, dest=dest, tag=tag)

    def stall_seconds(self, rank: int) -> float:
        """Extra virtual seconds this rank stalls at its next compute call."""
        rule = self._query(("stall",), rank=rank)
        return rule.delay_s if rule is not None else 0.0

    def kill_rank(self, rank: int) -> bool:
        """Should this rank die right now (``rank_kill``)?

        Occurrences count the rank's ``compute`` calls, so ``at=N`` pins
        the death to a specific point of the step loop.  The default
        ``count=1`` means a restarted run segment does not re-fire the
        rule — trigger state survives across segments, which is what lets
        the elastic runner resume past the kill.
        """
        return self._query(("rank_kill",), rank=rank) is not None

    def slow_factor(self, rank: int) -> float:
        """Compute-time multiplier for this rank (``rank_slow``; 1.0 = none).

        Use ``count=0`` for a persistently degraded rank (e.g. modelling a
        rank whose device step keeps degrading to the CPU) — the slowdown
        then survives elastic restarts too, so a rebalance has something
        real to correct.
        """
        rule = self._query(("rank_slow",), rank=rank)
        return rule.factor if rule is not None else 1.0

    def device_fault(self, device: str, op: str, rank: int | None = None
                     ) -> str | None:
        """Fault kind to raise for one device operation (``oom``/``kernel``)."""
        rule = self._query(DEVICE_KINDS, device=device, op=op, rank=rank)
        return rule.kind if rule is not None else None

    # ------------------------------------------------------------ checkpoint
    def state_dict(self) -> dict[str, Any]:
        """Snapshot of the RNG + trigger state (rides in checkpoints)."""
        with self._lock:
            return {
                "seed": self.seed,
                "rng": self.rng.bit_generator.state,
                "rules": [
                    {"occurrences": r.occurrences, "fired": r.fired}
                    for r in self.rules
                ],
            }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore a snapshot written by :meth:`state_dict`."""
        with self._lock:
            self.rng.bit_generator.state = state["rng"]
            for rule, saved in zip(self.rules, state.get("rules", [])):
                rule.occurrences = int(saved["occurrences"])
                rule.fired = int(saved["fired"])

    def state_json(self) -> str:
        return json.dumps(self.state_dict())

    def __repr__(self) -> str:
        rules = "; ".join(r.describe() for r in self.rules)
        return f"FaultInjector(seed={self.seed}, rules=[{rules}])"


class NullInjector:
    """Disabled injector: every query says 'no fault', at zero cost."""

    enabled = False
    rules: list[FaultRule] = []

    def message_fault(self, rank: int, dest: int, tag: int) -> None:
        return None

    def stall_seconds(self, rank: int) -> float:
        return 0.0

    def kill_rank(self, rank: int) -> bool:
        return False

    def slow_factor(self, rank: int) -> float:
        return 1.0

    def device_fault(self, device: str, op: str, rank: int | None = None) -> None:
        return None

    def state_dict(self) -> dict[str, Any]:
        return {}

    def load_state(self, state: dict[str, Any]) -> None:
        pass

    def state_json(self) -> str:
        return "{}"


NULL_INJECTOR = NullInjector()


@contextmanager
def fault_run(spec: str | list[FaultRule] | None, seed: int = 0):
    """A seeded :class:`FaultInjector` and a fresh resilience log in the run
    context for the block; yields the injector.

    ``spec`` may be a grammar string, a rule list, or ``None`` (no faults —
    the block still runs with a fresh resilience log, so reports stay
    comparable).  The previous context is restored on exit.
    """
    from repro.util.context import current, scope

    injector: FaultInjector | NullInjector = NULL_INJECTOR
    if spec is not None:
        injector = FaultInjector(spec, seed=seed)
        current().events.emit(
            "faults.armed", level="info", seed=injector.seed,
            rules=[r.describe() for r in injector.rules])
    with scope(injector=injector, resilience=ResilienceLog()):
        yield injector


__all__ = [
    "ALL_KINDS",
    "FaultInjector",
    "FaultRule",
    "NULL_INJECTOR",
    "NullInjector",
    "fault_run",
    "parse_fault_spec",
]
