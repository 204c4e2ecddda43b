"""Wire/status schema for the solver service (``repro.serve/1``).

The service speaks three content-addressed identities per request:

* **cache key** — the existing ``repro.cache/1`` signature
  (:func:`repro.tune.signature.request_key`): identifies the *compiled
  artifact* a request needs.  Shared across tenants; the compilation
  cache makes it warm capital.
* **binding digest** — a hash of everything the cache key deliberately
  excludes but the *answer* depends on: ``dt``, ``nsteps`` and the
  initial values.  Two requests with one cache key but different
  bindings share the artifact yet must not share a result.
* **job key** — ``sha256(cache_key | binding_digest)``: the dedup unit.
  Identical in-flight requests coalesce onto one job keyed by this.

The JSON status document (``GET /status``, ``service.status_doc()``)
carries ``"schema": "repro.serve/1"`` and is the machine-readable face of
the service: queues, counters, per-tenant state (with hashtree roots for
cheap change detection) and recent job records.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.util.errors import ConfigError

if TYPE_CHECKING:
    from repro.dsl.problem import Problem

#: schema tag of the status document
SCHEMA = "repro.serve/1"

#: priority classes, best first.  Smaller number = more urgent.
PRIORITIES: dict[str, int] = {"high": 0, "normal": 1, "batch": 2}
PRIORITY_NAMES: dict[int, str] = {v: k for k, v in PRIORITIES.items()}


def normalize_priority(priority: str | int) -> int:
    """Map a priority name or integer onto the scheduler's class index."""
    if isinstance(priority, str):
        try:
            return PRIORITIES[priority]
        except KeyError:
            raise ConfigError(
                f"unknown priority {priority!r} "
                f"(expected one of {sorted(PRIORITIES)})") from None
    value = int(priority)
    if value not in PRIORITY_NAMES:
        raise ConfigError(
            f"priority index {value} out of range (0=high..2=batch)")
    return value


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _hash_initial(value: Any) -> str:
    """Content hash of one initial-value entry.

    Arrays and scalars hash by content.  Callables cannot be content-
    addressed, so they hash by identity (module + qualname); the service
    documents that requests using distinct callable initializers with the
    same qualname should not rely on job dedup.
    """
    if callable(value):
        mod = getattr(value, "__module__", "?")
        qual = getattr(value, "__qualname__", repr(value))
        return _sha(f"callable:{mod}.{qual}".encode())
    arr = np.asarray(value)
    return _sha(arr.tobytes() + str(arr.shape).encode() + str(arr.dtype).encode())


def binding_digest(problem: "Problem") -> str:
    """Hash of the runtime binding the cache key excludes by design."""
    payload = {
        "dt": float(problem.config.dt),
        "nsteps": int(problem.config.nsteps),
        "initial": {name: _hash_initial(v)
                    for name, v in sorted(problem.initial_values.items())},
    }
    return _sha(json.dumps(payload, sort_keys=True).encode())


def job_key(problem: "Problem", target: str | None = None,
            cache_key: str | None = None) -> str:
    """The dedup key: cache key x runtime binding (see module docstring)."""
    from repro.tune.signature import request_key

    ck = cache_key if cache_key is not None else request_key(problem, target)
    return _sha(f"{ck}|{binding_digest(problem)}".encode())


@dataclass
class JobResult:
    """The shared outcome every coalesced requester receives.

    Dedup'd requests receive the *same object* (asserted by tests), so the
    payload is read-only by convention: ``u`` is a private copy of the
    solution, never the solver's live buffer.
    """

    key: str
    cache_key: str
    target: str
    u: np.ndarray
    time: float
    steps: int
    digest: str
    wall_s: float
    attempts: int = 1
    preemptions: int = 0
    #: True when served from the completed-result cache without running
    reused: bool = False
    #: extra named arrays (e.g. the BTE temperature field)
    aux: dict[str, np.ndarray] = field(default_factory=dict)

    @staticmethod
    def digest_of(u: np.ndarray, aux: dict[str, np.ndarray] | None = None) -> str:
        """Bit-exact content digest used for differential assertions and
        as the tenant hashtree leaf value."""
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(u).tobytes())
        for name in sorted(aux or {}):
            h.update(name.encode())
            h.update(np.ascontiguousarray(aux[name]).tobytes())
        return h.hexdigest()

    def summary(self) -> dict[str, Any]:
        return {
            "key": self.key[:12],
            "cache_key": self.cache_key[:12],
            "target": self.target,
            "steps": self.steps,
            "time": self.time,
            "digest": self.digest[:12],
            "wall_s": round(self.wall_s, 6),
            "attempts": self.attempts,
            "preemptions": self.preemptions,
            "reused": self.reused,
        }


@dataclass
class JobRecord:
    """One row of the status document's ``jobs`` table."""

    key: str
    target: str
    priority: int
    status: str
    tenants: list[str] = field(default_factory=list)
    requests: int = 0
    worker: int | None = None
    attempts: int = 0
    preemptions: int = 0
    resumes: int = 0
    steps: int = 0
    wall_s: float = 0.0
    error: str | None = None
    error_code: str | None = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "key": self.key[:12],
            "target": self.target,
            "priority": PRIORITY_NAMES.get(self.priority, self.priority),
            "status": self.status,
            "tenants": list(self.tenants),
            "requests": self.requests,
            "worker": self.worker,
            "attempts": self.attempts,
            "preemptions": self.preemptions,
            "resumes": self.resumes,
            "steps": self.steps,
            "wall_s": round(self.wall_s, 6),
            "error": self.error,
            "error_code": self.error_code,
        }


__all__ = [
    "SCHEMA",
    "PRIORITIES",
    "PRIORITY_NAMES",
    "JobRecord",
    "JobResult",
    "binding_digest",
    "job_key",
    "normalize_priority",
]
