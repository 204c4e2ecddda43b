"""The content-addressed compilation cache.

A :class:`GenerationArtifact` is the expensive, *problem-independent-ish*
half of one generation: the emitted source, its compiled code object, the
static environment (component tables, precomputed layouts, assembled
operators) and the attachments targets hang on solvers (IR, classified
form, placement plan, ...).  Everything *live* — solver state, callbacks,
clocks, devices, closures — is rebuilt on every bind, so sharing one
artifact across many solvers is safe.

The cache keeps the artifact objects in memory, for the process: a hit
performs zero lowering, zero emission and zero ``compile()`` calls.  What
outlives the process is the compiled C library of each program
(:func:`repro.codegen.ctile.build`), under ``<cache_dir>/tiles/`` when a
directory is set (``configure_cache(cache_dir=...)``, the CLI's
``--cache-dir``, or ``$REPRO_CACHE_DIR``); ``stats.disk_errors`` counts what
that directory refuses.

Observability: hits/misses/build and bind timings go to the metrics
registry (``codegen_cache_*``, ``codegen_build_seconds``) *and* to a
registry-independent :class:`CacheStats` the tests and the benchmark
suite assert on.
"""

from __future__ import annotations

import os
import threading
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from repro.util.context import current


@dataclass
class GenerationArtifact:
    """The cacheable output of one ``build_artifact`` call."""

    target_name: str
    source: str
    key: str
    #: namespace entries shared verbatim across binds
    static_env: dict[str, Any] = field(default_factory=dict)
    #: solver attachments (ir, classified_form, placement, ...)
    attrs: dict[str, Any] = field(default_factory=dict)
    #: wall seconds the original build took (cold-path provenance)
    build_seconds: float = 0.0
    #: compiled code object of ``source`` (set by the first bind)
    code: Any = None

    @property
    def module_name(self) -> str:
        """Deterministic, content-derived module name (no global counter):
        stable across processes, idempotent under re-generation."""
        return f"<generated:{self.target_name}:{self.key[:12]}>"


@dataclass
class CacheStats:
    """Registry-independent counters (asserted by tests and benchmarks)."""

    memory_hits: int = 0
    misses: int = 0
    builds: int = 0
    #: what the ``tiles/`` directory refused (:func:`repro.codegen.ctile.build`)
    disk_errors: int = 0
    #: concurrent generates that waited on another thread's in-flight build
    #: of the same key and reused its artifact (single-flight dedup)
    coalesced: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


class CompilationCache:
    """The process's artifact store, and where its libraries persist."""

    def __init__(self, cache_dir: str | Path | None = None, enabled: bool = True):
        self.enabled = enabled
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.stats = CacheStats()
        self._memory: dict[str, GenerationArtifact] = {}
        self._lock = threading.Lock()
        #: per-key build locks (single-flight: one builder, late arrivals wait)
        self._build_locks: dict[str, threading.Lock] = {}

    # ------------------------------------------------------------------ config
    def configure(self, cache_dir: str | Path | None = None,
                  enabled: bool | None = None) -> None:
        if enabled is not None:
            self.enabled = enabled
        if cache_dir is not None:
            self.cache_dir = Path(cache_dir)
        elog = current().events
        if elog.debug_enabled:
            elog.emit("tune.cache.configured", level="debug",
                      enabled=self.enabled,
                      cache_dir=str(self.cache_dir) if self.cache_dir else None)

    def clear(self) -> None:
        with self._lock:
            self._memory.clear()
            self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    # ------------------------------------------------------------------ lookup
    def get(self, key: str) -> GenerationArtifact | None:
        """:meth:`peek`, counted as a hit or a miss."""
        if not self.enabled or not key:
            return None
        artifact = self.peek(key)
        metrics = current().metrics
        if artifact is not None:
            self.stats.memory_hits += 1
            metrics.counter(
                "codegen_cache_hits_total", "compilation-cache hits"
            ).inc(1, layer="memory", target=artifact.target_name)
            return artifact
        self.stats.misses += 1
        metrics.counter(
            "codegen_cache_misses_total", "compilation-cache misses"
        ).inc(1)
        return None

    def peek(self, key: str) -> GenerationArtifact | None:
        """Stats-free lookup.

        Used by the single-flight recheck after acquiring a build lock: the
        original :meth:`get` already counted this request's hit-or-miss, so
        the recheck must not count a second one.
        """
        if not self.enabled or not key:
            return None
        with self._lock:
            return self._memory.get(key)

    def build_lock(self, key: str) -> threading.Lock:
        """The per-key lock serializing concurrent builds of ``key``.

        Callers that miss :meth:`get` acquire this, :meth:`peek` again (the
        winner published its artifact while they waited), and only build on
        a still-empty recheck.  Locks are retained for the cache lifetime;
        the population is bounded by the number of distinct problem
        signatures, each a few hundred bytes.
        """
        with self._lock:
            lock = self._build_locks.get(key)
            if lock is None:
                lock = self._build_locks[key] = threading.Lock()
            return lock

    def record_coalesced(self, key: str, artifact: GenerationArtifact) -> None:
        """Count one single-flight reuse (metrics layer ``inflight``)."""
        self.stats.coalesced += 1
        current().metrics.counter(
            "codegen_cache_hits_total", "compilation-cache hits"
        ).inc(1, layer="inflight", target=artifact.target_name)

    def put(self, key: str, artifact: GenerationArtifact) -> None:
        if not self.enabled or not key:
            return
        with self._lock:
            self._memory[key] = artifact
        elog = current().events
        if elog.debug_enabled:
            elog.emit("tune.cache.put", level="debug", key=key[:12],
                      target=artifact.target_name)


# ---------------------------------------------------------------------------
# the process-wide cache
# ---------------------------------------------------------------------------

_CACHE = CompilationCache(cache_dir=os.environ.get("REPRO_CACHE_DIR") or None)


def get_cache() -> CompilationCache:
    """The process-wide compilation cache every target generates through."""
    return _CACHE


def configure_cache(cache_dir: str | Path | None = None,
                    enabled: bool | None = None) -> CompilationCache:
    """Configure the process-wide cache (CLI ``--cache-dir`` / ``--no-cache``)."""
    _CACHE.configure(cache_dir=cache_dir, enabled=enabled)
    return _CACHE


class cache_scope:
    """Context manager swapping in a private cache (tests, benchmarks)::

        with cache_scope(enabled=True) as cache:
            problem.generate()           # cold
            problem.generate()           # warm: cache.stats.memory_hits == 1
    """

    def __init__(self, cache_dir: str | Path | None = None, enabled: bool = True):
        self._cache = CompilationCache(cache_dir=cache_dir, enabled=enabled)
        self._saved: CompilationCache | None = None

    def __enter__(self) -> CompilationCache:
        global _CACHE
        self._saved = _CACHE
        _CACHE = self._cache
        return self._cache

    def __exit__(self, *exc) -> None:
        global _CACHE
        _CACHE = self._saved
        return None


__all__ = [
    "CacheStats",
    "CompilationCache",
    "GenerationArtifact",
    "cache_scope",
    "configure_cache",
    "get_cache",
]
