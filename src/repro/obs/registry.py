"""The persistent cross-run performance registry.

Every recorded solve appends one entry — its ``repro.run/2`` document
(:mod:`repro.obs.report`) plus a ``recorded: {key, seq, at, wall_s}``
stamp — under a content-addressed directory keyed by the document's
``meta.problem_key`` (the tuning-key digest, so knob or fault-injected
variants of the same problem share one timeline)::

    <root>/<key[:2]>/<key>/run-000001.json
    <root>/<key[:2]>/<key>/run-000002.json
    ...

Entries written in an older form load through
:func:`~repro.obs.report.load_run`, which upgrades them.  The layout
deliberately mirrors :class:`repro.tune.cache.CompilationCache` (two-level
fan-out, corrupt entries tolerated as warnings) so one ``--cache-dir``-style
root can hold both.  ``bte history`` reads the timeline back, ``bte
compare`` diffs two entries, and ``bte history --gc`` prunes old entries so
long-lived checkouts don't grow unboundedly.
"""

from __future__ import annotations

import json
import logging
import os
import time
from pathlib import Path
from typing import Any

from repro.obs.report import SCHEMA, _json_safe, load_run
from repro.util.errors import ReproError

logger = logging.getLogger(__name__)

#: Default registry root (under the working directory, like ``.repro-cache``).
DEFAULT_ROOT = ".repro-runs"

#: ``bte history --gc`` default: newest entries kept per problem key.
DEFAULT_KEEP_LAST = 20

#: ``bte history``: wall-time growth over the previous recorded run of the
#: same problem key that flags a regression.
HISTORY_REGRESSION = 0.25


class RegistryError(ReproError):
    """Malformed run-registry entry or unusable registry root."""

    default_code = "RPR801"


class RunRegistry:
    """Append-only store of run entries, content-addressed by problem key."""

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else Path(DEFAULT_ROOT)

    # ---------------------------------------------------------------- layout
    def _key_dir(self, key: str) -> Path:
        if not key or any(c in key for c in "/\\"):
            raise RegistryError(f"invalid registry key {key!r}")
        return self.root / key[:2] / key

    # ---------------------------------------------------------------- append
    def append(self, doc: dict, *, wall_s: float | None = None) -> Path:
        """Record one run document under its ``meta.problem_key``; returns
        the entry path."""
        if doc.get("schema") != SCHEMA:
            raise RegistryError(
                f"only {SCHEMA} documents are recorded, not {doc.get('schema')!r}")
        key = (doc.get("meta") or {}).get("problem_key") or ""
        key_dir = self._key_dir(key)
        key_dir.mkdir(parents=True, exist_ok=True)
        seq = self._next_seq(key_dir)
        entry = dict(doc, recorded={
            "key": key, "seq": seq,
            "at": time.strftime("%Y-%m-%dT%H:%M:%S"), "wall_s": wall_s,
        })
        path = key_dir / f"run-{seq:06d}.json"
        path.write_text(json.dumps(_json_safe(entry), indent=1) + "\n")
        logger.debug("registry: recorded %s", path)
        return path

    @staticmethod
    def _next_seq(key_dir: Path) -> int:
        seqs = []
        for p in key_dir.glob("run-*.json"):
            try:
                seqs.append(int(p.stem.split("-", 1)[1]))
            except (IndexError, ValueError):
                continue
        return max(seqs, default=0) + 1

    # ----------------------------------------------------------------- reads
    def keys(self) -> list[str]:
        """Every problem key with at least one recorded run."""
        if not self.root.is_dir():
            return []
        out = []
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for key_dir in sorted(shard.iterdir()):
                if key_dir.is_dir() and any(key_dir.glob("run-*.json")):
                    out.append(key_dir.name)
        return out

    def runs(self, key: str) -> list[Path]:
        """Entry paths for ``key``, oldest first."""
        key_dir = self._key_dir(key)
        if not key_dir.is_dir():
            return []
        return sorted(key_dir.glob("run-*.json"))

    def load(self, path: str | Path) -> dict:
        """Read one entry as a ``repro.run/2`` document with its stamp."""
        try:
            doc = load_run(path)
        except ReproError as exc:
            raise RegistryError(f"not a run-registry entry: {exc}") from exc
        if "recorded" not in doc:
            raise RegistryError(f"{path}: not a run-registry entry (no stamp)")
        return doc

    def load_runs(self, key: str) -> list[dict]:
        """All readable entries for ``key``, oldest first; corrupt entries
        are skipped with a warning (mirrors the compilation cache)."""
        out = []
        for path in self.runs(key):
            try:
                out.append(self.load(path))
            except RegistryError as exc:
                logger.warning("registry: skipping %s", exc)
        return out

    # -------------------------------------------------------------------- gc
    def gc(self, *, keep_last: int = DEFAULT_KEEP_LAST,
           max_age_days: float | None = None) -> int:
        """Prune old entries; returns how many were removed.

        Keeps the newest ``keep_last`` entries per key; with
        ``max_age_days`` additionally drops entries whose ``recorded.at``
        is older, regardless of count.  Empty key directories are removed.
        """
        if keep_last < 0:
            raise RegistryError(f"keep_last must be >= 0, got {keep_last}")
        cutoff = None
        if max_age_days is not None:
            cutoff = time.time() - float(max_age_days) * 86400.0
        removed = 0
        for key in self.keys():
            paths = self.runs(key)
            drop = paths[:-keep_last] if keep_last else list(paths)
            keep = [p for p in paths if p not in drop]
            if cutoff is not None:
                for path in keep:
                    if self._recorded_epoch(path) < cutoff:
                        drop.append(path)
            for path in drop:
                try:
                    path.unlink()
                    removed += 1
                except OSError as exc:  # pragma: no cover - fs race
                    logger.warning("registry: cannot prune %s: %s", path, exc)
            key_dir = self._key_dir(key)
            if key_dir.is_dir() and not any(key_dir.iterdir()):
                key_dir.rmdir()
                shard = key_dir.parent
                if shard.is_dir() and not any(shard.iterdir()):
                    shard.rmdir()
        return removed

    def _recorded_epoch(self, path: Path) -> float:
        """Entry age from its ``recorded.at`` stamp, file mtime fallback."""
        try:
            stamp = self.load(path)["recorded"].get("at") or ""
            return time.mktime(time.strptime(stamp, "%Y-%m-%dT%H:%M:%S"))
        except (RegistryError, ValueError, OverflowError):
            try:
                return path.stat().st_mtime
            except OSError:
                return 0.0


def history_flags(entries: list[dict[str, Any]]) -> list[list[str]]:
    """Flags of one problem key's timeline (``bte history``), oldest first.

    Per entry (a :meth:`RunRegistry.load` document): ``regression`` when
    the recorded wall seconds grew more than :data:`HISTORY_REGRESSION` over
    the previous entry's, ``drift`` when its drift verdict is exceeded.
    """
    flags: list[list[str]] = []
    prev_wall: float | None = None
    for entry in entries:
        entry_flags: list[str] = []
        wall = entry.get("recorded", {}).get("wall_s")
        if (wall is not None and prev_wall is not None and prev_wall > 0
                and (wall - prev_wall) / prev_wall > HISTORY_REGRESSION):
            entry_flags.append("regression")
        if wall is not None:
            prev_wall = float(wall)
        if entry.get("drift", {}).get("exceeded"):
            entry_flags.append("drift")
        flags.append(entry_flags)
    return flags


# -------------------------------------------------------------- process-wide
_REGISTRY: RunRegistry | None = None


def get_registry() -> RunRegistry:
    """The process-wide registry (root from ``$REPRO_RUNS_DIR`` or
    ``.repro-runs`` on first use)."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = RunRegistry(os.environ.get("REPRO_RUNS_DIR", DEFAULT_ROOT))
    return _REGISTRY


def configure_registry(root: str | Path | None) -> RunRegistry:
    """Point the process-wide registry at ``root``."""
    global _REGISTRY
    _REGISTRY = RunRegistry(root)
    return _REGISTRY


class registry_scope:
    """Context manager installing a scratch registry (test isolation)."""

    def __init__(self, root: str | Path):
        self._registry = RunRegistry(root)
        self._saved: RunRegistry | None = None

    def __enter__(self) -> RunRegistry:
        global _REGISTRY
        self._saved = _REGISTRY
        _REGISTRY = self._registry
        return self._registry

    def __exit__(self, *exc) -> None:
        global _REGISTRY
        _REGISTRY = self._saved


__all__ = [
    "DEFAULT_KEEP_LAST",
    "DEFAULT_ROOT",
    "HISTORY_REGRESSION",
    "RegistryError",
    "RunRegistry",
    "configure_registry",
    "get_registry",
    "history_flags",
    "registry_scope",
]
