"""Layer 3: the runtime sanitizer (``--sanitize``).

A module-level singleton (same pattern as the tracer, metrics and
resilience log) that every generated run loop consults through
:meth:`SolverState.sanitize_step`.  When disabled — the default — every
hook is a cheap attribute check, and a sanitized run performs *no write*
to any solver array: all checks are read-only, so results stay bit-identical
to unsanitized runs (tested).

Checks, each mapped to a stable code:

* per-kernel / per-step NaN-Inf guards with first-bad step/component/cell
  provenance (RPR301 for fields, RPR306 for raw kernel output);
* cross-rank halo consistency: the comm layer notes a checksum of every
  sent array out-of-band and verifies it on receipt, plus finiteness of
  received halos (RPR302);
* device-residency accounting: reads of stale device buffers surface as
  RPR305 (the simulated device raises, the sanitizer records);
* CFL-style instability heuristics (RPR304) and conservation drift
  (RPR303) as warnings.

Findings feed the tracer (instant events on a ``sanitizer`` track), the
metrics registry (``sanitizer_findings_total``) and the run report's
``diagnostics`` section.
"""

from __future__ import annotations

import threading
import weakref
import zlib
from typing import Any

import numpy as np

from repro.util.errors import SolverError
from repro.verify.diagnostics import Diagnostic, DiagnosticReport


class SanitizerError(SolverError):
    """A fatal sanitizer finding (non-finite field, checksum mismatch)."""

    default_code = "RPR301"


class _StateWatch:
    """Per-solver-state history the drift/CFL heuristics need."""

    __slots__ = ("prev_u", "energy0", "warned")

    def __init__(self):
        self.prev_u: np.ndarray | None = None
        self.energy0: float | None = None
        self.warned: set[str] = set()


class Sanitizer:
    """Thread-safe runtime sanitizer; one singleton per process."""

    #: relative per-step update beyond which RPR304 fires (a stable explicit
    #: scheme moves the solution by O(CFL) per step; 10x is blow-up territory)
    cfl_rel_threshold = 10.0
    #: relative conserved-total drift beyond which RPR303 fires
    drift_threshold = 0.05

    def __init__(self, enabled: bool = False):
        self._lock = threading.Lock()
        self.enabled = enabled
        self.was_active = False
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.report = DiagnosticReport()
            self.checks = 0
            self._watch: "weakref.WeakKeyDictionary[Any, _StateWatch]" = (
                weakref.WeakKeyDictionary())
            self._sent_crc: dict[tuple[int, int, int, int], int] = {}

    # ----------------------------------------------------------------- events
    def record(self, diag: Diagnostic) -> None:
        with self._lock:
            self.report.add(diag)
        self._feed_observability(diag)

    def _feed_observability(self, diag: Diagnostic) -> None:
        from repro.obs import get_event_log, get_metrics, get_tracer

        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter(
                "sanitizer_findings_total",
                "runtime sanitizer findings by code",
            ).inc(1, code=diag.code, severity=diag.severity)
        tracer = get_tracer()
        if tracer.enabled:
            ts = diag.where.get("time", 0.0)
            tracer.instant("sanitizer", diag.code, float(ts or 0.0),
                           cat="sanitizer", message=diag.message)
        level = diag.severity if diag.severity in ("info", "warning", "error") \
            else "warning"
        get_event_log().emit(
            "sanitizer.finding", level=level,
            rank=diag.where.get("rank"), step=diag.where.get("step"),
            code=diag.code, severity=diag.severity, message=diag.message)

    def _count(self, n: int = 1) -> None:
        with self._lock:
            self.checks += n
            self.report.checks_run = self.checks

    # ----------------------------------------------------------------- checks
    def check_array(self, name: str, arr: np.ndarray, *, code: str = "RPR301",
                    step: int | None = None, time: float | None = None,
                    fatal: bool = True, **where: Any) -> bool:
        """NaN/Inf guard with first-bad provenance.  Returns True if clean."""
        if not self.enabled:
            return True
        self._count()
        arr = np.asarray(arr)
        if np.isfinite(arr).all():
            return True
        bad = np.argwhere(~np.isfinite(arr))
        first = tuple(int(i) for i in bad[0])
        value = arr[tuple(bad[0])]
        msg = (f"{name} contains {len(bad)} non-finite value(s); first at "
               f"index {first} ({value!r})")
        if step is not None:
            msg += f" on step {step}"
            where["step"] = step
        if time is not None:
            where["time"] = time
        where["index"] = first
        diag = Diagnostic.from_code(code, msg, array=name, **where)
        self.record(diag)
        if fatal:
            raise SanitizerError(f"[{diag.code}] {msg}", code=diag.code)
        return False

    def check_state(self, state) -> None:
        """Per-step field guards + drift/CFL heuristics for one solver state.

        Read-only: never touches solver arrays in place, so a sanitized run
        is numerically identical to an unsanitized one.
        """
        if not self.enabled:
            return
        rank = state.comm.rank if getattr(state, "comm", None) is not None \
            else None
        where = {} if rank is None else {"rank": rank}
        unknown = getattr(state, "unknown", None) or state.problem.unknown
        with self._lock:
            watch = self._watch.get(state)
            if watch is None:
                watch = self._watch[state] = _StateWatch()

        # residency first: reading ``state.u`` below is itself a host access
        # that takes a device-resident unknown back
        device = getattr(state, "device", None)
        if device is not None:
            self._count()
            stale = [name for name, buf in device.buffers.items()
                     if not getattr(buf, "on_device", True)]
            if stale and "stale" not in watch.warned:
                # stale buffers at step end are legal only for the degraded
                # (fault-fallback) path and a plan that finishes the step on
                # the host, which upload before any read; surface the fact
                # as information, not an error
                watch.warned.add("stale")
                self.record(Diagnostic(
                    code="RPR305", severity="info", layer="runtime",
                    message=f"device buffer(s) {stale} host-dirty at step "
                            f"{state.step_index} end (degraded path or "
                            "pending h2d)",
                    where={"step": state.step_index, **where}))

        u = state.u
        self.check_array(unknown.name, u, step=state.step_index,
                         time=state.time, **where)

        self._count()
        if watch.prev_u is not None and watch.prev_u.shape == u.shape:
            scale = float(np.max(np.abs(watch.prev_u)))
            if scale > 0.0:
                rel = float(np.max(np.abs(u - watch.prev_u))) / scale
                if rel > self.cfl_rel_threshold and "cfl" not in watch.warned:
                    watch.warned.add("cfl")
                    self.record(Diagnostic.from_code(
                        "RPR304",
                        f"{unknown.name} moved {rel:.1f}x its own "
                        f"magnitude in one step (step {state.step_index}); "
                        "the explicit step likely violates the CFL limit",
                        step=state.step_index, time=state.time, **where))
        watch.prev_u = u.copy()

        geom = getattr(state, "geom", None)
        if geom is not None and getattr(geom, "volume", None) is not None:
            self._count()
            energy = float(geom.volume @ u.sum(axis=0))
            if watch.energy0 is None:
                watch.energy0 = energy
            scale = abs(watch.energy0)
            if scale > 0.0:
                drift = abs(energy - watch.energy0) / scale
                if drift > self.drift_threshold \
                        and "drift" not in watch.warned:
                    watch.warned.add("drift")
                    self.record(Diagnostic.from_code(
                        "RPR303",
                        f"volume-weighted total of {unknown.name} "
                        f"drifted {drift * 100:.1f}% from its initial value "
                        f"by step {state.step_index}",
                        step=state.step_index, time=state.time, **where))

    def check_kernel_output(self, kernel: str, arr: np.ndarray,
                            state=None) -> None:
        """Per-kernel NaN/Inf guard on freshly fetched device output."""
        if not self.enabled:
            return
        step = getattr(state, "step_index", None)
        time = getattr(state, "time", None)
        self.check_array(f"kernel {kernel!r} output", arr, code="RPR306",
                         step=step, time=time, kernel=kernel)

    def record_residency_violation(self, name: str, **where: Any) -> None:
        """Called when a stale device read actually happened (RPR305)."""
        if not self.enabled:
            return
        self.record(Diagnostic.from_code(
            "RPR305", f"device buffer {name!r} read while its device copy "
            "was stale", array=name, **where))

    # ------------------------------------------------------ halo consistency
    def note_sent(self, src: int, dst: int, tag: int, seq: int, data) -> None:
        """Comm-layer hook: remember the checksum of an outgoing array.

        Out-of-band (ranks share this process) so the message payload — and
        with it every virtual-time byte count — is untouched.
        """
        if not self.enabled or not isinstance(data, np.ndarray):
            return
        with self._lock:
            self._sent_crc[(src, dst, tag, seq)] = zlib.crc32(data.tobytes())

    def check_received(self, src: int, dst: int, tag: int, seq: int,
                       data) -> None:
        """Comm-layer hook: verify a received array against its checksum."""
        if not self.enabled or not isinstance(data, np.ndarray):
            return
        with self._lock:
            expected = self._sent_crc.pop((src, dst, tag, seq), None)
        self._count()
        if expected is None:
            return  # sent before sanitize was enabled, or non-array send
        got = zlib.crc32(np.ascontiguousarray(data).tobytes())
        if got != expected:
            diag = Diagnostic.from_code(
                "RPR302",
                f"halo payload from rank {src} to rank {dst} (tag {tag}, "
                f"seq {seq}) failed its checksum: data corrupted in flight",
                rank=dst, peer=src, tag=tag, seq=seq)
            self.record(diag)
            raise SanitizerError(f"[{diag.code}] {diag.message}",
                                 code=diag.code)
        self.check_array(f"halo from rank {src}", data, code="RPR302",
                         rank=dst, peer=src)

    # ------------------------------------------------------------------ report
    def section(self) -> dict[str, Any] | None:
        """The run report's ``diagnostics`` section (None if never active)."""
        if not self.was_active:
            return None
        with self._lock:
            doc = self.report.to_dict()
        doc["enabled"] = self.enabled
        return doc

    def summary(self) -> str:
        with self._lock:
            return self.report.summary()

    def has_findings(self) -> bool:
        with self._lock:
            return bool(self.report.diagnostics)


_SANITIZER = Sanitizer()


def get_sanitizer() -> Sanitizer:
    """The process-wide sanitizer singleton."""
    return _SANITIZER


class sanitize_run:
    """Context manager enabling the sanitizer for one run.

    Findings stay readable (for the run report) after the block exits::

        with sanitize_run():
            solver = problem.solve()
        print(get_sanitizer().summary())
    """

    def __enter__(self) -> Sanitizer:
        _SANITIZER.reset()
        _SANITIZER.enabled = True
        _SANITIZER.was_active = True
        return _SANITIZER

    def __exit__(self, *exc_info) -> None:
        _SANITIZER.enabled = False


def sanitizer_section() -> dict[str, Any] | None:
    """Lazy accessor used by :func:`repro.obs.report.build_run_report`."""
    return _SANITIZER.section()


__all__ = [
    "Sanitizer",
    "SanitizerError",
    "get_sanitizer",
    "sanitize_run",
    "sanitizer_section",
]
