"""Exception hierarchy for the :mod:`repro` package.

A single root (:class:`ReproError`) lets callers catch everything coming out
of the library while the subclasses keep error sites precise.  Every
exception carries a stable ``RPR###`` diagnostic code (class default,
overridable per raise site via ``code=``) so CLI output, lint reports and
tests can refer to error *classes of cause* instead of message strings.
The full catalogue lives in :mod:`repro.verify.codes` and is documented in
``docs/architecture.md``.

Some subclasses additionally inherit from :class:`ValueError`: those replace
historical bare ``raise ValueError`` sites, and the dual parentage keeps
``except ValueError`` callers working.
"""

from __future__ import annotations


class ReproError(Exception):
    """Root of all exceptions raised by :mod:`repro`."""

    #: Stable diagnostic code (see repro.verify.codes.CATALOGUE).
    default_code = "RPR000"

    def __init__(self, *args, code: str | None = None):
        self.code = code or self.default_code
        super().__init__(*args)


class DSLError(ReproError):
    """User-facing problem in DSL input (bad expression, unknown entity...)."""

    default_code = "RPR101"


class ParseError(DSLError):
    """The conservation-form input string could not be parsed."""

    default_code = "RPR100"

    def __init__(self, message: str, source: str = "", position: int = -1,
                 code: str | None = None):
        self.source = source
        self.position = position
        block = caret_block(source, position)
        if block:
            message = f"{message}\n{block}"
        super().__init__(message, code=code)


def caret_block(source: str, position: int) -> str:
    """Render ``source`` around ``position`` with a ``^`` marker.

    Handles multi-line sources: only the offending line is shown, prefixed
    with its 1-based line number when the source spans several lines, and
    the caret column is measured from that line's start (not the absolute
    character offset).  Returns ``""`` when there is nothing to point at.
    """
    if not source or position < 0:
        return ""
    position = min(position, len(source))
    before = source[:position]
    line_no = before.count("\n")
    col = position - (before.rfind("\n") + 1)
    lines = source.split("\n")
    line = lines[line_no] if line_no < len(lines) else ""
    prefix = f"line {line_no + 1}: " if len(lines) > 1 else ""
    pad = " " * (len(prefix) + col)
    return f"  {prefix}{line}\n  {pad}^"


class CodegenError(ReproError):
    """A code-generation target could not produce or compile code."""

    default_code = "RPR140"


class MeshError(ReproError):
    """Invalid mesh input or failed mesh operation."""

    default_code = "RPR500"


class SolverError(ReproError):
    """Numerical failure during time stepping (NaN, divergence...)."""

    default_code = "RPR301"


class ConfigError(ReproError):
    """Inconsistent or incomplete problem configuration."""

    default_code = "RPR001"


class FaultSpecError(ConfigError):
    """A ``--faults`` specification string could not be parsed."""

    default_code = "RPR002"


class DeviceOOMError(CodegenError):
    """The simulated device ran out of memory (real or injected)."""

    default_code = "RPR310"


class KernelFaultError(CodegenError):
    """A simulated kernel launch faulted (injected device fault)."""

    default_code = "RPR311"


class DeviceResidencyError(CodegenError):
    """A device buffer was read while its device copy was stale."""

    default_code = "RPR305"


class CommFaultError(ReproError):
    """A point-to-point message could not be recovered within the retry
    budget (the fault outlived the resilience policy)."""

    default_code = "RPR312"


class RankKilledError(ReproError):
    """A rank process died mid-run (injected ``rank_kill`` fault)."""

    default_code = "RPR313"

    def __init__(self, *args, rank: int | None = None, code: str | None = None):
        self.rank = rank
        super().__init__(*args, code=code)


class RankPeerFailedError(ReproError):
    """A rank aborted because a peer rank failed (poison-pill cancel).

    Raised on the *surviving* ranks when the executor floods the comm
    channels after one rank dies — collateral, never the root cause."""

    default_code = "RPR314"

    def __init__(self, *args, rank: int | None = None, code: str | None = None):
        self.rank = rank  # the rank that originally failed
        super().__init__(*args, code=code)


class HeartbeatError(ReproError):
    """A rank missed its liveness deadline (stalled or silently dead)."""

    default_code = "RPR315"

    def __init__(self, *args, rank: int | None = None, code: str | None = None):
        self.rank = rank
        super().__init__(*args, code=code)


class CheckpointCorruptError(ReproError):
    """A checkpoint file is corrupt or truncated (failed mid-write)."""

    default_code = "RPR316"


class MigrationError(ReproError):
    """Checkpoint-based state migration could not complete."""

    default_code = "RPR317"


# ---------------------------------------------------------------------------
# typed replacements for historical bare ValueError/RuntimeError sites.
# Each also subclasses ValueError so pre-existing `except ValueError`
# callers (and tests) keep working.
# ---------------------------------------------------------------------------

class ExprError(DSLError, ValueError):
    """A symbolic expression node was constructed with invalid arguments."""

    default_code = "RPR108"


class ClockError(ReproError, ValueError):
    """A virtual clock was asked to move backwards in time."""

    default_code = "RPR401"


class MetricsError(ReproError, ValueError):
    """A metrics instrument was used against its contract (e.g. a counter
    decreased)."""

    default_code = "RPR402"


class AnalysisInputError(ReproError, ValueError):
    """The trace/report analyzer was given no usable input."""

    default_code = "RPR404"


class ScalingModelError(ConfigError, ValueError):
    """A performance-model scaling query was inconsistent (unknown strategy,
    impossible process count...)."""

    default_code = "RPR420"


class ServeError(ReproError):
    """Solver-service failure (misuse, unavailable, shut down mid-request)."""

    default_code = "RPR903"


class AdmissionError(ServeError):
    """Request rejected at admission: the bounded queue is full
    (backpressure).  Clients should retry with backoff or lower load."""

    default_code = "RPR900"

    def __init__(self, *args, tenant: str = "", code: str | None = None):
        self.tenant = tenant
        super().__init__(*args, code=code)


class QuotaExceededError(AdmissionError):
    """Request rejected at admission: the tenant is over its quota
    (in-flight or running cap).  Distinct from queue backpressure — other
    tenants' requests are still being admitted."""

    default_code = "RPR901"


class JobFailedError(ServeError):
    """A served job failed on every attempt; carries the underlying cause."""

    default_code = "RPR902"


__all__ = [
    "ReproError",
    "DSLError",
    "ParseError",
    "CodegenError",
    "MeshError",
    "SolverError",
    "ConfigError",
    "FaultSpecError",
    "DeviceOOMError",
    "KernelFaultError",
    "DeviceResidencyError",
    "CommFaultError",
    "RankKilledError",
    "RankPeerFailedError",
    "HeartbeatError",
    "CheckpointCorruptError",
    "MigrationError",
    "ExprError",
    "ClockError",
    "MetricsError",
    "AnalysisInputError",
    "ScalingModelError",
    "ServeError",
    "AdmissionError",
    "QuotaExceededError",
    "JobFailedError",
    "caret_block",
]
