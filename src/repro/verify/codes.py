"""The stable ``RPR###`` diagnostic-code catalogue.

Every diagnostic the verifier, the sanitizer or a typed exception can
produce carries one of these codes.  Codes are *stable identifiers*: tests,
CI gates and user scripts match on them, so a code is never renumbered or
reused — retired codes are deleted, new causes get new numbers.

Numbering bands
---------------

====  =======================================================
band  layer
====  =======================================================
0xx   library usage / configuration errors (typed exceptions)
1xx   static DSL / IR checks (``bte lint`` layer 1)
2xx   placement, transfer and SPMD schedule hazards (layer 2)
3xx   runtime sanitizer findings (``--sanitize`` layer 3)
4xx   observability / performance-model usage errors
5xx   mesh input errors
7xx   retired (autotuning / calibration persistence; never reused)
8xx   observability persistence
9xx   solver service (admission, quota, job lifecycle)
====  =======================================================

``docs/architecture.md`` renders this catalogue; a test asserts the two
stay in sync.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CodeInfo:
    """One catalogue entry."""

    code: str
    layer: str
    title: str
    #: default severity of diagnostics carrying this code
    severity: str = "error"


_RAW: list[tuple[str, str, str, str]] = [
    # ---- 0xx: library usage / configuration ------------------------------
    ("RPR000", "library", "unclassified library error", "error"),
    ("RPR001", "library", "inconsistent, incomplete or unsupported problem configuration "
                          "(e.g. a solver type other than FV, or a weak form)", "error"),
    ("RPR002", "library", "malformed --faults specification", "error"),
    # ---- 1xx: static DSL / IR --------------------------------------------
    ("RPR100", "dsl", "equation input could not be parsed", "error"),
    ("RPR101", "dsl", "unknown symbol in equation input", "error"),
    ("RPR102", "dsl", "unknown function (not an operator, math function or callback)", "error"),
    ("RPR103", "dsl", "indexed reference has wrong index count", "error"),
    ("RPR104", "dsl", "indexed reference uses an undeclared or mismatched index", "error"),
    ("RPR105", "dsl", "indexed entity referenced without its indices", "error"),
    ("RPR106", "dsl", "callback referenced without being called", "error"),
    ("RPR107", "dsl", "nested surface(...) integrals", "error"),
    ("RPR108", "dsl", "invalid symbolic expression construction", "error"),
    ("RPR109", "dsl", "unknown variable absent from its own equation", "warning"),
    ("RPR110", "dsl", "no equation declared", "error"),
    # RPR111 (equation kind vs. solver type) retired with the FEM path; never reused
    ("RPR112", "dsl", "conservation form is not well-formed for explicit stepping", "error"),
    ("RPR120", "dsl", "no mesh set", "error"),
    ("RPR121", "dsl", "mesh boundary region has no boundary condition", "error"),
    ("RPR122", "dsl", "boundary condition references a region the mesh lacks", "error"),
    ("RPR123", "dsl", "boundary region has more than one condition", "error"),
    ("RPR124", "dsl", "boundary specification is incomplete or refers to an unknown callback", "error"),
    ("RPR130", "ir", "assemblyLoops ordering is invalid", "error"),
    ("RPR131", "ir", "partitioning configuration is inconsistent", "error"),
    ("RPR132", "ir", "time-stepping configuration is incomplete", "error"),
    ("RPR133", "ir", "mesh dimension does not match the declared domain", "error"),
    ("RPR140", "ir", "code generation failed", "error"),
    ("RPR141", "ir", "in-place sweep would read the unknown outside the tile's own rows", "error"),
    ("RPR142", "ir", "a generated C tile could not be built: no C compiler, or it failed", "error"),
    # ---- 2xx: placement / transfer / schedule ----------------------------
    ("RPR201", "placement", "device read without a fresh h2d transfer (stale device buffer)", "error"),
    ("RPR202", "placement", "host read without a fresh d2h transfer (stale host buffer)", "error"),
    ("RPR203", "placement", "write-after-write hazard between unordered tasks", "error"),
    ("RPR204", "placement", "kernel vs. overlapped-CPU read/write race on a shared buffer", "error"),
    ("RPR205", "placement", "placement violates a pinned task or lacks a device cost", "error"),
    ("RPR206", "placement", "task graph references an unknown task", "error"),
    ("RPR207", "placement", "transfer plan lists an array the task graph does not use", "error"),
    ("RPR210", "schedule", "SPMD send with no matching receive", "error"),
    ("RPR211", "schedule", "SPMD receive with no matching send (rank would block)", "error"),
    # RPR212 (schedule deadlock) retired with the schedule simulator; never reused
    ("RPR213", "schedule", "halo exchange asymmetry between partitions", "error"),
    # RPR214 (collective mismatch) retired with the schedule simulator; never reused
    # ---- 3xx: runtime sanitizer ------------------------------------------
    ("RPR301", "runtime", "non-finite field value (NaN/Inf) during stepping", "error"),
    ("RPR302", "runtime", "halo payload checksum mismatch between ranks", "error"),
    ("RPR303", "runtime", "conserved total drifted beyond tolerance", "warning"),
    ("RPR304", "runtime", "per-step update magnitude suggests CFL violation", "warning"),
    ("RPR305", "runtime", "device buffer read while its device copy was stale", "error"),
    ("RPR306", "runtime", "kernel output contains non-finite values", "error"),
    ("RPR310", "runtime", "simulated device out of memory", "error"),
    ("RPR311", "runtime", "simulated kernel launch faulted", "error"),
    ("RPR312", "runtime", "message not recovered within the retry budget", "error"),
    ("RPR313", "runtime", "rank killed mid-run (injected rank_kill fault)", "error"),
    ("RPR314", "runtime", "rank aborted after a peer rank failed (poison pill)", "error"),
    ("RPR315", "runtime", "rank heartbeat missed its liveness deadline", "error"),
    ("RPR316", "runtime", "checkpoint file corrupt or truncated", "error"),
    ("RPR317", "runtime", "checkpoint-based state migration failed", "error"),
    ("RPR318", "runtime", "checkpoint is a snapshot of another problem", "error"),
    # ---- 4xx: observability / perfmodel usage ----------------------------
    ("RPR401", "obs", "virtual clock moved backwards", "error"),
    ("RPR402", "obs", "metrics instrument misused (e.g. counter decreased)", "error"),
    # RPR403 (benchmark envelope malformed) retired with `bte bench`; never reused
    ("RPR404", "obs", "analyzer given no usable trace or report", "error"),
    ("RPR420", "perfmodel", "scaling-model query inconsistent", "error"),
    # ---- 5xx: mesh input --------------------------------------------------
    ("RPR500", "mesh", "invalid mesh input or failed mesh operation", "error"),
    ("RPR501", "mesh", "malformed or truncated Gmsh file", "error"),
    ("RPR502", "mesh", "malformed or truncated Medit file", "error"),
    ("RPR503", "mesh", "malformed or truncated VTK file", "error"),
    ("RPR504", "mesh", "cell node id not an integer in range, or non-finite coordinate", "error"),
    # ---- 8xx: observability persistence ------------------------------------
    ("RPR801", "obs", "run-registry entry malformed or unwritable", "error"),
    # ---- 9xx: solver service ----------------------------------------------
    ("RPR900", "serve", "request rejected: bounded queue full (backpressure)", "error"),
    ("RPR901", "serve", "request rejected: tenant quota exceeded", "error"),
    ("RPR902", "serve", "served job failed on every attempt", "error"),
    ("RPR903", "serve", "solver service unavailable or misused", "error"),
]

#: code -> CodeInfo for every known diagnostic code.
CATALOGUE: dict[str, CodeInfo] = {
    code: CodeInfo(code, layer, title, severity)
    for code, layer, title, severity in _RAW
}


def describe(code: str) -> CodeInfo:
    """Catalogue entry for ``code`` (a generic entry for unknown codes)."""
    return CATALOGUE.get(code, CodeInfo(code, "library", "unknown diagnostic code"))


def render_catalogue() -> str:
    """The catalogue as a fixed-width text table (used by docs and tests)."""
    lines = [f"{'code':<8} {'layer':<10} meaning"]
    for info in CATALOGUE.values():
        sev = "" if info.severity == "error" else f" [{info.severity}]"
        lines.append(f"{info.code:<8} {info.layer:<10} {info.title}{sev}")
    return "\n".join(lines)


__all__ = ["CodeInfo", "CATALOGUE", "describe", "render_catalogue"]
