"""Small shared utilities: errors, logging, timers, and numeric helpers.

Everything in :mod:`repro` that is not domain specific lives here so the
domain packages can stay focused.  The module is intentionally dependency
light (stdlib + numpy only).
"""

from repro.util.errors import (
    ReproError,
    DSLError,
    CodegenError,
    MeshError,
    SolverError,
    ConfigError,
)
from repro.util.timing import Timer, TimerRegistry, WallClock, VirtualClock
from repro.util.logging import get_logger, set_verbosity
from repro.util.misc import (
    ordered_unique,
    pairwise,
    human_bytes,
    check_finite,
)

__all__ = [
    "ReproError",
    "DSLError",
    "CodegenError",
    "MeshError",
    "SolverError",
    "ConfigError",
    "Timer",
    "TimerRegistry",
    "WallClock",
    "VirtualClock",
    "get_logger",
    "set_verbosity",
    "ordered_unique",
    "pairwise",
    "human_bytes",
    "check_finite",
]
