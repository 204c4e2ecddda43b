"""Kernel objects and the roofline timing model.

A :class:`Kernel` wraps a Python function (the *body* — generated by the GPU
codegen target) together with static per-thread work estimates.  Launching a
kernel executes the body for real on the device buffers' arrays and charges
the device timeline with

    t = launch_latency + max(flop_time, mem_time) / tail_efficiency

where ``flop_time = total_flops / (FP64_peak * issue_efficiency)`` and
``mem_time = total_bytes / (DRAM_bw * mem_efficiency)``.  ``tail_efficiency``
accounts for partially filled waves of thread blocks (small grids leave SMs
idle).  The same quantities feed the profiler counters behind the paper's
profiling table.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.gpu.spec import DeviceSpec
from repro.util.errors import CodegenError


@dataclass
class Kernel:
    """A launchable GPU kernel.

    Parameters
    ----------
    body:
        ``body(*args)`` performs the actual computation on the arrays that
        back the device buffers.  It is written/generated in *flattened*
        one-thread-per-DOF style but executes vectorised.
    flops_per_thread / bytes_per_thread:
        Static work estimates produced by the code generator from the IR
        (counted per degree of freedom).
    """

    name: str
    body: Callable[..., Any]
    flops_per_thread: float
    bytes_per_thread: float
    doc: str = ""

    def __post_init__(self) -> None:
        if self.flops_per_thread < 0 or self.bytes_per_thread < 0:
            raise CodegenError(f"kernel {self.name!r}: negative work estimate")


@dataclass
class KernelLaunchRecord:
    """One launch's accounting entry (consumed by the profiler)."""

    kernel: str
    n_threads: int
    block: int
    total_flops: float
    total_bytes: float
    flop_time: float
    mem_time: float
    exec_time: float  # max(flop, mem) / tail_eff, without launch latency
    launch_latency: float
    occupancy: float
    tail_efficiency: float
    start: float = 0.0
    end: float = 0.0
    #: what the body returned (a device finish: its proof that the unknown
    #: is finite); not part of the accounting
    result: Any = field(default=None, compare=False, repr=False)

    @property
    def duration(self) -> float:
        return self.launch_latency + self.exec_time

    @property
    def bound(self) -> str:
        return "compute" if self.flop_time >= self.mem_time else "memory"


def model_launch(
    spec: DeviceSpec, kernel: Kernel, n_threads: int, block: int = 256
) -> KernelLaunchRecord:
    """Apply the timing model to one launch (does not run the body)."""
    if n_threads <= 0:
        raise CodegenError(f"kernel {kernel.name!r}: n_threads must be positive")
    if block <= 0 or block % spec.warp_size:
        raise CodegenError(
            f"kernel {kernel.name!r}: block size {block} must be a positive "
            f"multiple of the warp size ({spec.warp_size})"
        )
    total_flops = kernel.flops_per_thread * n_threads
    total_bytes = kernel.bytes_per_thread * n_threads

    flop_time = total_flops / (spec.fp64_peak_flops() * spec.issue_efficiency)
    mem_time = total_bytes / (spec.dram_bw_bytes() * spec.mem_efficiency)

    # occupancy: how full the device's thread slots are
    blocks = math.ceil(n_threads / block)
    resident = min(n_threads, spec.max_resident_threads())
    occupancy = resident / spec.max_resident_threads()

    # tail: for multi-wave launches the ragged last wave idles some SMs;
    # for sub-wave launches that under-fill IS the occupancy — do not
    # penalise twice
    blocks_per_wave = max(
        1, spec.num_sms * (spec.max_threads_per_sm // block)
    )
    waves = blocks / blocks_per_wave
    if waves <= 1.0:
        tail_efficiency = 1.0
    else:
        tail_efficiency = waves / math.ceil(waves)
        if math.floor(waves) >= 8:
            # long kernels amortise the ragged tail almost completely
            tail_efficiency = max(tail_efficiency, 0.98)

    exec_time = max(flop_time, mem_time) / max(tail_efficiency * max(occupancy, 0.01), 1e-9)
    return KernelLaunchRecord(
        kernel=kernel.name,
        n_threads=n_threads,
        block=block,
        total_flops=total_flops,
        total_bytes=total_bytes,
        flop_time=flop_time,
        mem_time=mem_time,
        exec_time=exec_time,
        launch_latency=spec.launch_latency_s,
        occupancy=occupancy,
        tail_efficiency=tail_efficiency,
    )


__all__ = ["Kernel", "KernelLaunchRecord", "model_launch"]
