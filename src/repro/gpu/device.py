"""The simulated device: buffers, transfers, one launch queue, timelines.

Semantics mirror CUDA's host API closely enough that the generated hybrid
code reads like real CUDA host code:

* ``device.alloc(array)`` copies host data into a device buffer (H2D charged
  to the transfer link);
* ``device.launch(kernel, n_threads, args...)`` is *asynchronous*: it
  executes the body immediately (data correctness) but only advances the
  device's kernel clock (its one in-order queue, CUDA's default stream) —
  the host clock is not blocked;
* ``device.synchronize(host_time)`` joins the host and device timelines the
  way ``cudaDeviceSynchronize`` does: the host resumes at
  ``max(host_time, device_time)``.

The hybrid executor uses that join to model the paper's Figure 6 overlap
(interior kernel on GPU concurrent with boundary callbacks on CPU).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.gpu.kernel import Kernel, KernelLaunchRecord, model_launch
from repro.gpu.profiler import Profiler
from repro.gpu.spec import DeviceSpec, A6000
from repro.util.context import current
from repro.util.errors import (
    CodegenError,
    DeviceOOMError,
    DeviceResidencyError,
    KernelFaultError,
)
from repro.util.logging import get_logger
from repro.util.misc import sum_is_finite
from repro.util.timing import VirtualClock

logger = get_logger("gpu.device")

#: The name of the kernel queue in trace tracks, metric labels and the run
#: document (CUDA's default stream)
STREAM = "stream0"


def _finite_check(a: np.ndarray, flag: np.ndarray) -> None:
    flag[0] = sum_is_finite(a)


_FINITE_CHECK = Kernel("finite_check", _finite_check, flops_per_thread=1.0,
                       bytes_per_thread=8.0, doc="sum reduction, one flag out")


@dataclass
class DeviceBuffer:
    """A named allocation in simulated device memory.

    ``array`` is the live numpy storage — kernels mutate it in place.  The
    ``on_device`` flag tracks residency so stale-access bugs (reading a
    buffer on the host without a D2H copy) are caught by tests.
    """

    name: str
    array: np.ndarray
    on_device: bool = True

    @property
    def nbytes(self) -> int:
        return self.array.nbytes


class Device:
    """One simulated GPU."""

    def __init__(self, spec: DeviceSpec = A6000, name: str = "gpu0"):
        self.spec = spec
        self.name = name
        self.buffers: dict[str, DeviceBuffer] = {}
        # the two timelines: the in-order kernel queue and the PCIe link
        self.kernel_clock = VirtualClock()
        self.transfer_clock = VirtualClock()
        self.profiler = Profiler(spec)
        self.allocated_bytes = 0
        ctx = current()
        self.tracer = ctx.tracer
        # metric instruments (shared no-ops when metrics are disabled)
        metrics = self.metrics = ctx.metrics
        self._m_launches = metrics.counter(
            "gpu_kernel_launches_total", "kernel launches per device/kernel")
        self._m_occupancy = metrics.histogram(
            "gpu_kernel_occupancy", "modelled occupancy of each launch",
            buckets=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0))
        self._m_queue_depth = metrics.gauge(
            "gpu_launch_queue_depth_seconds",
            "device backlog still pending when the host issues a launch")
        self._m_transfer_bytes = metrics.counter(
            "gpu_transfer_bytes_total", "H2D/D2H bytes over the PCIe link")
        self._m_allocated = metrics.gauge(
            "gpu_allocated_bytes", "simulated device memory in use")

    # ----------------------------------------------------------- injection
    def _maybe_inject(self, op: str, what: str = "") -> None:
        """Raise an injected device fault for this operation, if one fires."""
        ctx = current()
        if not ctx.injector.enabled:
            return
        kind = ctx.injector.device_fault(self.name, op)
        if kind is None:
            return
        ctx.resilience.record_injected(kind, device=self.name, op=op)
        if self.tracer.enabled:
            self.tracer.instant(f"{self.name}/faults", f"fault:{kind}:{op}",
                                self.transfer_clock.now(), cat="fault",
                                what=what)
        detail = f" ({what})" if what else ""
        if kind == "oom":
            raise DeviceOOMError(
                f"device {self.name}: out of memory during {op}{detail} [injected]"
            )
        raise KernelFaultError(
            f"device {self.name}: kernel fault during {op}{detail} [injected]"
        )

    # ------------------------------------------------------------- memory
    def alloc(self, name: str, host_array: np.ndarray, host_time: float = 0.0) -> DeviceBuffer:
        """Allocate + copy ``host_array`` to the device (charged H2D)."""
        buf = self.alloc_empty(name, np.shape(host_array))
        buf.array[...] = host_array
        logger.debug("%s: alloc %r (%.3f MB, %.3f MB total)",
                     self.name, name, buf.nbytes / 1e6, self.allocated_bytes / 1e6)
        self._charge_transfer(buf.nbytes, host_time, "h2d", name)
        return buf

    def alloc_empty(self, name: str, shape: tuple[int, ...]) -> DeviceBuffer:
        """Allocate without an H2D copy (like ``CUDA.zeros``)."""
        if name in self.buffers:
            raise CodegenError(f"device buffer {name!r} already allocated")
        self._maybe_inject("alloc", what=name)
        self._reserve(8 * math.prod(shape))
        buf = DeviceBuffer(name, np.zeros(shape, dtype=np.float64), on_device=True)
        self.buffers[name] = buf
        return buf

    def workspace(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """Device-resident scratch for kernel bodies: allocated on first use
        (no H2D, like :meth:`alloc_empty`; not an injectable ``alloc``) and
        handed out again for every later launch asking for the same shape."""
        buf = self.buffers.get(f"workspace:{name}")
        if buf is None or buf.array.shape != shape:
            self.free(f"workspace:{name}")
            self._reserve(8 * math.prod(shape))
            buf = DeviceBuffer(f"workspace:{name}", np.empty(shape), on_device=True)
            self.buffers[buf.name] = buf
        return buf.array

    def free(self, name: str) -> None:
        buf = self.buffers.pop(name, None)
        if buf is not None:
            self._reserve(-buf.nbytes)

    def _reserve(self, nbytes: int) -> None:
        """Account ``nbytes`` more (``free``: fewer) of device memory, for
        every kind of allocation; over ``spec.memory_gb`` nothing is taken."""
        total = self.allocated_bytes + nbytes
        if total > self.spec.memory_gb * 1e9:
            raise DeviceOOMError(
                f"device {self.name}: out of memory "
                f"({total / 1e9:.2f} GB > {self.spec.memory_gb} GB)"
            )
        self.allocated_bytes = total
        if self.metrics.enabled:
            self._m_allocated.set(total, device=self.name)

    def h2d(self, name: str, host_array: np.ndarray, host_time: float = 0.0) -> float:
        """Copy host data into an existing buffer; returns transfer end time."""
        buf = self._get(name)
        if buf.array.shape != host_array.shape:
            raise CodegenError(
                f"h2d {name!r}: shape mismatch {host_array.shape} -> {buf.array.shape}"
            )
        self._maybe_inject("h2d", what=name)
        buf.array[...] = host_array
        buf.on_device = True
        return self._charge_transfer(buf.nbytes, host_time, "h2d", name)

    def mark_host_dirty(self, name: str) -> None:
        """Record that the host copy was (or may have been) modified: the
        device copy is stale until the next ``h2d``.

        This flag is the ownership protocol of a device-resident array:
        whoever takes it back to the host — a host access through the
        solver state, a degraded (CPU re-executed) step — calls this, so a
        later ``d2h`` cannot silently read the superseded device data and
        the next step knows to upload.
        """
        self._get(name).on_device = False

    def swap(self, a: str, b: str) -> None:
        """Exchange the storage of two buffers (a double buffer's flip)."""
        x, y = self._get(a), self._get(b)
        x.array, y.array = y.array, x.array

    def all_finite(self, name: str, host_time: float = 0.0) -> tuple[bool, float]:
        """Finite check where the buffer lives: one launch and one 8-byte
        flag back; returns ``(flag, end_time)``.  The flag is
        :func:`repro.util.misc.sum_is_finite`: false means "look"."""
        array = self._get(name).array
        self.launch(_FINITE_CHECK, array.size, array,
                    self.workspace("finite_flag", (1,)), host_time=host_time)
        flag, end = self.d2h("workspace:finite_flag",
                             host_time=self.synchronize(host_time))
        return bool(flag[0]), end

    def d2h(self, name: str, out: np.ndarray | None = None, host_time: float = 0.0
            ) -> tuple[np.ndarray, float]:
        """Copy a buffer back to the host; returns ``(array, end_time)``."""
        buf = self._get(name)
        if not buf.on_device:
            raise DeviceResidencyError(
                f"d2h {name!r} on {self.name}: device copy is stale (the host "
                "copy was modified after the last h2d; re-upload before reading)"
            )
        end = self._charge_transfer(buf.nbytes, host_time, "d2h", name)
        if out is not None:
            out[...] = buf.array
            return out, end
        return buf.array.copy(), end

    def _get(self, name: str) -> DeviceBuffer:
        buf = self.buffers.get(name)
        if buf is None:
            raise CodegenError(f"no device buffer named {name!r}")
        return buf

    def _charge_transfer(self, nbytes: int, host_time: float,
                         kind: str = "h2d", label: str = "") -> float:
        """Advance the transfer timeline by latency + size/bandwidth."""
        self.transfer_clock.advance_to(host_time)
        start = self.transfer_clock.now()
        dt = self.spec.pcie_latency_s + nbytes / self.spec.pcie_bw_bytes()
        self.transfer_clock.advance(dt)
        self.profiler.record_transfer(nbytes, dt, kind)
        if self.metrics.enabled:
            self._m_transfer_bytes.inc(nbytes, device=self.name, direction=kind)
        if self.tracer.enabled:
            self.tracer.complete(
                f"{self.name}/transfer", f"{kind}:{label}" if label else kind,
                start, self.transfer_clock.now(), cat="transfer", bytes=nbytes,
            )
        return self.transfer_clock.now()

    # ------------------------------------------------------------ execution
    def launch(self, kernel: Kernel, n_threads: int, *args, block: int = 256,
               host_time: float = 0.0) -> KernelLaunchRecord:
        """Asynchronously run ``kernel`` over ``n_threads`` threads.

        The body runs now (so results are immediately correct); the kernel
        clock advances by the modelled duration, starting no earlier than
        ``host_time`` (a kernel cannot start before the host issued it).
        The record goes to ``profiler.launches``.
        """
        self._maybe_inject("launch", what=kernel.name)
        record = model_launch(self.spec, kernel, n_threads, block)
        # launch-queue backlog: device work still pending when the host
        # issues this launch (the overlap headroom the paper exploits)
        backlog = max(0.0, self.kernel_clock.now() - host_time)
        self.kernel_clock.advance_to(host_time)
        record.start = self.kernel_clock.now()
        kernel.body(*args)
        self.kernel_clock.advance(record.duration)
        record.end = self.kernel_clock.now()
        self.profiler.record_launch(record)
        if self.metrics.enabled:
            self._m_launches.inc(1, device=self.name, kernel=kernel.name)
            self._m_occupancy.observe(record.occupancy, device=self.name,
                                      kernel=kernel.name)
            self._m_queue_depth.set(backlog, device=self.name, stream=STREAM)
        if self.tracer.enabled:
            self.tracer.complete(
                f"{self.name}/{STREAM}", kernel.name,
                record.start, record.end, cat="kernel",
                n_threads=n_threads, block=block, bound=record.bound,
                occupancy=round(record.occupancy, 4),
                flops=record.total_flops, bytes=record.total_bytes,
            )
        return record

    def synchronize(self, host_time: float = 0.0) -> float:
        """Join host and device timelines; returns the new host time."""
        return max(host_time, self.kernel_clock.now(), self.transfer_clock.now())


__all__ = ["Device", "DeviceBuffer", "STREAM"]
