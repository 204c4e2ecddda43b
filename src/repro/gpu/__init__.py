"""Simulated GPU device (the CUDA/CUDA.jl stand-in).

There is no physical GPU in this environment, so the hybrid code-generation
target runs its kernels on this substrate instead: numerics execute for real
(vectorised NumPy over device-resident buffers), while *timing* comes from a
roofline-style device model:

* :class:`~repro.gpu.spec.DeviceSpec` — SM count, clocks, FP64/FP32 peak,
  DRAM bandwidth, PCIe link, launch latency; presets for the paper's NVIDIA
  A6000 and A100;
* :class:`~repro.gpu.device.Device` — buffers, H2D/D2H transfers, one
  launch queue with asynchronous launch semantics, and virtual device
  timelines;
* :class:`~repro.gpu.kernel.Kernel` — a launchable with per-thread FLOP/byte
  estimates (produced by the code generator from the IR);
* :class:`~repro.gpu.profiler.Profiler` — accumulates the counters behind
  the paper's inline profiling table (SM utilisation, memory throughput,
  FLOP rate as a fraction of the double-precision roofline).

Everything the real code path would do — allocation, explicit transfers,
async launch + host overlap, synchronisation — is exercised; only the clock
is modelled.  See DESIGN.md for the substitution rationale.
"""

from repro.gpu.spec import DeviceSpec, A6000, A100, LAPTOP_GPU
from repro.gpu.device import Device, DeviceBuffer
from repro.gpu.kernel import Kernel, KernelLaunchRecord
from repro.gpu.profiler import Profiler, ProfileReport

__all__ = [
    "DeviceSpec",
    "A6000",
    "A100",
    "LAPTOP_GPU",
    "Device",
    "DeviceBuffer",
    "Kernel",
    "KernelLaunchRecord",
    "Profiler",
    "ProfileReport",
]
