"""Typed device faults: genuine OOM, injected OOM/kernel faults, residency."""

import numpy as np
import pytest

from repro.gpu.device import Device
from repro.gpu.kernel import Kernel
from repro.gpu.spec import A6000, LAPTOP_GPU
from repro.runtime.faults import fault_run
from repro.runtime.resilience import get_resilience_log
from repro.util.errors import (
    CodegenError,
    DeviceOOMError,
    DeviceResidencyError,
    KernelFaultError,
)


def noop_kernel():
    def body(x):
        x[...] = 1.0

    return Kernel("noop", body, flops_per_thread=1, bytes_per_thread=8)


class TestTypedOOM:
    def test_over_allocation_raises_typed_oom(self):
        dev = Device(LAPTOP_GPU)  # 4 GB
        with pytest.raises(DeviceOOMError, match="out of memory"):
            dev.alloc("big", np.zeros(int(5e9 // 8)))

    def test_every_kind_of_allocation_enforces_the_limit(self):
        """``alloc_empty`` and ``workspace`` draw on the same 4 GB as
        ``alloc``; a refused request takes nothing and registers nothing."""
        big = (int(3e9 // 8),)
        dev = Device(LAPTOP_GPU)
        dev.alloc_empty("a", big)
        for attempt in (lambda: dev.alloc_empty("b", big),
                        lambda: dev.workspace("w", big),
                        lambda: dev.alloc("c", np.broadcast_to(0.0, big))):
            with pytest.raises(DeviceOOMError, match="out of memory"):
                attempt()
        assert dev.allocated_bytes == 8 * big[0] and set(dev.buffers) == {"a"}

    def test_free_is_the_inverse_and_a_resized_workspace_is_counted_once(self):
        dev = Device(LAPTOP_GPU)
        dev.workspace("w", (1000,))
        dev.workspace("w", (int(3e9 // 8),))  # replaces the small one
        assert dev.allocated_bytes == 8 * int(3e9 // 8)
        with pytest.raises(DeviceOOMError):
            dev.alloc_empty("x", (int(2e9 // 8),))
        dev.free("workspace:w")
        assert dev.allocated_bytes == 0
        dev.alloc_empty("x", (int(2e9 // 8),))  # now it fits

    def test_typed_oom_is_still_a_codegen_error(self):
        # callers that catch the historical CodegenError keep working
        assert issubclass(DeviceOOMError, CodegenError)
        assert issubclass(KernelFaultError, CodegenError)
        assert issubclass(DeviceResidencyError, CodegenError)


class TestResidencyGuard:
    def test_d2h_of_host_dirty_buffer_raises(self):
        dev = Device(A6000)
        dev.alloc("x", np.arange(4.0))
        dev.mark_host_dirty("x")
        with pytest.raises(DeviceResidencyError, match="x"):
            dev.d2h("x")

    def test_h2d_restores_residency(self):
        dev = Device(A6000)
        dev.alloc("x", np.arange(4.0))
        dev.mark_host_dirty("x")
        dev.h2d("x", np.full(4, 7.0))
        arr, _ = dev.d2h("x")
        assert np.allclose(arr, 7.0)

    def test_unknown_buffer_still_a_codegen_error(self):
        dev = Device(A6000)
        with pytest.raises(CodegenError):
            dev.mark_host_dirty("ghost")


class TestOnDeviceHelpers:
    def test_swap_exchanges_storage_not_residency(self):
        dev = Device(A6000)
        dev.alloc("a", np.zeros(3))
        dev.alloc("b", np.ones(3))
        dev.mark_host_dirty("a")
        dev.swap("a", "b")
        assert dev.buffers["a"].array[0] == 1.0 and dev.buffers["b"].array[0] == 0.0
        assert not dev.buffers["a"].on_device and dev.buffers["b"].on_device

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_all_finite_is_one_launch_and_one_flag(self, bad):
        dev = Device(A6000)
        dev.alloc("x", np.arange(12.0).reshape(3, 4))
        moved = len(dev.profiler.transfers)
        finite, end = dev.all_finite("x", host_time=1.0)
        assert finite and end > 1.0
        assert len(dev.profiler.launches) == 1
        (flag,) = dev.profiler.transfers[moved:]
        assert (flag.kind, flag.nbytes) == ("d2h", 8)
        dev.buffers["x"].array[1, 2] = bad
        assert not dev.all_finite("x")[0]


class TestInjectedDeviceFaults:
    def test_injected_alloc_oom(self):
        with fault_run("oom:device=gpu0,op=alloc,at=1"):
            dev = Device(A6000, name="gpu0")
            with pytest.raises(DeviceOOMError, match="injected"):
                dev.alloc("x", np.zeros(8))
            assert get_resilience_log().injected == {"oom": 1}

    def test_injected_h2d_oom(self):
        with fault_run("oom:device=gpu0,op=h2d,at=1"):
            dev = Device(A6000, name="gpu0")
            dev.alloc("x", np.zeros(8))  # op filter: alloc is untouched
            with pytest.raises(DeviceOOMError):
                dev.h2d("x", np.ones(8))

    def test_injected_kernel_fault_on_launch(self):
        with fault_run("kernel:device=gpu0,op=launch,at=1"):
            dev = Device(A6000, name="gpu0")
            dev.alloc("x", np.zeros(64))
            with pytest.raises(KernelFaultError, match="noop"):
                dev.launch(noop_kernel(), 64, dev.buffers["x"].array)

    def test_device_name_substring_match(self):
        with fault_run("oom:device=gpu1,op=alloc,at=1"):
            dev0 = Device(A6000, name="gpu0:NVIDIA RTX A6000")
            dev1 = Device(A6000, name="gpu1:NVIDIA RTX A6000")
            dev0.alloc("x", np.zeros(8))  # other device: unaffected
            with pytest.raises(DeviceOOMError):
                dev1.alloc("x", np.zeros(8))

    def test_no_injection_outside_fault_run(self):
        dev = Device(A6000, name="gpu0")
        dev.alloc("x", np.zeros(8))
        dev.h2d("x", np.ones(8))
        dev.launch(noop_kernel(), 64, np.zeros(64))
