"""Simulated GPU device: memory, transfers, async launch semantics."""

import numpy as np
import pytest

from repro.gpu.device import Device
from repro.gpu.kernel import Kernel
from repro.gpu.spec import A100, A6000, LAPTOP_GPU
from repro.util.errors import CodegenError


def saxpy_kernel():
    def body(x, y):
        y[...] = 2.0 * x + 1.0

    return Kernel("saxpy", body, flops_per_thread=2, bytes_per_thread=24)


class TestMemory:
    def test_alloc_copies(self):
        dev = Device(LAPTOP_GPU)
        host = np.arange(10.0)
        buf = dev.alloc("x", host)
        host[0] = 99.0
        assert buf.array[0] == 0.0  # device copy is independent

    def test_duplicate_name_rejected(self):
        dev = Device(LAPTOP_GPU)
        dev.alloc("x", np.zeros(4))
        with pytest.raises(CodegenError):
            dev.alloc("x", np.zeros(4))

    def test_oom(self):
        dev = Device(LAPTOP_GPU)  # 4 GB
        with pytest.raises(CodegenError, match="out of memory"):
            dev.alloc("big", np.zeros(int(5e9 // 8)))

    def test_free_releases(self):
        dev = Device(LAPTOP_GPU)
        dev.alloc("x", np.zeros(1000))
        used = dev.allocated_bytes
        dev.free("x")
        assert dev.allocated_bytes == used - 8000

    def test_h2d_shape_check(self):
        dev = Device(LAPTOP_GPU)
        dev.alloc("x", np.zeros(4))
        with pytest.raises(CodegenError, match="shape"):
            dev.h2d("x", np.zeros(5))

    def test_d2h_returns_copy_and_time(self):
        dev = Device(LAPTOP_GPU)
        dev.alloc("x", np.arange(4.0))
        arr, end = dev.d2h("x")
        assert np.allclose(arr, [0, 1, 2, 3])
        assert end > 0.0

    def test_unknown_buffer(self):
        dev = Device(LAPTOP_GPU)
        with pytest.raises(CodegenError):
            dev.d2h("ghost")


class TestTransfersTiming:
    def test_transfer_time_latency_plus_bandwidth(self):
        dev = Device(LAPTOP_GPU)
        n = 1_000_000
        dev.alloc_empty("x", (n,))
        start = dev.transfer_clock.now()
        end = dev.h2d("x", np.zeros(n))
        expected = LAPTOP_GPU.pcie_latency_s + n * 8 / LAPTOP_GPU.pcie_bw_bytes()
        assert end - start == pytest.approx(expected)

    def test_profiler_accumulates_transfers(self):
        dev = Device(LAPTOP_GPU)
        dev.alloc("x", np.zeros(1000))
        dev.d2h("x")
        rep = dev.profiler.report()
        assert rep.transfer_bytes == 2 * 8000


class TestLaunchSemantics:
    def test_kernel_executes_body(self):
        dev = Device(A6000)
        x = np.arange(100.0)
        dev.alloc("x", x)
        dev.alloc_empty("y", (100,))
        dev.launch(saxpy_kernel(), 100, dev.buffers["x"].array, dev.buffers["y"].array)
        assert np.allclose(dev.buffers["y"].array, 2 * x + 1)

    def test_async_launch_does_not_block_host(self):
        dev = Device(A6000)
        dev.alloc_empty("y", (1000,))
        dev.alloc("x", np.zeros(1000))
        rec = dev.launch(
            saxpy_kernel(), 1000, dev.buffers["x"].array, dev.buffers["y"].array,
            host_time=1.0,
        )
        assert rec.start == 1.0  # kernel cannot start before issued
        # host may proceed; synchronise joins timelines
        assert dev.synchronize(host_time=1.0) >= rec.end

    def test_synchronize_takes_max_of_timelines(self):
        dev = Device(A6000)
        assert dev.synchronize(host_time=5.0) == 5.0

    def test_block_must_be_warp_multiple(self):
        dev = Device(A6000)
        dev.alloc("x", np.zeros(10))
        dev.alloc_empty("y", (10,))
        with pytest.raises(CodegenError, match="warp"):
            dev.launch(saxpy_kernel(), 10, dev.buffers["x"].array,
                       dev.buffers["y"].array, block=100)

    def test_stream_records(self):
        dev = Device(A6000)
        dev.alloc("x", np.zeros(10))
        dev.alloc_empty("y", (10,))
        dev.launch(saxpy_kernel(), 10, dev.buffers["x"].array, dev.buffers["y"].array)
        assert len(dev.default_stream.records) == 1
        assert dev.default_stream.records[0].kernel == "saxpy"


class TestSpecs:
    def test_a6000_fp64_is_fraction_of_fp32(self):
        assert A6000.fp64_peak_gflops == pytest.approx(A6000.fp32_peak_gflops / 64, rel=1e-3)

    def test_a100_has_strong_fp64(self):
        assert A100.fp64_peak_gflops > A6000.fp64_peak_gflops

    def test_max_resident_threads(self):
        assert A6000.max_resident_threads() == 84 * 1536
