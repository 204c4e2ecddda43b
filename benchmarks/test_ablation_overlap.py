"""ABLATION — asynchronous kernel/boundary overlap (paper Fig. 6).

The hybrid step launches the interior kernel asynchronously and runs the
CPU boundary callbacks while it executes.  This ablation compares the
modelled step time with and without that overlap across device counts and
boundary-work weights, quantifying what Fig. 6's design is worth.
"""

import pytest

from repro.gpu.kernel import Kernel, model_launch
from repro.gpu.spec import A6000
from repro.perfmodel.costs import BTEWorkload, CostModel, bands_per_rank
from repro.perfmodel.machines import CASCADE_LAKE_FINCH
from repro.perfmodel.scaling import (
    DEFAULT_KERNEL_BYTES_PER_THREAD,
    DEFAULT_KERNEL_FLOPS_PER_THREAD,
)

from .conftest import format_series_table


def step_times(g: int, boundary_scale: float = 1.0):
    """(kernel, boundary, overlapped, serialised) per-step seconds at g
    devices, band-partitioned."""
    w = BTEWorkload.paper_configuration()
    cost = CostModel(CASCADE_LAKE_FINCH)
    nb = bands_per_rank(w.nbands, g)
    kernel = Kernel("interior", lambda: None,
                    flops_per_thread=DEFAULT_KERNEL_FLOPS_PER_THREAD,
                    bytes_per_thread=DEFAULT_KERNEL_BYTES_PER_THREAD)
    k = model_launch(A6000, kernel, w.ncells * w.ndirs * nb).duration
    b = boundary_scale * cost.boundary_step(w.n_boundary_faces, w.ndirs * nb)
    return k, b, max(k, b), k + b


def test_ablation_overlap_savings(record_figure):
    rows = []
    for g in (1, 2, 4, 8, 16, 55):
        k, b, ov, ser = step_times(g)
        saving = (ser - ov) / ser * 100
        rows.append([g, k * 1e3, b * 1e3, ov * 1e3, ser * 1e3, saving])
        assert ov <= ser
    record_figure(
        "ABLATION-overlap: async kernel||boundary vs serialised (per step, ms)",
        format_series_table(
            ["GPUs", "kernel", "boundary", "overlapped", "serialised", "saving %"],
            rows,
        ),
    )
    # at the paper configuration the boundary work hides completely under
    # the kernel at small device counts
    k, b, ov, _ = step_times(1)
    assert ov == pytest.approx(k)


def test_ablation_overlap_matters_most_when_balanced():
    """The saving peaks where kernel and boundary cost are comparable."""
    k0, b0, _, _ = step_times(4)
    balanced = k0 / b0  # the scale that equalises the two
    savings = []
    for scale in (0.02 * balanced, balanced, 50.0 * balanced):
        k, b, ov, ser = step_times(4, boundary_scale=scale)
        savings.append((ser - ov) / ser)
    assert savings[1] > savings[0]
    assert savings[1] > savings[2]
    # perfectly balanced saves exactly half
    assert savings[1] == pytest.approx(0.5)


def test_ablation_executed_overlap(record_figure):
    """The generated hybrid solver's timeline actually realises the
    overlap (not just the model): intensity phase == max, not sum."""
    from repro.bte.problem import build_bte_problem, hotspot_scenario

    scenario = hotspot_scenario(nx=24, ny=24, ndirs=12, n_freq_bands=10,
                                dt=1e-12, nsteps=8)
    problem, _ = build_bte_problem(scenario)
    problem.enable_gpu()
    solver = problem.generate()
    assert solver.target_name == "gpu"
    solver.run()
    records = solver.device.default_stream.records  # interior, finish, health
    kernel_total = sum(r.duration for r in records if r.kernel == solver.kernel.name)
    boundary_total = solver.namespace["COST_BOUNDARY"] * scenario.nsteps
    intensity = solver.state.gpu_phases["solve for intensity"]
    record_figure(
        "ABLATION-overlap-executed: generated hybrid timeline",
        f"kernel busy    : {kernel_total * 1e3:8.3f} ms\n"
        f"boundary (CPU) : {boundary_total * 1e3:8.3f} ms\n"
        f"intensity phase: {intensity * 1e3:8.3f} ms "
        f"(= max per step, not sum)",
    )
    assert intensity < 0.95 * (kernel_total + boundary_total)


def test_ablation_perfect_comm_hiding_is_insignificant(record_figure):
    """Paper Sec. III-D: "Further efforts to minimize communication could
    have some benefit, but would not be significant overall."  Quantify:
    even hiding *all* PCIe traffic behind compute shaves only ~1 % off the
    step."""
    from repro.perfmodel.scaling import gpu_hybrid_times

    w = BTEWorkload.paper_configuration()
    rows = []
    for g in (1, 2, 4, 8):
        st = gpu_hybrid_times(w, [g])
        total = st.total[0]
        comm = st.phases["communication"][0]
        saving = comm / total * 100
        rows.append([g, total, comm, saving])
        assert saving < 2.0  # "not significant overall"
    record_figure(
        "ABLATION-comm-hiding: upper bound of hiding all PCIe traffic",
        format_series_table(
            ["GPUs", "total [s]", "comm [s]", "max saving %"], rows
        ),
    )


def test_ablation_overlap_benchmark(benchmark):
    benchmark(lambda: [step_times(g) for g in (1, 2, 4, 8, 16, 55)])
