"""FIG8 — execution-time breakdown of the GPU-accelerated version (Fig. 8).

Paper: compared with the CPU breakdown (Fig. 5), the GPU version shows "a
substantially larger percentage of time spent on the temperature update"
(the intensity solve got ~40x faster, the CPU post-step did not), while
"the communication time between the GPU and host does not make up a very
significant portion of the time despite the need for communicating
variables at each time step".
"""

import pytest

from repro.bte import build_bte_problem, hotspot_scenario
from repro.perfmodel import BTEWorkload
from repro.perfmodel.scaling import (
    PHASE_COMMUNICATION,
    PHASE_INTENSITY,
    PHASE_TEMPERATURE,
    band_parallel_times,
    gpu_hybrid_times,
)

from .conftest import format_series_table

DEVICES = [1, 2, 4, 8]


@pytest.fixture(scope="module")
def breakdowns():
    w = BTEWorkload.paper_configuration()
    return gpu_hybrid_times(w, DEVICES), band_parallel_times(w, DEVICES)


def test_fig8_breakdown(breakdowns, record_figure):
    gpu, cpu = breakdowns
    rows = []
    for g in DEVICES:
        fr = gpu.breakdown_fractions(g)
        rows.append([
            g,
            100 * fr[PHASE_INTENSITY],
            100 * fr[PHASE_TEMPERATURE],
            100 * fr[PHASE_COMMUNICATION],
        ])
    table = format_series_table(
        ["GPUs", "intensity(GPU) %", "temperature(CPU) %", "comm(CPU<->GPU) %"],
        rows,
    )
    record_figure("FIG8: GPU-accelerated execution-time breakdown", table)

    for g in DEVICES:
        fr_gpu = gpu.breakdown_fractions(g)
        fr_cpu = cpu.breakdown_fractions(g)
        # substantially larger temperature share than the CPU version
        assert fr_gpu[PHASE_TEMPERATURE] > 5 * fr_cpu[PHASE_TEMPERATURE]
        # communication remains insignificant
        assert fr_gpu[PHASE_COMMUNICATION] < 0.05


def executed_run(override=None):
    """The generated hybrid solver's own virtual timeline at nx=24."""
    scenario = hotspot_scenario(nx=24, ny=24, ndirs=12, n_freq_bands=10,
                                dt=1e-12, nsteps=10)
    problem, _ = build_bte_problem(scenario)
    problem.enable_gpu()
    if override:
        problem.extra["placement_override"] = override
    solver = problem.generate()
    assert solver.target_name == "gpu"
    solver.run()
    phases = solver.state.gpu_phases
    total = sum(phases.values())
    plan = solver.transfer_plan
    return {
        "finish_step": solver.placement.device["finish_step"],
        "shares": {k: v / total for k, v in sorted(phases.items())},
        "h2d_bytes_per_step": plan.bytes_h2d_per_step,
        "d2h_bytes_per_step": plan.bytes_d2h_per_step,
        "virtual_step_ms": 1e3 * solver.state.host_clock.now() / scenario.nsteps,
        "digest": solver.solution().tobytes(),
    }


def test_fig8_executed_hybrid_run_breakdown(record_figure):
    """The generated hybrid solver's own virtual timeline shows the same
    structure — under the paper's plan (``finish_step`` pinned to the CPU:
    the unknown down and back every step), which is what Fig. 8 measured."""
    run = executed_run({"finish_step": "cpu"})
    record_figure(
        "FIG8-executed: generated hybrid solver timeline (24x24 run)",
        "\n".join(f"{k:<22} {v * 100:6.2f}%" for k, v in run["shares"].items()),
    )
    assert run["shares"]["temperature update"] > 0.3
    assert run["shares"]["communication"] < 0.1


def test_fig8_extension_device_resident_plan(record_figure):
    """Extension, beside Fig. 8: the plan the min-cut finds once the
    reduction is a task of its own — the unknown stays on the device, only
    the boundary exchange and the band energies cross.  Same bits; fewer
    bytes, a smaller communication share, a shorter virtual step."""
    paper, resident = executed_run({"finish_step": "cpu"}), executed_run()
    assert (paper["finish_step"], resident["finish_step"]) == ("cpu", "gpu")
    rows = [[name, run["h2d_bytes_per_step"] / 1e6, run["d2h_bytes_per_step"] / 1e6,
             *(100 * v for v in run["shares"].values()), run["virtual_step_ms"]]
            for name, run in (("paper plan", paper), ("resident plan", resident))]
    record_figure(
        "FIG8-extension: paper plan vs device-resident plan (24x24 run)",
        format_series_table(
            ["plan", "h2d MB/step", "d2h MB/step", "comm %", "intensity %",
             "temperature %", "virtual ms/step"], rows),
        rows=rows,
    )
    assert resident["digest"] == paper["digest"]
    assert resident["h2d_bytes_per_step"] < 0.4 * paper["h2d_bytes_per_step"]
    assert resident["d2h_bytes_per_step"] < 0.4 * paper["d2h_bytes_per_step"]
    assert resident["shares"]["communication"] < paper["shares"]["communication"]
    assert resident["virtual_step_ms"] < paper["virtual_step_ms"]


def test_fig8_benchmark(benchmark):
    w = BTEWorkload.paper_configuration()
    benchmark(lambda: gpu_hybrid_times(w, DEVICES))
