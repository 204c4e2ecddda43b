"""Multi-GPU distributed target: band partitioning across devices.

The paper's Figure 7: "The number of GPU devices and CPU processes is set
so that each process is paired with one device.  Partitioning between these
is the same as the band-parallel strategy."  So this is the band-partitioned
rank program with the device step in its step hole: each rank owns a
contiguous block of spectral bands and drives its own simulated device
(interior kernel over its components, overlapped with its CPU boundary
work), and the ranks couple only through the temperature update's
band-energy allreduce (Sec. III-E).  Each rank's host clock advances with
device-model kernel/transfer times plus cost-model host work and is
mirrored onto its communicator clock, so ``SPMDResult.makespan`` is the
hybrid run's virtual time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.codegen.cpu_distributed import (
    BAND_RESULT,
    CHARGE_TEMP,
    RANK_LOOPS,
    _split_components,
    bind_spmd,
)
from repro.codegen.gpu_hybrid import (
    attach_device,
    bind_kernels,
    emit_device_step,
    plan_device_step,
    step_env,
)
from repro.codegen.state import SolverState
from repro.codegen.target_base import FVTarget, GeneratedSolver, emit_step_loop
from repro.ir.build import build_ir  # noqa: F401  (the build's stages, named here)
from repro.ir.lowering import lower_conservation_form  # noqa: F401
from repro.util.errors import CodegenError

if TYPE_CHECKING:
    from repro.dsl.problem import Problem


#: The bands rank program (``cpu_distributed.RANK_LOOPS["bands"]``) with the
#: device step in its step hole: a rank is one CPU process and one device
#: (attached with the rank state), whose host clock mirrors the
#: communicator's after the temperature update's band-energy allreduce.
RANK_LOOP = dict(
    RANK_LOOPS["bands"],
    step=["device_step(state)"],
    charge=[*CHARGE_TEMP, "state.host_clock.advance_to(comm.clock.now())"],
    result=[
        *BAND_RESULT,
        "# the device's launch and transfer records: the run document's rows",
        "'device_profiler': state.device.profiler,",
    ],
    after_run=["state.device_profilers = [r['device_profiler'] for r in result.results]"],
)


class GPUMultiTarget(FVTarget):
    """Band-partitioned hybrid execution across several simulated devices."""

    name = "gpu_distributed"

    def plan(self, problem: "Problem", emitter, surface, volume) -> dict:
        cfg = problem.config
        if cfg.partition_strategy != "bands":
            raise CodegenError(
                "the multi-GPU target uses band partitioning "
                "(set_partitioning('bands', ndevices, index=...)), matching "
                "the paper's Fig. 7 configuration"
            )
        # the plan is one rank's: its largest band block per launch, the
        # interior on the device whatever the size (that is the target)
        owned_sets = _split_components(problem, cfg.nparts)
        return plan_device_step(problem, emitter, surface, volume,
                                max(len(o) for o in owned_sets), True)

    def program(self, problem: "Problem", plan: dict) -> list[str]:
        return (emit_device_step("device_step", plan, rank="state.comm.rank")
                + emit_step_loop(self.source_name, spmd=True, **RANK_LOOP))

    def bind_artifact(self, problem: "Problem", artifact) -> GeneratedSolver:
        master = SolverState(problem)
        names = artifact.static_env["KERNEL_VAR_NAMES"]
        solver = bind_spmd(self, problem, artifact, master,
                           env=step_env(problem, master, artifact.attrs),
                           prepare=lambda state, rank: attach_device(state, names, rank))
        bind_kernels(solver, artifact.attrs["kernel_spec"])
        return solver


__all__ = ["GPUMultiTarget"]
