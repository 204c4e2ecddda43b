"""Multi-GPU distributed target: band partitioning across devices.

This is the configuration of the paper's Figure 7: "The number of GPU
devices and CPU processes is set so that each process is paired with one
device.  Partitioning between these is the same as the band-parallel
strategy."  Each rank owns a contiguous block of spectral bands, drives its
own simulated device (interior kernel over its components, asynchronous,
overlapped with its CPU boundary work), and the ranks couple only through
the temperature update's band-energy allreduce — band partitioning's
advantage "when working across multiple GPUs, where communication between
devices can be particularly expensive" (Sec. III-E).

Correctness: rank programs exchange real data and must agree bitwise-ish
with the serial solver (tested).  Timing: each rank's host clock advances
with device-model kernel/transfer times plus cost-model host work, and is
mirrored onto its communicator clock, so ``SPMDResult.makespan`` is the
hybrid run's virtual time.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from repro.codegen.cpu_distributed import (
    BAND_RESULT,
    CHARGE_TEMP,
    _band_count,
    _split_components,
    band_temperature_costs,
    bind_spmd,
)
from repro.codegen.emit import ExprEmitter
from repro.codegen.gpu_hybrid import (
    DEVICE_TASK_TIMERS,
    _emit_device_source,
    _reject_reconstructions,
    attach_device,
    bind_kernels,
    emit_device_step,
    plan_device_step,
    plan_header,
    step_env,
)
from repro.codegen.state import SolverState
from repro.codegen.target_base import (
    CodegenTarget,
    GeneratedSolver,
    emit_step_loop,
    source_header,
)
from repro.gpu.device import Device
from repro.ir.build import build_ir
from repro.ir.lowering import lower_conservation_form
from repro.ir.nodes import print_ir
from repro.perfmodel.costs import CostModel
from repro.perfmodel.machines import CASCADE_LAKE_FINCH, default_gpu_spec
from repro.util.errors import CodegenError

if TYPE_CHECKING:
    from repro.dsl.problem import Problem


#: The holes of the rank program (:func:`emit_step_loop`): one rank = one
#: CPU process + one device, owning a band block.
RANK_LOOP = dict(
    doc=['"""One rank = one CPU process + one device, owning a band block."""'],
    prologue=[
        "owned = state.owned_comps",
        "# device-resident buffers (geometry/coefficient tables ride in the",
        "# module namespace; they were sent once, like the static H2D plan)",
        "dev = attach_device(state, make_device(comm.rank), KERNEL_VAR_NAMES,",
        "                    'hybrid/rank%d' % comm.rank)",
        "host = state.host_clock",
    ],
    step=["device_step(state)"],
    post_args=True,
    charge=[
        "# the temperature update's band-energy allreduce advanced the",
        "# communicator clock itself — mirror that back onto the host",
        *CHARGE_TEMP,
        "host.advance_to(comm.clock.now())",
    ],
    result=[
        *BAND_RESULT,
        "'device_profile': dev.profiler.report(KERNEL.name),",
        "# the full per-launch profiler, for the per-kernel rows of the",
        "# run report's gpu section and the repro.profile/1 artifact",
        "'device_profiler': dev.profiler,",
    ],
    after_run=[
        "state.device_profiles = [r['device_profile'] for r in result.results]",
        "state.device_profilers = [r['device_profiler'] for r in result.results]",
    ],
)


class GPUMultiTarget(CodegenTarget):
    """Band-partitioned hybrid execution across several simulated devices."""

    name = "gpu_distributed"

    def build_artifact(self, problem: "Problem"):
        if problem.equation is None:
            raise CodegenError("no conservation_form declared")
        cfg = problem.config
        if cfg.partition_strategy != "bands":
            raise CodegenError(
                "the multi-GPU target uses band partitioning "
                "(set_partitioning('bands', ndevices, index=...)), matching "
                "the paper's Fig. 7 configuration"
            )
        if cfg.stepper not in ("euler", "euler_explicit"):
            raise CodegenError(
                "the multi-GPU target implements the paper's forward-Euler "
                f"scheme; got {cfg.stepper!r}"
            )
        nparts = cfg.nparts
        unknown = problem.unknown
        expanded, form = lower_conservation_form(
            problem.equation.source, unknown, problem.entities, problem.operators
        )
        _reject_reconstructions(form)
        emitter = ExprEmitter(problem, form, var_mode="local")

        owned_sets = _split_components(problem, nparts)
        # the plan is one rank's: its largest band block per launch, the
        # interior on the device whatever the size (that is the target)
        probe = SolverState(problem)
        plan = plan_device_step(problem, probe, emitter,
                                max(len(o) for o in owned_sets), True)
        ir = build_ir(problem, form, flavor="gpu", transfers=plan["transfer_plan"])

        lines = source_header("gpu_multi", problem, print_ir(ir))
        lines.append(f"# band partitioning across {nparts} device(s); each rank")
        lines.append("# pairs one CPU process with one GPU (paper Fig. 7)")
        lines += plan_header(plan)
        lines += _emit_device_source(problem, emitter)
        lines += emit_device_step(
            "device_step", plan,
            ["dev.launch(KERNEL, len(own) * NCELLS, *kernel_args, own,",
             "           host_time=launch_time)"],
            rank="state.comm.rank")
        lines += emit_step_loop("gpu_multi", spmd=True, **RANK_LOOP)
        source = "\n".join(lines) + "\n"

        return self.make_artifact(
            problem, source,
            static_env={
                **emitter.component_tables(),
                "NCOMP": unknown.space.ncomp,
                "NCELLS": problem.mesh.ncells,
                "NPARTS": nparts,
                "KERNEL_VAR_NAMES": [
                    f"var_{n}" for n in emitter.referenced_known_variables()],
                **_rank_costs(problem, probe.geom)(owned_sets),
            },
            attrs={"ir": ir, "classified_form": form, "expanded_expr": expanded,
                   **plan},
        )

    def bind_artifact(self, problem: "Problem", artifact) -> GeneratedSolver:
        master = SolverState(problem)
        geom = master.geom
        spec = problem.config.gpu_spec or default_gpu_spec()

        def make_device(rank: int) -> Device:
            return Device(spec, name=f"gpu{rank}:{spec.name}")

        solver = bind_spmd(
            self, problem, artifact, master,
            _split_components(problem, problem.config.nparts), axis="comps",
            repartition=partial(_split_components, problem),
            tables=_rank_costs(problem, geom),
            env={**step_env(problem, geom, artifact.attrs),
                 "attach_device": attach_device, "make_device": make_device})
        bind_kernels(solver, artifact.attrs["kernel_spec"])
        solver.task_timer_map = DEVICE_TASK_TIMERS
        return solver


def _rank_costs(problem: "Problem", geom):
    """``tables(owned_sets)``: per-rank (boundary, temperature,
    degraded-interior) virtual cost vectors — each rank's clock advances by
    its own band block's work; the elastic runtime rewrites them on
    migration."""
    cost = CostModel(problem.extra.get("machine_rates", CASCADE_LAKE_FINCH))
    ncomp, ncells = problem.unknown.space.ncomp, problem.mesh.ncells
    ndirs = max(1, ncomp // max(_band_count(problem), 1))
    n_bfaces = geom.boundary_face_count()

    def tables(owned_sets):
        return {
            "COST_BOUNDARY": [cost.boundary_step(n_bfaces, len(o)) for o in owned_sets],
            "COST_TEMP": band_temperature_costs(cost, ncells, owned_sets, ndirs),
            "COST_INTERIOR_CPU": [cost.intensity_step(ncells, len(o)) for o in owned_sets],
        }

    return tables


__all__ = ["GPUMultiTarget"]
