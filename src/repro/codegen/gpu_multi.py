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

from typing import TYPE_CHECKING

import numpy as np

from repro.codegen.cpu_distributed import _band_count, _split_components
from repro.codegen.emit import ExprEmitter
from repro.codegen.gpu_hybrid import (
    DEFAULT_BYTE_FACTOR,
    DEFAULT_FLOP_FACTOR,
    _emit_device_source,
    _record_degraded,
)
from repro.codegen.state import SolverState
from repro.codegen.target_base import (
    CodegenTarget,
    GeneratedSolver,
    attach_artifact_attrs,
    source_header,
)
from repro.fvm.kernels import csr_slots
from repro.gpu.device import Device
from repro.gpu.kernel import Kernel
from repro.ir.build import build_ir
from repro.ir.lowering import lower_conservation_form
from repro.ir.nodes import print_ir
from repro.obs import get_tracer, phase_span
from repro.perfmodel.costs import CostModel
from repro.perfmodel.machines import CASCADE_LAKE_FINCH, default_gpu_spec
from repro.runtime.executor import run_spmd
from repro.runtime.netmodel import IB_CLUSTER
from repro.util.errors import CodegenError, DeviceOOMError, KernelFaultError
from repro.util.timing import VirtualClock

if TYPE_CHECKING:
    from repro.dsl.problem import Problem


_RANK_PROGRAM = '''

def rank_program(comm):
    """One rank = one CPU process + one device, owning a band block."""
    state = make_rank_state(comm.rank)
    state.comm = comm
    own = state.owned_comps
    dev = make_device(comm.rank)
    host = VirtualClock()
    trace = get_tracer()
    htrack = 'hybrid/rank%d' % comm.rank

    # device-resident buffers (geometry/coefficient tables ride in the
    # module namespace; they were sent once, like the static H2D plan)
    dev.alloc('u', state.u)
    dev.alloc_empty('u_new', state.u.shape)
    for name in KERNEL_VAR_NAMES:
        dev.alloc(name, state.fields[name.replace('var_', '')].data)

    for _ in range(RUN_NSTEPS[0]):
        t = state.time
        for cb in PRE_STEP_CALLBACKS:
            with state.profile_scope('pre_step'):
                cb.fn(state)

        # H2D: the unknown + the refreshed closure fields; device faults
        # (OOM / kernel fault) degrade the step onto the host CPU below
        faulted = None
        mark = host.now()
        try:
            end = dev.h2d('u', state.u, mark)
            for name in KERNEL_VAR_NAMES:
                end = max(end, dev.h2d(name, state.fields[name.replace('var_', '')].data, mark))
            host.advance_to(end)
            trace.complete(htrack, 'h2d', mark, host.now(), cat='transfer')
            comm.compute(host.now() - mark, phase='communication')

            # asynchronous interior kernel over the owned components,
            # overlapped with the CPU boundary contribution (Fig. 6)
            mark = host.now()
            kernel_args = [dev.buffers['u'].array] \\
                + [dev.buffers[n].array for n in KERNEL_VAR_NAMES] \\
                + [dev.buffers['u_new'].array, dev.workspace]
            with state.profile_scope('solve'):
                dev.launch(KERNEL, len(own) * NCELLS, *kernel_args, own,
                           host_time=mark)
        except GPU_FAULTS as exc:
            faulted = exc
            mark = host.now()
        with state.profile_scope('boundary'), trace_phase('boundary'):
            du_bdry = compute_boundary_contribution(state, state.u, t)
        host.advance(COST_BOUNDARY[comm.rank])
        trace.complete(htrack, 'boundary_callbacks', mark, host.now(), cat='phase')
        u_new = state.buffer('u_new', state.u.shape)
        if faulted is None:
            sync_time = dev.synchronize(host.now())
            if sync_time > host.now():
                trace.complete(htrack, 'sync_wait', host.now(), sync_time, cat='sync')
            host.advance_to(sync_time)
            comm.compute(host.now() - mark, phase='solve for intensity')

            # fetch and combine (owned rows only)
            mark = host.now()
            u_new, end = dev.d2h('u_new', out=u_new, host_time=mark)
            host.advance_to(end)
            trace.complete(htrack, 'd2h', mark, host.now(), cat='transfer')
            comm.compute(host.now() - mark, phase='communication')
        else:
            # graceful degradation: the same generated kernel body over the
            # host arrays (bit-identical result), charged at the CPU rate
            record_degraded('interior_update', dev.name, 'cpu',
                            type(faulted).__name__, rank=comm.rank,
                            step=state.step_index)
            with state.profile_scope('solve'):
                interior_kernel(state.u,
                                *[state.fields[n.replace('var_', '')].data
                                  for n in KERNEL_VAR_NAMES],
                                u_new, state.buffer, own)
            host.advance(COST_INTERIOR_CPU[comm.rank])
            trace.complete(htrack, 'interior_update[degraded:cpu]', mark,
                           host.now(), cat='fault',
                           reason=type(faulted).__name__)
            comm.compute(host.now() - mark, phase='solve for intensity')
        state.sanitize_kernel_output(KERNEL.name, u_new[own])
        state.u[own] = u_new[own] + state.dt * du_bdry[own]

        # CPU temperature update; its band-energy allreduce advances the
        # communicator clock itself — mirror that back onto the host
        for cb in POST_STEP_CALLBACKS:
            with state.profile_scope('post_step'), trace_phase('post_step'):
                cb.fn(state)
        comm.compute(COST_TEMP[comm.rank], phase='temperature update')
        host.advance_to(comm.clock.now())

        state.time += state.dt
        state.step_index += 1
        state.observe_step()
        state.sanitize_step()
        state.maybe_checkpoint()
        state.maybe_rebalance()

    T = state.extra.get('T')
    return {
        'u_owned': state.u[own].copy(),
        'T': None if T is None else np.asarray(T).copy(),
        'device_profile': dev.profiler.report(KERNEL.name),
        # the full per-launch profiler, for the per-kernel rows of the
        # run report's gpu section and the repro.profile/1 artifact
        'device_profiler': dev.profiler,
        'timers': state.timers,
    }


def step_once(state):
    run_steps(state, 1)


def run_steps(state, nsteps):
    RUN_NSTEPS[0] = nsteps
    state.log_run_event('run.start', target='gpu_multi',
                        nsteps=nsteps, nranks=NPARTS)
    if ELASTIC is None:
        result = run_spmd(NPARTS, rank_program, NETWORK,
                          heartbeat_s=HEARTBEAT_S)
    else:
        result = ELASTIC.run(rank_program, nsteps, RUN_NSTEPS)
    merge_results(state, result, nsteps)
    state.spmd_result = result
    state.device_profiles = [r['device_profile'] for r in result.results]
    state.device_profilers = [r['device_profiler'] for r in result.results]
    state.check_health()
    state.log_run_event('run.end', target='gpu_multi',
                        makespan_s=result.makespan)
    return state
'''


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
        from repro.codegen.gpu_hybrid import _reject_reconstructions

        _reject_reconstructions(form)
        ir = build_ir(problem, form, flavor="gpu")
        emitter = ExprEmitter(problem, form, var_mode="local")

        machine = problem.extra.get("machine_rates", CASCADE_LAKE_FINCH)
        cost = CostModel(machine)
        ncomp = unknown.space.ncomp
        ncells = problem.mesh.ncells

        owned_sets = _split_components(problem, nparts)
        nbands = _band_count(problem)
        ndirs = max(1, ncomp // max(nbands, 1))
        n_comp_max = max(len(o) for o in owned_sets)

        surface = emitter.emit_sum(form.surface_terms, "surface")
        volume = emitter.emit_sum(form.volume_terms, "volume")
        # faces_per_cell needs the face count; compute it from a throwaway
        # geometry-bearing state (the same one the cost terms need below)
        probe = SolverState(problem)
        geom = probe.geom
        faces_per_cell = 2.0 * geom.nfaces / geom.ncells
        flop_factor = float(problem.extra.get("gpu_flop_factor", DEFAULT_FLOP_FACTOR))
        byte_factor = float(problem.extra.get("gpu_byte_factor", DEFAULT_BYTE_FACTOR))
        flops_per_dof = (
            faces_per_cell * (surface.flops + 2) + volume.flops + 3
        ) * flop_factor
        bytes_per_dof = (
            faces_per_cell * surface.bytes_per_value / 2.0 + volume.bytes_per_value
        ) * byte_factor

        lines = source_header("gpu_multi", problem, print_ir(ir))
        lines.append(f"# band partitioning across {nparts} device(s); each rank")
        lines.append("# pairs one CPU process with one GPU (paper Fig. 7)")
        lines += _emit_device_source(problem, emitter)
        lines.append(_RANK_PROGRAM)
        source = "\n".join(lines) + "\n"

        known_vars = emitter.referenced_known_variables()

        static: dict = dict(emitter.component_tables())
        static["NCOMP"] = ncomp
        static["NCELLS"] = ncells
        static["NPARTS"] = nparts
        static["KERNEL_VAR_NAMES"] = [f"var_{n}" for n in known_vars]
        # per-rank cost vectors (each rank's clock advances by its own band
        # block's work — the elastic runtime rewrites these on migration)
        boundary_costs, temp_costs, interior_costs = _gpu_rank_costs(
            cost, geom.boundary_face_count(), ncells, owned_sets, ndirs
        )
        static["COST_BOUNDARY"] = boundary_costs
        static["COST_TEMP"] = temp_costs
        static["COST_INTERIOR_CPU"] = interior_costs

        return self.make_artifact(
            problem, source,
            static_env=static,
            attrs={
                "ir": ir,
                "classified_form": form,
                "expanded_expr": expanded,
                "kernel_spec": {
                    "name": f"{unknown.name}_interior_step",
                    "flops_per_thread": flops_per_dof,
                    "bytes_per_thread": bytes_per_dof,
                },
            },
        )

    def bind_artifact(self, problem: "Problem", artifact) -> GeneratedSolver:
        cfg = problem.config
        master = SolverState(problem)
        geom = master.geom
        spec = cfg.gpu_spec or default_gpu_spec()
        network = problem.extra.get("network_model", IB_CLUSTER)
        # shared box: the elastic runtime swaps the owned sets mid-run;
        # make_rank_state and the merger read the box, not a fixed list
        owned_box = [_split_components(problem, cfg.nparts)]
        int_faces = np.flatnonzero(geom.interior_mask)

        env: dict = dict(artifact.static_env)
        env["RUN_NSTEPS"] = [cfg.nsteps]
        env["DT"] = cfg.dt  # runtime-bound: not part of the cache key
        env["NETWORK"] = network
        env["OWNER_INT"] = geom.owner[int_faces]
        env["NEIGH_INT"] = geom.neighbor[int_faces]
        env["NORMALS_INT"] = geom.normal[int_faces]
        env["FACEDIST_INT"] = geom.face_dist[int_faces]
        env["DIV_INT"] = csr_slots(geom.divergence[:, int_faces])
        env["DIV_BDRY"] = csr_slots(geom.divergence[:, geom.bfaces])
        env["BFACE_SLOT"] = geom.bface_slot
        env["PRE_STEP_CALLBACKS"] = list(problem.pre_step_callbacks)
        env["POST_STEP_CALLBACKS"] = list(problem.post_step_callbacks)
        env["GPU_FAULTS"] = (DeviceOOMError, KernelFaultError)
        env["record_degraded"] = _record_degraded
        env["run_spmd"] = run_spmd
        env["VirtualClock"] = VirtualClock
        env["get_tracer"] = get_tracer
        env["trace_phase"] = phase_span

        controller = _make_gpu_controller(problem, owned_box, network, geom)

        def make_rank_state(rank: int) -> SolverState:
            st = SolverState(problem)
            st.owned_comps = owned_box[0][rank]
            if controller is not None:
                controller.prepare_rank_state(st)
            return st

        def make_device(rank: int) -> Device:
            return Device(spec, name=f"gpu{rank}:{spec.name}")

        def merge_results(state: SolverState, result, nsteps: int) -> None:
            owned_sets = owned_box[0]
            for rank, out in enumerate(result.results):
                state.u[owned_sets[rank]] = out["u_owned"]
            if result.results and result.results[0]["T"] is not None:
                state.extra["T"] = result.results[0]["T"]
            state.time += state.dt * nsteps
            state.step_index += nsteps

        env["make_rank_state"] = make_rank_state
        env["make_device"] = make_device
        env["merge_results"] = merge_results
        env["ELASTIC"] = controller
        env["HEARTBEAT_S"] = problem.extra.get("heartbeat_s")

        solver = GeneratedSolver(
            self.name, artifact.source, env, master,
            code=artifact.code, module_name=artifact.module_name,
        )
        if artifact.code is None:
            artifact.code = solver.code
        kspec = artifact.attrs["kernel_spec"]
        kernel = Kernel(
            kspec["name"],
            body=solver.namespace["interior_kernel"],
            flops_per_thread=kspec["flops_per_thread"],
            bytes_per_thread=kspec["bytes_per_thread"],
        )
        solver.namespace["KERNEL"] = kernel
        solver.kernel = kernel
        solver.task_timer_map = {
            "interior_update": "solve",
            "boundary_callbacks": "boundary",
            "post_step_callbacks": "post_step",
        }
        attach_artifact_attrs(solver, artifact)
        if controller is not None:
            # the namespace is rebuilt by recompile(); partition swaps must
            # rewrite the live dict, so hand it over post-construction
            controller.attach(solver.namespace)
        return solver


def _gpu_rank_costs(cost: CostModel, n_bfaces: int, ncells: int, owned_sets,
                    ndirs: int):
    """Per-rank (boundary, temperature, degraded-interior) virtual costs."""
    boundary = [cost.boundary_step(n_bfaces, len(o)) for o in owned_sets]
    temp = [
        cost.newton_step(ncells)
        + cost.iobeta_step(ncells, max(1, len(o) // ndirs))
        for o in owned_sets
    ]
    interior = [cost.intensity_step(ncells, len(o)) for o in owned_sets]
    return boundary, temp, interior


def _make_gpu_controller(problem: "Problem", owned_box: list, network, geom):
    """The multi-GPU target's :class:`ElasticRunner` (``rebalance`` extra)."""
    extra = problem.extra
    if not extra.get("rebalance"):
        return None
    from repro.runtime.rebalance import ElasticRunner, RebalancePolicy

    cfg = problem.config
    cost = CostModel(extra.get("machine_rates", CASCADE_LAKE_FINCH))
    ncomp = problem.unknown.space.ncomp
    ncells = problem.mesh.ncells
    nbands = _band_count(problem)
    ndirs = max(1, ncomp // max(nbands, 1))
    n_bfaces = geom.boundary_face_count()

    def repartition(nranks: int, weights):
        return _split_components(problem, nranks, weights)

    def install(owned_sets, namespace):
        owned_box[0] = owned_sets
        boundary, temp, interior = _gpu_rank_costs(
            cost, n_bfaces, ncells, owned_sets, ndirs)
        namespace["COST_BOUNDARY"] = boundary
        namespace["COST_TEMP"] = temp
        namespace["COST_INTERIOR_CPU"] = interior
        namespace["NPARTS"] = len(owned_sets)

    policy = RebalancePolicy(
        heartbeat_s=extra.get("heartbeat_s"),
        imbalance_threshold=float(extra.get("imbalance_threshold", 1.5)),
        check_every=int(extra.get("rebalance_check_every", 4)),
        max_rebalances=int(extra.get("max_rebalances", 1)),
    )
    return ElasticRunner(
        policy=policy, nranks=cfg.nparts, axis="comps",
        repartition=repartition, install=install,
        owned_of=lambda owned_sets: owned_sets, current=owned_box[0],
        network=network, state_bytes=ncomp * ncells * 8,
        workdir=extra.get("checkpoint_dir"),
    )


__all__ = ["GPUMultiTarget"]
