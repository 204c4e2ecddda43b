"""Hybrid CPU/GPU code-generation target (paper Sec. II-B and III-D).

The step is four tasks; the min-cut placement optimiser
(:mod:`repro.codegen.placement`) — the paper's "automatically partitions
tasks between the CPU and GPU by minimizing the data movement" — decides
where the two movable ones run, and the step is emitted from its plan:

.. code-block:: text

    interior_update     flux + source + explicit update of the interior,
      (movable)         loops flattened, one thread per degree of freedom,
                        launched asynchronously: u -> u_new on the device
    boundary_callbacks  boundary part of the RHS via the user callbacks,
      (cpu)             overlapped with the kernel (Fig. 6); it reads the
                        owner values of the boundary faces (u_bdry) and
                        returns the boundary cells' columns (du_bdry)
    finish_step         u_new[:, boundary cells] += dt * du_bdry, the
      (movable)         post-step callbacks' declared reductions, and the
                        next step's u_bdry, in one C pass over the rows
                        (printed beside the tile: solver.tile.finish);
                        then u and u_new swap
    post_step_callbacks the temperature update (user callback) on the
      (cpu)             reduced array; it refreshes Io and beta

With ``finish_step`` on the device (where the optimiser puts it once the
unknown outweighs three small transfers) the unknown never leaves: a step
moves ``Io``, ``beta``, ``du_bdry`` down and the reductions and ``u_bdry``
up, and keeps the finish's proof that the unknown is finite (its launch's
``result``, a function of those reductions) for ``check_health``.  Pinned
to the CPU (``placement_override={"finish_step": "cpu"}``) the same C
function runs on the host arrays after a ``d2h`` of ``u_new`` — the
paper's "one example configuration", the unknown crossing both ways every
step — as it does in a step a device fault degrades (a function of the
program's one library, the tile's, bound by :func:`step_env`).
Either way the device owns the unknown only while ``buffers['u'].on_device``:
any host access takes it back (:meth:`SolverState.claim_unknown`) and the
next step uploads it again.  The kernel is handed the state it runs for
and reads its tables, ``dt`` and argument memo as ``compute_rhs`` does: each
``gpu_distributed`` rank builds its own.  The plan and transfer schedule
are attached to the solver (``solver.placement``, ``solver.transfer_plan``);
user callbacks are pinned to the CPU.  When the optimiser keeps ``interior_update`` on the
host too — tiny problems — every task is on the CPU, and the plan emits the
host form the ``cpu`` target emits (one emitter,
:func:`repro.codegen.emit.emit_interior`): ``compute_rhs`` with the boundary
part added in the tile, no device bound.  This module holds the plan, the
device step emitted from it, the hybrid's holes and its cost tables.

Numerics run for real on the simulated device's buffers; kernel and PCIe
times come from the device model (see DESIGN.md).  Host work is charged to
the virtual host clock via the calibrated cost model, so the per-step
timeline reproduces the overlap structure of Fig. 6.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.codegen import ctile
from repro.codegen.emit import EmittedExpr, ExprEmitter
from repro.codegen.placement import Task, TaskGraph, optimize_placement, plan_transfers
from repro.codegen.placement.transfers import ArrayUse
from repro.codegen.state import SolverState
from repro.codegen.target_base import (
    ADVANCE,
    FVTarget,
    GeneratedSolver,
    emit_step_loop,
    indent,
)
from repro.gpu.device import Device
from repro.gpu.kernel import Kernel, model_launch
from repro.ir.build import build_ir  # noqa: F401  (the build's stages, named here)
from repro.ir.lowering import lower_conservation_form  # noqa: F401
from repro.perfmodel.costs import CostModel
from repro.perfmodel.machines import CASCADE_LAKE_FINCH, default_gpu_spec
from repro.util.context import current
from repro.util.errors import CodegenError, DeviceOOMError, KernelFaultError
from repro.util.timing import VirtualClock

if TYPE_CHECKING:
    from repro.dsl.problem import Problem

#: Executed-work multipliers calibrated against the paper's Nsight profile
#: of the one-GPU BTE kernel (49 % of FP64 peak, 11 % DRAM throughput, the
#: ~18x end-to-end speedup).  The flattened one-thread-per-DOF kernel
#: executes far more device work than the integrand's minimal operation
#: count: every thread privately redoes the face loop (geometry fetch,
#: index arithmetic, projections), FP64 divides occupy many issue slots on
#: GA102, the upwind conditional splits warps, and the neighbour gathers
#: replay uncoalesced transactions.  ``problem.extra['gpu_flop_factor']``
#: overrides the flop multiplier per problem (a slower device).
DEFAULT_FLOP_FACTOR = 200.0
BYTE_FACTOR = 16.0
#: The finish kernel is one streaming pass over the unknown (read a value,
#: weight it, add it into its band): no multiplier to calibrate.
FINISH_WORK = {"name": "finish_step", "flops_per_thread": 2.0, "bytes_per_thread": 16.0}


#: which wall-clock timer measures each placement task (``finish_step``
#: shares 'solve' with the interior kernel)
DEVICE_TASK_TIMERS = {
    "interior_update": "solve",
    "boundary_callbacks": "boundary",
    "post_step_callbacks": "post_step",
}


def _reject_reconstructions(form) -> None:
    """Second-order reconstructions need gradient operators and ghost data
    the flattened device kernels do not carry — fail with guidance."""
    from repro.symbolic.expr import Reconstruction, preorder

    for term in form.surface_terms:
        if any(isinstance(n, Reconstruction) for n in preorder(term)):
            raise CodegenError(
                "flux_order(2) reconstructions are CPU-only in this "
                "reproduction; use the cpu or distributed targets"
            )


def _reject_function_coefficients(emitter: ExprEmitter) -> None:
    """A function coefficient is evaluated on the host, per step, where the
    host interior reads it; the device kernels and the boundary part they
    leave to the host are not handed it — fail with its name."""
    names = ", ".join(map(repr, emitter.function_coefficients()))
    if names:
        raise CodegenError(
            f"function coefficient {names} is evaluated on the host only: a "
            "device-placed interior_update cannot read it; use the cpu or "
            "distributed targets"
        )


def emit_device_step(name: str, plan: dict, rank: str = "") -> list[str]:
    """The device step ``name(state)``, emitted from ``plan``
    (:func:`plan_device_step`): what is uploaded when, where ``finish_step``
    runs and what comes back are read off it here, so the generated step has
    no branch on them.  ``rank`` indexes a band rank's per-rank cost tables;
    the launches cover the rank's rows (``own``) or all of them."""
    placement, transfers = plan["placement"], plan["transfer_plan"]
    reductions = [a.name for a in plan["array_uses"]
                  if "post_step_callbacks" in a.readers]
    host_of = {"du_bdry": "du_bdry", "u_bdry": "u_bdry",
               **{r: f"reduced[{i}]" for i, r in enumerate(reductions)}}

    def pairs(names: list[str]) -> str:
        return ", ".join(f"('{n}', {host_of[n]})" for n in names if n in host_of)

    def cost(table: str) -> str:
        return f"{table}[{rank}]" if rank else table

    lines = [
        f"def {name}(state):",
        '    """One hybrid step, emitted from the plan in the header of this',
        "    file (the paper's host-code sketch, Sec. II-B).",
        "",
        "    Device faults (OOM during an H2D batch, kernel launch faults) are",
        "    treated as transient: the step degrades gracefully — the host takes",
        "    the unknown back and re-executes the step with the same generated",
        "    bodies, so the numerics are identical and only the timeline pays",
        '    the CPU cost; the next step hands the unknown to the device again."""',
        "    dev = state.device",
        "    host = state.host_clock",
        "    trace = current().tracer",
        "    t = state.time",
        "    u = state.host_u  # current only while the host owns the unknown",
        "    u_bdry = state.buffer('u_bdry', (NCOMP, len(BOWNER)))",
        "    reduced = state.reduced",
        "    own = state.owned_comps  # a band-partitioned rank's rows (None: all)",
        "    sel = slice(None) if own is None else own",
        "    ndof = NCOMP * NCELLS if own is None else len(own) * NCELLS",
        "    resident = dev.buffers['u'].on_device",
        "",
        "    faulted = None",
        "    try:",
        "        # --- send the host-mutated arrays to the device --------------------",
        "        uploads = [(n, state.fields[n[4:]].data) for n in H2D_EACH_STEP]",
        "        if not resident:",
        "            # ownership handoff, host -> device: the first step, or the host",
        "            # touched the unknown; it also still has what the boundary reads",
        "            uploads.insert(0, ('u', u))",
        "            u.take(BOWNER, axis=1, out=u_bdry, mode='clip')",
        "        state.device_transfers('h2d', uploads)",
        "",
        "        # --- asynchronous interior kernel (one thread per DOF) -------------",
        "        launch_time = host.now()",
        "        kernel_args = [dev.buffers[n].array",
        "                       for n in ['u'] + KERNEL_VAR_NAMES + ['u_new']] + [dev.workspace]",
        "        with state.timers.time('solve'):",
        "            dev.launch(KERNEL, ndof, state, *kernel_args, own, host_time=launch_time)",
        "    except GPU_FAULTS as exc:",
        "        faulted = exc",
        "        launch_time = host.now()",
        "",
        "    # --- CPU boundary contribution, overlapped with the kernel (Fig. 6) ----",
        "    with state.phase('boundary'):",
        "        du_bdry = compute_boundary_contribution(state, u_bdry, t)",
        f"    host.advance({cost('COST_BOUNDARY')})",
        "    # the host-timeline boundary span sits under the device kernel span —",
        "    # the paper's Fig. 6 overlap, directly visible in the exported trace",
        "    trace.complete(state.host_track, 'boundary_callbacks', launch_time,",
        "                   host.now(), cat='phase')",
        "",
    ]
    if placement.device["finish_step"] == "gpu":
        lines += [
            "    if faulted is None:",
            "        try:",
            "            # --- finish (in C, solver.tile.finish) where the unknown lives:",
            "            # only the boundary part goes down, what the CPU reads comes back",
            "            state.await_device(launch_time)",
            "            state.sanitize_kernel_output(",
            "                KERNEL.name, lambda: dev.d2h('u_new', host_time=host.now())[0][sel])",
            f"            state.device_transfers('h2d', [{pairs(transfers.h2d_each_step)}])",
            "            launch_time = host.now()",
            "            new, du, ub = (dev.buffers[n].array",
            "                           for n in ('u_new', 'du_bdry', 'u_bdry'))",
            "            with state.timers.time('solve'):",
            "                finish = dev.launch(FINISH, ndof, state.plans, (state.dt,), own, new,",
            "                                    new, ub, BCELLS, du, BOWNER,",
            f"                                    [dev.buffers[n].array for n in {reductions!r}],",
            "                                    host_time=launch_time)",
            "            state.await_device(launch_time)",
            f"            state.device_transfers('d2h', [{pairs(transfers.d2h_each_step)}])",
            "            dev.swap('u', 'u_new')",
            "            # the finish's proof: a function of the reductions just fetched",
            "            state.u_proved_finite = finish.result",
            "        except GPU_FAULTS as exc:",
            "            faulted = exc",
            "            launch_time = host.now()",
        ]
    else:
        lines += [
            "    if faulted is None:",
            "        # --- synchronize, fetch over the host copy, finish (C) on the host",
            "        state.await_device(launch_time)",
            "        state.device_transfers('d2h', [('u_new', u)])",
            "        dev.mark_host_dirty('u')  # finish_step writes the host copy",
            "        state.sanitize_kernel_output(KERNEL.name, lambda: u[sel])",
            "        state.u_proved_finite = finish_step(state.plans, (state.dt,), own, u, u,",
            "            u_bdry, BCELLS, du_bdry, BOWNER, reduced)",
        ]
    lines += [
        "    if faulted is not None:",
        "        # --- graceful degradation: the step re-placed on the host ----------",
        "        # the host takes the pre-step unknown back (fetched if the device",
        "        # held it; else the upload that just went, or failed, is void) and",
        "        # runs the same generated bodies over the host arrays — the kernel",
        "        # in place, its rows being local — so the result is bit-identical",
        "        current().resilience.record_degraded(",
        "            'interior_update', dev.name, 'cpu', type(faulted).__name__,",
        f"            {f'rank={rank}, ' if rank else ''}step=state.step_index)",
        "        if resident:",
        "            state.claim_unknown()",
        "        dev.mark_host_dirty('u')",
        "        state.u_proved_finite = 0  # (a degraded step keeps no proof)",
        "        with state.timers.time('solve'):",
        "            interior_kernel(state, u, *[state.fields[n[4:]].data for n in",
        "                                        KERNEL_VAR_NAMES], u, state.buffer, own)",
        "            state.sanitize_kernel_output(KERNEL.name, lambda: u[sel])",
        "            finish_step(state.plans, (state.dt,), own, u, u, u_bdry, BCELLS, du_bdry,",
        "                        BOWNER, reduced)",
        f"        host.advance({cost('COST_SOLVE')})",
        "        trace.complete(state.host_track, 'interior_update[degraded:cpu]',",
        "                       launch_time, host.now(), cat='fault',",
        "                       reason=type(faulted).__name__)",
        f"        state.charge_phase('solve for intensity', {cost('COST_SOLVE')})",
        "",
        *indent(ADVANCE),
    ]
    return ["", ""] + lines


#: The holes of the hybrid ``run_steps`` (:func:`emit_step_loop`): the
#: temperature update's cost-model time on the host clock.
RUN_LOOP = dict(
    prologue=["trace = current().tracer"],
    charge=[
        "if POST_STEP_CALLBACKS:",
        "    t0 = state.host_clock.now()",
        "    state.host_clock.advance(COST_TEMP)",
        "    trace.complete(state.host_track, 'temperature_update', t0,",
        "                   state.host_clock.now(), cat='phase')",
        "    state.charge_phase('temperature update', COST_TEMP)",
    ],
)


def _repin_graph(tg: TaskGraph, pins: dict[str, str]) -> TaskGraph:
    """Copy a task graph with some tasks re-pinned (placement overrides)."""
    out = TaskGraph()
    for t in tg.tasks.values():
        out.add_task(Task(t.name, t.cost_cpu, t.cost_gpu,
                          pinned=pins.get(t.name, t.pinned)))
    for e in tg.edges:
        out.add_edge(e.src, e.dst, e.nbytes, e.label)
    return out


def plan_device_step(problem: "Problem", emitter: ExprEmitter, surface: EmittedExpr,
                     volume: EmittedExpr, rows: int, force_offload: bool) -> dict:
    """The step's task graph — ``rows`` component rows per launch, the
    kernel priced from the build's ``surface`` and ``volume`` statements,
    edges sized from the problem's spaces and mesh — its min-cut placement
    and the transfer schedule that follows; returned as the artifact
    attributes the solver carries (``placement``, ``transfer_plan``,
    ``array_uses`` for the layer-2 verifier, ``kernel_spec``).  What only the
    host form carries fails here if the plan puts ``interior_update`` on the
    device."""
    mesh, unknown = problem.mesh, problem.unknown
    spec = problem.config.gpu_spec or default_gpu_spec()
    cost = CostModel(CASCADE_LAKE_FINCH)
    ncomp, ncells, nfaces = unknown.ncomp, mesh.ncells, mesh.nfaces
    nbands = unknown.space.sizes[-1] if unknown.space.names else 1
    # the boundary faces, and the cells they belong to (``FVGeometry``'s
    # ``bowner`` and ``bcells``): sized here without a geometry
    bowner = mesh.face_cells[mesh.face_cells[:, 1] < 0, 0]
    nbcells = np.count_nonzero(np.bincount(bowner, minlength=ncells))

    # ---- work estimates for the device model ------------------------------
    faces_per_cell = 2.0 * nfaces / ncells
    kernel_spec = {
        "name": f"{unknown.name}_interior_step",
        "flops_per_thread": (
            faces_per_cell * (surface.flops + 2)  # flux + area-weighted gather
            + volume.flops
            + 3  # explicit update
        ) * float(problem.extra.get("gpu_flop_factor", DEFAULT_FLOP_FACTOR)),
        "bytes_per_thread": (
            faces_per_cell * surface.bytes_per_value / 2.0 + volume.bytes_per_value
        ) * BYTE_FACTOR,
    }

    def on_gpu(**work) -> float:
        return model_launch(spec, Kernel(body=lambda *a: None, **work),
                            rows * ncells).duration

    # ---- the task graph ---------------------------------------------------
    reductions = [cb.reduce for cb in problem.post_step_callbacks if cb.reduce]
    # a field is (ncomp, ncells) float64
    known = {n: 8.0 * problem.entities.variables[n].ncomp * ncells
             for n in emitter.referenced_known_variables()}
    u_bytes = 8.0 * ncomp * ncells
    small = {"du_bdry": 8.0 * ncomp * nbcells,
             "u_bdry": 8.0 * ncomp * len(bowner),
             **{r.name: 8.0 * r.rows * ncells for r in reductions}}
    tg = TaskGraph()
    tg.add_task(Task("interior_update", cost.intensity_step(ncells, rows),
                     on_gpu(**kernel_spec)))
    tg.add_task(Task("boundary_callbacks",
                     cost.boundary_step(len(bowner), rows), pinned="cpu"))
    # the CPU cost model books the reduction inside the temperature update
    # (the paper's one callback), so the host clock under the paper's plan
    # reads as it always has: bytes alone decide where this task lands
    tg.add_task(Task("finish_step", 0.0, on_gpu(**FINISH_WORK)))
    tg.add_task(Task("post_step_callbacks", cost.temperature_step(ncells, nbands),
                     pinned="cpu"))
    tg.add_edge("interior_update", "finish_step", u_bytes, unknown.name)
    tg.add_edge("finish_step", "interior_update", u_bytes, unknown.name)  # next step
    tg.add_edge("boundary_callbacks", "finish_step", small["du_bdry"], "du_bdry")
    tg.add_edge("finish_step", "boundary_callbacks", small["u_bdry"], "u_bdry")
    # what a callback does not declare the plan cannot see (callbacks are not
    # in the cache key): if it reads the unknown, the handoff pays that step
    for r in reductions:
        tg.add_edge("finish_step", "post_step_callbacks", small[r.name], r.name)
    for name, nbytes in known.items():
        tg.add_edge("post_step_callbacks", "interior_update", nbytes, name)

    # explicit per-task placement overrides (the user's hook): re-pin
    # before optimising so the transfer schedule matches the final plan
    pins = dict(problem.extra.get("placement_override") or {})
    placement = optimize_placement(_repin_graph(tg, pins) if pins else tg, spec)
    if force_offload and placement.device["interior_update"] == "cpu":
        # the user overrode the optimiser: rebuild the plan with the interior
        # pinned to the device so the schedule matches the code that will run
        placement = optimize_placement(
            _repin_graph(tg, {**pins, "interior_update": "gpu"}), spec)
    if placement.device["interior_update"] == "gpu":
        _reject_reconstructions(emitter.form)
        _reject_function_coefficients(emitter)

    both = ("interior_update", "finish_step")
    arrays = [
        # the unknown is double-buffered: the kernel writes u_new while the
        # overlapped CPU boundary callbacks read their copy of its owner
        # values (Fig. 6 is safe), and finish_step flips the two
        ArrayUse("u", u_bytes, readers=both, writers=both, double_buffered=True),
        # the face normals (one row per axis) and areas, float64
        ArrayUse("geometry", 8.0 * nfaces * (mesh.dim + 1),
                 readers=("interior_update",), writers=(), mutated_each_step=False),
        ArrayUse("du_bdry", small["du_bdry"],
                 readers=("finish_step",), writers=("boundary_callbacks",)),
        ArrayUse("u_bdry", small["u_bdry"],
                 readers=("boundary_callbacks",), writers=("finish_step",)),
        *[ArrayUse(r.name, small[r.name],
                   readers=("post_step_callbacks",), writers=("finish_step",))
          for r in reductions],
        *[ArrayUse(f"var_{name}", nbytes,
                   readers=("interior_update",), writers=("post_step_callbacks",))
          for name, nbytes in known.items()],
    ]
    return {"placement": placement, "array_uses": arrays, "kernel_spec": kernel_spec,
            "transfer_plan": plan_transfers(placement, arrays)}


def step_env(problem: "Problem", state: SolverState, plan: dict) -> dict:
    """What the emitted device step reads that is not in the cache key's
    static environment: ``finish_step`` (a function of the program's one
    library, the tile's), the boundary exchange and fault hooks.  What the
    kernel reads of the geometry is the state's it is launched for."""
    geom, tile = state.geom, plan["tile"]
    return {
        "finish_step": ctile.Tile(ctile.build(tile.text), tile.finish, state.reductions),
        # the boundary exchange: the cells with a boundary face, and the
        # owner cell of every boundary face
        "BCELLS": geom.bcells,
        "BOWNER": geom.bowner,
        # per-step H2D: the known variables the plan marked as host-mutated
        # (for the BTE: Io and beta after the temperature update)
        "H2D_EACH_STEP": [n for n in plan["transfer_plan"].h2d_each_step
                          if n.startswith("var_")],
        # resilience: the degraded (CPU re-execution) path for device faults
        "GPU_FAULTS": (DeviceOOMError, KernelFaultError),
        "current": current,
    }


def bind_kernels(solver: GeneratedSolver, kernel_spec: dict) -> None:
    """Wrap the *generated* bodies with their work estimates; name the
    timers that measure the device plan's tasks."""
    ns = solver.namespace
    ns["KERNEL"] = solver.kernel = Kernel(
        body=ns["interior_kernel"], doc="generated flattened interior step",
        **kernel_spec)
    ns["FINISH"] = Kernel(body=ns["finish_step"], **FINISH_WORK)
    solver.task_timer_map = DEVICE_TASK_TIMERS


def attach_device(state: SolverState, var_names: list[str], rank: int | None = None) -> Device:
    """Give ``state`` a device of its own (``gpu<rank>`` on a band rank):
    the device-resident buffers (the unknown double-buffered, the known
    variables, the boundary exchange, one array per declared reduction), a
    host clock with its phase totals, and the host ends of the reductions,
    resolved here — at generate time — from the post-step records."""
    spec = state.problem.config.gpu_spec or default_gpu_spec()
    device = Device(spec, name=f"gpu{rank or 0}:{spec.name}")
    ncomp, ncells = state.host_u.shape
    device.alloc("u", state.host_u)
    # the double buffer starts as a device-side copy, so rows a launch never
    # writes (another rank's bands) read the same in both halves
    device.alloc_empty("u_new", (ncomp, ncells)).array[...] = state.host_u
    for name in var_names:
        device.alloc(name, state.fields[name[4:]].data)
    device.alloc_empty("du_bdry", (ncomp, len(state.geom.bcells)))
    device.alloc_empty("u_bdry", (ncomp, len(state.geom.bowner)))
    for r in state.reductions:
        device.alloc_empty(r.name, (r.rows, ncells))
    # the host owns the unknown until the first step hands it over (initial
    # conditions may still be written through state.u)
    device.mark_host_dirty("u")
    state.device = device
    state.host_clock = VirtualClock()
    state.host_track = "hybrid/host" if rank is None else f"hybrid/rank{rank}"
    state.gpu_phases = {
        "solve for intensity": 0.0,
        "temperature update": 0.0,
        "communication": 0.0,
    }
    return device


class GPUHybridTarget(FVTarget):
    """Generation for the simulated-GPU hybrid path (``use_gpu()``)."""

    name = "gpu"

    def plan(self, problem: "Problem", emitter, surface, volume) -> dict:
        force = bool(problem.extra.get("gpu_force_offload", False))
        return plan_device_step(problem, emitter, surface, volume,
                                problem.unknown.ncomp, force)

    def program(self, problem: "Problem", plan: dict) -> list[str]:
        if plan["placement"].device["interior_update"] == "cpu":
            return super().program(problem, plan)
        return (emit_device_step("step_once", plan)
                + emit_step_loop(self.source_name, **RUN_LOOP))

    def tables(self, problem: "Problem", plan: dict) -> dict:
        """The host's virtual cost of each task: what the optimiser priced
        it at on the CPU."""
        tasks = plan["placement"].graph.tasks
        return {
            "COST_BOUNDARY": tasks["boundary_callbacks"].cost_cpu,
            "COST_TEMP": tasks["post_step_callbacks"].cost_cpu,
            "COST_SOLVE": tasks["interior_update"].cost_cpu,
        }

    def bind_artifact(self, problem: "Problem", artifact) -> GeneratedSolver:
        state = SolverState(problem)
        if artifact.attrs["placement"].device["interior_update"] == "cpu":
            return self.bind_host(problem, artifact, state)
        solver = self.bind_solver(problem, artifact, state,
                                  step_env(problem, state, artifact.attrs))
        bind_kernels(solver, artifact.attrs["kernel_spec"])
        solver.device = attach_device(state, artifact.static_env["KERNEL_VAR_NAMES"])
        return solver


__all__ = ["GPUHybridTarget", "DEFAULT_FLOP_FACTOR", "BYTE_FACTOR"]
