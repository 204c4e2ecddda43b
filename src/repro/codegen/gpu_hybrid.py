"""Hybrid CPU/GPU code-generation target (paper Sec. II-B and III-D).

Per step, exactly the paper's "one example configuration":

.. code-block:: text

    GPU kernel:  interior flux + source + explicit update, loops flattened,
                 one thread per degree of freedom (launched asynchronously)
    CPU code:    boundary contribution via the user callbacks, overlapped
                 with the kernel (Fig. 6)
                 synchronize, fetch u_new from the device
                 u = u_new + u_bdry
                 post-step temperature update (user callback, CPU)
                 send the mutated arrays back to the device

Before generating, the target builds the step's task graph and runs the
min-cut placement optimiser (:mod:`repro.codegen.placement`) — the paper's
"automatically partitions tasks between the CPU and GPU by minimizing the
data movement"; the resulting plan and transfer schedule are attached to
the solver (``solver.placement``, ``solver.transfer_plan``) and honoured by
the generated code (user callbacks are pinned to the CPU; if the optimiser
decides the interior update is not worth offloading — tiny problems — the
kernel simply runs on the host path).

Numerics run for real on the simulated device's buffers; kernel and PCIe
times come from the device model (see DESIGN.md).  Host work is charged to
the virtual host clock via the calibrated cost model, so the per-step
timeline reproduces the overlap structure of Fig. 6.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.codegen.emit import ExprEmitter, emit_tile_body, hoisted_lines
from repro.codegen.placement import Task, TaskGraph, optimize_placement, plan_transfers
from repro.codegen.placement.transfers import ArrayUse
from repro.codegen.state import SolverState
from repro.codegen.target_base import (
    CodegenTarget,
    GeneratedSolver,
    attach_artifact_attrs,
    source_header,
)
from repro.fvm.kernels import csr_slots
from repro.gpu.device import Device
from repro.gpu.kernel import Kernel, model_launch
from repro.ir.build import build_ir
from repro.ir.lowering import lower_conservation_form
from repro.ir.nodes import print_ir
from repro.obs import get_tracer, phase_span
from repro.perfmodel.costs import CostModel
from repro.perfmodel.machines import CASCADE_LAKE_FINCH, default_gpu_spec
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
#: replay uncoalesced transactions.  Override per problem via
#: ``problem.extra['gpu_flop_factor' / 'gpu_byte_factor']``.
DEFAULT_FLOP_FACTOR = 200.0
DEFAULT_BYTE_FACTOR = 16.0


def _indent(lines: list[str], level: int = 1) -> list[str]:
    pad = "    " * level
    return [pad + ln if ln else ln for ln in lines]


def _record_degraded(task: str, from_device: str, to_device: str,
                     reason: str, **labels) -> None:
    """Generated-code hook: log a fault-driven CPU re-placement."""
    from repro.runtime.resilience import get_resilience_log

    get_resilience_log().record_degraded(task, from_device, to_device,
                                         reason, **labels)


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


def _emit_device_source(problem: "Problem", emitter: ExprEmitter) -> list[str]:
    """The step-invariant tables, the flattened interior kernel (one thread
    per DOF, vectorised body swept in row tiles —
    :func:`repro.codegen.emit.emit_tile_body`) and the CPU-side boundary
    contribution (rhs part from boundary faces)."""
    form = emitter.form
    tile = emit_tile_body(
        emitter,
        gather=[
            "# owner/neighbour gathers restricted to interior faces",
            "u1 = np.take(us, owner, axis=1, out=fu, mode='clip')",
            "u2 = np.take(us, NEIGH_INT, axis=1, out=fv, mode='clip')",
        ],
        gather_upwind=[
            "# the upwinded side of every interior face, one gather",
            "uw = kernels.gather_upwind(u, sel, upw, uw_rows, fu)",
        ],
        divergence="kernels.slot_divergence(DIV_INT, flux, acc, cw)",
        store="u_new[sel] = acc",
        dt="DT",
        buffer="buffer", nfaces="len(owner)", ncells="NCELLS",
    )
    known = emitter.referenced_known_variables()
    args = ["u"] + [f"var_{n}" for n in known] + ["u_new", "buffer"]
    lines = ["", ""] + tile.setup
    if tile.tables:
        lines += [
            "# over the interior faces, evaluated when the source is bound",
            "INT_TABLES = invariant_tables(NORMALS_INT, FACEDIST_INT, OWNER_INT, NEIGH_INT)",
            "",
            "",
        ]
    lines.append(f"def interior_kernel({', '.join(args)}, sel=slice(None)):")
    body = [
        '"""Interior bulk: uniform work, no thread divergence between DOFs',
        "(paper Sec. III-D).  Boundary faces contribute zero here; the CPU",
        "adds their part after the device result returns.  ``sel`` restricts",
        "the component rows (multi-device band partitioning launches one",
        "kernel per rank over its own bands); only those rows are touched.",
        "``buffer(name, shape)`` hands out the workspace the tiles reuse",
        '(the device\'s, or the host state\'s when the step degrades)."""',
        "rows = sel",
        "owner = OWNER_INT",
        "height = kernels.tile_rows(len(owner), NCOMP)",
        *tile.scratch,
    ]
    for axis, name in enumerate(("normal_x", "normal_y", "normal_z")):
        if name in tile.reads:
            body.append(f"{name} = NORMALS_INT[:, {axis}]")
    if "face_dist" in tile.reads:
        body.append("face_dist = FACEDIST_INT")
    if tile.tables:
        body.append(f"[{tile.tables}] = INT_TABLES")
    body += tile.sweep
    body.append("for sel in kernels.row_tiles(rows, NCOMP, height):")
    lines += _indent(body + _indent(tile.lines))

    surface = tile.surface  # the same statement, over the boundary faces
    lines += [
        "",
        "",
        "def compute_boundary_contribution(state, u, t):",
    ]
    body = [
        '"""Boundary part of the RHS (per paper Fig. 6 this runs on the CPU,',
        'concurrently with the interior kernel).  Returns du/dt|_boundary."""',
        "geom = state.geom",
        "dt = state.dt",
    ]
    if not form.surface_terms:
        body.append("return np.zeros((NCOMP, geom.ncells))")
        return lines + _indent(body)
    body += [
        "bfaces = geom.bfaces",
        "owner = geom.owner[bfaces]",
    ]
    if tile.tables:  # the same tables, over the boundary faces' geometry
        body.append(f"[{tile.tables}] = state.tables(invariant_tables, bfaces)")
    body += hoisted_lines(surface.sweep)
    registers = [f"f{i}" for i in range(surface.registers)]
    body += [
        "sel = slice(None)",
        f"{', '.join(registers + ['fu', 'fv'])} = state.buffer('boundary_faces', "
        f"({len(registers) + 2}, NCOMP, len(bfaces)))",
        "# ghost values from the boundary conditions (user callbacks)",
        "u1 = np.take(u, owner, axis=1, out=fu, mode='clip')",
        "u2 = state.bset.ghost_values(u, t, dt, state.extra, out=fv)",
    ]
    if surface.upwind is not None:  # the sides are already gathered: select
        body.append(f"uw = {surface.upwind[1]}")
    for axis, name in enumerate(("normal_x", "normal_y", "normal_z")):
        if name in surface.reads:
            body.append(f"{name} = geom.normal[bfaces, {axis}]")
    if "face_dist" in surface.reads:
        body.append("face_dist = geom.face_dist[bfaces]")
    body += [f"# face flux: {t}" for t in map(str, form.surface_terms)]
    body += surface.prelude
    body.append(f"flux = {surface.code}")
    if surface.code not in registers:  # maybe less than an array of its own
        body.append("flux = np.broadcast_to(flux, u1.shape).copy()")
    body += [
        "# FLUX-type callbacks override their faces",
        "for faces, values in state.bset.flux_overrides(u, t, dt, state.extra):",
        "    flux[:, BFACE_SLOT[faces]] = values",
        "return kernels.slot_divergence(",
        "    DIV_BDRY, flux, state.buffer('du_boundary', (NCOMP, geom.ncells)))",
    ]
    return lines + _indent(body)


_STEP_AND_RUN = '''

def step_once(state):
    """One hybrid step (the paper's host-code sketch, Sec. II-B).

    Device faults (OOM during the H2D batch, kernel launch faults) are
    treated as transient: the step degrades gracefully by re-executing the
    interior update on the host with the same generated kernel body — the
    numerics are identical, only the timeline pays the CPU cost.
    """
    dev = state.device
    host = state.host_clock
    trace = get_tracer()
    t = state.time

    faulted = None
    t0 = host.now()
    try:
        # --- send per-step host-mutated arrays to the device ---------------
        with state.profile_scope('h2d'):
            end = dev.h2d('u', state.u, t0)
            for name in H2D_EACH_STEP:
                end = max(end, dev.h2d(name, state.fields[name.replace('var_', '')].data, t0))
        host.advance_to(end)
        trace.complete(HOST_TRACK, 'h2d', t0, host.now(), cat='transfer')
        state.gpu_phases['communication'] += host.now() - t0

        # --- asynchronous interior kernel (one thread per DOF) -------------
        launch_time = host.now()
        kernel_args = [dev.buffers[n].array for n in ['u'] + KERNEL_VAR_NAMES] \
            + [dev.buffers['u_new'].array, dev.workspace]
        with state.profile_scope('solve'):
            if KERNEL_CHUNKS is None:
                dev.launch(KERNEL, NDOF, *kernel_args, host_time=launch_time)
            else:
                # tuned chunking: one launch per component-row block (same
                # numerics; smaller launches queue back-to-back on the device)
                for chunk in KERNEL_CHUNKS:
                    dev.launch(KERNEL, len(chunk) * NCELLS, *kernel_args,
                               chunk, host_time=launch_time)
    except GPU_FAULTS as exc:
        faulted = exc
        launch_time = host.now()

    # --- CPU boundary contribution, overlapped with the kernel (Fig. 6) ----
    with state.profile_scope('boundary'), trace_phase('boundary'):
        du_bdry = compute_boundary_contribution(state, state.u, t)
    host.advance(COST_BOUNDARY)
    # the host-timeline boundary span sits under the device kernel span —
    # the paper's Fig. 6 overlap, directly visible in the exported trace
    trace.complete(HOST_TRACK, 'boundary_callbacks', launch_time, host.now(),
                   cat='phase')

    u_new = state.buffer('u_new', state.u.shape)
    if faulted is None:
        # --- synchronize, fetch, combine -----------------------------------
        sync_time = dev.synchronize(host.now())
        if sync_time > host.now():
            trace.complete(HOST_TRACK, 'sync_wait', host.now(), sync_time, cat='sync')
        state.gpu_phases['solve for intensity'] += sync_time - launch_time
        host.advance_to(sync_time)
        d2h_start = host.now()
        with state.profile_scope('d2h'):
            u_new, end = dev.d2h('u_new', out=u_new, host_time=d2h_start)
        host.advance_to(end)
        trace.complete(HOST_TRACK, 'd2h', d2h_start, host.now(), cat='transfer')
        state.gpu_phases['communication'] += host.now() - d2h_start
    else:
        # --- graceful degradation: interior update re-placed on the host ---
        # same generated body over the host field arrays, so the result is
        # bit-identical; the device buffers for u/u_new are stale but are
        # fully rewritten by the next successful h2d + launch before any read
        record_degraded('interior_update', dev.name, 'cpu',
                        type(faulted).__name__, step=state.step_index)
        with state.profile_scope('solve'):
            interior_kernel(state.u,
                            *[state.fields[n.replace('var_', '')].data
                              for n in KERNEL_VAR_NAMES],
                            u_new, state.buffer)
        host.advance(COST_INTERIOR_CPU)
        trace.complete(HOST_TRACK, 'interior_update[degraded:cpu]',
                       launch_time, host.now(), cat='fault',
                       reason=type(faulted).__name__)
        state.gpu_phases['solve for intensity'] += COST_INTERIOR_CPU
    state.sanitize_kernel_output(KERNEL.name, u_new)
    # u = u_new + dt * u_bdry (the boundary part of the explicit update)
    np.add(u_new, np.multiply(du_bdry, state.dt, out=du_bdry), out=state.u)

    state.time += state.dt
    state.step_index += 1


def run_steps(state, nsteps):
    """Sequential time loop around the hybrid step + CPU hooks."""
    trace = get_tracer()
    state.log_run_event('run.start', target='gpu_hybrid', nsteps=nsteps)
    for _ in range(nsteps):
        for cb in PRE_STEP_CALLBACKS:
            with state.profile_scope('pre_step'), trace_phase('pre_step'):
                cb.fn(state)
        step_once(state)
        for cb in POST_STEP_CALLBACKS:
            with state.profile_scope('post_step'), trace_phase('post_step'):
                cb.fn(state)
        if POST_STEP_CALLBACKS:
            t0 = state.host_clock.now()
            state.host_clock.advance(COST_TEMP)
            trace.complete(HOST_TRACK, 'temperature_update', t0,
                           state.host_clock.now(), cat='phase')
            state.gpu_phases['temperature update'] += COST_TEMP
        state.observe_step()
        state.sanitize_step()
        state.maybe_checkpoint()
        state.maybe_rebalance()
    state.check_health()
    state.log_run_event('run.end', target='gpu_hybrid')
    return state
'''


def _repin_graph(tg: TaskGraph, pins: dict[str, str]) -> TaskGraph:
    """Copy a task graph with some tasks re-pinned (placement overrides)."""
    out = TaskGraph()
    for t in tg.tasks.values():
        out.add_task(Task(t.name, t.cost_cpu, t.cost_gpu,
                          pinned=pins.get(t.name, t.pinned)))
    for e in tg.edges:
        out.add_edge(e.src, e.dst, e.nbytes, e.label)
    return out


class GPUHybridTarget(CodegenTarget):
    """Generation for the simulated-GPU hybrid path (``use_gpu()``)."""

    name = "gpu"

    def build_artifact(self, problem: "Problem"):
        if problem.equation is None:
            raise CodegenError("no conservation_form declared")
        if problem.config.stepper not in ("euler", "euler_explicit"):
            raise CodegenError(
                "the hybrid GPU target implements the paper's forward-Euler "
                f"scheme; got {problem.config.stepper!r} (use the cpu target "
                "for RK schemes)"
            )
        unknown = problem.unknown
        expanded, form = lower_conservation_form(
            problem.equation.source, unknown, problem.entities, problem.operators
        )
        _reject_reconstructions(form)
        ir = build_ir(problem, form, flavor="gpu")
        emitter = ExprEmitter(problem, form, var_mode="local")

        state = SolverState(problem)
        geom = state.geom
        spec = problem.config.gpu_spec or default_gpu_spec()
        machine = problem.extra.get("machine_rates", CASCADE_LAKE_FINCH)
        cost = CostModel(machine)

        # ---- work estimates for the device model --------------------------
        surface = emitter.emit_sum(form.surface_terms, "surface")
        volume = emitter.emit_sum(form.volume_terms, "volume")
        faces_per_cell = 2.0 * geom.nfaces / geom.ncells
        flops_per_dof = (
            faces_per_cell * (surface.flops + 2)  # flux + area-weighted gather
            + volume.flops
            + 3  # explicit update
        )
        bytes_per_dof = (
            faces_per_cell * surface.bytes_per_value / 2.0 + volume.bytes_per_value
        )
        flop_factor = float(problem.extra.get("gpu_flop_factor", DEFAULT_FLOP_FACTOR))
        byte_factor = float(problem.extra.get("gpu_byte_factor", DEFAULT_BYTE_FACTOR))

        # ---- placement optimisation ---------------------------------------
        ndof = state.ncomp * state.ncells
        nbands = unknown.space.sizes[-1] if unknown.space.names else 1
        kernel_stub = Kernel(
            f"{unknown.name}_interior_step",
            body=lambda *a: None,
            flops_per_thread=flops_per_dof * flop_factor,
            bytes_per_thread=bytes_per_dof * byte_factor,
        )
        gpu_interior_time = model_launch(spec, kernel_stub, ndof).duration
        known_vars = emitter.referenced_known_variables()

        tg = TaskGraph()
        tg.add_task(Task(
            "interior_update",
            cost_cpu=cost.intensity_step(state.ncells, state.ncomp),
            cost_gpu=gpu_interior_time,
        ))
        tg.add_task(Task(
            "boundary_callbacks",
            cost_cpu=cost.boundary_step(geom.boundary_face_count(), state.ncomp),
            pinned="cpu",
        ))
        tg.add_task(Task(
            "post_step_callbacks",
            cost_cpu=cost.temperature_step(state.ncells, nbands),
            pinned="cpu",
        ))
        u_bytes = float(state.u.nbytes)
        tg.add_edge("interior_update", "post_step_callbacks", u_bytes, label=unknown.name)
        tg.add_edge("boundary_callbacks", "post_step_callbacks",
                    geom.boundary_face_count() * state.ncomp * 8.0, label="u_bdry")
        known_bytes = 0.0
        for name in known_vars:
            nb = float(state.fields[name].data.nbytes)
            known_bytes += nb
            tg.add_edge("post_step_callbacks", "interior_update", nb, label=name)
        # explicit per-task placement overrides (tuner / user hook): re-pin
        # before optimising so the transfer schedule matches the final plan
        override = dict(problem.extra.get("placement_override") or {})
        if override:
            tg = _repin_graph(tg, override)
        placement = optimize_placement(tg, spec)

        if placement.device["interior_update"] == "cpu" and problem.extra.get(
            "gpu_force_offload", False
        ):
            # the user overrode the optimiser: rebuild the plan with the
            # interior pinned to the device so the transfer schedule (the
            # per-step Io/beta H2D, the u round trip) matches the code that
            # will actually run
            placement = optimize_placement(
                _repin_graph(tg, {"interior_update": "gpu"}), spec
            )

        if placement.device["interior_update"] == "cpu" and not problem.extra.get(
            "gpu_force_offload", False
        ):
            # the optimiser decided offloading does not pay (tiny problem or
            # transfer-dominated): build the serial CPU artifact instead,
            # annotated with the plan so callers can see why
            from repro.codegen.cpu_serial import build_cpu_artifact

            artifact = build_cpu_artifact(self, problem)
            artifact.flavor = "cpu_fallback"
            artifact.source = (
                "# NOTE: the placement optimiser kept every task on the CPU\n"
                "# (offload would cost more in transfers than it saves):\n"
                + "\n".join("#   " + ln for ln in placement.report().splitlines())
                + "\n\n"
                + artifact.source
            )
            artifact.attrs["placement"] = placement
            return artifact

        arrays = [
            # the unknown is double-buffered: the kernel writes u_new while
            # the overlapped CPU boundary callbacks read u (Fig. 6 is safe)
            ArrayUse("u", u_bytes,
                     readers=("interior_update", "boundary_callbacks", "post_step_callbacks"),
                     writers=("interior_update", "post_step_callbacks"),
                     double_buffered=True),
            ArrayUse("geometry", float(geom.normal.nbytes + geom.area.nbytes),
                     readers=("interior_update",), writers=(), mutated_each_step=False),
        ] + [
            ArrayUse(f"var_{name}", float(state.fields[name].data.nbytes),
                     readers=("interior_update",), writers=("post_step_callbacks",))
            for name in known_vars
        ]
        transfer_plan = plan_transfers(placement, arrays)

        # ---- source ---------------------------------------------------------
        lines = source_header("gpu_hybrid", problem, print_ir(ir))
        lines.append("# placement decided by the min-cut optimiser:")
        lines += ["#   " + ln for ln in placement.report().splitlines()]
        lines += ["#   " + ln for ln in transfer_plan.report().splitlines()]
        lines += _emit_device_source(problem, emitter)
        lines.append(_STEP_AND_RUN)
        source = "\n".join(lines) + "\n"

        static: dict = dict(emitter.component_tables())
        static["NCOMP"] = state.ncomp
        static["NCELLS"] = state.ncells
        static["NDOF"] = ndof
        static["COST_BOUNDARY"] = cost.boundary_step(
            geom.boundary_face_count(), state.ncomp
        )
        static["COST_TEMP"] = cost.temperature_step(state.ncells, nbands)
        static["COST_INTERIOR_CPU"] = cost.intensity_step(state.ncells, state.ncomp)
        # kernel argument order is fixed by the generated signature; the
        # per-step H2D list is the subset the transfer plan marked as
        # host-mutated (for the BTE: Io and beta after the temperature update)
        static["KERNEL_VAR_NAMES"] = [f"var_{n}" for n in known_vars]
        static["H2D_EACH_STEP"] = [
            n for n in static["KERNEL_VAR_NAMES"] if n in transfer_plan.h2d_each_step
        ]
        static["HOST_TRACK"] = "hybrid/host"
        # tuned kernel chunking: split the launch over component-row blocks
        chunks = int(problem.extra.get("gpu_kernel_chunks", 0) or 0)
        static["KERNEL_CHUNKS"] = (
            [np.asarray(c)
             for c in np.array_split(np.arange(state.ncomp),
                                     min(chunks, state.ncomp))]
            if chunks > 1 else None
        )

        return self.make_artifact(
            problem, source,
            static_env=static,
            attrs={
                "ir": ir,
                "classified_form": form,
                "expanded_expr": expanded,
                "placement": placement,
                "transfer_plan": transfer_plan,
                # kept for the layer-2 verifier (transfer completeness, races)
                "array_uses": arrays,
                "kernel_spec": {
                    "name": f"{unknown.name}_interior_step",
                    "flops_per_thread": flops_per_dof * flop_factor,
                    "bytes_per_thread": bytes_per_dof * byte_factor,
                },
            },
        )

    def bind_artifact(self, problem: "Problem", artifact) -> GeneratedSolver:
        if artifact.flavor == "cpu_fallback":
            from repro.codegen.cpu_serial import bind_cpu_env

            state = SolverState(problem)
            env = bind_cpu_env(problem, artifact)
            solver = GeneratedSolver(
                "cpu", artifact.source, env, state,
                code=artifact.code, module_name=artifact.module_name,
            )
            if artifact.code is None:
                artifact.code = solver.code
            attach_artifact_attrs(solver, artifact)
            solver.task_timer_map = {
                "interior_update": "solve",
                "post_step_callbacks": "post_step",
            }
            solver.transfer_plan = None
            return solver

        state = SolverState(problem)
        geom = state.geom
        spec = problem.config.gpu_spec or default_gpu_spec()
        int_faces = np.flatnonzero(geom.interior_mask)

        env: dict = dict(artifact.static_env)
        env["DT"] = problem.config.dt  # runtime-bound: not part of the key
        env["OWNER_INT"] = geom.owner[int_faces]
        env["NEIGH_INT"] = geom.neighbor[int_faces]
        env["NORMALS_INT"] = geom.normal[int_faces]
        env["FACEDIST_INT"] = geom.face_dist[int_faces]
        env["DIV_INT"] = csr_slots(geom.divergence[:, int_faces])
        env["DIV_BDRY"] = csr_slots(geom.divergence[:, geom.bfaces])
        env["BFACE_SLOT"] = geom.bface_slot
        env["PRE_STEP_CALLBACKS"] = list(problem.pre_step_callbacks)
        env["POST_STEP_CALLBACKS"] = list(problem.post_step_callbacks)
        # resilience: the degraded (CPU re-execution) path for device faults
        env["GPU_FAULTS"] = (DeviceOOMError, KernelFaultError)
        env["record_degraded"] = _record_degraded
        env["get_tracer"] = get_tracer
        env["trace_phase"] = phase_span

        solver = GeneratedSolver(
            self.name, artifact.source, env, state,
            code=artifact.code, module_name=artifact.module_name,
        )
        if artifact.code is None:
            artifact.code = solver.code
        # observability: which wall-clock timer measures each placement task
        solver.task_timer_map = {
            "interior_update": "solve",
            "boundary_callbacks": "boundary",
            "post_step_callbacks": "post_step",
        }

        # the kernel object wraps the *generated* body with the work estimates
        kspec = artifact.attrs["kernel_spec"]
        kernel = Kernel(
            kspec["name"],
            body=solver.namespace["interior_kernel"],
            flops_per_thread=kspec["flops_per_thread"],
            bytes_per_thread=kspec["bytes_per_thread"],
            doc="generated flattened interior step",
        )
        solver.namespace["KERNEL"] = kernel

        # device-resident buffers: the unknown (both directions each step),
        # per-step refreshed known variables, static geometry (sent once)
        device = Device(spec, name=f"gpu0:{spec.name}")
        device.alloc("u", state.u)
        device.alloc_empty("u_new", state.u.shape)
        for vname in env["KERNEL_VAR_NAMES"]:
            device.alloc(vname, state.fields[vname.replace("var_", "")].data)
        state.device = device
        state.host_clock = VirtualClock()
        state.gpu_phases = {
            "solve for intensity": 0.0,
            "temperature update": 0.0,
            "communication": 0.0,
        }

        attach_artifact_attrs(solver, artifact)
        solver.device = device
        solver.kernel = kernel
        return solver


__all__ = ["GPUHybridTarget", "DEFAULT_FLOP_FACTOR", "DEFAULT_BYTE_FACTOR"]
