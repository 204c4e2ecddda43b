"""Distributed CPU code-generation target (SPMD over the simulated runtime).

Implements the paper's two CPU parallel strategies (Sec. III-C, Fig. 3):

* ``cells`` — the mesh is partitioned (Metis-style, via
  :mod:`repro.mesh.partition`); every rank updates its owned cells and
  exchanges the interface values of *all* ``I[d,b]`` components with its
  neighbours each step;
* ``bands`` — the equations are partitioned: every rank owns a contiguous
  block of the partition index's values over the whole mesh; no halo is
  needed and the only communication is the per-step allreduce inside the
  temperature update.

Rank programs execute real numerics on real exchanged data (tests assert
agreement with the serial solver to round-off) while virtual clocks are
charged from the calibrated :class:`~repro.perfmodel.costs.CostModel` — see
DESIGN.md for the substitution rationale.  Rank states keep full-size
arrays so the generated code stays close to the serial version it derives
from, but a rank only does its own work: band ranks sweep their owned
component rows alone (``compute_rhs(..., rows=owned)``), cell ranks every
row but store only the mesh columns they own, so stale entries are never
*read* (ghost columns are refreshed by the halo exchange before each step;
unowned outputs are discarded).

Note: a distributed run always starts from the declared initial conditions
(each rank builds its state from the problem), so ``run_steps`` describes a
whole run, not an increment on the master state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.codegen.cpu_serial import emit_rhs_function, eval_fcoef
from repro.codegen.emit import ExprEmitter
from repro.codegen.state import SolverState
from repro.codegen.target_base import (
    CodegenTarget,
    GeneratedSolver,
    attach_artifact_attrs,
    source_header,
)
from repro.ir.build import build_ir
from repro.ir.lowering import lower_conservation_form
from repro.ir.nodes import print_ir
from repro.mesh.partition import (
    build_partition_layout,
    partition_cells,
    weighted_counts,
)
from repro.obs import phase_span
from repro.perfmodel.costs import CostModel
from repro.perfmodel.machines import CASCADE_LAKE_FINCH
from repro.runtime.executor import run_spmd
from repro.runtime.netmodel import IB_CLUSTER
from repro.util.errors import CodegenError

if TYPE_CHECKING:
    from repro.dsl.problem import Problem


_RANK_PROGRAM_CELLS = '''

def rank_program(comm):
    """One rank of the cell-partitioned solver (Fig. 3, top)."""
    state = make_rank_state(comm.rank)
    state.comm = comm
    owned = state.owned_cells
    for _ in range(RUN_NSTEPS[0]):
        for cb in PRE_STEP_CALLBACKS:
            cb.fn(state)
        # refresh ghost columns: send owned interface cells, receive theirs
        with trace_phase('halo_exchange', cat='comm'):
            sends = {q: np.ascontiguousarray(state.u[:, cells])
                     for q, cells in SEND_CELLS[comm.rank].items()}
            received = comm.exchange(sends, tag=7)
            for q, data in received.items():
                state.u[:, RECV_CELLS[comm.rank][q]] = data
        with state.profile_scope('solve'), trace_phase('solve'):
            compute_rhs(state, state.u, state.time)  # stores the owned columns
        comm.compute(COST_SOLVE[comm.rank], phase='solve for intensity')
        for cb in POST_STEP_CALLBACKS:
            with state.profile_scope('post_step'), trace_phase('post_step'):
                cb.fn(state)
        comm.compute(COST_TEMP[comm.rank], phase='temperature update')
        state.time += state.dt
        state.step_index += 1
        state.observe_step()
        state.sanitize_step()
        state.maybe_checkpoint()
        state.maybe_rebalance()
    T = state.extra.get('T')
    return {
        'u_owned': state.u[:, owned].copy(),
        'T': None if T is None else np.asarray(T)[owned].copy(),
        'timers': state.timers,
    }
'''

_RANK_PROGRAM_BANDS = '''

def rank_program(comm):
    """One rank of the band-partitioned solver (Fig. 3, bottom).

    No halo: bands couple only through the temperature update's energy
    reduction (done inside the post-step callback via comm.allreduce).
    """
    state = make_rank_state(comm.rank)
    state.comm = comm
    owned = state.owned_comps
    for _ in range(RUN_NSTEPS[0]):
        for cb in PRE_STEP_CALLBACKS:
            cb.fn(state)
        with state.profile_scope('solve'), trace_phase('solve'):
            compute_rhs(state, state.u, state.time, owned)
        comm.compute(COST_SOLVE[comm.rank], phase='solve for intensity')
        for cb in POST_STEP_CALLBACKS:
            with state.profile_scope('post_step'), trace_phase('post_step'):
                cb.fn(state)
        comm.compute(COST_TEMP[comm.rank], phase='temperature update')
        state.time += state.dt
        state.step_index += 1
        state.observe_step()
        state.sanitize_step()
        state.maybe_checkpoint()
        state.maybe_rebalance()
    T = state.extra.get('T')
    return {
        'u_owned': state.u[owned].copy(),
        'T': None if T is None else np.asarray(T).copy(),
        'timers': state.timers,
    }
'''

_DRIVER = '''

def step_once(state):
    """Single-step SPMD run (mostly for tests; prefer run_steps)."""
    run_steps(state, 1)


def run_steps(state, nsteps):
    """Launch one rank program per partition and merge the results.

    With the elastic runtime bound (``--rebalance``), the runner wraps
    ``run_spmd`` in its recover/rebalance retry loop; the merge then reads
    the *final* partition through the shared layout boxes.
    """
    RUN_NSTEPS[0] = nsteps
    state.log_run_event('run.start', target='cpu_distributed',
                        nsteps=nsteps, nranks=NPARTS)
    if ELASTIC is None:
        result = run_spmd(NPARTS, rank_program, NETWORK,
                          heartbeat_s=HEARTBEAT_S)
    else:
        result = ELASTIC.run(rank_program, nsteps, RUN_NSTEPS)
    merge_results(state, result, nsteps)
    state.spmd_result = result
    state.check_health()
    state.log_run_event('run.end', target='cpu_distributed',
                        makespan_s=result.makespan)
    return state
'''


class CPUDistributedTarget(CodegenTarget):
    """Cell- or band-partitioned SPMD generation."""

    name = "distributed"

    def build_artifact(self, problem: "Problem"):
        if problem.equation is None:
            raise CodegenError("no conservation_form declared")
        cfg = problem.config
        if cfg.partition_strategy not in ("cells", "bands"):
            raise CodegenError(
                "distributed target needs partitioning('cells'|'bands', nparts)"
            )
        if cfg.stepper not in ("euler", "euler_explicit"):
            raise CodegenError(
                "the distributed rank programs implement the paper's "
                f"forward-Euler scheme; got {cfg.stepper!r}"
            )
        nparts = cfg.nparts
        unknown = problem.unknown
        expanded, form = lower_conservation_form(
            problem.equation.source, unknown, problem.entities, problem.operators
        )
        ir = build_ir(problem, form, flavor="distributed")
        emitter = ExprEmitter(problem, form)

        lines = source_header("cpu_distributed", problem, print_ir(ir))
        lines += emit_rhs_function(
            problem, emitter, owned_columns=cfg.partition_strategy == "cells")
        lines.append(
            _RANK_PROGRAM_CELLS if cfg.partition_strategy == "cells" else _RANK_PROGRAM_BANDS
        )
        lines.append(_DRIVER)
        source = "\n".join(lines) + "\n"

        machine = problem.extra.get("machine_rates", CASCADE_LAKE_FINCH)
        cost = CostModel(machine)
        ncomp = unknown.space.ncomp

        static: dict = dict(emitter.component_tables())
        static["NCOMP"] = ncomp
        static["NCELLS"] = problem.mesh.ncells
        static["NPARTS"] = nparts

        # partitioning is part of the build: the Metis-style cut and the
        # halo layout are pure functions of (mesh, nparts, flux_order)
        layout = None
        owned_comp_sets: list[np.ndarray] | None = None
        nbands = _band_count(problem)
        if cfg.partition_strategy == "cells":
            parts = partition_cells(problem.mesh, nparts, method="graph")
            # second-order reconstructions read neighbours-of-neighbours:
            # they need a two-layer halo
            layout = build_partition_layout(
                problem.mesh, parts, halo_layers=max(1, cfg.flux_order)
            )
            static["SEND_CELLS"] = layout.send_cells
            static["RECV_CELLS"] = layout.recv_cells
            # per-rank cost vectors: each rank's clock advances by *its own*
            # owned work, so partition skew is visible to the imbalance
            # watcher (and correctable by a weighted repartition)
            solve_costs, temp_costs = _cell_costs(cost, layout, ncomp, nbands)
            static["COST_SOLVE"] = solve_costs
            static["COST_TEMP"] = temp_costs
        else:
            owned_comp_sets = _split_components(problem, nparts)
            solve_costs, temp_costs = _band_costs(
                cost, problem.mesh.ncells, owned_comp_sets, ncomp, nbands
            )
            static["COST_SOLVE"] = solve_costs
            static["COST_TEMP"] = temp_costs

        return self.make_artifact(
            problem, source,
            static_env=static,
            attrs={
                "ir": ir,
                "classified_form": form,
                "expanded_expr": expanded,
                "layout": layout,
            },
        )

    def bind_artifact(self, problem: "Problem", artifact) -> GeneratedSolver:
        cfg = problem.config
        master = SolverState(problem)
        network = problem.extra.get("network_model", IB_CLUSTER)
        layout = artifact.attrs["layout"]

        env: dict = dict(artifact.static_env)
        env["RUN_NSTEPS"] = [cfg.nsteps]  # boxed so run_steps can set it
        env["NETWORK"] = network
        env["PRE_STEP_CALLBACKS"] = list(problem.pre_step_callbacks)
        env["POST_STEP_CALLBACKS"] = list(problem.post_step_callbacks)
        env["run_spmd"] = run_spmd
        env["eval_fcoef"] = eval_fcoef
        env["trace_phase"] = phase_span
        for name, coef in problem.entities.coefficients.items():
            if coef.is_function:
                env[f"coef_fn_{name}"] = coef.value

        # the current partition lives in a shared box so the elastic
        # runtime can swap it mid-run; make_rank_state and the merger read
        # the box instead of closing over a fixed layout
        strategy = cfg.partition_strategy
        if strategy == "cells":
            layout_box = [layout]
        else:
            layout_box = [_split_components(problem, cfg.nparts)]

        controller = _make_controller(problem, layout_box, network)

        if strategy == "cells":
            def make_rank_state(rank: int) -> SolverState:
                st = SolverState(problem)
                st.owned_cells = layout_box[0].owned[rank]
                if controller is not None:
                    controller.prepare_rank_state(st)
                return st
        else:
            def make_rank_state(rank: int) -> SolverState:
                st = SolverState(problem)
                st.owned_comps = layout_box[0][rank]
                if controller is not None:
                    controller.prepare_rank_state(st)
                return st

        env["make_rank_state"] = make_rank_state
        env["merge_results"] = _make_merger(problem, strategy, layout_box)
        env["ELASTIC"] = controller
        env["HEARTBEAT_S"] = problem.extra.get("heartbeat_s")

        solver = GeneratedSolver(
            self.name, artifact.source, env, master,
            code=artifact.code, module_name=artifact.module_name,
        )
        if artifact.code is None:
            artifact.code = solver.code
        attach_artifact_attrs(solver, artifact)
        if controller is not None:
            # recompile() built a fresh namespace dict; partition swaps
            # must rewrite *that* dict, so hand it over post-construction
            controller.attach(solver.namespace)
        return solver


def _band_count(problem: "Problem") -> int:
    """Size of the partition index (or the unknown's last index) used to
    split the temperature-update cost."""
    unknown = problem.unknown
    cfg = problem.config
    if cfg.partition_index and cfg.partition_index in unknown.space.names:
        return unknown.space.size(cfg.partition_index)
    if unknown.space.names:
        return unknown.space.sizes[-1]
    return 1


def _split_components(
    problem: "Problem", nparts: int, weights=None
) -> list[np.ndarray]:
    """Owned component sets for band partitioning: contiguous blocks of the
    partition index's values, all other indices complete.

    ``weights`` skews block sizes (elastic rebalancing); the default split
    is bit-identical to the historical ``np.array_split`` blocks.
    """
    unknown = problem.unknown
    space = unknown.space
    ix = problem.config.partition_index
    if ix is None:
        raise CodegenError("band partitioning needs partition_index")
    size = space.size(ix)
    if nparts > size:
        raise CodegenError(
            f"cannot split index {ix!r} of size {size} over {nparts} ranks "
            "(the paper's band-strategy limit)"
        )
    values = space.axis_values(ix)
    counts = weighted_counts(size, nparts, weights)
    bounds = np.cumsum([0] + counts)
    blocks = [np.arange(bounds[i], bounds[i + 1]) for i in range(nparts)]
    return [np.flatnonzero(np.isin(values, blk)) for blk in blocks]


def _cell_costs(cost: CostModel, layout, ncomp: int, nbands: int):
    """Per-rank (solve, temperature) virtual costs for a cell partition."""
    solve = [cost.intensity_step(len(o), ncomp) for o in layout.owned]
    temp = [cost.temperature_step(len(o), nbands) for o in layout.owned]
    return solve, temp


def _band_costs(cost: CostModel, ncells: int, owned_comp_sets, ncomp: int,
                nbands: int):
    """Per-rank (solve, temperature) virtual costs for a band partition.

    Newton runs redundantly on every rank; the Io/tau refresh only covers
    the rank's own bands (the paper's Fig. 5 asymmetry).
    """
    ndirs = max(1, ncomp // max(nbands, 1))
    solve = [cost.intensity_step(ncells, len(o)) for o in owned_comp_sets]
    temp = [
        cost.newton_step(ncells)
        + cost.iobeta_step(ncells, max(1, len(o) // ndirs))
        for o in owned_comp_sets
    ]
    return solve, temp


def _make_merger(problem: "Problem", strategy: str, layout_box: list):
    """Build the function that folds rank results into the master state.

    The partition is read through ``layout_box`` at merge time: an elastic
    run may have migrated to a different layout (or rank count) than the
    one the solver was bound with.
    """

    def merge(state: SolverState, result, nsteps: int) -> None:
        ranks = result.results
        if strategy == "cells":
            layout = layout_box[0]
            T = None
            for rank, out in enumerate(ranks):
                owned = layout.owned[rank]
                state.u[:, owned] = out["u_owned"]
                if out["T"] is not None:
                    if T is None:
                        T = np.full(state.ncells, float(problem.extra.get("T0", 0.0)))
                    T[owned] = out["T"]
            if T is not None:
                state.extra["T"] = T
        else:
            owned_comp_sets = layout_box[0]
            for rank, out in enumerate(ranks):
                state.u[owned_comp_sets[rank]] = out["u_owned"]
            if ranks and ranks[0]["T"] is not None:
                state.extra["T"] = ranks[0]["T"]
        state.time += state.dt * nsteps
        state.step_index += nsteps

    return merge


def _make_controller(problem: "Problem", layout_box: list, network):
    """Build the :class:`~repro.runtime.rebalance.ElasticRunner` when the
    problem opted into the elastic runtime (``rebalance`` extra), else
    ``None`` (zero overhead: the driver then calls ``run_spmd`` directly).
    """
    extra = problem.extra
    if not extra.get("rebalance"):
        return None
    from repro.runtime.rebalance import ElasticRunner, RebalancePolicy

    cfg = problem.config
    cost = CostModel(extra.get("machine_rates", CASCADE_LAKE_FINCH))
    ncomp = problem.unknown.space.ncomp
    nbands = _band_count(problem)

    if cfg.partition_strategy == "cells":
        axis = "cells"

        def repartition(nranks: int, weights):
            parts = partition_cells(
                problem.mesh, nranks, method="graph", weights=weights)
            return build_partition_layout(
                problem.mesh, parts, halo_layers=max(1, cfg.flux_order))

        def install(layout, namespace):
            layout_box[0] = layout
            solve, temp = _cell_costs(cost, layout, ncomp, nbands)
            namespace["SEND_CELLS"] = layout.send_cells
            namespace["RECV_CELLS"] = layout.recv_cells
            namespace["COST_SOLVE"] = solve
            namespace["COST_TEMP"] = temp
            namespace["NPARTS"] = layout.nparts

        def owned_of(layout):
            return layout.owned
    else:
        axis = "comps"

        def repartition(nranks: int, weights):
            return _split_components(problem, nranks, weights)

        def install(owned_sets, namespace):
            layout_box[0] = owned_sets
            solve, temp = _band_costs(
                cost, problem.mesh.ncells, owned_sets, ncomp, nbands)
            namespace["COST_SOLVE"] = solve
            namespace["COST_TEMP"] = temp
            namespace["NPARTS"] = len(owned_sets)

        def owned_of(owned_sets):
            return owned_sets

    policy = RebalancePolicy(
        heartbeat_s=extra.get("heartbeat_s"),
        imbalance_threshold=float(extra.get("imbalance_threshold", 1.5)),
        check_every=int(extra.get("rebalance_check_every", 4)),
        max_rebalances=int(extra.get("max_rebalances", 1)),
    )
    return ElasticRunner(
        policy=policy, nranks=cfg.nparts, axis=axis,
        repartition=repartition, install=install, owned_of=owned_of,
        current=layout_box[0], network=network,
        state_bytes=ncomp * problem.mesh.ncells * 8,
        workdir=extra.get("checkpoint_dir"),
    )


__all__ = ["CPUDistributedTarget"]
