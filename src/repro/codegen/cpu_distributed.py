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
agreement with the serial solver bit for bit) while virtual clocks are
charged from the calibrated :class:`~repro.perfmodel.costs.CostModel` — see
DESIGN.md for the substitution rationale.  A rank does only its own work: a
band rank sweeps its owned component rows alone (``compute_rhs(...,
rows=owned)``); a cell rank is the serial program on its piece of the mesh
(:func:`~repro.mesh.partition.mesh_pieces`, built at bind and at each
repartition), whose halo the exchange refreshes before each step.

Note: a distributed run always starts from the declared initial conditions
or the cut ``restore_from`` names (each rank builds its state from the
problem), so ``run_steps`` describes a whole run, not an increment on the
master state.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from repro.codegen.state import SolverState
from repro.codegen.target_base import (
    ADVANCE,
    CodegenTarget,
    FVTarget,
    GeneratedSolver,
    emit_step_loop,
)
from repro.ir.build import build_ir  # noqa: F401  (the build's stages, named here)
from repro.ir.lowering import lower_conservation_form  # noqa: F401
from repro.mesh.partition import (
    build_partition_layout,
    mesh_pieces,
    partition_cells,
    weighted_counts,
)
from repro.perfmodel.costs import CostModel
from repro.perfmodel.machines import CASCADE_LAKE_FINCH
from repro.runtime.executor import run_spmd
from repro.runtime.netmodel import IB_CLUSTER
from repro.util.errors import CodegenError

if TYPE_CHECKING:
    from repro.dsl.problem import Problem


def _solve(sweep: str) -> list[str]:
    """The CPU ranks' step hole: the sweep over what the rank owns."""
    return [
        "with state.phase('solve'):",
        f"    {sweep}",
        "comm.compute(COST_SOLVE[comm.rank], phase='solve for intensity')",
        *ADVANCE,
    ]


#: a rank's post-step work on its communicator clock
CHARGE_TEMP = ["comm.compute(COST_TEMP[comm.rank], phase='temperature update')"]
#: what a band rank returns: its rows, and the temperature every rank holds
BAND_RESULT = ["'u': state.u[owned],", "'T': T,"]

#: The holes of the two rank programs (:func:`emit_step_loop`).
RANK_LOOPS = {
    "cells": dict(
        doc=['"""One rank of the cell-partitioned solver (Fig. 3, top)."""'],
        before_step=[
            "# refresh the halo: send owned interface cells, receive theirs",
            "with trace_phase('halo_exchange', cat='comm'):",
            "    sends = {q: np.ascontiguousarray(state.u[:, cells])",
            "             for q, cells in state.piece.send.items()}",
            "    received = comm.exchange(sends, tag=7)",
            "    for q, data in received.items():",
            "        state.u[:, state.piece.recv[q]] = data",
        ],
        step=_solve("compute_rhs(state, state.u, state.time)"),
        charge=CHARGE_TEMP,
        result=["'u': state.u,", "'T': T,"],  # (its piece's: merged by its owned ids)
    ),
    "bands": dict(
        doc=[
            '"""One rank of the band-partitioned solver (Fig. 3, bottom).',
            "",
            "No halo: bands couple only through the temperature update's energy",
            "reduction (done inside the post-step callback via comm.allreduce).",
            '"""',
        ],
        prologue=["owned = state.owned_comps"],
        step=_solve("compute_rhs(state, state.u, state.time, owned)"),
        charge=CHARGE_TEMP,
        result=BAND_RESULT,
    ),
}


class CPUDistributedTarget(FVTarget):
    """Cell- or band-partitioned SPMD generation: the all-host plan, split."""

    name = "distributed"

    def partition(self, problem: "Problem") -> str:
        return problem.config.partition_strategy

    def plan(self, problem: "Problem", emitter, surface, volume) -> dict:
        cfg = problem.config
        if cfg.partition_strategy not in RANK_LOOPS:
            raise CodegenError(
                "distributed target needs partitioning('cells'|'bands', nparts)"
            )
        # partitioning is part of the build: the Metis-style cut and the
        # halo layout are pure functions of (mesh, nparts, flux_order)
        cells = cfg.partition_strategy == "cells"
        return {"layout": _cell_layout(problem, cfg.nparts) if cells else None}

    def program(self, problem: "Problem", plan: dict) -> list[str]:
        return emit_step_loop(self.source_name, spmd=True,
                              **RANK_LOOPS[self.partition(problem)])

    def bind_artifact(self, problem: "Problem", artifact) -> GeneratedSolver:
        return bind_spmd(self, problem, artifact, SolverState(problem))


def bind_spmd(target: CodegenTarget, problem: "Problem", artifact, master, *,
              env: dict | None = None, prepare=None) -> GeneratedSolver:
    """The bind half every SPMD target shares: what the driver and the rank
    programs of :func:`emit_step_loop` read from their namespace.

    The partition — the pieces of the artifact's ``PartitionLayout`` under
    cell partitioning, the ranks' owned component sets under band
    partitioning — lives in a box, so the elastic runtime can swap it
    mid-run: ``make_rank_state`` and the merger read the box, not a fixed
    layout.  ``repartition(nranks, weights)`` builds another one and
    ``tables(partition)`` the namespace entries one decides; both reach the
    :class:`~repro.runtime.rebalance.ElasticRunner`, bound only when the
    problem opted in (``rebalance`` extra: the driver otherwise calls
    ``run_spmd`` directly, at zero overhead).  ``prepare(state, rank)``
    finishes a rank state (a device target attaches the rank's device).
    """
    cells = problem.config.partition_strategy == "cells"
    if cells:
        current = mesh_pieces(problem.mesh, artifact.attrs["layout"])

        def repartition(nranks, weights):
            return mesh_pieces(problem.mesh, _cell_layout(problem, nranks, weights))
    else:
        current = _split_components(problem, problem.config.nparts)
        repartition = partial(_split_components, problem)
    tables = _partition_tables(problem)
    extra = problem.extra
    box = [current]

    def owned_of(partition):  # per rank, the global ids of its cells or components
        return [p.cells[p.owned] for p in partition] if cells else partition

    controller = None
    if extra.get("rebalance"):
        from repro.runtime.rebalance import ElasticRunner, RebalancePolicy

        def install(partition, namespace):
            box[0] = partition
            namespace.update(tables(partition), NPARTS=len(partition))

        controller = ElasticRunner(
            policy=RebalancePolicy(
                heartbeat_s=extra.get("heartbeat_s"),
                imbalance_threshold=float(extra.get("imbalance_threshold", 1.5)),
            ),
            nranks=problem.config.nparts, repartition=repartition,
            install=install, owned_of=owned_of, current=current, network=IB_CLUSTER,
            state=master,
        )

    def make_rank_state(rank: int) -> SolverState:
        st = SolverState(problem, box[0][rank] if cells else None)
        st.owned_comps = None if cells else box[0][rank]
        if controller is not None:
            controller.prepare_rank_state(st)
        if prepare is not None:
            prepare(st, rank)
        return st

    def merge_results(state: SolverState, result, nsteps: int) -> None:
        """Fold the rank results into the master state, by the partition in
        the box *now*: an elastic run may have migrated to a different one
        (or another rank count) than the solver was bound with."""
        T = None
        for part, out in zip(box[0], result.results):
            u, T_rank = out["u"], out["T"]
            if cells:
                state.u[:, part.cells[part.owned]] = u[:, part.owned]
                if T_rank is not None:
                    if T is None:
                        T = np.full(state.ncells, float(extra.get("T0", 0.0)))
                    T[part.cells[part.owned]] = np.asarray(T_rank)[part.owned]
            else:
                state.u[part] = u
                if T is None:
                    T = T_rank  # every band rank holds all of it
        if T is not None:
            state.extra["T"] = T
        state.time += state.dt * nsteps
        state.step_index += nsteps

    solver = target.bind_solver(problem, artifact, master, {
        **(env or {}),
        **tables(current),
        "NPARTS": len(current),
        "RUN_NSTEPS": [problem.config.nsteps],  # boxed so run_steps can set it
        "NETWORK": IB_CLUSTER,
        "run_spmd": run_spmd,
        "make_rank_state": make_rank_state,
        "merge_results": merge_results,
        "ELASTIC": controller,
        "HEARTBEAT_S": extra.get("heartbeat_s"),
    })
    if controller is not None:
        # recompile() built a fresh namespace dict; partition swaps must
        # rewrite *that* dict, so hand it over post-construction
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


def _cell_layout(problem: "Problem", nranks: int, weights=None):
    """The cell partition over ``nranks`` and its halo layout; second-order
    reconstructions read neighbours-of-neighbours: a two-layer halo."""
    parts = partition_cells(problem.mesh, nranks, method="graph", weights=weights)
    return build_partition_layout(
        problem.mesh, parts, halo_layers=max(1, problem.config.flux_order))


def _partition_tables(problem: "Problem"):
    """``tables(partition)``: the namespace entries a partition decides, the
    per-rank cost vectors: each rank's clock advances by *its own* owned
    work, so partition skew is visible to the imbalance watcher (and
    correctable by a weighted repartition, which rewrites them)."""
    cost = CostModel(CASCADE_LAKE_FINCH)
    ncomp, ncells = problem.unknown.space.ncomp, problem.mesh.ncells
    nbands = _band_count(problem)
    ndirs = max(1, ncomp // max(nbands, 1))
    n_bfaces = int(np.count_nonzero(problem.mesh.face_cells[:, 1] < 0))

    def cell_tables(pieces):
        return {
            "COST_SOLVE": [cost.intensity_step(len(p.owned), ncomp) for p in pieces],
            "COST_TEMP": [cost.temperature_step(len(p.owned), nbands) for p in pieces],
        }

    def band_tables(owned_sets):
        return {
            "COST_SOLVE": [cost.intensity_step(ncells, len(o)) for o in owned_sets],
            # Newton runs redundantly on every rank; the Io/tau refresh only
            # covers the rank's own bands (the paper's Fig. 5 asymmetry)
            "COST_TEMP": [cost.newton_step(ncells)
                          + cost.iobeta_step(ncells, max(1, len(o) // ndirs))
                          for o in owned_sets],
            # a device rank's boundary part, overlapped with its kernel
            "COST_BOUNDARY": [cost.boundary_step(n_bfaces, len(o)) for o in owned_sets],
        }

    return cell_tables if problem.config.partition_strategy == "cells" else band_tables


__all__ = ["CPUDistributedTarget", "bind_spmd"]
