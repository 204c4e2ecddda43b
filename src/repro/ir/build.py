"""Build the IR computational graph from a classified form + configuration.

``build_ir(problem, form, flavor)`` assembles the per-step program the
paper sketches in Section II-B: the sequential time loop, the parallel
cell/DOF work (flux + source + update), boundary handling, the user hooks,
and — per flavour — halo exchanges (distributed) or kernel launches with
host/device transfers (gpu).  Code generators walk this graph; its printed
form (:func:`repro.ir.nodes.print_ir`) is also asserted by tests and shown
in the docs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ir.lowering import ClassifiedForm
from repro.ir.nodes import (
    ApplyFluxBC,
    AssemblyLoops,
    Block,
    CallbackCall,
    Comment,
    ComputeFaceFlux,
    ComputeGhosts,
    ComputeVolumeSource,
    DeviceSync,
    DeviceTransfer,
    ExplicitUpdate,
    GlobalReduction,
    HaloExchange,
    IRProgram,
    KernelLaunch,
    TimeLoop,
)
from repro.util.errors import CodegenError

if TYPE_CHECKING:
    from repro.dsl.problem import Problem


def build_ir(problem: "Problem", form: ClassifiedForm, flavor: str = "cpu",
             transfers=None) -> IRProgram:
    """Assemble the IR for one of the three generation flavours.  The gpu
    flavour prints the per-step copies of ``transfers`` (the placement's
    :class:`~repro.codegen.placement.TransferPlan`); without one, those of
    the paper's plan: the unknown down and back, the post-step's updates."""
    if flavor not in ("cpu", "distributed", "gpu"):
        raise CodegenError(f"unknown IR flavour {flavor!r}")
    unknown = form.unknown
    cfg = problem.config

    flux_regions = sorted(
        b.region
        for b in problem.boundaries
        if b.variable == unknown.name and b.kind.value == "flux"
    )
    bc_has_callbacks = any(
        b.variable == unknown.name and (b.call is not None or b.python_callback is not None)
        for b in problem.boundaries
    )

    prelude = Block(
        body=[
            Comment(f"problem '{problem.name}': {cfg.dimension}-D FV, "
                    f"{unknown.ncomp} component(s) of {unknown.name!r} per cell"),
            Comment(f"equation: {problem.equation.source}" if problem.equation else ""),
        ],
        meta={"unknown": unknown.name, "ncomp": unknown.ncomp},
    )

    step = Block()

    for cb in problem.pre_step_callbacks:
        step.body.append(CallbackCall(name=cb.name, when="pre_step"))

    # the per-DOF work (flux + source + update), wrapped per flavour
    core = Block(
        body=[
            ComputeGhosts(variable=unknown.name, has_callbacks=bc_has_callbacks),
            ComputeFaceFlux(variable=unknown.name, terms=list(form.surface_terms)),
            ApplyFluxBC(variable=unknown.name, regions=flux_regions),
            ComputeVolumeSource(variable=unknown.name, terms=list(form.volume_terms)),
            ExplicitUpdate(variable=unknown.name, scheme=cfg.stepper),
        ]
    )

    if flavor == "cpu":
        step.body.append(
            Comment("cell loop parallelisable; order from assemblyLoops: "
                    + ", ".join(cfg.assembly_order))
        )
        step.body.append(AssemblyLoops(order=list(cfg.assembly_order), body=core))
    elif flavor == "distributed":
        if cfg.partition_strategy == "cells":
            step.body.append(Comment("cell partitioning: ghost values live on "
                                     "neighbour ranks (Fig. 3, top)"))
            step.body.append(HaloExchange(variable=unknown.name))
        else:
            step.body.append(Comment("band partitioning: no halo needed; bands "
                                     "couple only through the reduction below "
                                     "(Fig. 3, bottom)"))
        step.body.append(AssemblyLoops(order=list(cfg.assembly_order), body=core))
        if cfg.partition_strategy == "bands" and problem.post_step_callbacks:
            step.body.append(GlobalReduction(what="band energy", op="sum"))
    else:  # gpu
        interior = Block(
            body=[
                Comment("interior bulk: uniform work, one thread per DOF "
                        "(loops flattened)"),
                ComputeFaceFlux(variable=unknown.name, terms=list(form.surface_terms)),
                ComputeVolumeSource(variable=unknown.name, terms=list(form.volume_terms)),
                ExplicitUpdate(variable=unknown.name, scheme=cfg.stepper),
            ]
        )
        step.body.append(
            KernelLaunch(kernel=f"{unknown.name}_interior_step", covers=[interior],
                         asynchronous=True)
        )
        step.body.append(Comment("boundary handled on CPU while the kernel runs "
                                 "(user callbacks stay host code; Fig. 6)"))
        step.body.append(ComputeGhosts(variable=unknown.name, has_callbacks=bc_has_callbacks))
        step.body.append(ApplyFluxBC(variable=unknown.name, regions=flux_regions))
        step.body.append(DeviceSync())
        step.body.append(DeviceTransfer(
            direction="d2h", arrays=[unknown.name] if transfers is None
            else list(transfers.d2h_each_step)))
        step.body.append(Comment("combine interior + boundary contributions"))

    for cb in problem.post_step_callbacks:
        step.body.append(CallbackCall(name=cb.name, when="post_step"))

    if flavor == "gpu":
        # values the post-step mutated must return to the device
        mutated = [v for v in problem.entities.variables if v != unknown.name]
        if transfers is not None:
            step.body.append(DeviceTransfer(
                direction="h2d", arrays=list(transfers.h2d_each_step)))
        elif problem.post_step_callbacks and mutated:
            step.body.append(
                DeviceTransfer(direction="h2d", arrays=sorted(mutated),
                               meta={"reason": "post-step updates"})
            )

    return IRProgram(
        name=problem.name,
        prelude=prelude,
        time_loop=TimeLoop(body=step, nsteps_symbol=str(cfg.nsteps), dt_symbol="dt"),
    )


__all__ = ["build_ir"]
