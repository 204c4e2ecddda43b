"""Intermediate representation: lowering pipeline + computational graph.

The stages mirror Section II of the paper:

1. :func:`~repro.ir.lowering.expand` — resolve entities and symbolic
   operators, flatten scalar components (``u -> _u_1``) and attach the
   implicit time-derivative term, producing the "expanded symbolic
   representation";
2. :func:`~repro.ir.lowering.euler_form` — apply the explicit
   time-integration transform (Eq. 2), producing the update form;
3. :func:`~repro.ir.lowering.classify` — sort terms into LHS/RHS x
   volume/surface groups (the paper's listing), keeping the semi-discrete
   volume/surface integrands the code generators consume;
4. :func:`~repro.ir.build.build_ir` — combine the classified form with the
   solver configuration into an :class:`~repro.ir.nodes.IRProgram`, a
   computational graph "including metadata ... and comment nodes to
   facilitate generation of easily readable code".
"""

from repro.ir.nodes import (
    IRNode,
    IRProgram,
    Block,
    Comment,
    TimeLoop,
    AssemblyLoops,
    ComputeGhosts,
    ComputeFaceFlux,
    ApplyFluxBC,
    ComputeVolumeSource,
    ExplicitUpdate,
    HaloExchange,
    CallbackCall,
    DeviceTransfer,
    KernelLaunch,
    DeviceSync,
    GlobalReduction,
    print_ir,
)
from repro.ir.lowering import (
    ClassifiedForm,
    expand,
    euler_form,
    classify,
    lower_conservation_form,
    render_stage_listing,
)
from repro.ir.build import build_ir

__all__ = [
    "IRNode",
    "IRProgram",
    "Block",
    "Comment",
    "TimeLoop",
    "AssemblyLoops",
    "ComputeGhosts",
    "ComputeFaceFlux",
    "ApplyFluxBC",
    "ComputeVolumeSource",
    "ExplicitUpdate",
    "HaloExchange",
    "CallbackCall",
    "DeviceTransfer",
    "KernelLaunch",
    "DeviceSync",
    "GlobalReduction",
    "print_ir",
    "ClassifiedForm",
    "expand",
    "euler_form",
    "classify",
    "lower_conservation_form",
    "render_stage_listing",
    "build_ir",
]
