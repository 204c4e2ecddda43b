"""Code generation targets.

Five targets; the first four mirror the paper's generation modes and are one
finite-volume program (:class:`~repro.codegen.target_base.FVTarget`) under a
placement of the step's tasks and a partition, their interior emitted by
:func:`~repro.codegen.emit.emit_interior` — a call on host arrays where the
plan puts ``interior_update`` on the host, a device launch where on the GPU:

* ``cpu`` (:mod:`~repro.codegen.cpu_serial`) — the constant all-host plan:
  the nested-loop serial solver, loop order from ``assemblyLoops``;
* ``distributed`` (:mod:`~repro.codegen.cpu_distributed`) — the all-host
  plan, split into SPMD rank programs over the simulated communicator, with
  cell (mesh) or band (equation) partitioning;
* ``gpu`` (:mod:`~repro.codegen.gpu_hybrid`) — the placement optimiser's
  plan (:mod:`~repro.codegen.placement`): flattened one-thread-per-DOF
  kernels on the simulated device, asynchronous launch overlapped with
  CPU-pinned boundary callbacks, data movement planned from the plan — or,
  when it keeps every task on the CPU, the ``cpu`` target's host form;
* ``gpu_distributed`` (:mod:`~repro.codegen.gpu_multi`) — the band ranks
  with the device step, one rank per device (Fig. 7);
* ``interp`` (:mod:`~repro.codegen.interpreted`) — no generated numerics:
  the emitter's oracle, walking the symbolic form.

All targets emit genuine Python source (inspect ``solver.source``), compile
it with :func:`compile`/``exec`` and drive it through a shared
:class:`~repro.codegen.state.SolverState`; the time loop of every one comes
from :func:`~repro.codegen.target_base.emit_step_loop`.
"""

from __future__ import annotations

import importlib

from repro.util.errors import CodegenError
from repro.util.lazy import lazy_exports

__getattr__, __dir__, _lazy = lazy_exports(__name__, {
    "target_base": ("CodegenTarget", "GeneratedSolver"),
    "state": ("SolverState",),
    "emit": ("ExprEmitter", "EmittedExpr"),
    "probes": ("TransientRecorder", "LineProbe", "wall_heat_flux"),
})


#: target name -> (module, class), imported on first use
_TARGETS = {
    "cpu": ("cpu_serial", "CPUSerialTarget"),
    "distributed": ("cpu_distributed", "CPUDistributedTarget"),
    "gpu": ("gpu_hybrid", "GPUHybridTarget"),
    "gpu_distributed": ("gpu_multi", "GPUMultiTarget"),
    "interp": ("interpreted", "InterpretedTarget"),
}


def make_target(name: str) -> CodegenTarget:
    """Instantiate a codegen target by name (one of the five above)."""
    if name not in _TARGETS:
        raise CodegenError(
            f"unknown codegen target {name!r} ({'/'.join(_TARGETS)})")
    module, cls = _TARGETS[name]
    return getattr(importlib.import_module(f"repro.codegen.{module}"), cls)()


__all__ = ["make_target", *_lazy]
