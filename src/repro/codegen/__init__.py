"""Code generation targets.

Six targets; the first four mirror the paper's generation modes:

* ``cpu`` (:mod:`~repro.codegen.cpu_serial`) — nested-loop serial solver,
  loop order from ``assemblyLoops``;
* ``distributed`` (:mod:`~repro.codegen.cpu_distributed`) — SPMD rank
  program over the simulated communicator, with cell (mesh) or band
  (equation) partitioning;
* ``gpu`` (:mod:`~repro.codegen.gpu_hybrid`) — flattened one-thread-per-DOF
  kernels on the simulated device, asynchronous launch overlapped with
  CPU-pinned boundary callbacks, data movement planned by the placement
  optimiser (:mod:`~repro.codegen.placement`);
* ``gpu_distributed`` (:mod:`~repro.codegen.gpu_multi`) — band partitioning
  across devices, one rank per device (Fig. 7);
* ``interp`` (:mod:`~repro.codegen.interpreted`) — no generated numerics:
  the emitter's oracle, walking the symbolic form;
* ``fem`` (:mod:`~repro.codegen.fem_target`) — P1 weak-form path.

All targets emit genuine Python source (inspect ``solver.source``), compile
it with :func:`compile`/``exec`` and drive it through a shared
:class:`~repro.codegen.state.SolverState`; the time loop of every one comes
from :func:`~repro.codegen.target_base.emit_step_loop`.
"""

from __future__ import annotations

from repro.util.errors import CodegenError
from repro.util.lazy import lazy_exports

__getattr__, __dir__, _lazy = lazy_exports(__name__, {
    "target_base": ("CodegenTarget", "GeneratedSolver"),
    "state": ("SolverState",),
    "emit": ("ExprEmitter", "EmittedExpr"),
    "probes": ("TransientRecorder", "LineProbe", "wall_heat_flux"),
})


def make_target(name: str) -> CodegenTarget:
    """Instantiate a codegen target by name (one of the six above)."""
    if name == "cpu":
        from repro.codegen.cpu_serial import CPUSerialTarget

        return CPUSerialTarget()
    if name == "distributed":
        from repro.codegen.cpu_distributed import CPUDistributedTarget

        return CPUDistributedTarget()
    if name == "gpu":
        from repro.codegen.gpu_hybrid import GPUHybridTarget

        return GPUHybridTarget()
    if name == "gpu_distributed":
        from repro.codegen.gpu_multi import GPUMultiTarget

        return GPUMultiTarget()
    if name == "interp":
        from repro.codegen.interpreted import InterpretedTarget

        return InterpretedTarget()
    if name == "fem":
        from repro.codegen.fem_target import FEMTarget

        return FEMTarget()
    raise CodegenError(
        f"unknown codegen target {name!r} "
        "(cpu/distributed/gpu/gpu_distributed/interp/fem)"
    )


__all__ = ["make_target", *_lazy]
