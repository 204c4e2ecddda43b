"""Simulated distributed runtime (the MPI stand-in).

Rank programs run as real threads exchanging real data through typed
point-to-point channels and collectives, while each rank advances a
*virtual* clock charged by an (alpha + bytes/beta) network model.  This
keeps the semantics of the generated distributed code honest — halo
exchanges move actual ghost values, reductions combine actual partial
energies — while the strong-scaling numbers come from the cost model
(there are not 320 cores here).

* :class:`~repro.runtime.netmodel.NetworkModel` — latency/bandwidth pairs
  with presets for an InfiniBand-class cluster interconnect and intra-node
  shared memory;
* :class:`~repro.runtime.comm.World` / :class:`~repro.runtime.comm.Communicator`
  — ``send``/``recv``/``allreduce``/``allgather``/``barrier`` plus
  ``compute(seconds)`` for charging local work;
* :func:`~repro.runtime.executor.run_spmd` — runs one program per rank and
  returns each rank's results and virtual timings;
* :class:`~repro.runtime.halo.HaloExchanger` — neighbour exchange built from
  a :class:`~repro.mesh.partition.PartitionLayout`;
* :mod:`~repro.runtime.faults` / :mod:`~repro.runtime.resilience` — seeded
  fault injection (message drop/delay/dup, rank stalls, device OOM/kernel
  faults) and the recovery machinery (retry policy, resilience log,
  ``repro.checkpoint/1`` schema).
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "netmodel": ("NetworkModel", "IB_CLUSTER", "SHARED_MEMORY", "ZERO_COST"),
    "comm": ("World", "Communicator", "ReduceOp"),
    "executor": ("run_spmd", "SPMDResult"),
    "faults": ("FaultInjector", "FaultRule", "fault_run", "parse_fault_spec"),
    "halo": ("HaloExchanger",),
    "resilience": ("CHECKPOINT_SCHEMA", "RetryPolicy", "checkpoint_path"),
})
