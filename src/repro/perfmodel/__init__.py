"""Performance models behind the paper's scaling figures.

Pure Python timings cannot stand in for the paper's compiled Julia/Fortran
on a 40-core Cascade Lake cluster, so the scaling results (Figs. 4, 5, 7,
8, 9) are produced by cost models that charge *virtual* seconds:

* :mod:`~repro.perfmodel.machines` — machine descriptions: per-DOF compute
  rates of the generated CPU code, the hand-written Fortran comparator, and
  the simulated A6000 (whose kernel times come from the
  :mod:`repro.gpu` roofline model);
* :mod:`~repro.perfmodel.costs` — :class:`CostModel`: work-counts of each
  BTE phase (intensity sweep, temperature update, boundary handling) mapped
  to seconds on a machine;
* :mod:`~repro.perfmodel.scaling` — strong-scaling evaluators for every
  strategy in the paper (band-parallel, cell-parallel, GPU-hybrid,
  reference Fortran) returning the execution-time series and phase
  breakdowns the benchmark harness prints.

The *same* cost model also drives the virtual clocks of the simulated
communicator runs, so the analytic curves and the executed small-scale SPMD
runs agree by construction — tests assert that.
"""

from repro.perfmodel.machines import (
    MachineRates,
    CASCADE_LAKE_FINCH,
    CASCADE_LAKE_FORTRAN,
    default_gpu_spec,
)
from repro.perfmodel.costs import CostModel, BTEWorkload
from repro.perfmodel.scaling import (
    StrategyTimes,
    band_parallel_times,
    cell_parallel_times,
    gpu_hybrid_times,
    fortran_reference_times,
    strong_scaling_table,
)

__all__ = [
    "MachineRates",
    "CASCADE_LAKE_FINCH",
    "CASCADE_LAKE_FORTRAN",
    "default_gpu_spec",
    "CostModel",
    "BTEWorkload",
    "StrategyTimes",
    "band_parallel_times",
    "cell_parallel_times",
    "gpu_hybrid_times",
    "fortran_reference_times",
    "strong_scaling_table",
]
