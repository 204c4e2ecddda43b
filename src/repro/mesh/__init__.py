"""Mesh substrate: unstructured FV meshes, structured generation, I/O,
partitioning and halo construction.

This package plays the role of Finch's internal grid utility + Gmsh import +
Metis partitioning:

* :class:`~repro.mesh.mesh.Mesh` — face-based finite-volume mesh with owner/
  neighbour connectivity, outward normals, areas, volumes and boundary
  regions;
* :func:`~repro.mesh.grid.structured_grid` — the "simple generation utility"
  (uniform 1-D/2-D/3-D grids, e.g. the paper's 120x120 domain);
* :mod:`~repro.mesh.gmsh_io` — Gmsh v2.2 ASCII reader/writer;
* :mod:`~repro.mesh.partition` — recursive coordinate bisection and
  KL-refined greedy graph partitioning (Metis stand-in) plus halo maps used
  by the distributed runtime.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "mesh": ("Mesh", "build_mesh"),
    "grid": ("structured_grid", "interval_mesh", "triangulated_grid"),
    "partition": (
        "partition_cells",
        "partition_rcb",
        "partition_graph",
        "PartitionLayout",
        "build_partition_layout",
    ),
    "gmsh_io": ("read_gmsh", "write_gmsh"),
    "medit_io": ("read_medit", "write_medit"),
    "vtk_io": ("read_vtk", "write_vtk"),
})
