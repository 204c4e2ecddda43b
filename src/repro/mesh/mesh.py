"""Face-based finite-volume mesh.

The :class:`Mesh` stores the connectivity and geometry needed by an FVM
assembler in flat numpy arrays (struct-of-arrays layout, following the
HPC-python guidance of keeping hot data contiguous):

* ``face_cells[f] = (owner, neighbour)`` with ``neighbour == -1`` on the
  boundary; ``face_normals[f]`` is the *unit* normal pointing out of the
  owner;
* ragged cell->face and cell->node maps as ``offsets``/``indices`` pairs;
* ``face_region[f]`` is ``0`` for interior faces and a positive boundary
  region id otherwise (the ids used by ``boundary(I, 1, FLUX, ...)``).

Meshes are built with :func:`build_mesh` from a node array plus per-cell node
ids (one ``(ncells, k)`` array from the generators of :mod:`repro.mesh.grid`,
ragged lists from the Gmsh/Medit/VTK readers); everything goes through it, so
every mesh is checked and validated the same way.  The builder is array code
end to end — cells grouped by node count, local faces as one cell-major
array, unique faces by sorted-node key, batched shoelace/Newell geometry —
with two contracts the rest of the package leans on:

* **faces are numbered in first-seen order**: face ``f`` is the ``f``-th
  distinct face a traversal of the cells (cell by cell, local face by local
  face) meets; its owner is the cell that met it first and traverses it with
  sign ``+1``, the neighbour second with ``-1``.  Every per-face table
  downstream (geometry, invariant tables, divergence slots, goldens) is
  indexed by this numbering, so it is part of the bit-identity contract;
* **every array equals, byte for byte, what the per-cell loop it replaced
  produced** (``tests/mesh/reference_build.py`` keeps that loop as the
  oracle), which is why the geometry primitives fix their operation order.

Untrusted input is checked once, up front (ids integral and in range,
coordinates finite: ``RPR504``), and :meth:`Mesh.validate` compares with
``not (x > 0)`` so a NaN can never pass.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.mesh.geometry import (
    edge_outward_normal,
    newell_normal_area,
    polygon_area,
    polygon_centroid,
    row_dot,
)
from repro.util.errors import MeshError


@dataclass
class Mesh:
    """Immutable-after-build finite-volume mesh (see module docstring)."""

    dim: int
    nodes: np.ndarray  # (nnodes, dim)
    # ragged cell -> node connectivity
    cell_node_offsets: np.ndarray  # (ncells + 1,)
    cell_node_indices: np.ndarray
    # faces
    face_node_offsets: np.ndarray  # (nfaces + 1,)
    face_node_indices: np.ndarray
    face_cells: np.ndarray  # (nfaces, 2), neighbour -1 on boundary
    face_normals: np.ndarray  # (nfaces, dim) unit, outward from owner
    face_areas: np.ndarray  # (nfaces,)
    face_centers: np.ndarray  # (nfaces, dim)
    face_region: np.ndarray  # (nfaces,) 0 interior, >0 boundary region id
    # cells
    cell_volumes: np.ndarray  # (ncells,)
    cell_centroids: np.ndarray  # (ncells, dim)
    # ragged cell -> face connectivity; sign +1 when the cell owns the face
    cell_face_offsets: np.ndarray  # (ncells + 1,)
    cell_face_indices: np.ndarray
    cell_face_signs: np.ndarray  # (+1 owner / -1 neighbour)
    name: str = "mesh"
    metadata: dict = field(default_factory=dict)

    # ------------------------------------------------------------------ sizes
    @property
    def ncells(self) -> int:
        return len(self.cell_volumes)

    @property
    def nfaces(self) -> int:
        return len(self.face_areas)

    @property
    def nnodes(self) -> int:
        return len(self.nodes)

    # ------------------------------------------------------------ connectivity
    def cell_nodes(self, cell: int) -> np.ndarray:
        """Node indices of one cell."""
        return self.cell_node_indices[
            self.cell_node_offsets[cell] : self.cell_node_offsets[cell + 1]
        ]

    def cell_faces(self, cell: int) -> np.ndarray:
        """Face indices of one cell."""
        return self.cell_face_indices[
            self.cell_face_offsets[cell] : self.cell_face_offsets[cell + 1]
        ]

    def face_nodes(self, face: int) -> np.ndarray:
        return self.face_node_indices[
            self.face_node_offsets[face] : self.face_node_offsets[face + 1]
        ]

    def interior_faces(self) -> np.ndarray:
        """Indices of faces with a cell on both sides."""
        return np.flatnonzero(self.face_cells[:, 1] >= 0)

    def boundary_faces(self, region: int | None = None) -> np.ndarray:
        """Boundary face indices, optionally restricted to one region id."""
        if region is None:
            return np.flatnonzero(self.face_cells[:, 1] < 0)
        return np.flatnonzero(self.face_region == region)

    def boundary_regions(self) -> list[int]:
        """Sorted list of boundary region ids present in the mesh."""
        return sorted(set(self.face_region[self.face_region > 0].tolist()))

    def cell_neighbors(self) -> list[list[int]]:
        """Adjacency list of cells sharing a face (used by partitioners)."""
        adj: list[list[int]] = [[] for _ in range(self.ncells)]
        for owner, neigh in self.face_cells:
            if neigh >= 0:
                adj[owner].append(int(neigh))
                adj[neigh].append(int(owner))
        return adj

    def to_networkx(self):
        """Cell-adjacency graph with edge weight = shared face area."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.ncells))
        for f in self.interior_faces():
            owner, neigh = self.face_cells[f]
            g.add_edge(int(owner), int(neigh), weight=float(self.face_areas[f]), face=int(f))
        return g

    # ---------------------------------------------------------------- checks
    def validate(self, tol: float = 1e-9) -> None:
        """Raise :class:`MeshError` on geometric inconsistencies.

        Checks: positive volumes and areas, unit normals, per-cell closure
        (``sum_f A_f n_f == 0``, the discrete divergence theorem), owner
        normals pointing away from the owner centroid, and boundary faces
        carrying a positive region id.
        """
        # every test is "not (x > 0)" rather than "x <= 0": a NaN must not pass
        if not np.all(self.cell_volumes > 0):
            bad = int(np.argmin(self.cell_volumes))
            raise MeshError(f"non-positive volume in cell {bad}: {self.cell_volumes[bad]}")
        if not np.all(self.face_areas > 0):
            bad = int(np.argmin(self.face_areas))
            raise MeshError(f"non-positive area on face {bad}: {self.face_areas[bad]}")
        norms = np.linalg.norm(self.face_normals, axis=1)
        if not np.all(np.abs(norms - 1.0) <= tol):
            bad = int(np.argmax(np.abs(norms - 1.0)))
            raise MeshError(f"non-unit normal on face {bad}: |n| = {norms[bad]}")
        # per-cell closure as one segmented sum: the signed area vectors padded
        # to (ncells, most faces per cell, dim) and added face slot by face
        # slot, i.e. in each cell's own face order
        nfaces = np.diff(self.cell_face_offsets)
        cell_of = np.repeat(np.arange(self.ncells), nfaces)
        local = np.arange(len(cell_of)) - self.cell_face_offsets[cell_of]
        faces = self.cell_face_indices
        padded = np.zeros((self.ncells, int(nfaces.max()), self.dim))
        padded[cell_of, local] = (self.face_normals[faces] * self.cell_face_signs[:, None]
                                  * self.face_areas[faces][:, None])
        total = np.zeros((self.ncells, self.dim))
        for slot in range(padded.shape[1]):
            total += padded[:, slot]
        residual = np.abs(total).max(axis=1)
        # characteristic length to make the closure tolerance scale free
        h = float(np.mean(self.face_areas))
        open_cells = np.flatnonzero(residual > tol * max(h, 1.0) * nfaces)
        if len(open_cells):
            c = open_cells[0]
            raise MeshError(f"cell {c} is not closed: closure residual {residual[c]}")
        # outwardness of owner normals
        owners = self.face_cells[:, 0]
        outward = np.einsum(
            "fd,fd->f", self.face_normals, self.face_centers - self.cell_centroids[owners]
        )
        if not np.all(outward > 0):
            bad = int(np.argmin(outward))
            raise MeshError(f"face {bad} normal does not point out of its owner")
        boundary = self.face_cells[:, 1] < 0
        if np.any(self.face_region[boundary] <= 0):
            bad = int(np.flatnonzero(boundary & (self.face_region <= 0))[0])
            raise MeshError(f"boundary face {bad} has no region id")
        if np.any(self.face_region[~boundary] != 0):
            bad = int(np.flatnonzero(~boundary & (self.face_region != 0))[0])
            raise MeshError(f"interior face {bad} carries a boundary region id")

    def __repr__(self) -> str:
        return (
            f"Mesh(name={self.name!r}, dim={self.dim}, ncells={self.ncells}, "
            f"nfaces={self.nfaces}, regions={self.boundary_regions()})"
        )


# ---------------------------------------------------------------------------
# builder
# ---------------------------------------------------------------------------

#: Node orderings of the six faces of a hexahedron in Gmsh corner order
#: (each CCW seen from outside for a right-handed brick).
_HEX_FACES = np.array([
    (0, 3, 2, 1),  # z-min (outward -z)
    (4, 5, 6, 7),  # z-max (outward +z)
    (0, 1, 5, 4),  # y-min
    (2, 3, 7, 6),  # y-max
    (0, 4, 7, 3),  # x-min
    (1, 2, 6, 5),  # x-max
])


def _flatten_cells(cells, nnodes: int) -> tuple[np.ndarray, np.ndarray]:
    """``(offsets, node ids)`` of ``cells`` — an ``(ncells, k)`` id array or
    ragged per-cell lists — after checking every id is an integer in
    ``[0, nnodes)``: numpy would wrap ``-1``, truncate ``0.5`` and raise a
    bare ``IndexError`` past the end."""
    if isinstance(cells, np.ndarray) and cells.ndim == 2:
        sizes, flat = np.full(len(cells), cells.shape[1]), cells.ravel()
    else:
        try:
            sizes = np.fromiter(map(len, cells), dtype=np.int64, count=len(cells))
            flat = np.array(list(chain.from_iterable(cells)))
        except (TypeError, ValueError) as exc:
            raise MeshError(f"cells must be per-cell lists of node ids: {exc}",
                            code="RPR504") from exc
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    if flat.dtype.kind not in "iuf" and flat.size:
        raise MeshError(f"cell node ids must be integers, got {flat.dtype}", code="RPR504")
    with np.errstate(invalid="ignore"):  # a NaN id fails the comparison below
        ids = flat.astype(np.int64)
    bad = np.flatnonzero((ids != flat) | (ids < 0) | (ids >= nnodes))
    if len(bad):
        cell = int(np.searchsorted(offsets, bad[0], side="right")) - 1
        raise MeshError(f"cell {cell} references node {flat[bad[0]]}: node ids must be "
                        f"integers in [0, {nnodes})", code="RPR504")
    return offsets, ids


def _unique_faces(fnodes: np.ndarray, cell_of: np.ndarray):
    """Number the faces of a cell-major list of local faces ``(n, w)`` in
    first-seen order (the order a traversal of the cells meets them — part
    of the mesh's byte contract: every per-face table is indexed by it).

    Returns ``(face_of, first)``: the face id of every local face, and per
    face the position of its first local face (its owner's)."""
    keys = np.sort(fnodes, axis=1)
    order = np.lexsort(keys.T[::-1])  # stable: equal keys stay in traversal order
    keys = keys[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    crowded = starts[np.diff(starts, append=len(order)) > 2]
    if len(crowded):
        at = crowded[np.argmin(order[crowded + 2])]  # the third touch met first
        raise MeshError(
            f"face {tuple(keys[at].tolist())} shared by more than two cells "
            f"({', '.join(str(cell_of[order[at + i]]) for i in range(3))})"
        )
    first = order[starts]
    rank = np.argsort(first)
    face_of_group = np.empty(len(starts), dtype=np.int64)
    face_of_group[rank] = np.arange(len(starts))
    face_of = np.empty(len(order), dtype=np.int64)
    face_of[order] = face_of_group[np.cumsum(new) - 1]
    return face_of, first[rank]


def build_mesh(
    nodes: np.ndarray,
    cells: np.ndarray | Sequence[Sequence[int]],
    dim: int | None = None,
    boundary_marker: Callable[[np.ndarray, np.ndarray], int] | None = None,
    boundary_face_regions: dict[tuple[int, ...], int] | None = None,
    name: str = "mesh",
    validate: bool = True,
) -> Mesh:
    """Build a :class:`Mesh` from nodes and per-cell node lists.

    Parameters
    ----------
    nodes:
        ``(nnodes, dim)`` finite coordinates.
    cells:
        Per-cell node ids, as an ``(ncells, k)`` array or ragged lists.
        1-D: 2 nodes; 2-D: CCW polygon (order is fixed automatically if
        given CW); 3-D: 8-node hexahedron in Gmsh corner order (axis-aligned
        bricks are what the generator produces).
    boundary_marker:
        ``f(face_center, outward_normal) -> region_id`` used to tag boundary
        faces (default: everything is region 1).
    boundary_face_regions:
        Explicit tags from a mesh file: maps the *sorted node tuple* of a
        boundary face to its region id; wins over ``boundary_marker``.
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    if nodes.ndim == 1:
        nodes = nodes[:, None]
    if dim is None:
        dim = nodes.shape[1]
    if nodes.shape[1] != dim:
        raise MeshError(f"nodes have {nodes.shape[1]} coords but dim={dim}")
    if dim not in (1, 2, 3):
        raise MeshError(f"unsupported dimension {dim}")
    ncells = len(cells)
    if ncells == 0:
        raise MeshError("mesh needs at least one cell")
    if not np.isfinite(nodes).all():
        bad = int(np.flatnonzero(~np.isfinite(nodes).all(axis=1))[0])
        raise MeshError(f"node {bad} has a non-finite coordinate: {nodes[bad]}", code="RPR504")
    offsets, cn = _flatten_cells(cells, len(nodes))
    sizes = np.diff(offsets)
    if dim == 1 and np.any(sizes != 2):
        raise MeshError("1-D cells must have exactly 2 nodes")
    if dim == 3 and np.any(sizes != 8):
        raise MeshError("3-D cells must be 8-node hexahedra")
    groups = []  # per cell size k: (the cells, their (n, k) block of positions into ``cn``)
    for k in np.flatnonzero(np.bincount(sizes)):
        g = np.flatnonzero(sizes == k)
        groups.append((g, offsets[g, None] + np.arange(k)))

    # ---- local faces, cell-major in traversal order ------------------------------
    if dim == 1:
        fnodes, cf_off = cn[:, None], offsets.copy()
    elif dim == 2:
        # enforce CCW polygons so edge traversal gives outward normals
        for _, at in groups:
            ids = cn[at]
            cw = polygon_area(nodes[ids]) < 0
            ids[cw] = ids[cw, ::-1]
            cn[at] = ids
        nxt = np.arange(1, len(cn) + 1)
        nxt[offsets[1:][sizes > 0] - 1] = offsets[:-1][sizes > 0]
        fnodes, cf_off = np.stack([cn, cn[nxt]], axis=1), offsets.copy()
    else:
        fnodes = cn.reshape(ncells, 8)[:, _HEX_FACES].reshape(-1, 4)
        cf_off = 6 * np.arange(ncells + 1)
    cell_of = np.repeat(np.arange(ncells), np.diff(cf_off))
    cf_idx, first = _unique_faces(fnodes, cell_of)
    nfaces = len(first)
    signs = np.where(np.arange(len(cf_idx)) == first[cf_idx], 1, -1)  # +1 owner / -1 neighbour
    face_cells = np.full((nfaces, 2), -1, dtype=np.int64)
    face_cells[:, 0] = cell_of[first]
    face_cells[cf_idx[signs < 0], 1] = cell_of[signs < 0]
    fnodes = fnodes[first]  # as the owner traverses them

    # ---- face and cell geometry --------------------------------------------------
    cell_volumes = np.zeros(ncells)
    cell_centroids = np.zeros((ncells, dim))
    coords = nodes[fnodes]  # (nfaces, nodes per face, dim)
    if dim == 1:
        ends = nodes[cn.reshape(ncells, 2)]
        cell_centroids[:] = ends.mean(axis=1)
        cell_volumes[:] = np.abs(ends[:, 1, 0] - ends[:, 0, 0])
        face_centers = coords[:, 0]
        away = face_centers - cell_centroids[face_cells[:, 0]]
        face_normals = np.where(away >= 0, 1.0, -1.0)
        face_areas = np.ones(nfaces)
    elif dim == 2:
        face_normals, face_areas = edge_outward_normal(coords[:, 0], coords[:, 1])
        face_centers = coords.mean(axis=1)
        for g, at in groups:
            cell_volumes[g] = polygon_area(nodes[cn[at]])  # positive (CCW enforced)
            cell_centroids[g] = polygon_centroid(nodes[cn[at]])
    else:
        face_normals, face_areas = newell_normal_area(coords)
        face_centers = coords.mean(axis=1)
        cell_centroids[:] = nodes[cn.reshape(ncells, 8)].mean(axis=1)
        # normals were oriented by the local face ordering; flip those that
        # point into their owner, which then sees the face with sign -1
        flip = np.einsum("fd,fd->f", face_normals,
                         face_centers - cell_centroids[face_cells[:, 0]]) < 0
        face_normals[flip] *= -1.0
        signs[flip[cf_idx]] *= -1
        # divergence theorem: V = (1/3) sum_f A_f (n_f . c_f), outward normals
        flux = signs * face_areas[cf_idx] * row_dot(face_normals, face_centers)[cf_idx]
        cell_volumes[:] = flux.reshape(ncells, 6).sum(axis=1) / 3.0

    # ---- boundary regions --------------------------------------------------------
    face_region = np.zeros(nfaces, dtype=np.int64)
    for fid in np.flatnonzero(face_cells[:, 1] < 0):
        region = None
        if boundary_face_regions:
            region = boundary_face_regions.get(tuple(sorted(fnodes[fid].tolist())))
        if region is None:
            region = (1 if boundary_marker is None
                      else int(boundary_marker(face_centers[fid], face_normals[fid])))
        if region <= 0:
            raise MeshError(f"boundary marker returned non-positive region for face {fid}")
        face_region[fid] = region

    mesh = Mesh(
        dim=dim,
        nodes=nodes,
        cell_node_offsets=offsets,
        cell_node_indices=cn,
        face_node_offsets=fnodes.shape[1] * np.arange(nfaces + 1),
        face_node_indices=fnodes.ravel(),
        face_cells=face_cells,
        face_normals=face_normals,
        face_areas=face_areas,
        face_centers=face_centers,
        face_region=face_region,
        cell_volumes=cell_volumes,
        cell_centroids=cell_centroids,
        cell_face_offsets=cf_off,
        cell_face_indices=cf_idx,
        cell_face_signs=signs,
        name=name,
    )
    if validate:
        mesh.validate()
    return mesh


__all__ = ["Mesh", "build_mesh"]
