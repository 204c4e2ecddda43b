"""The per-cell mesh builder, retired from ``src/`` and kept as the oracle.

This is ``repro.mesh.mesh.build_mesh`` (and the scalar geometry primitives
it called) exactly as it stood before the array builder replaced it: one
Python loop over cells, one dict of sorted-node face keys, scalar
shoelace / Newell geometry.  It is the *specification* of the array
builder: every array of the :class:`~repro.mesh.mesh.Mesh` it returns —
dtype, shape and bytes — and the text of every :class:`MeshError` it
raises is what ``tests/mesh/test_build_differential.py`` holds the array
code to.  Test-only; nothing under ``src/`` imports it.  Do not "tidy" it.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.mesh.mesh import Mesh
from repro.util.errors import MeshError


def polygon_area(coords: np.ndarray) -> float:
    """Signed shoelace area of a 2-D polygon (positive for CCW order)."""
    x, y = coords[:, 0], coords[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def polygon_centroid(coords: np.ndarray) -> np.ndarray:
    """Area centroid of a simple 2-D polygon."""
    x, y = coords[:, 0], coords[:, 1]
    cross = x * np.roll(y, -1) - np.roll(x, -1) * y
    area = 0.5 * np.sum(cross)
    if abs(area) < 1e-300:
        raise MeshError("degenerate polygon (zero area)")
    cx = np.sum((x + np.roll(x, -1)) * cross) / (6.0 * area)
    cy = np.sum((y + np.roll(y, -1)) * cross) / (6.0 * area)
    return np.array([cx, cy])


def edge_outward_normal(p1: np.ndarray, p2: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit normal of edge p1->p2 pointing right of the traversal direction.

    For a CCW-ordered polygon, traversing its edges in order makes "right of
    travel" the *outward* direction.  Returns ``(normal, length)``.
    """
    d = p2 - p1
    length = float(np.hypot(d[0], d[1]))
    if length <= 0.0:
        raise MeshError("degenerate edge (zero length)")
    return np.array([d[1], -d[0]]) / length, length


def cell_closure_residual(normals: np.ndarray, areas: np.ndarray) -> float:
    """Max-norm of ``sum_f A_f n_f`` over a cell's faces.

    For any closed cell this vanishes (discrete divergence theorem); the mesh
    validator and the property tests use it as the primary geometric
    invariant.
    """
    return float(np.abs((normals * areas[:, None]).sum(axis=0)).max())


#: Node orderings of the six faces of a hexahedron in Gmsh corner order
#: (0-3 bottom CCW viewed from below ... actually CCW from outside).
_HEX_FACES = (
    (0, 3, 2, 1),  # z-min (outward -z)
    (4, 5, 6, 7),  # z-max (outward +z)
    (0, 1, 5, 4),  # y-min
    (2, 3, 7, 6),  # y-max
    (0, 4, 7, 3),  # x-min
    (1, 2, 6, 5),  # x-max
)


def _ragged(arrays: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
    for i, a in enumerate(arrays):
        offsets[i + 1] = offsets[i] + len(a)
    indices = np.fromiter(
        (int(v) for a in arrays for v in a), dtype=np.int64, count=int(offsets[-1])
    )
    return offsets, indices


def _newell_normal_area(coords: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Normal, area and center of a planar 3-D polygon (Newell's method)."""
    n = np.zeros(3)
    for i in range(len(coords)):
        p, q = coords[i], coords[(i + 1) % len(coords)]
        n += np.cross(p, q)
    n *= 0.5
    area = float(np.linalg.norm(n))
    if area <= 0.0:
        raise MeshError("degenerate 3-D face (zero area)")
    return n / area, area, coords.mean(axis=0)


def build_mesh(
    nodes: np.ndarray,
    cells: Sequence[Sequence[int]],
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
        ``(nnodes, dim)`` coordinates.
    cells:
        Per-cell node index lists.  1-D: 2 nodes; 2-D: CCW polygon (order is
        fixed automatically if given CW); 3-D: 8-node hexahedron in Gmsh
        corner order (axis-aligned bricks are what the generator produces).
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

    cells = [list(map(int, c)) for c in cells]

    # enforce CCW polygons in 2-D so edge traversal gives outward normals
    if dim == 2:
        for i, c in enumerate(cells):
            if polygon_area(nodes[c]) < 0:
                cells[i] = c[::-1]

    # ---- enumerate unique faces ------------------------------------------------
    face_key_to_id: dict[tuple[int, ...], int] = {}
    face_nodes_list: list[tuple[int, ...]] = []
    face_owner: list[int] = []
    face_neigh: list[int] = []
    cell_faces_list: list[list[int]] = [[] for _ in range(ncells)]
    cell_face_signs_list: list[list[int]] = [[] for _ in range(ncells)]
    # geometry accumulated from the owner's traversal
    normals: list[np.ndarray] = []
    areas: list[float] = []
    centers: list[np.ndarray] = []

    def cell_local_faces(c: list[int]) -> list[tuple[int, ...]]:
        if dim == 1:
            if len(c) != 2:
                raise MeshError("1-D cells must have exactly 2 nodes")
            return [(c[0],), (c[1],)]
        if dim == 2:
            return [(c[i], c[(i + 1) % len(c)]) for i in range(len(c))]
        if len(c) != 8:
            raise MeshError("3-D cells must be 8-node hexahedra")
        return [tuple(c[i] for i in f) for f in _HEX_FACES]

    def face_geometry(fnodes: tuple[int, ...], cell_id: int) -> tuple[np.ndarray, float, np.ndarray]:
        coords = nodes[list(fnodes)]
        if dim == 1:
            center = coords[0]
            direction = center - cell_centroid_1d(cell_id)
            normal = np.array([1.0 if direction[0] >= 0 else -1.0])
            return normal, 1.0, center
        if dim == 2:
            normal, length = edge_outward_normal(coords[0], coords[1])
            return normal, length, coords.mean(axis=0)
        return _newell_normal_area(coords)

    def cell_centroid_1d(cell_id: int) -> np.ndarray:
        return nodes[cells[cell_id]].mean(axis=0)

    for cid, c in enumerate(cells):
        for fnodes in cell_local_faces(c):
            key = tuple(sorted(fnodes))
            fid = face_key_to_id.get(key)
            if fid is None:
                fid = len(face_nodes_list)
                face_key_to_id[key] = fid
                face_nodes_list.append(fnodes)
                face_owner.append(cid)
                face_neigh.append(-1)
                n, a, ctr = face_geometry(fnodes, cid)
                normals.append(n)
                areas.append(a)
                centers.append(ctr)
                cell_face_signs_list[cid].append(1)
            else:
                if face_neigh[fid] != -1:
                    raise MeshError(
                        f"face {key} shared by more than two cells "
                        f"({face_owner[fid]}, {face_neigh[fid]}, {cid})"
                    )
                face_neigh[fid] = cid
                cell_face_signs_list[cid].append(-1)
            cell_faces_list[cid].append(fid)

    nfaces = len(face_nodes_list)
    face_cells = np.stack(
        [np.array(face_owner, dtype=np.int64), np.array(face_neigh, dtype=np.int64)], axis=1
    )
    face_normals = np.asarray(normals, dtype=np.float64).reshape(nfaces, dim)
    face_areas = np.asarray(areas, dtype=np.float64)
    face_centers = np.asarray(centers, dtype=np.float64).reshape(nfaces, dim)

    # ---- cell geometry ----------------------------------------------------------
    cell_centroids = np.zeros((ncells, dim))
    cell_volumes = np.zeros(ncells)
    if dim == 1:
        for cid, c in enumerate(cells):
            coords = nodes[c]
            cell_centroids[cid] = coords.mean(axis=0)
            cell_volumes[cid] = float(abs(coords[1, 0] - coords[0, 0]))
    elif dim == 2:
        for cid, c in enumerate(cells):
            coords = nodes[c]
            cell_volumes[cid] = polygon_area(coords)  # positive (CCW enforced)
            cell_centroids[cid] = polygon_centroid(coords)
    else:
        # divergence theorem: V = (1/3) sum_f A_f (n_f . c_f), outward normals
        for cid, c in enumerate(cells):
            cell_centroids[cid] = nodes[c].mean(axis=0)
        for cid in range(ncells):
            vol = 0.0
            for local, fid in enumerate(cell_faces_list[cid]):
                sign = cell_face_signs_list[cid][local]
                vol += sign * face_areas[fid] * float(
                    np.dot(face_normals[fid], face_centers[fid])
                )
            cell_volumes[cid] = vol / 3.0

    # 3-D normals were oriented by the local face ordering; verify they point
    # out of the owner and flip where construction order disagreed.
    if dim == 3:
        owners = face_cells[:, 0]
        outward = np.einsum(
            "fd,fd->f", face_normals, face_centers - cell_centroids[owners]
        )
        flip = outward < 0
        face_normals[flip] *= -1.0
        if np.any(flip):
            # a flipped owner normal means the owner sees the face with sign -1
            for cid in range(ncells):
                for local, fid in enumerate(cell_faces_list[cid]):
                    if flip[fid]:
                        cell_face_signs_list[cid][local] *= -1
        # recompute volumes with corrected orientation
        for cid in range(ncells):
            vol = 0.0
            for local, fid in enumerate(cell_faces_list[cid]):
                sign = cell_face_signs_list[cid][local]
                vol += sign * face_areas[fid] * float(
                    np.dot(face_normals[fid], face_centers[fid])
                )
            cell_volumes[cid] = vol / 3.0

    # ---- boundary regions --------------------------------------------------------
    face_region = np.zeros(nfaces, dtype=np.int64)
    boundary = face_cells[:, 1] < 0
    for fid in np.flatnonzero(boundary):
        key = tuple(sorted(face_nodes_list[fid]))
        if boundary_face_regions and key in boundary_face_regions:
            face_region[fid] = boundary_face_regions[key]
        elif boundary_marker is not None:
            face_region[fid] = int(boundary_marker(face_centers[fid], face_normals[fid]))
        else:
            face_region[fid] = 1
        if face_region[fid] <= 0:
            raise MeshError(f"boundary marker returned non-positive region for face {fid}")

    cn_off, cn_idx = _ragged(cells)
    fn_off, fn_idx = _ragged(face_nodes_list)
    cf_off, cf_idx = _ragged(cell_faces_list)
    signs = np.fromiter(
        (s for row in cell_face_signs_list for s in row),
        dtype=np.int64,
        count=int(cf_off[-1]),
    )

    mesh = Mesh(
        dim=dim,
        nodes=nodes,
        cell_node_offsets=cn_off,
        cell_node_indices=cn_idx,
        face_node_offsets=fn_off,
        face_node_indices=fn_idx,
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


def closure_failure(mesh: Mesh, tol: float = 1e-9) -> tuple[int, float] | None:
    """``Mesh.validate``'s retired per-cell closure loop: the first cell whose
    ``sum_f A_f n_f`` exceeds ``tol * max(h, 1) * nfaces`` and its residual."""
    h = float(np.mean(mesh.face_areas))
    for c in range(mesh.ncells):
        faces = mesh.cell_faces(c)
        signs = mesh.cell_face_signs[
            mesh.cell_face_offsets[c] : mesh.cell_face_offsets[c + 1]
        ]
        normals = mesh.face_normals[faces] * signs[:, None]
        residual = cell_closure_residual(normals, mesh.face_areas[faces])
        if residual > tol * max(h, 1.0) * len(faces):
            return c, residual
    return None


# ---------------------------------------------------------------------------
# the generators' retired node/cell list comprehensions
# ---------------------------------------------------------------------------

def tensor_grid_lists(axes: Sequence[np.ndarray]) -> tuple[np.ndarray, list[list[int]]]:
    """``structured_grid``'s nodes and per-cell node lists, as it built them."""
    shape = tuple(len(a) - 1 for a in axes)
    dim = len(shape)
    if dim == 1:
        nodes = axes[0][:, None]
        cells = [[i, i + 1] for i in range(shape[0])]
    elif dim == 2:
        nx, ny = shape
        xs, ys = axes
        # node (i, j) -> index j*(nx+1) + i ; CCW quad ordering
        nodes = np.array([[xs[i], ys[j]] for j in range(ny + 1) for i in range(nx + 1)])

        def nid(i: int, j: int) -> int:
            return j * (nx + 1) + i

        cells = [
            [nid(i, j), nid(i + 1, j), nid(i + 1, j + 1), nid(i, j + 1)]
            for j in range(ny)
            for i in range(nx)
        ]
    else:
        nx, ny, nz = shape
        xs, ys, zs = axes
        nodes = np.array(
            [
                [xs[i], ys[j], zs[k]]
                for k in range(nz + 1)
                for j in range(ny + 1)
                for i in range(nx + 1)
            ]
        )

        def nid3(i: int, j: int, k: int) -> int:
            return (k * (ny + 1) + j) * (nx + 1) + i

        cells = [
            [
                nid3(i, j, k),
                nid3(i + 1, j, k),
                nid3(i + 1, j + 1, k),
                nid3(i, j + 1, k),
                nid3(i, j, k + 1),
                nid3(i + 1, j, k + 1),
                nid3(i + 1, j + 1, k + 1),
                nid3(i, j + 1, k + 1),
            ]
            for k in range(nz)
            for j in range(ny)
            for i in range(nx)
        ]
    return nodes, cells


def triangle_lists(nx: int, ny: int) -> list[list[int]]:
    """``triangulated_grid``'s cells: each quad split along alternating diagonals."""
    def nid(i: int, j: int) -> int:
        return j * (nx + 1) + i

    cells: list[list[int]] = []
    for j in range(ny):
        for i in range(nx):
            a, b = nid(i, j), nid(i + 1, j)
            c, d = nid(i + 1, j + 1), nid(i, j + 1)
            if (i + j) % 2 == 0:  # diagonal a-c
                cells.append([a, b, c])
                cells.append([a, c, d])
            else:  # diagonal b-d
                cells.append([a, b, d])
                cells.append([b, c, d])
    return cells


def perturbed_nodes(base_nodes: np.ndarray, nx: int, ny: int, h: np.ndarray,
                    amplitude: float, seed: int) -> np.ndarray:
    """``perturbed_grid``'s jitter: two draws per interior node, row by row."""
    rng = np.random.default_rng(seed)
    nodes = base_nodes.copy()
    for j in range(1, ny):
        for i in range(1, nx):
            k = j * (nx + 1) + i
            nodes[k] += (rng.random(2) - 0.5) * 2.0 * amplitude * h
    return nodes
