"""Mesh partitioning and halo construction (the Metis stand-in).

Two partitioners are provided:

* :func:`partition_rcb` — recursive coordinate bisection on cell centroids;
  fast, geometric, good aspect ratios on the uniform grids the paper uses;
* :func:`partition_graph` — greedy BFS region growth on the cell-adjacency
  graph followed by Kernighan–Lin style boundary refinement to reduce the
  edge cut; this mirrors what Metis.jl provides to Finch.

:func:`build_partition_layout` derives everything the distributed runtime
needs from an assignment vector: owned/ghost cell lists, send/receive maps
per neighbour rank, shared interface faces, and communication-volume
statistics (the quantity Figure 3 of the paper is about); :func:`mesh_pieces`
each rank's piece of the mesh, on which a cell rank runs as a serial one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.mesh.mesh import Mesh, build_mesh
from repro.util.errors import MeshError


def weighted_counts(
    n: int, nparts: int, weights: list[float] | np.ndarray | None = None
) -> list[int]:
    """Split ``n`` items into ``nparts`` counts proportional to ``weights``.

    With ``weights=None`` (or all equal) this reproduces the classic
    balanced split exactly — ``n // nparts`` each, the first ``n % nparts``
    parts one larger — which is also what ``np.array_split`` produces, so
    weight-aware call sites stay bit-compatible with their unweighted
    history.  Every count is at least 1 (a rank must own something);
    remainders go to the largest fractional shares, ties broken by part
    index, so the split is deterministic.
    """
    if nparts < 1:
        raise MeshError(f"nparts must be >= 1, got {nparts}")
    if nparts > n:
        raise MeshError(f"cannot split {n} items into {nparts} parts")
    if weights is None:
        return [n // nparts + (1 if p < n % nparts else 0) for p in range(nparts)]
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (nparts,):
        raise MeshError(
            f"weights must have length {nparts}, got shape {w.shape}")
    if not np.all(np.isfinite(w)) or np.any(w < 0) or w.sum() <= 0:
        raise MeshError("weights must be finite, non-negative, not all zero")
    ideal = n * w / w.sum()
    counts = np.floor(ideal).astype(np.int64)
    frac = ideal - counts
    # largest fractional shares get the remainder (ties: lowest part index)
    for p in sorted(range(nparts), key=lambda p: (-frac[p], p)):
        if counts.sum() >= n:
            break
        counts[p] += 1
    # every part owns at least one item: steal from the largest
    for p in range(nparts):
        while counts[p] < 1:
            donor = int(np.argmax(counts))
            counts[donor] -= 1
            counts[p] += 1
    return [int(c) for c in counts]


def partition_rcb(
    centroids: np.ndarray, nparts: int,
    weights: list[float] | np.ndarray | None = None,
) -> np.ndarray:
    """Recursive coordinate bisection.

    Splits the longest coordinate axis at the weighted median, recursing with
    part counts proportional to each half, so any ``nparts`` (not only powers
    of two) gives balanced parts.  ``weights`` skews the per-part cell counts
    (e.g. inverse measured step times, so a slow rank owns fewer cells).
    """
    centroids = np.asarray(centroids, dtype=np.float64)
    if centroids.ndim == 1:
        centroids = centroids[:, None]
    n = len(centroids)
    if nparts < 1:
        raise MeshError(f"nparts must be >= 1, got {nparts}")
    if nparts > n:
        raise MeshError(f"cannot cut {n} cells into {nparts} parts")
    parts = np.zeros(n, dtype=np.int64)

    if weights is not None:
        counts = weighted_counts(n, nparts, weights)

        def recurse_counts(idx: np.ndarray, lo: int, hi: int) -> None:
            if hi - lo == 1:
                parts[idx] = lo
                return
            mid = lo + (hi - lo) // 2
            n_left = sum(counts[lo:mid])
            pts = centroids[idx]
            axis = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
            order = np.argsort(pts[:, axis], kind="stable")
            recurse_counts(idx[order[:n_left]], lo, mid)
            recurse_counts(idx[order[n_left:]], mid, hi)

        recurse_counts(np.arange(n), 0, nparts)
        return parts

    def recurse(idx: np.ndarray, k: int, first_part: int) -> None:
        if k == 1:
            parts[idx] = first_part
            return
        k_left = k // 2
        # split cell count proportional to part counts
        n_left = int(round(len(idx) * k_left / k))
        n_left = min(max(n_left, k_left), len(idx) - (k - k_left))
        pts = centroids[idx]
        axis = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
        order = np.argsort(pts[:, axis], kind="stable")
        recurse(idx[order[:n_left]], k_left, first_part)
        recurse(idx[order[n_left:]], k - k_left, first_part + k_left)

    recurse(np.arange(n), nparts, 0)
    return parts


def partition_graph(
    mesh: Mesh, nparts: int, refine_passes: int = 4, seed: int = 0,
    weights: list[float] | np.ndarray | None = None,
) -> np.ndarray:
    """Greedy growth + KL-style refinement on the cell-adjacency graph.

    ``weights`` skews the per-part target sizes (see
    :func:`weighted_counts`); the refinement's balance guard then works
    against the per-part targets rather than one uniform bound.
    """
    n = mesh.ncells
    if nparts < 1:
        raise MeshError(f"nparts must be >= 1, got {nparts}")
    if nparts > n:
        raise MeshError(f"cannot cut {n} cells into {nparts} parts")
    if nparts == 1:
        return np.zeros(n, dtype=np.int64)

    adj = mesh.cell_neighbors()
    parts = np.full(n, -1, dtype=np.int64)
    target = weighted_counts(n, nparts, weights)
    rng = np.random.default_rng(seed)

    # --- greedy BFS growth: seed each part at the unassigned cell farthest
    # (in index-space BFS distance) from previous seeds, grow to target size
    unassigned = set(range(n))
    seed_cell = int(rng.integers(n))
    for p in range(nparts):
        if seed_cell not in unassigned:
            seed_cell = next(iter(unassigned))
        frontier = [seed_cell]
        size = 0
        visited_order: list[int] = []
        while frontier and size < target[p]:
            nxt: list[int] = []
            for c in frontier:
                if parts[c] != -1:
                    continue
                parts[c] = p
                unassigned.discard(c)
                visited_order.append(c)
                size += 1
                if size >= target[p]:
                    break
                for nb in adj[c]:
                    if parts[nb] == -1:
                        nxt.append(nb)
            frontier = nxt
        # disconnected leftovers: grab arbitrary unassigned cells
        while size < target[p] and unassigned:
            c = unassigned.pop()
            parts[c] = p
            visited_order.append(c)
            size += 1
        # next seed: a far frontier cell
        far = None
        for c in reversed(visited_order):
            for nb in adj[c]:
                if parts[nb] == -1:
                    far = nb
                    break
            if far is not None:
                break
        seed_cell = far if far is not None else (next(iter(unassigned)) if unassigned else 0)

    # --- KL-style boundary refinement: move boundary cells to the adjacent
    # part with the largest gain, respecting balance
    sizes = np.bincount(parts, minlength=nparts)
    if weights is None:
        max_size = np.full(nparts, int(np.ceil(n / nparts * 1.05)) + 1)
    else:
        max_size = np.array([int(np.ceil(t * 1.05)) + 1 for t in target])
    for _ in range(refine_passes):
        moved = 0
        for c in range(n):
            p = parts[c]
            if sizes[p] <= 1:
                continue
            # gain of moving c to part q = (neighbours in q) - (neighbours in p)
            counts: dict[int, int] = {}
            same = 0
            for nb in adj[c]:
                q = parts[nb]
                if q == p:
                    same += 1
                else:
                    counts[q] = counts.get(q, 0) + 1
            best_q, best_gain = -1, 0
            for q, cnt in counts.items():
                gain = cnt - same
                if gain > best_gain and sizes[q] < max_size[q]:
                    best_q, best_gain = q, gain
            if best_q >= 0:
                sizes[p] -= 1
                sizes[best_q] += 1
                parts[c] = best_q
                moved += 1
        if moved == 0:
            break
    return parts


def partition_cells(
    mesh: Mesh, nparts: int, method: str = "graph",
    weights: list[float] | np.ndarray | None = None, **kwargs,
) -> np.ndarray:
    """Partition cells into ``nparts``; ``method`` is ``'graph'`` or ``'rcb'``."""
    if method == "rcb":
        return partition_rcb(mesh.cell_centroids, nparts, weights=weights)
    if method == "graph":
        return partition_graph(mesh, nparts, weights=weights, **kwargs)
    raise MeshError(f"unknown partition method {method!r} (use 'graph' or 'rcb')")


@dataclass
class PartitionLayout:
    """The cut of the whole mesh into the pieces the ranks run on.

    Every cell id of the layout is global; :func:`mesh_pieces` numbers each
    rank's cells, its owned set and its halo maps on its own piece.
    """

    nparts: int
    parts: np.ndarray  # (ncells,) part id per global cell
    owned: list[np.ndarray]  # per part: global ids of owned cells
    ghosts: list[np.ndarray]  # per part: global ids of ghost cells
    # per part: {neighbour_part: global cell ids we send to it}
    send_cells: list[dict[int, np.ndarray]]
    # per part: {neighbour_part: global cell ids we receive from it}
    recv_cells: list[dict[int, np.ndarray]]
    interface_faces: list[np.ndarray]  # per part: global face ids cut by the partition

    @property
    def cut_face_count(self) -> int:
        """Total number of faces crossing a partition boundary."""
        return len(set().union(*(faces.tolist() for faces in self.interface_faces)))

    def comm_volume_doubles(self, dofs_per_cell: int = 1) -> int:
        """Total values exchanged per halo update (sum over ranks of sends)."""
        return dofs_per_cell * sum(len(c) for sends in self.send_cells for c in sends.values())


def build_partition_layout(
    mesh: Mesh, parts: np.ndarray, halo_layers: int = 1
) -> PartitionLayout:
    """Derive owned/ghost/send/recv structure from an assignment vector.

    ``halo_layers`` sets the ghost depth: first-order upwind stencils need
    one layer; second-order (MUSCL) reconstructions read the neighbours of
    neighbours and need two.
    """
    parts = np.asarray(parts, dtype=np.int64)
    if len(parts) != mesh.ncells:
        raise MeshError("partition vector length does not match cell count")
    if parts.min() < 0:
        raise MeshError("partition vector contains unassigned cells (-1)")
    if halo_layers < 1:
        raise MeshError(f"halo_layers must be >= 1, got {halo_layers}")
    nparts = int(parts.max()) + 1

    owned = [np.flatnonzero(parts == p) for p in range(nparts)]
    for p in range(nparts):
        if len(owned[p]) == 0:
            raise MeshError(f"partition {p} owns no cells")

    adj = mesh.cell_neighbors()
    ghost_lists: list[list[int]] = []
    recv: list[dict[int, list[int]]] = [dict() for _ in range(nparts)]
    for p in range(nparts):
        owned_set = set(int(c) for c in owned[p])
        ghosts_p: list[int] = []
        seen = set(owned_set)
        current = owned_set
        for _ in range(halo_layers):
            layer = sorted({nb for c in current for nb in adj[c]} - seen)
            for g in layer:
                ghosts_p.append(g)
                seen.add(g)
                recv[p].setdefault(int(parts[g]), []).append(g)
            current = set(layer)
        ghost_lists.append(ghosts_p)

    recv_cells = [{q: np.array(v, dtype=np.int64) for q, v in sorted(r.items())}
                  for r in recv]
    # symmetry by construction: what p receives from q is what q sends to p
    send_cells: list[dict[int, np.ndarray]] = [dict() for _ in range(nparts)]
    for p in range(nparts):
        for q, cells in recv_cells[p].items():
            send_cells[q][p] = cells
    send_cells = [dict(sorted(s.items())) for s in send_cells]

    ghosts = [np.array(g, dtype=np.int64) for g in ghost_lists]

    # faces cut by the partition (layer-1 interfaces; used for comm stats)
    inner = mesh.interior_faces()
    sides = parts[mesh.face_cells[inner]]
    cut = sides[:, 0] != sides[:, 1]
    interface_faces = [inner[cut & (sides == p).any(axis=1)] for p in range(nparts)]
    return PartitionLayout(nparts, parts, owned, ghosts, send_cells, recv_cells,
                           interface_faces)


@dataclass
class MeshPiece:
    """One rank's owned cells and halo as a mesh of their own, by ascending
    global id: an owned cell's faces keep their owner, orientation, order and
    geometry, bit for bit; the halo's outer faces get a fresh region."""

    mesh: Mesh
    cells: np.ndarray  # global id of each cell of the piece
    owned: np.ndarray  # local ids of the owned cells
    send: dict[int, np.ndarray]  # {neighbour part: local ids sent to it}
    recv: dict[int, np.ndarray]  # {neighbour part: local ids received from it}


def mesh_pieces(mesh: Mesh, layout: PartitionLayout) -> list[MeshPiece]:
    """One :class:`MeshPiece` per part of ``layout`` (built once per layout)."""
    nodes = np.sort(mesh.face_node_indices.reshape(mesh.nfaces, -1), axis=1)
    bfaces = mesh.boundary_faces()
    regions = dict(zip(map(tuple, nodes[bfaces].tolist()), mesh.face_region[bfaces].tolist()))
    fresh = max(regions.values(), default=0) + 1
    pieces = []
    for p, (owned, ghosts) in enumerate(zip(layout.owned, layout.ghosts)):
        cells = np.sort(np.concatenate([owned, ghosts]))
        sub = build_mesh(mesh.nodes, [mesh.cell_nodes(c) for c in cells], dim=mesh.dim,
                         boundary_face_regions=regions, boundary_marker=lambda *_: fresh,
                         name=f"{mesh.name}/piece{p}")
        local = partial(np.searchsorted, cells)
        pieces.append(MeshPiece(sub, cells, local(owned),
                                {q: local(c) for q, c in layout.send_cells[p].items()},
                                {q: local(c) for q, c in layout.recv_cells[p].items()}))
    return pieces


__all__ = [
    "weighted_counts",
    "partition_rcb",
    "partition_graph",
    "partition_cells",
    "PartitionLayout",
    "build_partition_layout",
    "MeshPiece",
    "mesh_pieces",
]
