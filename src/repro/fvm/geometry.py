"""Flattened FV geometry and the sparse surface-divergence operator.

The assembler's hot loop is entirely expressed on these arrays.  Following
the HPC-python guidance (vectorise, stay contiguous, precompute sparse
operators once), the per-step surface integral

    (1/V_c) * sum_{f in faces(c)} A_f * flux_f

is a single CSR sparse-matrix product: ``div = flux @ D.T`` where ``D`` has a
``+A_f/V_owner`` entry for the face's owner and ``-A_f/V_neigh`` for its
neighbour (the same physical flux leaves one cell and enters the other).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.fvm.kernels import gather_upwind
from repro.mesh.mesh import Mesh


class FVGeometry:
    """Precomputed arrays for finite-volume assembly on one mesh.

    Attributes
    ----------
    owner, neighbor:
        ``(nfaces,)`` cell ids; ``neighbor`` is ``-1`` on boundary faces.
    normal, area, center:
        Face geometry (normal is unit, outward from the owner).
    inv_volume:
        ``(ncells,)`` reciprocal cell volumes.
    neighbor_safe:
        Like ``neighbor`` but boundary entries point at the owner, so
        gather operations never index out of bounds; boundary values are
        then overridden by ghost data.
    bfaces:
        ``(nbfaces,)`` boundary face ids, and ``bface_slot`` maps a face id
        to its position in that list (or -1).
    neighbor_column:
        Per face, the column of ``[cell values | ghost values]`` holding its
        neighbour side (the neighbour cell, or the ghost slot behind them).
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.dim = mesh.dim
        self.ncells = mesh.ncells
        self.nfaces = mesh.nfaces

        self.owner = np.ascontiguousarray(mesh.face_cells[:, 0])
        self.neighbor = np.ascontiguousarray(mesh.face_cells[:, 1])
        self.normal = np.ascontiguousarray(mesh.face_normals)
        self.area = np.ascontiguousarray(mesh.face_areas)
        self.center = np.ascontiguousarray(mesh.face_centers)
        self.volume = np.ascontiguousarray(mesh.cell_volumes)
        self.inv_volume = 1.0 / self.volume
        self.cell_center = np.ascontiguousarray(mesh.cell_centroids)

        self.interior_mask = self.neighbor >= 0
        self.bfaces = np.flatnonzero(~self.interior_mask)
        self.bface_slot = np.full(self.nfaces, -1, dtype=np.int64)
        self.bface_slot[self.bfaces] = np.arange(len(self.bfaces))
        self.neighbor_safe = np.where(self.interior_mask, self.neighbor, self.owner)
        self.neighbor_column = np.where(
            self.interior_mask, self.neighbor, self.ncells + self.bface_slot)

        # gradient distance across each face (two-point diffusive fluxes):
        # interior = |projection of the centroid offset on the normal|;
        # boundary = owner-centroid-to-face distance, because ghost values
        # follow the face-value convention (a Dirichlet ghost IS the wall
        # value at the face), so (ghost - owner)/face_dist is the one-sided
        # boundary gradient
        offset_int = (
            self.cell_center[self.neighbor_safe] - self.cell_center[self.owner]
        )
        d_int = np.abs(np.einsum("fd,fd->f", offset_int, self.normal))
        offset_bdry = self.center - self.cell_center[self.owner]
        d_bdry = np.abs(np.einsum("fd,fd->f", offset_bdry, self.normal))
        self.face_dist = np.where(self.interior_mask, d_int, d_bdry)

        self.face_region = mesh.face_region
        self.region_faces = {
            r: mesh.boundary_faces(r) for r in mesh.boundary_regions()
        }
        # positions of each region's faces inside the boundary-face list
        self.region_slots = {
            r: self.bface_slot[faces] for r, faces in self.region_faces.items()
        }

        self.divergence = self._build_divergence()
        self._gradient_ops: list[sp.csr_matrix] | None = None
        # face-centre offsets from each side's cell centre (for linear
        # face extrapolation in second-order reconstructions)
        self.offset_owner = self.center - self.cell_center[self.owner]
        self.offset_neighbor = self.center - self.cell_center[self.neighbor_safe]

    def _build_divergence(self) -> sp.csr_matrix:
        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        vals: list[np.ndarray] = []
        faces = np.arange(self.nfaces)
        # owner: flux leaves through an outward normal -> +A/V
        rows.append(self.owner)
        cols.append(faces)
        vals.append(self.area * self.inv_volume[self.owner])
        # neighbour (interior only): the same flux enters -> -A/V
        inter = self.interior_mask
        rows.append(self.neighbor[inter])
        cols.append(faces[inter])
        vals.append(-self.area[inter] * self.inv_volume[self.neighbor[inter]])
        mat = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.ncells, self.nfaces),
        )
        return mat.tocsr()

    @property
    def gradient_ops(self) -> list[sp.csr_matrix]:
        """Green-Gauss gradient operators, one CSR matrix per axis.

        ``grad_d(u) = G_d @ u_face`` with face values (e.g. the side
        average); entries mirror the divergence stencil weighted by the
        normal component.  Built lazily — only second-order
        reconstructions need them.
        """
        if self._gradient_ops is None:
            faces = np.arange(self.nfaces)
            inter = self.interior_mask
            ops = []
            for d in range(self.dim):
                rows = [self.owner, self.neighbor[inter]]
                cols = [faces, faces[inter]]
                w = self.area * self.normal[:, d]
                vals = [
                    w * self.inv_volume[self.owner],
                    -(w[inter]) * self.inv_volume[self.neighbor[inter]],
                ]
                mat = sp.coo_matrix(
                    (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                    shape=(self.ncells, self.nfaces),
                )
                ops.append(mat.tocsr())
            self._gradient_ops = ops
        return self._gradient_ops

    def green_gauss_gradient(self, face_values: np.ndarray) -> list[np.ndarray]:
        """Cell gradients from face values: list of ``(..., ncells)`` per axis."""
        if face_values.ndim == 1:
            return [G @ face_values for G in self.gradient_ops]
        return [(G @ face_values.T).T for G in self.gradient_ops]

    # ------------------------------------------------------------------ ops
    def surface_divergence(self, face_flux: np.ndarray) -> np.ndarray:
        """``(1/V) sum_f A_f flux_f`` for every cell.

        ``face_flux`` has shape ``(nfaces,)`` or ``(ncomp, nfaces)`` (flux per
        unit area, signed w.r.t. the owner's outward normal); the result has
        the matching cell shape.
        """
        if face_flux.ndim == 1:
            return self.divergence @ face_flux
        return (self.divergence @ face_flux.T).T

    def gather_sides(
        self,
        u: np.ndarray,
        ghost: np.ndarray | None = None,
        rows=None,
        out: tuple[np.ndarray, np.ndarray] | None = None,
        upwind: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        """Owner-side and neighbour-side values of ``u`` on every face.

        ``u`` has shape ``(..., ncells)``.  On boundary faces the neighbour
        side is taken from ``ghost`` (shape ``(..., nbfaces)``) when given,
        otherwise it duplicates the owner value (zero-gradient).

        ``rows`` restricts the gather to those component rows of ``u`` and
        ``ghost`` (a slice or index array): nothing outside them is read.
        ``out`` is a pair of ``(>= nrows, nfaces)`` scratch arrays; their
        leading rows are filled and returned instead of fresh arrays, which
        is how the tiled kernels gather without allocating.

        ``upwind=(columns, table_rows)`` returns one array instead: face
        ``f`` of row ``i`` reads column ``columns[table_rows[i], f]`` of
        ``[u | ghost]`` — the owner's where an upwind select would take the
        owner side, else ``neighbor_column``'s (``out[1]`` then holds the
        ``[u | ghost]`` rows, ``ncells + nbfaces`` wide).
        """
        if rows is not None:
            u = u[rows]
            if ghost is not None:
                ghost = ghost[rows]
        if upwind is not None:
            width = self.ncells + len(self.bfaces)
            cells = np.empty((len(u), width)) if out is None else out[1][: len(u)]
            cells[:, : self.ncells] = u
            cells[:, self.ncells:] = u[:, self.owner[self.bfaces]] if ghost is None else ghost
            return gather_upwind(cells, *upwind, out=None if out is None else out[0])
        o1, o2 = (None, None) if out is None else (o[: len(u)] for o in out)
        # mode='clip' only skips take's bounds-check buffering of ``out``;
        # owner/neighbor_safe are valid cell ids by construction
        u1 = np.take(u, self.owner, axis=-1, out=o1, mode="clip")
        u2 = np.take(u, self.neighbor_safe, axis=-1, out=o2, mode="clip")
        if ghost is not None and len(self.bfaces):
            u2[..., self.bfaces] = ghost
        return u1, u2

    def face_value_owner(self, u: np.ndarray) -> np.ndarray:
        return u[..., self.owner]

    def boundary_face_count(self) -> int:
        return len(self.bfaces)


__all__ = ["FVGeometry"]
