"""Flattened FV geometry and the surface-divergence operator.

The assembler's hot loop is entirely expressed on these arrays.  Following
the HPC-python guidance (vectorise, stay contiguous, precompute operators
once), the per-step surface integral

    (1/V_c) * sum_{f in faces(c)} A_f * flux_f

is the operator ``D`` (cells x faces) with a ``+A_f/V_owner`` entry for the
face's owner and ``-A_f/V_neigh`` for its neighbour (the same physical flux
leaves one cell and enters the other).  The kernels apply it in *gather
form* — per stored entry of a row, a face list and a weight list
(:func:`repro.fvm.kernels.entry_slots`) — built straight from
``owner``/``neighbor``/``area``/``inv_volume``, in the order a canonical CSR
matrix stores the same entries, so the result is ``D @ flux`` bit for bit.
``D`` itself (:attr:`FVGeometry.divergence`) and the Green-Gauss gradient
operators are scipy CSR matrices built on first use: the test oracles and
second-order reconstructions read them, a first-order solve never imports
scipy.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.fvm.kernels import entry_slots, slot_divergence
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
        Per face, where its neighbour side lives: the neighbour cell, or
        ``~slot`` (negative) for slot ``slot`` of the ghost values.
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
            self.interior_mask, self.neighbor, ~self.bface_slot)
        self.bowner = self.owner[self.bfaces]  # owner cell of each ghost slot
        # the cells with a boundary face, sorted (np.unique would import
        # numpy.ma on first use: 20 ms of a 400 ms set-up)
        self.bcells = np.flatnonzero(np.bincount(self.bowner, minlength=self.ncells))

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

        self._div_slots: list | None = None  # the divergence's gather form, on first use
        self._bdry_slots: list | None = None  # ... restricted to the boundary faces
        # face-centre offsets from each side's cell centre (for linear
        # face extrapolation in second-order reconstructions)
        self.offset_owner = self.center - self.cell_center[self.owner]
        self.offset_neighbor = self.center - self.cell_center[self.neighbor_safe]

    def _stencil(self, weight: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """COO ``(rows, cols, vals)`` of the cells x faces operator that adds
        ``weight_f / V`` to a face's owner (the flux leaves through an outward
        normal) and subtracts it from its neighbour (the same flux enters)."""
        inter = self.interior_mask
        faces = np.arange(self.nfaces)
        return (np.concatenate([self.owner, self.neighbor[inter]]),
                np.concatenate([faces, faces[inter]]),
                np.concatenate([weight * self.inv_volume[self.owner],
                                -weight[inter] * self.inv_volume[self.neighbor[inter]]]))

    def _stencil_matrix(self, weight: np.ndarray):
        import scipy.sparse as sp  # oracles and flux_order=2 only: see module docstring

        rows, cols, vals = self._stencil(weight)
        return sp.coo_matrix((vals, (rows, cols)), shape=(self.ncells, self.nfaces)).tocsr()

    def divergence_slots(self, cells: np.ndarray | None = None,
                         faces: np.ndarray | None = None) -> list:
        """Gather form of the divergence, optionally restricted to the rows
        ``cells`` and columns ``faces`` (sorted ids, renumbered by position):
        ``csr_slots(divergence[cells][:, faces])`` without the matrix."""
        return entry_slots(*self._stencil(self.area), (self.ncells, self.nfaces),
                           row_ids=cells, col_ids=faces)

    @cached_property
    def interior_faces(self) -> np.ndarray:
        """Ids of the faces with a cell on both sides, sorted."""
        return np.flatnonzero(self.interior_mask)

    @cached_property
    def divergence(self):
        """The surface-divergence operator as a scipy CSR matrix."""
        return self._stencil_matrix(self.area)

    @cached_property
    def gradient_ops(self) -> list:
        """Green-Gauss gradient operators, one CSR matrix per axis.

        ``grad_d(u) = G_d @ u_face`` with face values (e.g. the side
        average); entries mirror the divergence stencil weighted by the
        normal component.  Built lazily — only second-order
        reconstructions need them.
        """
        return [self._stencil_matrix(self.area * self.normal[:, d]) for d in range(self.dim)]

    def green_gauss_gradient(self, face_values: np.ndarray) -> list[np.ndarray]:
        """Cell gradients from face values: list of ``(..., ncells)`` per axis."""
        if face_values.ndim == 1:
            return [G @ face_values for G in self.gradient_ops]
        return [(G @ face_values.T).T for G in self.gradient_ops]

    # ------------------------------------------------------------------ ops
    def surface_divergence(self, face_flux: np.ndarray, out: np.ndarray | None = None,
                           work: np.ndarray | None = None) -> np.ndarray:
        """``(1/V) sum_f A_f flux_f`` for every cell.

        ``face_flux`` has shape ``(nfaces,)`` or ``(ncomp, nfaces)`` (flux per
        unit area, signed w.r.t. the owner's outward normal); the result has
        the matching cell shape.  It is ``divergence @ face_flux`` bit for
        bit, accumulated face slot by face slot in the flux's own row layout
        (:func:`repro.fvm.kernels.slot_divergence`) into ``out``, with
        ``work`` as scratch — both ``(ncomp, ncells)``, fresh when not given.
        """
        if self._div_slots is None:
            self._div_slots = self.divergence_slots()
        flux = face_flux if face_flux.ndim == 2 else face_flux[None]
        shape = (len(flux), self.ncells)
        div = slot_divergence(self._div_slots, flux,
                              np.empty(shape) if out is None else out,
                              np.empty(shape) if work is None else work)
        return div if face_flux.ndim == 2 else div[0]

    def boundary_divergence(self, face_flux: np.ndarray, out: np.ndarray,
                            work: np.ndarray) -> np.ndarray:
        """The boundary faces' part of :meth:`surface_divergence`, compact:
        ``face_flux`` is ``(ncomp, nbfaces)`` (one column per ghost slot) and
        the result, in ``out``, ``(ncomp, len(bcells))`` — the columns of the
        cells that have a boundary face; ``work`` is contiguous scratch of at
        least that size."""
        if self._bdry_slots is None:
            self._bdry_slots = self.divergence_slots(self.bcells, self.bfaces)
        return slot_divergence(self._bdry_slots, face_flux, out, work)

    def gather_sides(
        self,
        u: np.ndarray,
        ghost: np.ndarray | None = None,
        rows=None,
        out=None,
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
        """
        if rows is not None:
            u = u[rows]
            if ghost is not None:
                ghost = ghost[rows]
        o1, o2 = (None, None) if out is None else (o[: len(u)] for o in out)
        # mode='clip' only skips take's bounds-check buffering of ``out``;
        # owner/neighbor_safe are valid cell ids by construction
        u1 = np.take(u, self.owner, axis=-1, out=o1, mode="clip")
        u2 = np.take(u, self.neighbor_safe, axis=-1, out=o2, mode="clip")
        if ghost is not None and len(self.bfaces):
            u2[..., self.bfaces] = ghost
        return u1, u2

    def boundary_face_count(self) -> int:
        return len(self.bfaces)


__all__ = ["FVGeometry"]
