"""Flattened FV geometry and the surface-divergence operator.

The assembler's hot loop is entirely expressed on these arrays.  Following
the HPC-python guidance (vectorise, stay contiguous, precompute operators
once), the per-step surface integral

    (1/V_c) * sum_{f in faces(c)} A_f * flux_f

is the operator ``D`` (cells x faces) with a ``+A_f/V_owner`` entry for the
face's owner and ``-A_f/V_neigh`` for its neighbour (the same physical flux
leaves one cell and enters the other).  Its one layout is the CSR rows
:meth:`FVGeometry.divergence_rows` builds straight from
``owner``/``neighbor``/``area``/``inv_volume`` (:func:`repro.fvm.kernels.entry_rows`:
a row's entries by column, as a canonical CSR matrix stores them): a
generated face loop sums each cell's faces in that order, and the folded
operator and :meth:`FVGeometry.surface_divergence` read them slot by slot,
so the result is ``D @ flux`` bit for bit.
``D`` itself (:attr:`FVGeometry.divergence`) and the Green-Gauss gradient
operators are scipy CSR matrices built on first use: the test oracles and
second-order reconstructions read them, a first-order solve never imports
scipy.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from repro.fvm.kernels import entry_rows, laid_out, row_slots, slot_divergence
from repro.mesh.mesh import Mesh
from repro.util.errors import CodegenError


class FaceLoop(NamedTuple):
    """What a generated loop over faces reads (:meth:`FVGeometry.face_loop`):
    per face the column of its first side, of its second (or ``~slot`` of
    the ghost values), the cell a known variable is read on, the normal (one
    row per axis) and the face distance; then the divergence into the output
    columns as a canonical CSR matrix stores it (each column's faces in slot
    order)."""

    side1: np.ndarray
    side2: np.ndarray
    cell: np.ndarray
    normal: np.ndarray
    dist: np.ndarray
    begin: np.ndarray
    columns: np.ndarray
    weights: np.ndarray

    def check(self, n: int, slots: int | None) -> tuple[int, int]:
        """``(faces, output columns)``, every index inside what it reads:
        sides in a row of ``n`` or, negative, among ``slots`` ghost values
        (``None``: no second side is read), divergence columns among the
        faces (before a generated sweep is handed their pointers)."""
        side1, side2, cell, normal, dist, begin, columns, weights = self
        nf = len(side1)
        if not laid_out(zip(self, (np.int64,) * 3 + (np.float64,) * 2 + (np.int64,) * 2
                            + (np.float64,), (1, 1, 1, 2, 1, 1, 1, 1))) \
                or not len(side2) == len(cell) == len(dist) == normal.shape[1] == nf \
                or len(begin) < 1 or len(columns) != len(weights):
            raise CodegenError("a face loop of another layout")
        if nf and not (side1.min() >= 0 and side1.max() < n and cell.min() >= 0 and (
                slots is None or side2.max() < n and ~side2.min() < slots)) \
                or not ((np.diff(begin) >= 0).all() and begin[0] == 0
                        and begin[-1] == len(columns)) \
                or len(columns) and not (columns.min() >= 0 and columns.max() < nf):
            raise CodegenError("a face loop reads outside its arrays")
        return nf, len(begin) - 1


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

        self._loops: dict[str, FaceLoop] = {}  # face_loop(which), on first use
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

    def divergence_rows(self, cells: np.ndarray | None = None,
                        faces: np.ndarray | None = None) -> tuple:
        """The CSR rows ``(indptr, indices, data)`` of the divergence,
        optionally restricted to the rows ``cells`` and columns ``faces``
        (sorted ids, renumbered by position): the storage of
        ``divergence[cells][:, faces]`` without the matrix."""
        return entry_rows(*self._stencil(self.area), (self.ncells, self.nfaces),
                          row_ids=cells, col_ids=faces)

    def faces(self, which: str) -> np.ndarray:
        """The ids of a face set, sorted: ``"all"``, ``"interior"`` (a cell
        on both sides) or ``"boundary"`` (``bfaces``, in ghost-slot order) —
        the one naming of what a generated sweep iterates over, read by
        :meth:`face_loop` and by a solver state's tables."""
        if which == "all":
            return np.arange(self.nfaces)
        return {"interior": self.interior_faces, "boundary": self.bfaces}[which]

    def face_loop(self, which: str) -> FaceLoop:
        """The loop over :meth:`faces` ``(which)`` (built on first use):
        ``"all"`` and ``"interior"`` read rows of the unknown, the second
        side a neighbour or (``"all"``) a ghost slot, into every cell;
        ``"boundary"`` rows of the boundary faces' owner values (one column
        per ghost slot), the second side the ghost slot, into the cells with
        a boundary face (``bcells``)."""
        held = self._loops.get(which)
        if held is None:
            faces = self.faces(which)
            side1 = np.arange(len(faces)) if which == "boundary" else self.owner[faces]
            side2 = ~side1 if which == "boundary" else self.neighbor_column[faces]
            rows = self.divergence_rows(self.bcells if which == "boundary" else None, faces)
            held = self._loops[which] = FaceLoop(
                *(np.ascontiguousarray(a, dtype=np.int64)
                  for a in (side1, side2, self.owner[faces])),
                np.ascontiguousarray(self.normal[faces].T),
                np.ascontiguousarray(self.face_dist[faces]), *rows)
        return held

    @cached_property
    def _slots(self) -> tuple:
        """:meth:`divergence_rows` of every cell and face, slot by slot: on first use."""
        return row_slots(self.divergence_rows())

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
        bit, accumulated face slot by face slot of the CSR rows in the flux's
        own row layout (:func:`repro.fvm.kernels.slot_divergence`) into
        ``out``, with ``work`` as scratch — both ``(ncomp, ncells)``, fresh
        when not given.
        """
        flux = face_flux if face_flux.ndim == 2 else face_flux[None]
        shape = (len(flux), self.ncells)
        div = slot_divergence(self._slots, flux,
                              np.empty(shape) if out is None else out,
                              np.empty(shape) if work is None else work)
        return div if face_flux.ndim == 2 else div[0]

    def gather_sides(
        self,
        u: np.ndarray,
        ghost: np.ndarray | None = None,
        rows=None,
    ):
        """Owner-side and neighbour-side values of ``u`` on every face.

        ``u`` has shape ``(..., ncells)``.  On boundary faces the neighbour
        side is taken from ``ghost`` (shape ``(..., nbfaces)``) when given,
        otherwise it duplicates the owner value (zero-gradient).

        ``rows`` restricts the gather to those component rows of ``u`` and
        ``ghost`` (a slice or index array): nothing outside them is read.
        """
        if rows is not None:
            u = u[rows]
            if ghost is not None:
                ghost = ghost[rows]
        # owner/neighbor_safe are valid cell ids by construction: no bounds check
        u1 = np.take(u, self.owner, axis=-1, mode="clip")
        u2 = np.take(u, self.neighbor_safe, axis=-1, mode="clip")
        if ghost is not None and len(self.bfaces):
            u2[..., self.bfaces] = ghost
        return u1, u2

    def boundary_face_count(self) -> int:
        return len(self.bfaces)


__all__ = ["FVGeometry", "FaceLoop"]
