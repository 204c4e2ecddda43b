"""Partitioners and halo layout construction."""

import numpy as np
import pytest

from repro.mesh.grid import structured_grid
from repro.mesh.partition import (
    build_partition_layout,
    partition_cells,
    partition_graph,
    partition_rcb,
)
from repro.util.errors import MeshError


@pytest.fixture
def mesh():
    return structured_grid((10, 8))


def check_partition_invariants(mesh, parts, nparts):
    assert parts.shape == (mesh.ncells,)
    assert parts.min() >= 0
    assert parts.max() == nparts - 1
    sizes = np.bincount(parts, minlength=nparts)
    assert sizes.min() >= 1
    # balance within a generous bound
    assert sizes.max() <= int(np.ceil(mesh.ncells / nparts * 1.5)) + 1


class TestRCB:
    @pytest.mark.parametrize("nparts", [1, 2, 3, 4, 7, 8])
    def test_invariants(self, mesh, nparts):
        parts = partition_rcb(mesh.cell_centroids, nparts)
        check_partition_invariants(mesh, parts, nparts)

    def test_perfect_balance_on_uniform_grid(self, mesh):
        parts = partition_rcb(mesh.cell_centroids, 4)
        assert np.bincount(parts).tolist() == [20, 20, 20, 20]

    def test_geometric_locality(self, mesh):
        # a 2-way RCB of a 10x8 grid cuts along x: parts separate in x
        parts = partition_rcb(mesh.cell_centroids, 2)
        x0 = mesh.cell_centroids[parts == 0, 0]
        x1 = mesh.cell_centroids[parts == 1, 0]
        assert x0.max() <= x1.min() or x1.max() <= x0.min()

    def test_errors(self, mesh):
        with pytest.raises(MeshError):
            partition_rcb(mesh.cell_centroids, 0)
        with pytest.raises(MeshError):
            partition_rcb(mesh.cell_centroids, mesh.ncells + 1)


class TestGraph:
    @pytest.mark.parametrize("nparts", [1, 2, 3, 5, 8])
    def test_invariants(self, mesh, nparts):
        parts = partition_graph(mesh, nparts)
        check_partition_invariants(mesh, parts, nparts)

    def test_cut_reasonable(self, mesh):
        # a 4-way cut of a 10x8 grid should stay well below the worst case
        parts = partition_graph(mesh, 4)
        layout = build_partition_layout(mesh, parts)
        assert layout.cut_face_count < mesh.nfaces / 3

    def test_refinement_reduces_or_keeps_cut(self, mesh):
        raw = partition_graph(mesh, 4, refine_passes=0)
        refined = partition_graph(mesh, 4, refine_passes=4)
        cut_raw = build_partition_layout(mesh, raw).cut_face_count
        cut_ref = build_partition_layout(mesh, refined).cut_face_count
        assert cut_ref <= cut_raw

    def test_dispatch(self, mesh):
        assert partition_cells(mesh, 3, method="rcb").max() == 2
        assert partition_cells(mesh, 3, method="graph").max() == 2
        with pytest.raises(MeshError):
            partition_cells(mesh, 3, method="metis")


class TestLayout:
    @pytest.mark.parametrize("method", ["rcb", "graph"])
    @pytest.mark.parametrize("nparts", [2, 3, 5])
    def test_owned_cells_partition_the_mesh(self, mesh, method, nparts):
        parts = partition_cells(mesh, nparts, method=method)
        layout = build_partition_layout(mesh, parts)
        all_owned = np.concatenate(layout.owned)
        assert sorted(all_owned.tolist()) == list(range(mesh.ncells))

    def test_ghosts_are_face_neighbors(self, mesh):
        parts = partition_cells(mesh, 4)
        layout = build_partition_layout(mesh, parts)
        adj = mesh.cell_neighbors()
        for p in range(4):
            owned = set(layout.owned[p].tolist())
            for g in layout.ghosts[p]:
                assert int(g) not in owned
                assert any(nb in owned for nb in adj[int(g)])

    def test_send_recv_symmetry(self, mesh):
        parts = partition_cells(mesh, 3)
        layout = build_partition_layout(mesh, parts)
        for p in range(3):
            for q, cells in layout.send_cells[p].items():
                assert np.array_equal(cells, layout.recv_cells[q][p])

    def test_sent_cells_are_owned(self, mesh):
        parts = partition_cells(mesh, 3)
        layout = build_partition_layout(mesh, parts)
        for p in range(3):
            owned = set(layout.owned[p].tolist())
            for cells in layout.send_cells[p].values():
                assert set(cells.tolist()) <= owned

    def test_single_rank_layout_has_no_halo(self):
        mesh = structured_grid((5, 4))
        layout = build_partition_layout(mesh, partition_cells(mesh, 1))
        assert layout.nparts == 1
        assert len(layout.ghosts[0]) == 0
        assert layout.send_cells == [{}] and layout.recv_cells == [{}]

    def test_non_adjacent_ranks_exchange_nothing(self):
        """On a 1D strip split three ways, the end ranks share no interface."""
        mesh = structured_grid((12,), [(0.0, 1.0)])
        layout = build_partition_layout(mesh, partition_cells(mesh, 3))
        middle = next(p for p in range(3) if len(layout.send_cells[p]) == 2)
        for end in set(range(3)) - {middle}:
            assert sorted(layout.send_cells[end]) == [middle]
            assert sorted(layout.recv_cells[end]) == [middle]

    def test_comm_volume(self, mesh):
        parts = partition_cells(mesh, 2)
        layout = build_partition_layout(mesh, parts)
        vol = layout.comm_volume_doubles(dofs_per_cell=10)
        assert vol == 10 * sum(
            len(c) for s in layout.send_cells for c in s.values()
        )

    def test_band_partition_figure3_claim(self, mesh):
        """Fig. 3: one partition -> no interface communication at all."""
        layout = build_partition_layout(mesh, np.zeros(mesh.ncells, dtype=int))
        assert layout.cut_face_count == 0
        assert layout.comm_volume_doubles() == 0

    def test_errors(self, mesh):
        with pytest.raises(MeshError):
            build_partition_layout(mesh, np.zeros(3, dtype=int))
        bad = np.zeros(mesh.ncells, dtype=int)
        bad[0] = -1
        with pytest.raises(MeshError):
            build_partition_layout(mesh, bad)
        # a part with no cells
        sparse = np.zeros(mesh.ncells, dtype=int)
        sparse[0] = 2  # part 1 empty
        with pytest.raises(MeshError):
            build_partition_layout(mesh, sparse)


class TestWeightedCounts:
    """Work-share arithmetic behind the proactive rebalancer."""

    def _wc(self, *a, **kw):
        from repro.mesh.partition import weighted_counts
        return weighted_counts(*a, **kw)

    @pytest.mark.parametrize("n", [5, 17, 64])
    @pytest.mark.parametrize("nparts", [1, 2, 3, 4, 5])
    def test_default_matches_array_split(self, n, nparts):
        """Unweighted splits must be bit-compatible with np.array_split —
        the pre-elastic partitioners used it directly."""
        expected = [len(c) for c in np.array_split(np.arange(n), nparts)]
        assert self._wc(n, nparts) == expected

    def test_counts_sum_and_follow_weights(self):
        counts = self._wc(64, 4, weights=[1.0, 3.0, 3.0, 9.0])
        assert sum(counts) == 64
        assert counts[0] == min(counts) and counts[3] == max(counts)

    def test_every_part_gets_at_least_one(self):
        counts = self._wc(4, 3, weights=[1e-9, 1.0, 1e-9])
        assert sum(counts) == 4
        assert min(counts) >= 1

    def test_equal_weights_reduce_to_default(self):
        assert self._wc(17, 3, weights=[2.0, 2.0, 2.0]) == self._wc(17, 3)

    def test_invalid_weights_rejected(self):
        from repro.util.errors import MeshError
        with pytest.raises(MeshError):
            self._wc(10, 2, weights=[1.0])  # wrong length
        with pytest.raises(MeshError):
            self._wc(10, 2, weights=[-1.0, 1.0])
        with pytest.raises(MeshError):
            self._wc(10, 2, weights=[np.nan, 1.0])


class TestWeightedPartitioners:
    def test_rcb_respects_weights(self):
        mesh = structured_grid((10, 8))
        from repro.mesh.partition import partition_rcb
        parts = partition_rcb(mesh.cell_centroids, 2, weights=[1.0, 3.0])
        sizes = np.bincount(parts, minlength=2)
        assert sizes.sum() == mesh.ncells
        assert sizes[1] > sizes[0]

    def test_graph_respects_weights_and_stays_contiguous(self):
        mesh = structured_grid((10, 8))
        parts = partition_cells(mesh, 4, weights=[1.0, 1.0, 1.0, 5.0])
        sizes = np.bincount(parts, minlength=4)
        assert sizes.sum() == mesh.ncells
        assert sizes[3] == sizes.max()
        # still a valid layout (every part non-empty, halos constructible)
        build_partition_layout(mesh, parts)

    def test_unweighted_calls_are_bit_identical_to_before(self):
        """weights=None must not perturb the existing partitions."""
        mesh = structured_grid((9, 7))
        a = partition_cells(mesh, 3)
        b = partition_cells(mesh, 3, weights=None)
        assert np.array_equal(a, b)
