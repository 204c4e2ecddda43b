"""Property-based invariants of mesh partitioning and its halo layout.

Hypothesis drives mesh shapes, part counts and partitioning methods; the
invariants under test are the contracts the distributed targets build on:
every cell is owned by exactly one rank, and ghost/send/recv structures are
mutually consistent.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.grid import structured_grid
from repro.mesh.partition import build_partition_layout, partition_cells


@st.composite
def partitioned_meshes(draw):
    nx = draw(st.integers(min_value=2, max_value=8))
    ny = draw(st.integers(min_value=2, max_value=6))
    mesh = structured_grid((nx, ny))
    nparts = draw(st.integers(min_value=1, max_value=min(5, mesh.ncells)))
    method = draw(st.sampled_from(["graph", "rcb"]))
    return mesh, partition_cells(mesh, nparts, method=method)


@given(case=partitioned_meshes())
@settings(max_examples=40, deadline=None)
def test_every_cell_owned_by_exactly_one_rank(case):
    mesh, parts = case
    layout = build_partition_layout(mesh, parts)
    all_owned = np.concatenate(layout.owned)
    # a permutation of the global cell ids: total coverage, no double-owning
    assert len(all_owned) == mesh.ncells
    assert np.array_equal(np.sort(all_owned), np.arange(mesh.ncells))
    for p in range(layout.nparts):
        assert np.all(parts[layout.owned[p]] == p)
        # ghosts are never owned locally, and each ghost's owner is its part
        owned_set = set(layout.owned[p].tolist())
        for g in layout.ghosts[p]:
            assert int(g) not in owned_set
            assert int(parts[g]) != p


@given(case=partitioned_meshes())
@settings(max_examples=40, deadline=None)
def test_send_recv_structure_is_consistent(case):
    mesh, parts = case
    layout = build_partition_layout(mesh, parts)
    for p in range(layout.nparts):
        # what p receives from q is exactly what q sends to p, in order
        for q, cells in layout.recv_cells[p].items():
            assert np.array_equal(layout.send_cells[q][p], cells)
            assert np.all(parts[cells] == q)  # senders own what they send
        # the ghost list is exactly the union of the per-neighbour recvs
        from_recvs = sorted(
            int(c) for cells in layout.recv_cells[p].values() for c in cells
        )
        assert from_recvs == sorted(int(g) for g in layout.ghosts[p])
