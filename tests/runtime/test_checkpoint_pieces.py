"""Snapshots of a cell rank, whose state runs on its piece of the mesh, are
whole-mesh ``repro.checkpoint/1`` snapshots: the members of a serial one
plus the rank's three, every field and ``T`` whole-width (the rank's owned
columns, ``0`` elsewhere) and ``__owned`` the global ids of its cells.  A
piece takes its columns of a whole snapshot it restores."""

from dataclasses import replace

import numpy as np

from repro.bte.problem import build_bte_problem
from repro.runtime.checkpoint import checkpoint_path

STEPS = 4


def _problem(scenario, nparts=0, **extra):
    p, _ = build_bte_problem(replace(scenario, nsteps=STEPS))
    if nparts:
        p.set_partitioning("cells", nparts)
    p.extra.update(extra)
    return p


def test_a_cell_rank_file_is_a_whole_mesh_snapshot_of_its_owned_columns(tiny_scenario,
                                                                        tmp_path):
    serial = _problem(tiny_scenario, checkpoint_every=2,
                      checkpoint_dir=str(tmp_path / "serial")).solve()
    ranks = _problem(tiny_scenario, 2, checkpoint_every=2,
                     checkpoint_dir=str(tmp_path / "cells")).solve()
    layout = ranks.layout
    with np.load(checkpoint_path(tmp_path / "serial", 2)) as whole:
        want = {key: whole[key] for key in whole.files}
    for rank in range(2):
        with np.load(checkpoint_path(tmp_path / "cells", 2, rank)) as part:
            got = {key: part[key] for key in part.files}
        assert set(got) == set(want) | {"__clock", "__owned", "__axis"}
        for key, value in want.items():
            assert (got[key].dtype, got[key].shape) == (value.dtype, value.shape), key
        owned = layout.owned[rank]
        assert str(got["__axis"]) == "cells" and got["__owned"].dtype == np.int64
        assert np.array_equal(got["__owned"], owned)
        other = np.setdiff1d(np.arange(serial.state.ncells), owned)
        for key in [k for k in want if k.startswith("field_")] + ["__T"]:
            assert got[key][..., owned].tobytes() == want[key][..., owned].tobytes(), key
            assert not got[key][..., other].any(), key


def test_a_whole_snapshot_restores_into_three_pieces(tiny_scenario, tmp_path):
    ckpt = tmp_path / "whole.npz"
    serial = _problem(tiny_scenario).generate()
    serial.run(2)
    serial.state.save_checkpoint(ckpt)
    serial.run(STEPS - 2)
    resumed = _problem(tiny_scenario, 3, restore_from=str(ckpt)).generate()
    assert resumed.state.step_index == 2
    resumed.run(STEPS - 2)
    assert resumed.solution().tobytes() == serial.solution().tobytes()
    assert resumed.state.extra["T"].tobytes() == serial.state.extra["T"].tobytes()
