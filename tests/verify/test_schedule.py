"""SPMD schedule verification: the halo layout's send/recv symmetry."""

import copy

from repro.verify import check_halo_symmetry, verify_solver_schedule


def symmetric_layout():
    """Two ranks exchanging a 3-cell halo in both directions."""
    send = [{1: [4, 5, 6]}, {0: [0, 1, 2]}]
    recv = [{1: [7, 8, 9]}, {0: [3, 4, 5]}]
    return send, recv


class TestHaloSymmetry:
    def test_symmetric_layout_is_clean(self):
        send, recv = symmetric_layout()
        report = check_halo_symmetry(send, recv)
        assert not report.diagnostics, [d.render() for d in report.diagnostics]

    def test_send_without_recv_trips_rpr210(self):
        send, recv = symmetric_layout()
        del recv[1][0]  # rank 1 no longer expects rank 0's halo
        report = check_halo_symmetry(send, recv)
        assert "RPR210" in report.codes()

    def test_recv_without_send_trips_rpr211(self):
        send, recv = symmetric_layout()
        del send[0][1]  # rank 0 no longer sends to rank 1
        report = check_halo_symmetry(send, recv)
        assert "RPR211" in report.codes()

    def test_width_mismatch_trips_rpr213(self):
        send, recv = symmetric_layout()
        recv[1][0] = [3, 4]  # rank 1 expects 2 cells, rank 0 sends 3
        report = check_halo_symmetry(send, recv)
        assert "RPR213" in report.codes()

    def test_out_of_range_peer_trips_rpr211(self):
        send, recv = symmetric_layout()
        recv[0][9] = [1]  # rank 9 does not exist
        report = check_halo_symmetry(send, recv)
        assert "RPR211" in report.codes()


def cells_solver(nparts):
    from repro.bte.problem import build_bte_problem, hotspot_scenario

    sc = hotspot_scenario(nx=8, ny=8, ndirs=4, n_freq_bands=2,
                          dt=1e-12, nsteps=2)
    p, _ = build_bte_problem(sc)
    p.set_partitioning("cells", nparts)
    return p.generate()


class TestRealDistributedSolver:
    def test_two_rank_solver_schedule_is_clean(self):
        solver = cells_solver(2)
        assert getattr(solver, "layout", None) is not None
        report = verify_solver_schedule(solver)
        assert not report.diagnostics, [d.render() for d in report.diagnostics]

    def test_dropped_send_entry_on_three_ranks_trips_rpr211(self):
        solver = cells_solver(3)
        # the layout is the cached artifact's: break a copy of it
        solver.layout = copy.deepcopy(solver.layout)
        sends = solver.layout.send_cells
        rank, peer = next((r, q) for r in range(3) for q in sends[r])
        del sends[rank][peer]  # rank no longer sends to peer
        report = verify_solver_schedule(solver)
        assert set(report.codes()) == {"RPR211"}
        (diag,) = report.diagnostics
        assert (diag.where["rank"], diag.where["peer"]) == (peer, rank)

    def test_serial_solver_is_a_noop(self):
        class Solver:
            layout = None

        assert not verify_solver_schedule(Solver()).diagnostics
