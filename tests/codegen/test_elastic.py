"""End-to-end elastic runtime: kill-recovery and proactive rebalancing.

The acceptance bar is *differential*: a distributed run that loses a rank
mid-flight (``rank_kill``) must recover from the periodic checkpoints onto
the surviving ranks and still produce results **bit-identical** to the
fault-free run — on the CPU-distributed target and on the multi-GPU
target.  Likewise a run skewed by a degraded rank (``rank_slow``) must
detect the imbalance, migrate work proactively, and converge to the same
bits with a measurably lower imbalance ratio.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.bte.problem import build_bte_problem, hotspot_scenario
from repro.runtime.faults import fault_run
from repro.util.context import current
from repro.util.errors import CheckpointCorruptError


def rebalance_log(solver) -> dict:
    """The elastic runner's log of the solver's last run."""
    return solver.namespace["ELASTIC"].log.as_dict()


def _scenario(nsteps):
    return hotspot_scenario(nx=8, ny=8, ndirs=8, n_freq_bands=5,
                            dt=1e-12, nsteps=nsteps)


def _solve(scenario, *, axis=None, nparts=1, index=None, target=None,
           extra=None, faults=None):
    """Build + solve, returning (u, T, solver)."""
    p, _ = build_bte_problem(scenario)
    if extra:
        p.extra.update(extra)
    if axis is not None:
        if index is None:
            p.set_partitioning(axis, nparts)
        else:
            p.set_partitioning(axis, nparts, index=index)
    with fault_run(faults):
        solver = p.solve() if target is None else p.solve(target=target)
    return solver.solution(), solver.state.extra["T"], solver


class TestKillRecoveryCells:
    """Lose rank 1 of 3 mid-run (cell partitioning) and keep the bits."""

    def test_recovery_is_bit_identical(self):
        sc = _scenario(8)
        u_ref, t_ref, _ = _solve(sc, axis="cells", nparts=3)

        extra = {"rebalance": True, "checkpoint_every": 2}
        # the cells template computes twice per step: at=12 is step 6,
        # after the step-4 checkpoints of every rank hit disk
        u, t, _ = _solve(sc, axis="cells", nparts=3, extra=extra,
                         faults="rank_kill:rank=1,at=12")

        assert np.array_equal(u, u_ref)
        assert np.array_equal(t, t_ref)

    def test_migration_is_logged(self):
        sc = _scenario(8)
        extra = {"rebalance": True, "checkpoint_every": 2}
        p, _ = build_bte_problem(sc)
        p.extra.update(extra)
        p.set_partitioning("cells", 3)
        with fault_run("rank_kill:rank=1,at=12"):
            solver = p.solve()
            res = current().resilience.as_dict()

        log = rebalance_log(solver)
        (mig,) = log["migrations"]
        assert mig["kind"] == "rank_loss"
        assert (mig["from_nranks"], mig["to_nranks"]) == (3, 2)
        assert mig["victim"] == 1
        assert mig["step"] == 4  # newest complete checkpoint cut
        assert sum(mig["new_owned_sizes"]) == 8 * 8  # all cells re-owned
        assert log["final_nranks"] == 2
        assert any(m["kind"] == "rank_loss" for m in res["migrations"])

    def test_recovery_without_checkpoints_restarts_from_zero(self):
        """No periodic checkpoints: the consistent cut is step 0."""
        sc = _scenario(6)
        u_ref, t_ref, _ = _solve(sc, axis="cells", nparts=3)
        u, t, solver = _solve(sc, axis="cells", nparts=3,
                              extra={"rebalance": True},
                              faults="rank_kill:rank=2,at=6")
        assert np.array_equal(u, u_ref)
        assert np.array_equal(t, t_ref)
        (mig,) = rebalance_log(solver)["migrations"]
        assert mig["step"] == 0


class TestCutsAreThisRunsFiles:
    """A cut is made of the files this run's ranks wrote: whatever else the
    checkpoint directory holds is never read."""

    EXTRA = {"rebalance": True, "checkpoint_every": 2}
    KILL = "rank_kill:rank=1,at=12"

    def _recover_in(self, directory):
        sc = _scenario(8)
        u_ref, t_ref, ref = _solve(sc, axis="cells", nparts=3)
        u, t, solver = _solve(sc, axis="cells", nparts=3, faults=self.KILL,
                              extra={**self.EXTRA, "checkpoint_dir": str(directory)})
        assert np.array_equal(u, u_ref)
        assert np.array_equal(t, t_ref)
        assert solver.state.time == ref.state.time
        (mig,) = rebalance_log(solver)["migrations"]
        assert mig["step"] == 4

    def test_another_problems_snapshots_in_the_directory_are_not_read(self, tmp_path):
        """Another ``dt``'s run left a newer complete cut (step 8) where this
        run writes: recovery still resumes from this run's step 4."""
        other = hotspot_scenario(nx=8, ny=8, ndirs=8, n_freq_bands=5,
                                 dt=2e-12, nsteps=8)
        _solve(other, axis="cells", nparts=3,
               extra={"checkpoint_every": 2, "checkpoint_dir": str(tmp_path)})
        assert (tmp_path / "ckpt_step000008_rank2.npz").exists()
        self._recover_in(tmp_path)

    def test_junk_files_in_the_directory_are_not_read(self, tmp_path):
        for rank in range(3):
            (tmp_path / f"ckpt_step000008_rank{rank}.npz").write_bytes(b"junk")
        self._recover_in(tmp_path)

    def test_a_file_this_run_wrote_and_that_was_torn_is_rpr316_naming_it(self, tmp_path):
        torn = tmp_path / "ckpt_step000004_rank1.npz"

        def tear(state):  # the step-4 cut is on disk; rank 1 dies in step 6
            if state.comm.rank == 1 and state.step_index == 5:
                torn.write_bytes(torn.read_bytes()[:200])

        p, _ = build_bte_problem(_scenario(8))
        p.extra.update({**self.EXTRA, "checkpoint_dir": str(tmp_path)})
        p.add_post_step(tear, name="tear")
        p.set_partitioning("cells", 3)
        with fault_run(self.KILL), pytest.raises(CheckpointCorruptError) as ei:
            p.solve()
        assert ei.value.code == "RPR316"
        assert str(torn) in str(ei.value)


class TestRestoredElasticRun:
    def test_a_restored_run_recovers_to_its_own_end(self, tmp_path):
        """Resumed from a step-2 cut for 6 more steps, the run loses a rank
        in its third step: it recovers from its own step-4 cut and still
        ends at step 8, bit-equal to the run that never stopped."""
        first = tmp_path / "first"
        u_ref, t_ref, ref = _solve(_scenario(8), axis="cells", nparts=3,
                                   extra={"checkpoint_every": 2, "checkpoint_dir": str(first)})
        u, t, solver = _solve(
            replace(_scenario(8), nsteps=6), axis="cells", nparts=3,
            faults="rank_kill:rank=1,at=6",
            extra={"rebalance": True, "checkpoint_every": 2,
                   "restore_from": str(first / "ckpt_step000002.npz")})
        assert np.array_equal(u, u_ref)
        assert np.array_equal(t, t_ref)
        assert solver.state.step_index == 8
        (mig,) = rebalance_log(solver)["migrations"]
        assert mig["step"] == 4


class TestKillRecoveryGpuMulti:
    """Same contract on the multi-GPU (band-partitioned) target."""

    def test_recovery_is_bit_identical(self):
        sc = _scenario(8)
        p_ref, _ = build_bte_problem(sc)
        p_ref.set_partitioning("bands", 3, index="b")
        s_ref = p_ref.solve(target="gpu_distributed")

        sc2 = _scenario(8)
        p, _ = build_bte_problem(sc2)
        p.set_partitioning("bands", 3, index="b")
        p.extra.update({"rebalance": True, "checkpoint_every": 2})
        with fault_run("rank_kill:rank=1,at=20"):
            solver = p.solve(target="gpu_distributed")

        assert np.array_equal(solver.solution(), s_ref.solution())
        assert np.array_equal(solver.state.extra["T"], s_ref.state.extra["T"])

        log = rebalance_log(solver)
        (mig,) = log["migrations"]
        assert mig["kind"] == "rank_loss"
        assert mig["to_nranks"] == mig["from_nranks"] - 1


class TestProactiveRebalance:
    """A 4x-degraded rank triggers a measured-speed repartition."""

    FAULT = "rank_slow:rank=0,factor=4,count=0"

    def test_migration_fires_and_reduces_imbalance(self):
        sc = _scenario(12)
        extra = {"rebalance": True, "imbalance_threshold": 1.5}
        u, t, solver = _solve(sc, axis="cells", nparts=4, extra=extra,
                              faults=self.FAULT)

        log = rebalance_log(solver)
        (mig,) = log["migrations"]
        assert mig["kind"] == "imbalance"
        assert mig["imbalance_before"] > 1.5
        assert mig["benefit_s"] > mig["cost_s"]
        # the slow rank sheds work: it ends with the smallest share
        sizes = mig["new_owned_sizes"]
        assert sizes[0] == min(sizes) and sizes[0] < 64 // 4
        assert log["final_imbalance"] < mig["imbalance_before"]

    def test_rebalanced_run_is_bit_identical(self):
        sc = _scenario(12)
        u_ref, t_ref, _ = _solve(sc, axis="cells", nparts=4)
        u, t, _ = _solve(sc, axis="cells", nparts=4,
                         extra={"rebalance": True}, faults=self.FAULT)
        assert np.array_equal(u, u_ref)
        assert np.array_equal(t, t_ref)

    def test_balanced_run_does_not_migrate(self):
        sc = _scenario(8)
        _, _, solver = _solve(sc, axis="cells", nparts=3, extra={"rebalance": True})
        log = rebalance_log(solver)
        assert log["migrations"] == []
        assert log["checks"] > 0  # the watcher did look


class TestBandPartitionRecovery:
    """Equation/band partitioning migrates whole bands — still exact."""

    def test_cells_kill_with_band_axis(self):
        sc = _scenario(8)
        u_ref, t_ref, _ = _solve(sc, axis="bands", nparts=3, index="b")
        u, t, _ = _solve(sc, axis="bands", nparts=3, index="b",
                         extra={"rebalance": True, "checkpoint_every": 2},
                         faults="rank_kill:rank=1,at=12")
        assert np.array_equal(u, u_ref)
        assert np.array_equal(t, t_ref)


class TestRunReportSection:
    def test_report_carries_the_rebalance_section(self):
        from repro.obs.report import build_run_report

        sc = _scenario(8)
        _, _, solver = _solve(sc, axis="cells", nparts=3,
                              extra={"rebalance": True, "checkpoint_every": 2},
                              faults="rank_kill:rank=1,at=12")
        report = build_run_report(solver)
        assert report.rebalance is not None
        assert report.rebalance["final_nranks"] == 2
        assert report.rebalance["migrations"][0]["kind"] == "rank_loss"
        assert "rebalance" in report.to_dict()

    def test_section_absent_without_the_feature(self):
        from repro.obs.report import build_run_report

        sc = _scenario(5)
        _, _, solver = _solve(sc, axis="cells", nparts=2)
        report = build_run_report(solver)
        assert report.rebalance is None


class TestTablesFollowTheRankState:
    """Step-invariant tables are built from a rank state's own geometry,
    once per state: the states a repartition creates build theirs anew."""

    def test_tables_are_rebuilt_after_a_repartition(self):
        p, _ = build_bte_problem(_scenario(8))
        p.extra.update({"rebalance": True, "checkpoint_every": 2})
        p.set_partitioning("cells", 3)
        solver = p.generate()
        ns = solver.namespace
        make_rank_state, states = ns["make_rank_state"], []

        def recording(rank):
            states.append(make_rank_state(rank))
            return states[-1]

        ns["make_rank_state"] = recording
        with fault_run("rank_kill:rank=1,at=12"):
            solver.run()
        (migration,) = rebalance_log(solver)["migrations"]
        assert migration["kind"] == "rank_loss"
        assert len(states) == 3 + 2  # three ranks, then the two survivors
        # every state holds both builders' tables — the folded interior
        # operator and the boundary faces' tables — and none is shared
        for key in (("folded_tables", "interior"), ("boundary_tables", "boundary")):
            held = [st._tables[key] for st in states]
            assert all(h[0] is ns[key[0]] for h in held)
            assert len({id(h[1]) for h in held}) == len(states)
        for st in states[3:]:
            g = st.geom
            fresh = ns["folded_tables"](
                g.normal[g.interior_faces], g.face_dist[g.interior_faces],
                g.owner[g.interior_faces], g.neighbor_column[g.interior_faces],
                g.divergence_rows(faces=g.interior_faces))
            for have, want in zip(st._tables["folded_tables", "interior"][1], fresh):
                assert all(map(np.array_equal, have, want))  # the folded operator
        # ... and so are the scratch and the boundary faces' loop: nothing a
        # sweep writes or indexes through is shared between rank states
        for attr in (lambda st: st._scratch["tile"], lambda st: st._scratch["du_bdry"],
                     lambda st: st._scratch["closure"], lambda st: st.geom._loops["boundary"],
                     lambda st: st._tables["folded_tables", "interior"][1][0].weights):
            assert len({id(attr(st)) for st in states}) == len(states)
        # ... nor is anything a step no longer re-derives: each state planned
        # its own tiles, built its own region contexts, and its callbacks
        # memoised into those (the survivors' after the loss, from scratch)
        for st in states:
            assert st.plans and st.bset._contexts
            assert np.shares_memory(st.extra["closure"][1], st._scratch["closure"])
            flux = [c for r, c in st.bset._contexts.items()
                    if st.bset.conditions[r].callback is not None]
            assert flux and all("wall_flux" in ctx.memo for ctx in flux)
        for held in (lambda st: st.plans, lambda st: st.bset._contexts,
                     lambda st: next(iter(st.bset._contexts.values())).memo,
                     lambda st: next(iter(st.plans.values())).tail):
            assert len({id(held(st)) for st in states}) == len(states)

    def test_device_band_ranks_build_their_own_tables_and_a_repartition_anew(self):
        """A device kernel reads the tables and the argument memo of the rank
        state it is launched for: each ``gpu_distributed`` rank builds its
        own, and the states a rank loss repartitions onto build theirs anew."""
        p, _ = build_bte_problem(_scenario(8))
        p.extra.update({"rebalance": True, "checkpoint_every": 2,
                        "gpu_force_offload": True})
        p.enable_gpu()
        p.set_partitioning("bands", 3, index="b")
        solver = p.generate()
        ns = solver.namespace
        make_rank_state, states = ns["make_rank_state"], []
        ns["make_rank_state"] = lambda rank: (states.append(make_rank_state(rank)),
                                              states[-1])[1]
        with fault_run("rank_kill:rank=1,at=6"):
            solver.run()
        (migration,) = rebalance_log(solver)["migrations"]
        assert migration["kind"] == "rank_loss" and len(states) == 3 + 2
        assert all(st.device is not None for st in states)
        held = [st._tables["folded_tables", "interior"] for st in states]
        assert all(h[0] is ns["folded_tables"] for h in held)
        for built in (lambda h: h[1], lambda h: h[1][0].own, lambda h: h[1][0].weights):
            assert len({id(built(h)) for h in held}) == len(states)
        # ... and the kernel's arguments resolved into each state's own memo
        assert len({id(st.plans[ns["TILE"]]) for st in states}) == len(states)
        for st in states[3:]:
            g = st.geom
            fresh = ns["folded_tables"](
                g.normal[g.interior_faces], g.face_dist[g.interior_faces],
                g.owner[g.interior_faces], g.neighbor_column[g.interior_faces],
                g.divergence_rows(faces=g.interior_faces))
            for have, want in zip(st._tables["folded_tables", "interior"][1], fresh):
                assert all(map(np.array_equal, have, want))

    def test_plans_contexts_and_memos_are_rebuilt_after_a_rebalance(self):
        """A repartition rebuilds the rank states, and with them everything a
        step no longer re-derives; the bits are those of an undisturbed run."""
        sc = _scenario(12)
        u_ref, t_ref, _ = _solve(sc, axis="cells", nparts=4)
        p, _ = build_bte_problem(sc)
        p.extra["rebalance"] = True
        p.set_partitioning("cells", 4)
        solver = p.generate()
        ns = solver.namespace
        make_rank_state, states = ns["make_rank_state"], []
        ns["make_rank_state"] = lambda rank: (states.append(make_rank_state(rank)),
                                              states[-1])[1]
        with fault_run(TestProactiveRebalance.FAULT):
            solver.run()
        (migration,) = rebalance_log(solver)["migrations"]
        assert migration["kind"] == "imbalance" and len(states) == 4 + 4
        for held in (lambda st: st.plans, lambda st: st.bset._contexts,
                     lambda st: next(iter(st.plans.values())).tail,
                     lambda st: st.extra["closure"][0]):
            assert len({id(held(st)) for st in states}) == len(states)
        for st in states:
            assert any("wall_flux" in ctx.memo for ctx in st.bset._contexts.values())
        assert np.array_equal(solver.solution(), u_ref)
        assert np.array_equal(solver.state.extra["T"], t_ref)

    def test_tables_differ_with_the_geometry(self):
        def tables(nx):
            sc = hotspot_scenario(nx=nx, ny=8, ndirs=8, n_freq_bands=5,
                                  dt=1e-12, nsteps=1)
            solver = build_bte_problem(sc)[0].solve()
            state = solver.state
            return (*state.tables(solver.namespace["invariant_tables"], "boundary"),
                    state.tables(solver.namespace["folded_tables"], "interior",
                                 divergence=True)[0].own)

        coarse, fine = tables(6), tables(8)
        assert [t.shape[0] for t in coarse] == [t.shape[0] for t in fine] == [8] * 4
        assert coarse[1].shape[1] < fine[1].shape[1]  # one column per boundary face
        assert coarse[3].shape[1] < fine[3].shape[1]  # ... and per cell
