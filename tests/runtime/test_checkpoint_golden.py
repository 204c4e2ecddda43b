"""Golden-checkpoint compatibility: the ``repro.checkpoint/1`` contract.

``tests/runtime/data/golden_ckpt_step000003.npz`` is a committed snapshot
of the reference BTE scenario after 3 steps.  These tests pin the on-disk
format: a fresh build of the same problem must (a) reproduce the golden
payload bit-for-bit when checkpointing at the same step, and (b) restore
from the golden file and continue to a trajectory bit-identical to an
uninterrupted run.  If either breaks, the schema changed and the version
tag must be bumped.

A member a reader may do without is no schema change.  The problem's
identity (``__problem``) is one: ``golden_ckpt_step000003_unstamped.npz``,
the snapshot cut before checkpoints carried it, must still restore (taken
on trust) and continue bit for bit.

The payload also pins the solution's bits.  ISSUE 21 (the surface statement
folded through the divergence) changed the rounding of every Euler target at
once, explicitly; the snapshot was regenerated at that commit, same scenario,
same schema, with

    PYTHONPATH=src python -c "from tests.runtime.test_checkpoint_golden import *; \
    s = fresh_solver(); s.run(SAVE_STEP); s.state.save_checkpoint(GOLDEN)"

and digests chain on from there.  It was cut again, by the same command,
when checkpoints began to carry their problem's identity (``__problem``):
every other member came out bit-equal to the unstamped snapshot's.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.bte.problem import build_bte_problem, hotspot_scenario
from repro.runtime.checkpoint import CHECKPOINT_SCHEMA, checkpoint_path
from repro.util.errors import ConfigError

GOLDEN = Path(__file__).parent / "data" / "golden_ckpt_step000003.npz"
UNSTAMPED = GOLDEN.with_name("golden_ckpt_step000003_unstamped.npz")
SAVE_STEP = 3


def golden_scenario():
    """The configuration the golden checkpoint was cut from (do not change)."""
    return hotspot_scenario(nx=8, ny=8, ndirs=8, n_freq_bands=5,
                            dt=1e-12, nsteps=5)


def fresh_solver():
    problem, _ = build_bte_problem(golden_scenario())
    return problem.generate()


def assert_restore_continues_bit_identically(golden):
    straight = fresh_solver()
    straight.run(5)

    resumed = fresh_solver()
    resumed.state.restore_checkpoint(golden)
    assert resumed.state.step_index == SAVE_STEP
    resumed.run(5 - SAVE_STEP)

    assert np.array_equal(resumed.solution(), straight.solution())
    assert np.array_equal(resumed.state.extra["T"],
                          straight.state.extra["T"])
    assert resumed.state.time == straight.state.time


class TestGoldenCheckpoint:
    def test_golden_carries_schema_tag(self):
        with np.load(GOLDEN) as data:
            assert str(data["__schema"]) == CHECKPOINT_SCHEMA
            assert int(data["__step_index"]) == SAVE_STEP

    def test_fresh_save_reproduces_golden_payload(self, tmp_path):
        solver = fresh_solver()
        solver.run(SAVE_STEP)
        ckpt = tmp_path / "fresh.npz"
        solver.state.save_checkpoint(ckpt)
        with np.load(GOLDEN) as want, np.load(ckpt) as got:
            assert sorted(want.files) == sorted(got.files)
            for key in want.files:
                assert np.array_equal(want[key], got[key]), key

    def test_unstamped_golden_differs_by_the_identity_alone(self):
        with np.load(GOLDEN) as stamped, np.load(UNSTAMPED) as older:
            assert sorted(set(stamped.files) - set(older.files)) == ["__problem"]
            for key in older.files:
                assert np.array_equal(stamped[key], older[key]), key

    def test_restore_golden_continues_bit_identically(self):
        assert_restore_continues_bit_identically(GOLDEN)

    def test_restore_unstamped_golden_continues_bit_identically(self):
        """Taken on trust: written before checkpoints carried ``__problem``."""
        assert_restore_continues_bit_identically(UNSTAMPED)

    def test_wrong_schema_version_rejected(self, tmp_path):
        bad = tmp_path / "bad.npz"
        with np.load(GOLDEN) as data:
            payload = {k: data[k] for k in data.files}
        payload["__schema"] = np.array("repro.checkpoint/999")
        np.savez(bad, **payload)
        with pytest.raises(ConfigError, match="schema"):
            fresh_solver().state.restore_checkpoint(bad)

    def test_wrong_schema_is_named_before_a_missing_member(self, tmp_path):
        """Another schema may rename or drop members: the schema is what is
        wrong, not the member it lacks."""
        bad = tmp_path / "bad.npz"
        with np.load(GOLDEN) as data:
            payload = {k: data[k] for k in data.files if k != "field_I"}
        payload["__schema"] = np.array("repro.checkpoint/999")
        np.savez(bad, **payload)
        with pytest.raises(ConfigError, match="has schema 'repro.checkpoint/999'"):
            fresh_solver().state.restore_checkpoint(bad)


class TestPeriodicCheckpoints:
    def test_generated_loop_emits_periodic_checkpoints(self, tmp_path):
        problem, _ = build_bte_problem(golden_scenario())
        problem.extra["checkpoint_every"] = 2
        problem.extra["checkpoint_dir"] = str(tmp_path)
        problem.solve()
        written = sorted(tmp_path.glob("ckpt_step*.npz"))
        assert [p.name for p in written] == [
            checkpoint_path(tmp_path, 2).name,
            checkpoint_path(tmp_path, 4).name,
        ]

    def test_restore_from_extra_resumes_run(self, tmp_path):
        straight = fresh_solver()
        straight.run(5)

        problem, _ = build_bte_problem(golden_scenario())
        problem.extra["restore_from"] = str(GOLDEN)
        solver = problem.generate()
        assert solver.state.step_index == SAVE_STEP
        solver.run(5 - SAVE_STEP)
        assert np.array_equal(solver.solution(), straight.solution())
