"""Checkpoint/restart of solver state."""

import struct
import zipfile
from dataclasses import replace

import numpy as np
import pytest

from repro.bte.problem import build_bte_problem
from repro.util.errors import CheckpointCorruptError, ConfigError


def flip_member_byte(path, member: str) -> None:
    """Invert one byte in the middle of ``member``'s stored data, so the
    archive still opens and only reading that member fails its CRC."""
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo(member)
    blob = bytearray(path.read_bytes())
    # a local file header is 30 fixed bytes, the name and the extra field
    name_len, extra_len = struct.unpack_from("<HH", blob, info.header_offset + 26)
    start = info.header_offset + 30 + name_len + extra_len
    blob[start + info.compress_size // 2] ^= 0xFF
    path.write_bytes(bytes(blob))


def rewrite_members(path, edit) -> None:
    """Re-save the checkpoint at ``path`` with ``edit`` applied to its
    member dict."""
    with np.load(path) as data:
        members = {key: data[key] for key in data.files}
    edit(members)
    np.savez(path, **members)


class TestCheckpointRestart:
    def test_resume_is_bit_exact(self, tiny_scenario, tmp_path):
        ckpt = tmp_path / "mid.npz"

        # reference: straight run of 2 * nsteps
        p_ref, _ = build_bte_problem(tiny_scenario)
        s_ref = p_ref.generate()
        s_ref.run(tiny_scenario.nsteps)
        s_ref.run(tiny_scenario.nsteps)

        # checkpointed: run, save, rebuild, restore, run
        p1, _ = build_bte_problem(tiny_scenario)
        s1 = p1.generate()
        s1.run(tiny_scenario.nsteps)
        s1.state.save_checkpoint(ckpt)

        p2, _ = build_bte_problem(tiny_scenario)
        s2 = p2.generate()
        s2.state.restore_checkpoint(ckpt)
        assert s2.state.step_index == tiny_scenario.nsteps
        s2.run(tiny_scenario.nsteps)

        assert np.array_equal(s2.solution(), s_ref.solution())
        assert np.array_equal(s2.state.extra["T"], s_ref.state.extra["T"])
        assert s2.state.time == pytest.approx(s_ref.state.time)

    def test_all_fields_roundtrip(self, tiny_scenario, tmp_path):
        ckpt = tmp_path / "all.npz"
        p, _ = build_bte_problem(tiny_scenario)
        solver = p.generate()
        solver.run(3)
        before = {n: f.data.copy() for n, f in solver.state.fields.items()}
        solver.state.save_checkpoint(ckpt)
        solver.run(2)  # mutate

        p2, _ = build_bte_problem(tiny_scenario)
        s2 = p2.generate()
        s2.state.restore_checkpoint(ckpt)
        for name, data in before.items():
            assert np.array_equal(s2.state.fields[name].data, data), name

    def test_shape_mismatch_rejected(self, tiny_scenario, tmp_path):
        from repro.bte.problem import hotspot_scenario

        ckpt = tmp_path / "bad.npz"
        p, _ = build_bte_problem(tiny_scenario)
        p.generate().state.save_checkpoint(ckpt)

        other = hotspot_scenario(nx=6, ny=6, ndirs=8, n_freq_bands=5,
                                 dt=1e-12, nsteps=2)
        p2, _ = build_bte_problem(other)
        s2 = p2.generate()
        with pytest.raises(ConfigError, match="different problem"):
            s2.state.restore_checkpoint(ckpt)

    def test_missing_field_rejected(self, tiny_scenario, tmp_path):
        ckpt = tmp_path / "partial.npz"
        np.savez(ckpt, __time=np.array(0.0), __step_index=np.array(0))
        p, _ = build_bte_problem(tiny_scenario)
        solver = p.generate()
        with pytest.raises(ConfigError, match="lacks field"):
            solver.state.restore_checkpoint(ckpt)


class TestCheckpointRobustness:
    """Atomic writes + typed corruption errors (the elastic runtime trusts
    every on-disk checkpoint it finds when composing a consistent cut)."""

    def test_truncated_file_raises_typed_error(self, tiny_scenario, tmp_path):
        ckpt = tmp_path / "trunc.npz"
        p, _ = build_bte_problem(tiny_scenario)
        solver = p.generate()
        solver.run(2)
        solver.state.save_checkpoint(ckpt)

        blob = ckpt.read_bytes()
        ckpt.write_bytes(blob[: len(blob) // 2])  # torn write / partial copy

        p2, _ = build_bte_problem(tiny_scenario)
        with pytest.raises(CheckpointCorruptError) as ei:
            p2.generate().state.restore_checkpoint(ckpt)
        assert ei.value.code == "RPR316"
        assert "corrupt or truncated" in str(ei.value)

    def _assert_restore_refused(self, tiny_scenario, ckpt, member, *,
                                error=CheckpointCorruptError, code="RPR316"):
        """``code`` naming ``member``, and not one field, the time or the
        step index of the state written."""
        p, _ = build_bte_problem(tiny_scenario)
        state = p.generate().state
        before = {n: f.data.copy() for n, f in state.fields.items()}
        with pytest.raises(error) as ei:
            state.restore_checkpoint(ckpt)
        assert ei.value.code == code
        assert member in str(ei.value)
        for name, data in before.items():
            assert np.array_equal(state.fields[name].data, data), name
        assert (state.time, state.step_index) == (0.0, 0)

    @pytest.fixture
    def ckpt(self, tiny_scenario, tmp_path):
        path = tmp_path / "ckpt.npz"
        p, _ = build_bte_problem(tiny_scenario)
        solver = p.generate()
        solver.run(2)
        solver.state.save_checkpoint(path)
        return path

    def test_flipped_byte_in_a_field_raises_typed_error(self, tiny_scenario, ckpt):
        flip_member_byte(ckpt, "field_I.npy")
        self._assert_restore_refused(tiny_scenario, ckpt, "'field_I'")

    def test_missing_time_raises_typed_error(self, tiny_scenario, ckpt):
        rewrite_members(ckpt, lambda members: members.pop("__time"))
        self._assert_restore_refused(tiny_scenario, ckpt, "'__time'")

    def test_object_dtype_field_raises_typed_error(self, tiny_scenario, ckpt):
        def to_object(members):
            members["field_I"] = members["field_I"].astype(object)

        rewrite_members(ckpt, to_object)
        self._assert_restore_refused(tiny_scenario, ckpt, "'field_I'")

    def test_non_finite_field_raises_typed_error(self, tiny_scenario, ckpt):
        def to_nan(members):
            members["field_I"] = np.full_like(members["field_I"], np.nan)

        rewrite_members(ckpt, to_nan)
        self._assert_restore_refused(tiny_scenario, ckpt, "'field_I'")

    def test_snapshot_of_another_problem_is_refused(self, tiny_scenario, tmp_path):
        """Same mesh, same fields, same shapes — another ``dt``: the
        snapshot carries its problem's identity, and it is not this one."""
        other = tmp_path / "other.npz"
        p, _ = build_bte_problem(replace(tiny_scenario, dt=2 * tiny_scenario.dt))
        solver = p.generate()
        solver.run(2)
        solver.state.save_checkpoint(other)
        self._assert_restore_refused(tiny_scenario, other, "another problem",
                                     error=ConfigError, code="RPR318")

    def test_save_is_atomic_no_tmp_left_behind(self, tiny_scenario, tmp_path):
        ckpt = tmp_path / "atomic.npz"
        p, _ = build_bte_problem(tiny_scenario)
        p.generate().state.save_checkpoint(ckpt)
        assert ckpt.exists()
        leftovers = [f for f in tmp_path.iterdir() if f.name != ckpt.name]
        assert leftovers == []

    def test_failed_write_preserves_previous_checkpoint(
            self, tiny_scenario, tmp_path, monkeypatch):
        """A crash mid-save must not clobber the last good checkpoint."""
        ckpt = tmp_path / "keep.npz"
        p, _ = build_bte_problem(tiny_scenario)
        solver = p.generate()
        solver.run(1)
        solver.state.save_checkpoint(ckpt)
        good = ckpt.read_bytes()

        def torn_savez(fh, **payload):
            fh.write(b"\x50\x4b\x03\x04half-a-zip")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", torn_savez)
        solver.run(1)
        with pytest.raises(OSError):
            solver.state.save_checkpoint(ckpt)
        assert ckpt.read_bytes() == good  # untouched
        assert list(tmp_path.glob("*.tmp")) == []  # tmp cleaned up


class TestRankCuts:
    """The rank files of one step are one cut: each records the index set its
    rank owned (``__owned``), so the cut composes itself under any rank
    count, into a serial run too."""

    STEPS = 4

    def _problem(self, scenario, strategy=None, nparts=0, **extra):
        p, _ = build_bte_problem(replace(scenario, nsteps=self.STEPS))
        if strategy is not None:
            p.set_partitioning(strategy, nparts, **({"index": "b"} if strategy == "bands" else {}))
        p.extra.update(extra)
        return p

    def _cut(self, scenario, directory, strategy, nparts):
        """Run the whole trajectory on ``nparts`` ranks, writing a cut every
        second step; the uninterrupted solver."""
        return self._problem(scenario, strategy, nparts, checkpoint_every=2,
                             checkpoint_dir=str(directory)).solve()

    def _resume(self, scenario, cut, strategy=None, nparts=0):
        p = self._problem(scenario, strategy, nparts, restore_from=str(cut))
        solver = p.generate()
        assert solver.state.step_index == 2
        solver.run(self.STEPS - 2)
        return solver

    @pytest.mark.parametrize("strategy, nparts", [("bands", 2), ("bands", 3), (None, 0)])
    def test_a_band_cut_resumes_under_any_rank_count(self, tiny_scenario, tmp_path,
                                                     strategy, nparts):
        straight = self._cut(tiny_scenario, tmp_path, "bands", 2)
        assert not (tmp_path / "ckpt_step000002.npz").exists()
        resumed = self._resume(tiny_scenario, tmp_path / "ckpt_step000002.npz",
                               strategy, nparts)
        assert np.array_equal(resumed.solution(), straight.solution())
        assert np.array_equal(resumed.state.extra["T"], straight.state.extra["T"])
        assert resumed.state.time == pytest.approx(straight.state.time, rel=1e-15)

    def test_a_cells_cut_of_two_ranks_resumes_on_three(self, tiny_scenario, tmp_path):
        straight = self._cut(tiny_scenario, tmp_path, "cells", 2)
        resumed = self._resume(tiny_scenario, tmp_path / "ckpt_step000002.npz", "cells", 3)
        assert np.array_equal(resumed.solution(), straight.solution())
        assert np.array_equal(resumed.state.extra["T"], straight.state.extra["T"])

    def test_a_rank_file_without_its_owned_set_is_refused(self, tiny_scenario, tmp_path):
        """Written before rank files recorded what they own: a cut of such
        files is not composed by guess."""
        from repro.util.errors import MigrationError

        self._cut(tiny_scenario, tmp_path, "cells", 2)
        for part in tmp_path.glob("ckpt_step000002_rank*.npz"):
            rewrite_members(part, lambda members: [members.pop(k) for k in ("__owned", "__axis")])
        state = self._problem(tiny_scenario).generate().state
        with pytest.raises(MigrationError) as ei:
            state.restore_checkpoint(tmp_path / "ckpt_step000002.npz")
        assert ei.value.code == "RPR317" and "owned" in str(ei.value)
        assert (state.time, state.step_index) == (0.0, 0)

    def test_one_rank_file_alone_is_refused(self, tiny_scenario, tmp_path):
        """Half of a cut is not a snapshot: its unowned columns are stale."""
        from repro.util.errors import MigrationError

        self._cut(tiny_scenario, tmp_path, "cells", 2)
        state = self._problem(tiny_scenario).generate().state
        with pytest.raises(MigrationError, match="do not own each"):
            state.restore_checkpoint(tmp_path / "ckpt_step000002_rank0.npz")
