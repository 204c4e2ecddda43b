"""Property: a mutated snapshot is refused with a typed error, or restores
exactly what the intact one does — never a traceback, never another answer.

One reader serves every restore: a whole snapshot (``--restore FILE``) and
a cut of rank files (``--restore`` naming a step of an SPMD run, and the
elastic runtime's migrations).  Each example mutates one file, the whole
snapshot or one rank file of a two-rank cut, by one of: truncation at any
offset, one flipped byte, a dropped member, an object- or string-dtype
member, NaN or inf in a field, another problem's ``__problem``.  The
restore then either raises a :class:`~repro.util.errors.ReproError` whose
code is in the catalogue, with the state left as it was, or — the mutation
touched nothing a reader reads (a zip timestamp; a member a reader may do
without) — ends in the state the intact file gives.
"""

from __future__ import annotations

import io
import os
import shutil
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.bte.problem import build_bte_problem, hotspot_scenario
from repro.tune.signature import problem_identity
from repro.util.errors import ReproError
from repro.verify.codes import CATALOGUE

# CI runs with a pinned derandomised profile so failures reproduce
settings.register_profile("ci", derandomize=True, max_examples=60)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])

CODES = set(CATALOGUE)
SCENARIO = hotspot_scenario(nx=6, ny=6, ndirs=4, n_freq_bands=3, dt=1e-12, nsteps=2)
TARGETS = ("whole", "rank0", "rank1")


def _problem(scenario=SCENARIO, **extra):
    problem, _ = build_bte_problem(scenario)
    problem.extra.update(extra)
    return problem


def _view(state):
    T = state.extra.get("T")
    return ({n: f.data.copy() for n, f in state.fields.items()},
            None if T is None else T.copy(), state.time, state.step_index)


def _members(blob: bytes) -> dict:
    with np.load(io.BytesIO(blob)) as data:
        return {key: data[key] for key in data.files}


def _savez(members: dict) -> bytes:
    out = io.BytesIO()
    np.savez(out, **members)
    return out.getvalue()


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """The intact files, what restoring them gives, and the state mutated
    files are restored into."""
    root = tmp_path_factory.mktemp("snapshots")
    solver = _problem().generate()
    solver.run(2)
    solver.state.save_checkpoint(root / "whole.npz")
    cut = _problem(checkpoint_every=2, checkpoint_dir=str(root / "cut"))
    cut.set_partitioning("cells", 2)
    cut.solve()
    intact = {"whole": (root / "whole.npz").read_bytes()}
    for rank in (0, 1):
        intact[f"rank{rank}"] = (root / "cut" / f"ckpt_step000002_rank{rank}.npz").read_bytes()
    restored = {}
    for target, path in (("whole", root / "whole.npz"),
                         ("cut", root / "cut" / "ckpt_step000002.npz")):
        state = _problem().generate().state
        state.restore_checkpoint(path)
        restored[target] = _view(state)
    other = problem_identity(_problem(replace(SCENARIO, dt=2 * SCENARIO.dt)))
    return {"root": root, "intact": intact, "restored": restored, "other": other,
            "state": _problem().generate().state}


def mutate(blob: bytes, mutation: tuple, other_problem: str) -> tuple[bytes, str | None]:
    """``blob`` mutated; the member the mutation dropped, if it dropped one."""
    kind, a, b = mutation
    if kind == "truncate":
        return blob[:a % len(blob)], None
    if kind == "flip":
        out = bytearray(blob)
        out[a % len(out)] ^= b
        return bytes(out), None
    members = _members(blob)
    key = sorted(members)[a % len(members)]
    if kind == "drop":
        del members[key]
        return _savez(members), key
    if kind == "dtype":
        members[key] = members[key].astype(object if b % 2 else str)
    elif kind == "nonfinite":
        field = sorted(k for k in members if k.startswith("field_"))[a % 3]
        members[field] = members[field].copy()
        members[field].flat[b % members[field].size] = (np.nan, np.inf, -np.inf)[b % 3]
    else:  # "problem"
        members["__problem"] = np.array(other_problem)
    return _savez(members), None


MUTATIONS = st.tuples(
    st.sampled_from(["truncate", "flip", "drop", "dtype", "nonfinite", "problem"]),
    st.integers(0, 1 << 20), st.integers(1, 255))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(target=st.sampled_from(TARGETS), mutation=MUTATIONS)
@example(target="whole", mutation=("truncate", 0, 1))
@example(target="rank1", mutation=("truncate", 100, 1))
@example(target="whole", mutation=("flip", 700, 255))
@example(target="rank0", mutation=("nonfinite", 0, 1))
@example(target="whole", mutation=("problem", 0, 1))
@example(target="rank1", mutation=("problem", 0, 1))
@example(target="rank0", mutation=("drop", 0, 1))  # __T
@example(target="rank0", mutation=("drop", 1, 1))  # __axis
@example(target="rank0", mutation=("drop", 3, 1))  # __owned
@example(target="whole", mutation=("dtype", 4, 1))  # __time as an object
@example(target="rank1", mutation=("dtype", 3, 2))  # __owned as strings
def test_a_mutated_snapshot_is_refused_or_restores_what_the_intact_one_does(
        world, target, mutation):
    root, state = world["root"], world["state"]
    blob, dropped = mutate(world["intact"][target], mutation, world["other"])
    shutil.rmtree(root / "try", ignore_errors=True)
    (root / "try").mkdir()
    for name, intact in world["intact"].items():
        if name != "whole":
            (root / "try" / f"ckpt_step000002_{name}.npz").write_bytes(
                blob if name == target else intact)
    if target == "whole":
        (root / "try" / "whole.npz").write_bytes(blob)
    path = root / "try" / ("whole.npz" if target == "whole" else "ckpt_step000002.npz")

    before = _view(state)
    try:
        state.restore_checkpoint(path)
    except ReproError as exc:
        assert exc.code in CODES, exc.code
        after = _view(state)
        assert after[2:] == before[2:]
        for name, data in before[0].items():
            assert np.array_equal(after[0][name], data), name
        assert (after[1] is None) == (before[1] is None)
        assert after[1] is None or np.array_equal(after[1], before[1])
        return
    fields, T, time, step = world["restored"]["whole" if target == "whole" else "cut"]
    after = _view(state)
    assert after[2:] == (time, step)
    for name, data in fields.items():
        assert np.array_equal(after[0][name], data), name
    if dropped != "__T":
        assert np.array_equal(after[1], T)
