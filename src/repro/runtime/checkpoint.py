"""Solver snapshots, ``repro.checkpoint/1``: named, written, read, checked,
applied and composed here alone.

A run writes ``<dir>/ckpt_stepNNNNNN.npz`` every ``checkpoint_every`` steps,
each rank of an SPMD run its own ``ckpt_stepNNNNNN_rank<R>.npz``.  A *cut* is
what a restore reads: one file, or the rank files of one step.  Members:
``__schema``, ``__problem`` (:func:`~repro.tune.signature.problem_identity`),
``__time``, ``__step_index``, ``field_<name>`` per field, ``__T`` once the
state holds a temperature, ``__rng`` under fault injection, and on a rank's
file ``__clock``, ``__owned`` (its owned index set) and ``__axis`` (what
``__owned`` indexes: ``"cells"`` or ``"comps"``).  A snapshot is of the whole
mesh, a cell rank's (on its piece) its owned columns, ``0`` elsewhere; a
state on a piece restores its piece's columns.

With ``__owned`` a cut composes itself under any rank count, by one rule: a
cell rank owns its columns of every field and of ``T``; a band rank owns its
rows of the unknown, and every other field, and ``T``, is the same on every
band rank.  A cut of several files restores fields, ``T``, time and step; a
rank's clock and the injector's state come only from a single-file snapshot.

Every member is read and checked before any is applied, so a refused
snapshot leaves the state as it was: RPR316 (corrupt, truncated, a member
missing, of another dtype or shape, or not finite), RPR317 (rank files that
do not compose: no ``__owned``, or owned sets that do not tile) and RPR318
(a snapshot of another problem).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.tune.signature import problem_identity
from repro.util.context import current
from repro.util.errors import CheckpointCorruptError, ConfigError, MigrationError

#: Schema tag written into every snapshot.  A member a reader of the same
#: tag may do without keeps the tag: readers read the members they know by
#: name, and ``__problem`` (absent from snapshots written before it) is
#: checked only where it is present, as ``__owned`` is needed only to compose.
CHECKPOINT_SCHEMA = "repro.checkpoint/1"


@dataclass
class Snapshot:
    """One checked cut, ready to apply (:func:`apply`)."""

    path: str
    time: float
    step: int
    fields: dict[str, np.ndarray]
    T: np.ndarray | None = None
    rng: dict | None = None
    clock: float | None = None
    owned: np.ndarray | None = None
    axis: str | None = None


def checkpoint_path(directory: str | Path, step: int, rank: int | None = None) -> Path:
    """Canonical file name: ``<dir>/ckpt_step000010[_rank2].npz``."""
    suffix = "" if rank is None else f"_rank{rank}"
    return Path(directory) / f"ckpt_step{step:06d}{suffix}.npz"


# --------------------------------------------------------------------- write
def save(state, path: str | Path) -> None:
    """Write ``state``'s snapshot to ``path``, atomically: a temporary file in
    the same directory, then ``os.replace``, so a reader sees the previous
    file or the whole new one, never half of one."""
    state.claim_unknown()
    piece = state.piece
    owned = None if piece is None else piece.cells[piece.owned]

    def whole(a):  # a piece's owned columns of ``a``, whole-width
        if piece is None:
            return a
        out = np.zeros(a.shape[:-1] + (state.problem.mesh.ncells,))
        out[..., owned] = a[..., piece.owned]
        return out

    payload: dict[str, Any] = {
        "__schema": np.array(CHECKPOINT_SCHEMA),
        "__problem": np.array(problem_identity(state.problem)),
        "__time": np.array(state.time),
        "__step_index": np.array(state.step_index),
        **{f"field_{name}": whole(fld.data) for name, fld in state.fields.items()},
    }
    T = state.extra.get("T")
    if T is not None:
        payload["__T"] = whole(np.asarray(T))
    injector = current().injector
    if injector.enabled:
        payload["__rng"] = np.array(injector.state_json())
    if state.comm is not None:
        payload["__clock"] = np.array(state.comm.clock.now())
    for axis, ids in (("cells", owned), ("comps", state.owned_comps)):
        if ids is not None:
            payload["__owned"], payload["__axis"] = np.asarray(ids), np.array(axis)
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:  # a file object: savez appends no suffix
            np.savez(fh, **payload)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def write(state, **labels: Any) -> Path:
    """Write ``state``'s snapshot of its current step into its checkpoint
    directory (a rank's own file on a rank) and record it: in the run's
    resilience log and, under the elastic runtime, in the runner's table of
    the cuts this run wrote."""
    directory = Path(state.checkpoint_dir or ".")
    directory.mkdir(parents=True, exist_ok=True)
    rank = None if state.comm is None else state.comm.rank
    path = checkpoint_path(directory, state.step_index, rank)
    save(state, path)
    current().resilience.record_checkpoint(path, **labels)
    if state.rebalance is not None:
        state.rebalance.wrote(state, path)
    return path


def periodic(state) -> None:
    """The periodic write behind ``maybe_checkpoint``: every
    ``checkpoint_every``-th step."""
    if state.step_index and not state.step_index % state.checkpoint_every:
        write(state)


# ---------------------------------------------------------------------- read
def read(path: str | Path, state) -> Snapshot:
    """One snapshot file, every member read and checked against ``state``'s
    problem and fields, over the whole mesh; nothing is applied."""
    # hostile bytes can make zipfile and np.load raise almost anything: every
    # exception of the decoding is the file's, and refuses it
    try:
        archive = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise ConfigError(f"checkpoint {path} does not exist") from None
    except (IsADirectoryError, PermissionError) as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc}") from exc
    except Exception as exc:
        raise CheckpointCorruptError(
            f"checkpoint {path} is corrupt or truncated: {exc}") from exc
    with archive:
        try:  # members are read lazily: every CRC first
            bad = archive.zip.testzip()
        except Exception as exc:
            raise CheckpointCorruptError(
                f"checkpoint {path} is corrupt or truncated: {exc}") from exc
        if bad is not None:
            raise CheckpointCorruptError(
                f"checkpoint {path}: member {bad.removesuffix('.npy')!r} is corrupt (CRC)")

        def member(key: str, kinds: str, shape=None, optional=False):
            if optional and key not in archive.files:
                return None
            try:
                value = archive[key]
            except Exception as exc:  # KeyError: missing; any other: undecodable
                raise CheckpointCorruptError(
                    f"checkpoint {path}: member {key!r} is missing or corrupt: {exc}") from exc
            if value.dtype.kind not in kinds or shape not in (None, value.shape):
                raise CheckpointCorruptError(f"checkpoint {path}: member {key!r} is a "
                                             f"{value.dtype} array of shape {value.shape}")
            return value

        # the schema first: another schema may name its members otherwise
        schema = member("__schema", "U", (), optional=True)
        if schema is not None and str(schema) != CHECKPOINT_SCHEMA:
            raise ConfigError(f"checkpoint {path} has schema {str(schema)!r}, "
                              f"expected {CHECKPOINT_SCHEMA!r}")
        fields, ncells = {}, state.problem.mesh.ncells
        for name, fld in state.fields.items():
            if f"field_{name}" not in archive.files:
                raise ConfigError(f"checkpoint lacks field {name!r}")
            fields[name] = member(f"field_{name}", "f")
            if fields[name].shape != (fld.ncomp, ncells):
                raise ConfigError(
                    f"checkpoint field {name!r} has shape {fields[name].shape}, "
                    f"expected {(fld.ncomp, ncells)} (different problem?)")
        stamp = member("__problem", "U", (), optional=True)
        if stamp is not None and str(stamp) != problem_identity(state.problem):
            raise ConfigError(
                f"checkpoint {path} is a snapshot of another problem (its mesh, "
                f"equation, entities, boundaries, stepper or dt differ)", code="RPR318")
        axis, clock, rng = (member(key, kinds, (), optional=True) for key, kinds in
                            (("__axis", "U"), ("__clock", "f"), ("__rng", "U")))
        try:
            rng = None if rng is None else json.loads(str(rng))
        except ValueError as exc:
            raise CheckpointCorruptError(
                f"checkpoint {path}: member '__rng' is corrupt: {exc}") from exc
        snap = Snapshot(
            path=str(path), time=float(member("__time", "f", ())),
            step=int(member("__step_index", "iu", ())), fields=fields,
            T=member("__T", "f", (ncells,), optional=True), rng=rng,
            clock=None if clock is None else float(clock),
            owned=member("__owned", "iu", optional=True),
            axis=None if axis is None else str(axis))
    for key, value in {**{f"field_{n}": v for n, v in fields.items()},
                       "__T": snap.T, "__time": snap.time}.items():
        if value is not None and not np.isfinite(value).all():
            raise CheckpointCorruptError(f"checkpoint {path}: member {key!r} is not finite")
    return snap


def compose(parts: list[Snapshot], state) -> Snapshot:
    """The snapshot the rank files of one cut make together, by the rule of
    the module docstring; one file that tiles alone is returned as it is."""
    first = parts[0]
    for part in parts:
        if part.owned is None or part.axis not in ("cells", "comps"):
            raise MigrationError(
                f"checkpoint {part.path} is a rank's file that records no owned index "
                f"set (written before cuts composed themselves): it is not composed by guess")
        if ((part.step, part.time, part.axis, part.T is None)
                != (first.step, first.time, first.axis, first.T is None)):
            raise MigrationError(f"checkpoint {part.path} is not of the cut of {first.path}")
    cells = first.axis == "cells"
    size = state.problem.mesh.ncells if cells else state.ncomp
    owned = np.concatenate([part.owned.ravel() for part in parts])
    if not np.array_equal(np.sort(owned), np.arange(size)):
        raise MigrationError(
            f"the {len(parts)} rank file(s) of {first.path}'s cut do not own each of "
            f"the {size} {'cells' if cells else 'components'} once")
    if len(parts) == 1:
        return first
    fields = {name: value.copy() for name, value in first.fields.items()}
    T = None if first.T is None else first.T.copy()
    unknown = state.unknown.name
    for part in parts:
        rows = part.owned
        if cells:
            for name, value in fields.items():
                value[:, rows] = part.fields[name][:, rows]
            if T is not None:
                T[rows] = part.T[rows]
        else:
            fields[unknown][rows] = part.fields[unknown][rows]
    return Snapshot(path=first.path, time=first.time, step=first.step, fields=fields, T=T)


def load(path: str | Path, state) -> Snapshot:
    """The cut ``path`` names: that file — or, when there is none, the rank
    files of its step beside it (``ckpt_step000002.npz`` names
    ``ckpt_step000002_rank*.npz``)."""
    path = Path(path)
    parts = [] if path.exists() else sorted(path.parent.glob(f"{path.stem}_rank*{path.suffix}"))
    snaps = [read(p, state) for p in parts or [path]]
    whole = len(snaps) == 1 and snaps[0].owned is None and snaps[0].clock is None
    return snaps[0] if whole else compose(snaps, state)


# --------------------------------------------------------------------- apply
def apply(snap: Snapshot, state) -> None:
    """Set ``state`` to a checked snapshot, of its piece's columns on a piece
    (each state gets its own arrays)."""
    state.claim_unknown()
    cells = slice(None) if state.piece is None else state.piece.cells
    for name, value in snap.fields.items():
        state.fields[name].data[...] = value[:, cells]
    state.time = snap.time
    state.step_index = snap.step
    if snap.T is not None:
        state.extra["T"] = snap.T[cells].copy()
    injector = current().injector
    if snap.rng is not None and injector.enabled:
        injector.load_state(snap.rng)
    if snap.clock is not None and state.comm is not None:
        state.comm.clock.advance_to(snap.clock)


def restore(state, path: str | Path) -> None:
    """Restore ``state`` from the cut ``path`` names (:func:`load`)."""
    apply(load(path, state), state)


__all__ = ["CHECKPOINT_SCHEMA", "Snapshot", "apply", "checkpoint_path", "compose", "load",
           "periodic", "read", "restore", "save", "write"]
