"""The component-row tiling is invisible in the results, bit for bit.

Every tiled target sweeps its kernel body over tiles of
``kernels.tile_rows`` component rows.  All operations in a tile are
elementwise per row, the CSR divergence is per column and the folded
upwind operator per run of equal table rows, so the tile height must not
change a single bit of the solution — and, the surface statement of the BTE
being folded through the divergence on every target alike, neither does the
target.  The property suite
solves one small BTE hotspot problem (FLUX-override walls top and bottom,
symmetry ghosts left and right) under randomly drawn configurations —
target (band ranks sweep index-array ``rows``, device ranks launch row
blocks), ``assemblyLoops`` order, ``flux_order``, an injected
device fault — at four tile heights and demands equal digests.  The
problem has 4 directions x 3+ bands, so every height but the first makes
tiles that straddle two rows of the direction-indexed tables and the folded
operator runs in segments:

* one row per tile,
* the derived height (``TILE_BYTES`` as shipped),
* a single tile holding every row (what the untiled kernels computed),
* a height that leaves a ragged last tile.

The explicit tests pin the row-restriction contract: band-partitioned
ranks and multi-GPU launches gather and write only the rows they own.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bte.problem import build_bte_problem, hotspot_scenario
from repro.fvm import kernels
from repro.runtime.faults import fault_run
from repro.util.context import current

# CI runs with a pinned derandomised profile so failures reproduce
settings.register_profile("ci", derandomize=True, max_examples=60)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])

NX = 6
NFACES = 2 * NX * (NX + 1)  # faces of the NX x NX quad mesh


def scenario():
    return hotspot_scenario(nx=NX, ny=NX, ndirs=4, n_freq_bands=3,
                            dt=1e-12, nsteps=3)


def build_problem():
    """The hotspot problem from a rough initial state: direction-dependent
    from the first step, so the symmetry ghosts differ from their owners."""
    problem, _ = build_bte_problem(scenario())
    base = np.asarray(problem.initial_values["I"])
    rough = 1.0 + 0.2 * np.random.default_rng(7).random((len(base), NX * NX))
    problem.set_initial("I", base[:, None] * rough)
    return problem


def use_gpu(problem):
    problem.enable_gpu()
    problem.extra["gpu_force_offload"] = True


def use_gpu_multi(problem):
    use_gpu(problem)
    problem.set_partitioning("bands", 2, index="b")


#: name -> (configure, takes flux_order(2), device whose launch can fault)
TARGETS = {
    "cpu": (lambda p: None, True, None),
    "cells": (lambda p: p.set_partitioning("cells", 2), True, None),
    "bands": (lambda p: p.set_partitioning("bands", 2, index="b"), True, None),
    "gpu": (use_gpu, False, "gpu0"),
    "gpu_multi": (use_gpu_multi, False, "gpu1"),
}
LOOPS = (None, ("b", "cells", "d"), ("d", "cells", "b"), ("d", "b", "cells"))


def digest(solver) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(solver.solution()).tobytes())
    h.update(np.ascontiguousarray(solver.state.extra["T"]).tobytes())
    return h.hexdigest()


def solve(monkeypatch, rows, target, loops=None, order=1, fault=False):
    """One solve with tiles of ``rows`` component rows (None: as shipped)."""
    configure, _, device = TARGETS[target]
    problem = build_problem()
    configure(problem)
    if loops is not None:
        problem.set_assembly_loops(list(loops))
    if order == 2:
        problem.set_flux_order(2)
    with monkeypatch.context() as patch:
        if rows is not None:
            patch.setattr(kernels, "TILE_BYTES", 8 * NFACES * rows)
        spec = f"oom:device={device},op=launch,at=1" if fault else None
        with fault_run(spec, seed=5):
            solver = problem.solve()
            log = current().resilience
        if fault:  # the step re-ran the same tiled kernel body on the host
            assert log.injected == {"oom": 1}
            assert log.degraded and log.degraded[0]["to"] == "cpu"
    return solver


@settings(max_examples=20, deadline=None)
@given(
    target=st.sampled_from(sorted(TARGETS)),
    loops=st.sampled_from(LOOPS),
    order=st.sampled_from((1, 2)),
    fault=st.booleans(),
    ragged=st.integers(min_value=2, max_value=7),
)
def test_tile_height_never_changes_a_bit(target, loops, order, fault, ragged):
    _, second_order, device = TARGETS[target]
    order = order if second_order else 1
    fault = fault and device is not None
    with pytest.MonkeyPatch.context() as monkeypatch:
        def run(rows):
            return solve(monkeypatch, rows, target, loops, order, fault)

        whole = run(10_000)  # one tile per block: the untiled evaluation
        ncomp = whole.state.ncomp
        if ncomp % ragged == 0:
            ragged += 1
        expected = digest(whole)
        for rows in (1, None, ragged):
            assert digest(run(rows)) == expected, (
                f"tiles of {rows} rows changed the result on {target} "
                f"(loops={loops}, order={order}, fault={fault})"
            )


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_faulted_ragged_tiles_match_whole_blocks(monkeypatch, target):
    """The corner the property suite may not draw: ragged tiles + the
    degraded CPU re-execution on device targets, non-trivial
    ``assemblyLoops``."""
    fault = TARGETS[target][2] is not None
    args = dict(target=target, loops=("b", "cells", "d"), fault=fault)
    assert (digest(solve(monkeypatch, 3, **args))
            == digest(solve(monkeypatch, 10_000, **args)))


@pytest.mark.parametrize("target", ["cpu", "gpu"])
def test_derived_height_on_a_mesh_that_needs_tiles(monkeypatch, target):
    """``TILE_BYTES`` as shipped, on a mesh wide enough that the derived
    height splits the rows into several tiles with a ragged last one."""
    sc = hotspot_scenario(nx=40, ny=40, ndirs=8, n_freq_bands=5,
                          dt=1e-12, nsteps=2)

    def run(tile_bytes):
        problem, _ = build_bte_problem(sc)
        TARGETS[target][0](problem)
        with monkeypatch.context() as patch:
            if tile_bytes is not None:
                patch.setattr(kernels, "TILE_BYTES", tile_bytes)
            return problem.solve()

    derived = run(None)
    state = derived.state
    height = kernels.tile_rows(state.geom.nfaces, state.ncomp)
    assert 1 < height < state.ncomp and state.ncomp % height
    assert digest(derived) == digest(run(1 << 40))


def test_all_euler_targets_are_bit_identical_at_every_tile_height(monkeypatch):
    """One step shape on every target — the folded interior sweep plus the
    one ``compute_boundary_contribution``, combined as ``u + (du_bdry * dt)``
    — so the serial, cell- and band-partitioned, hybrid and multi-device
    solves of one problem (nx=16, 8 directions x 11 bands, 8
    steps) agree to the last bit, whatever the tile height."""
    sc = hotspot_scenario(nx=16, ny=16, ndirs=8, n_freq_bands=8, dt=1e-12, nsteps=8)

    def run(target, rows=None):
        problem, _ = build_bte_problem(sc)
        TARGETS[target][0](problem)
        with monkeypatch.context() as patch:
            if rows is not None:
                patch.setattr(kernels, "TILE_BYTES", 8 * 2 * 16 * 17 * rows)
            return problem.solve()

    serial = run("cpu")
    assert serial.state.ncomp == 88 and "kernels.apply_folded(" in serial.source
    expected = digest(serial)
    for target in sorted(TARGETS):
        assert digest(run(target)) == expected, target
        assert digest(run(target, rows=5)) == expected, f"{target}, tiles of 5 rows"


# --------------------------------------------------------------------------
# row restriction: a rank / launch touches only its own rows
# --------------------------------------------------------------------------

class _RecordingRows(np.ndarray):
    """An array that remembers the row keys it was indexed with (it, not
    the tiles taken from it: those index their own rows)."""

    def __array_finalize__(self, obj):
        self.keys = None if isinstance(obj, _RecordingRows) else []

    def __getitem__(self, key):
        if self.keys is not None:
            self.keys.append(key)
        return super().__getitem__(key)

    def take(self, indices, axis=None, **kwargs):  # ``np.take(u, rows, axis=0)``
        if self.keys is not None and axis == 0:
            self.keys.append(indices)
        return super().take(indices, axis=axis, **kwargs)


def _rows_of(keys, ncomp):
    return set(np.concatenate([np.arange(ncomp)[k].ravel() for k in keys]).tolist())


def test_band_ranks_gather_only_their_own_rows(monkeypatch):
    """The sweep of a band rank takes only its own rows of the unknown into
    its tiles (``kernels.rows_of`` — the boundary part reads the owner
    values of every row, and is not what this pins)."""
    from types import SimpleNamespace

    problem = build_problem()
    problem.set_partitioning("bands", 2, index="b")
    solver = problem.generate()
    ns = solver.namespace
    make_rank_state = ns["make_rank_state"]
    gathered: dict[int, list] = {}
    owned: dict[int, np.ndarray] = {}
    rank_of: dict[int, int] = {}  # id of a rank's unknown -> the rank

    def recording_rank_state(rank):
        state = make_rank_state(rank)
        owned[rank] = state.owned_comps
        rank_of[id(state.host_u)] = rank
        return state

    def rows_of(a, sel, *args, **kwargs):
        if id(a) in rank_of:
            gathered.setdefault(rank_of[id(a)], []).append(sel)
        return kernels.rows_of(a, sel, *args, **kwargs)

    ns["make_rank_state"] = recording_rank_state
    ns["kernels"] = SimpleNamespace(**{**vars(kernels), "rows_of": rows_of})
    monkeypatch.setattr(kernels, "TILE_BYTES", 8 * NFACES * 2)  # several tiles
    solver.run(2)
    ncomp = solver.state.ncomp
    assert set(gathered) == {0, 1}
    for rank, keys in gathered.items():
        assert len(keys) > 2  # really tiled
        # every owned row exactly once per step, nothing else
        rows = np.concatenate([np.arange(ncomp)[k].ravel() for k in keys])
        assert sorted(rows.tolist()) == sorted(owned[rank].tolist() * 2)


@pytest.mark.parametrize("rows", [
    np.array([1, 2, 3, 11, 12, 13]),  # a band block's strided rows
    np.arange(5, 10),                 # a contiguous block of rows
])
def test_kernel_launch_touches_only_selected_rows(monkeypatch, rows):
    problem = build_problem()
    use_gpu(problem)
    solver = problem.generate()
    state, ns = solver.state, solver.namespace
    known = [state.fields[n.replace("var_", "")].data for n in ns["KERNEL_VAR_NAMES"]]
    monkeypatch.setattr(kernels, "TILE_BYTES", 8 * NFACES * 2)

    full = np.full_like(state.u, np.nan)
    ns["interior_kernel"](state.u, *known, full, state.buffer)
    u = state.u.copy().view(_RecordingRows)
    part = np.full_like(state.u, np.nan)
    ns["interior_kernel"](u, *known, part, state.buffer, rows)

    others = np.setdiff1d(np.arange(state.ncomp), rows)
    assert np.array_equal(part[rows], full[rows])
    assert np.isnan(part[others]).all()
    assert _rows_of(u.keys, state.ncomp) == set(rows.tolist())


def test_row_blocks_keep_assembly_order_and_drop_foreign_rows():
    problem, _ = build_bte_problem(scenario())
    problem.set_assembly_loops(["b", "cells", "d"])
    state = problem.generate().state
    rows = np.array([0, 1, 6, 7, 12])
    blocks = state.row_blocks(rows)
    assert len(blocks) == len(state.comp_blocks)
    for blk, full in zip(blocks, state.comp_blocks):
        assert np.array_equal(blk, np.intersect1d(full, rows))
    assert state.row_blocks(None) is state.comp_blocks
    # the all-rows block of the default order is replaced by the rows
    default = build_bte_problem(scenario())[0].generate().state
    assert default.row_blocks(rows)[0] is rows


def test_surface_statement_without_a_row_leaf_fills_the_tile():
    """``surface(k)`` evaluates to a scalar; the tile's overrides and
    divergence need a full ``(rows, nfaces)`` flux."""
    from repro.dsl.problem import Problem
    from repro.fvm.boundary import BCKind
    from repro.mesh.grid import structured_grid

    def solve(target):
        p = Problem("rowless")
        p.set_domain(2)
        p.set_steps(1e-3, 3)
        p.set_mesh(structured_grid((4, 4)))
        p.add_variable("u")
        p.add_coefficient("k", 2.0)
        for region in (1, 2, 3, 4):
            p.add_boundary("u", region, BCKind.NEUMANN0)
        p.set_initial("u", 1.0)
        p.set_conservation_form("u", "-k*u - surface(k)")
        return p.solve(target=target)

    generated = solve("cpu")
    assert "fx[...] = flux" in generated.source
    np.testing.assert_allclose(generated.solution(), solve("interp").solution(),
                               rtol=1e-13)


# --------------------------------------------------------------------------
# the folded upwind operator, and the row locality the in-place store relies on
# --------------------------------------------------------------------------

@pytest.mark.parametrize("rows", [
    slice(2, 9),                        # straddles three direction rows
    slice(7, 8),                        # one row
    np.array([0, 1, 4, 5, 6, 13, 14]),  # a band rank's strided rows
    None,                               # every row
])
def test_upwind_gather_equals_the_select_of_two_gathers(rows):
    """What a folded tile computes from its own rows — own-cell coefficient
    plus one gather per inflow face — against the body it replaced: both
    sides gathered onto the interior faces, the upwind one selected, scaled
    by the table and taken through the divergence.  To rounding: the fold
    re-associates the products."""
    solver = build_problem().generate()
    solver.run(2)  # direction-dependent values on both sides
    state, ns = solver.state, solver.namespace
    geom, u = state.geom, state.u
    faces = geom.interior_faces
    tables = [geom.normal[faces], geom.face_dist[faces], geom.owner[faces],
              geom.neighbor_column[faces]]
    mask, projected, columns = ns["invariant_tables"](*tables)
    (fold,) = state.tables(ns["folded_tables"], faces, divergence=True)
    table_rows = ns["tmap_d"] if rows is None else ns["tmap_d"][rows]
    assert rows is None or isinstance(rows, slice) or len(set(table_rows)) > 1
    u1, u2 = (side[:, faces] for side in geom.gather_sides(u, None, rows))
    flux = np.where(mask[table_rows], u1, u2) * projected[table_rows]
    expected = (geom.divergence[:, faces] @ flux.T).T
    us = u[slice(None) if rows is None else rows]
    # into scratch taller than the tile, as the kernel bodies call it
    n = len(expected)
    out, work = np.full((2, n + 3, geom.ncells), np.nan)
    got = kernels.apply_folded(fold, us, kernels.table_runs(table_rows), out[:n], work[:n])
    assert np.shares_memory(got, out) and np.isnan(out[n:]).all()
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
    # every row on its own: the tile's rows are the whole sweep's, bit for bit
    whole = kernels.apply_folded(fold, u, kernels.table_runs(ns["tmap_d"]),
                                 np.empty_like(u), np.empty_like(u))
    assert got.tobytes() == whole[slice(None) if rows is None else rows].tobytes()
    # the upwind choice reads no ghost slot among the interior faces
    assert (columns >= 0).all()


@pytest.mark.parametrize("equation", [
    "(Io[b] - I[d,1]) / tau[b] - surface(vg[b] * upwind([Sx[d];Sy[d]], I[d,b]))",
    "(Io[b] - I[d,b]) / tau[b] - surface(vg[b] * upwind([Sx[d];Sy[d]], I[2,b]))",
])
@pytest.mark.parametrize("configure", [lambda p: None, use_gpu], ids=["cpu", "gpu"])
def test_statement_reading_the_unknown_outside_its_tile_is_rejected(equation, configure):
    """Rows are swept independently and forward Euler stores in place: a
    statement may read the unknown only at the component it computes.
    ``I[d,1]`` (band 1 for every ``b``) would read another tile's rows, and
    fails at generation with the catalogued code."""
    from repro.util.errors import CodegenError
    from tests.codegen.test_interpreter_oracle import build_indexed_problem

    problem = build_indexed_problem(3, 2, seed=1, equation=equation)
    configure(problem)
    with pytest.raises(CodegenError, match="outside the tile's own rows") as err:
        problem.generate()
    assert err.value.code == "RPR141"


def test_boundary_values_sharing_memory_with_the_unknown_are_rejected():
    """In a two-sided tile body (here: ``flux_order=2``, which does not
    fold) ``ghost``/override values are read after earlier tiles were
    stored: the sweep checks once per state that they are not views of
    ``u``.  A folded sweep evaluates the whole boundary part, from a copy of
    the owner values, before its first store: it has nothing to check."""
    from repro.util.errors import CodegenError

    def second_order():
        problem = build_problem()
        problem.set_flux_order(2)
        return problem.generate()

    solver = second_order()
    state = solver.state
    nb = len(state.geom.bfaces)
    state.bset.ghost_values = lambda u, *a, **k: u[:, :nb]
    with pytest.raises(CodegenError, match="share memory") as err:
        solver.run(1)
    assert err.value.code == "RPR141"
    # checked on the first sweep only: afterwards it costs one attribute test
    clean = second_order()
    clean.run(1)
    assert clean.state._sweep_inputs_checked
    folded = build_problem().generate()
    assert "require_private_inputs" not in folded.source


def test_rk_steppers_get_a_fresh_rhs_from_the_same_tile_body(monkeypatch):
    """Only forward Euler stores in place; ``compute_rhs`` of an RK solver
    returns a new array, leaves ``u`` alone, and tiles like the rest."""
    def solve(rows):
        problem = build_problem()
        problem.set_stepper("rk2")
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "TILE_BYTES", 8 * NFACES * rows)
            return problem.solve()

    solver = solve(10_000)
    assert "rhs[sel] = acc" in solver.source and "dt, out=acc" not in solver.source
    assert "require_private_inputs" not in solver.source
    state = solver.state
    before = state.u.copy()
    rhs = solver.namespace["compute_rhs"](state, state.u, state.time)
    assert rhs.shape == before.shape and not np.shares_memory(rhs, state.u)
    assert np.array_equal(state.u, before)
    assert digest(solve(3)) == digest(solver)
