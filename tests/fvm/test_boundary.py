"""Boundary-condition bookkeeping: ghosts, callbacks, symmetry, errors."""

import numpy as np
import pytest

from repro.fvm.boundary import (
    BCKind,
    BoundaryCondition,
    BoundarySet,
    BoundaryContext,
)
from repro.fvm.geometry import FVGeometry
from repro.mesh.grid import structured_grid, triangulated_grid
from repro.util.errors import ConfigError


@pytest.fixture
def geom():
    return FVGeometry(structured_grid((4, 4)))


def owners(geom, u):
    """The owner values of the boundary faces: all a set reads of ``u``."""
    return u[:, geom.bowner]


def full_set(geom, ncomp=1, overrides=None):
    overrides = overrides or {}
    bset = BoundarySet(geom, ncomp)
    for region in (1, 2, 3, 4):
        if region in overrides:
            bset.add(overrides[region])
        else:
            bset.add(BoundaryCondition(region=region, kind=BCKind.NEUMANN0))
    return bset


class TestConstruction:
    def test_dirichlet_requires_value(self):
        with pytest.raises(ConfigError):
            BoundaryCondition(region=1, kind=BCKind.DIRICHLET)

    def test_flux_requires_callback(self):
        with pytest.raises(ConfigError):
            BoundaryCondition(region=1, kind=BCKind.FLUX)

    def test_symmetry_requires_map(self):
        with pytest.raises(ConfigError):
            BoundaryCondition(region=1, kind=BCKind.SYMMETRY)

    def test_unknown_region_rejected(self, geom):
        bset = BoundarySet(geom, 1)
        with pytest.raises(ConfigError):
            bset.add(BoundaryCondition(region=9, kind=BCKind.NEUMANN0))

    def test_duplicate_region_rejected(self, geom):
        bset = BoundarySet(geom, 1)
        bset.add(BoundaryCondition(region=1, kind=BCKind.NEUMANN0))
        with pytest.raises(ConfigError):
            bset.add(BoundaryCondition(region=1, kind=BCKind.NEUMANN0))

    def test_dirichlet_shape_checked_when_added(self, geom):
        bset = BoundarySet(geom, 3)
        with pytest.raises(ConfigError, match="Dirichlet value shape"):
            bset.add(BoundaryCondition(region=1, kind=BCKind.DIRICHLET,
                                       value=np.ones(2)))
        assert not bset.conditions

    def test_reflection_map_length_checked(self, geom):
        bset = BoundarySet(geom, 4)
        with pytest.raises(ConfigError):
            bset.add(
                BoundaryCondition(
                    region=1, kind=BCKind.SYMMETRY, reflection_map=np.array([0, 1])
                )
            )


class TestGhostValues:
    def test_dirichlet_scalar(self, geom):
        bset = full_set(
            geom,
            1,
            {1: BoundaryCondition(region=1, kind=BCKind.DIRICHLET, value=5.0)},
        )
        u = np.zeros((1, geom.ncells))
        ghost = bset.ghost_values(owners(geom, u), 0.0, 0.0, None)
        slots = geom.region_slots[1]
        assert np.allclose(ghost[:, slots], 5.0)

    def test_dirichlet_per_component(self, geom):
        vals = np.array([1.0, 2.0, 3.0])
        bset = full_set(
            geom,
            3,
            {2: BoundaryCondition(region=2, kind=BCKind.DIRICHLET, value=vals)},
        )
        u = np.zeros((3, geom.ncells))
        ghost = bset.ghost_values(owners(geom, u), 0.0, 0.0, None)
        slots = geom.region_slots[2]
        assert np.allclose(ghost[:, slots], vals[:, None])

    def test_neumann0_copies_owner(self, geom):
        bset = full_set(geom, 1)
        u = np.arange(geom.ncells, dtype=float)[None, :]
        ghost = bset.ghost_values(owners(geom, u), 0.0, 0.0, None)
        assert np.allclose(ghost[0], u[0, geom.owner[geom.bfaces]])

    def test_symmetry_permutes_components(self, geom):
        refl = np.array([1, 0], dtype=np.int64)
        bset = full_set(
            geom,
            2,
            {3: BoundaryCondition(region=3, kind=BCKind.SYMMETRY, reflection_map=refl)},
        )
        u = np.stack([np.full(geom.ncells, 10.0), np.full(geom.ncells, 20.0)])
        ghost = bset.ghost_values(owners(geom, u), 0.0, 0.0, None)
        slots = geom.region_slots[3]
        assert np.allclose(ghost[0, slots], 20.0)
        assert np.allclose(ghost[1, slots], 10.0)

    def test_ghost_callback(self, geom):
        def cb(ctx):
            return np.full((1, ctx.nfaces), 42.0)

        bset = full_set(
            geom,
            1,
            {4: BoundaryCondition(region=4, kind=BCKind.GHOST_CALLBACK, callback=cb)},
        )
        ghost = bset.ghost_values(np.zeros((1, len(geom.bfaces))), 0.0, 0.0, None)
        assert np.allclose(ghost[:, geom.region_slots[4]], 42.0)

    def test_ghost_callback_shape_checked(self, geom):
        def bad(ctx):
            return np.zeros((2, ctx.nfaces))

        bset = full_set(
            geom,
            1,
            {4: BoundaryCondition(region=4, kind=BCKind.GHOST_CALLBACK, callback=bad)},
        )
        with pytest.raises(ConfigError):
            bset.ghost_values(np.zeros((1, len(geom.bfaces))), 0.0, 0.0, None)


class TestFluxOverrides:
    def test_flux_callback_receives_context(self, geom):
        seen = {}

        def cb(ctx):
            seen["ctx"] = ctx
            return np.zeros((1, ctx.nfaces))

        bset = full_set(
            geom,
            1,
            {1: BoundaryCondition(region=1, kind=BCKind.FLUX, callback=cb)},
        )
        u = np.arange(geom.ncells, dtype=float)[None, :]
        faces, vals = bset.flux_overrides(owners(geom, u), 1.5, 0.1, {"tag": 7})
        ctx = seen["ctx"]
        assert isinstance(ctx, BoundaryContext)
        assert ctx.time == 1.5
        assert ctx.dt == 0.1
        assert ctx.extra["tag"] == 7
        assert np.allclose(ctx.owner_values, u[:, ctx.owner_cells])
        assert np.array_equal(faces, geom.region_faces[1]) and vals.shape == (1, ctx.nfaces)

    def test_no_flux_regions_empty(self, geom):
        bset = full_set(geom, 1)
        faces, values = bset.flux_overrides(np.zeros((1, len(geom.bfaces))), 0.0, 0.0, None)
        assert faces.shape == (0,) and values.shape == (1, 0)

    def test_the_pair_is_the_same_two_arrays_on_every_call(self, geom):
        """A generated sweep resolves the pair once: every call returns the
        set's two arrays, the values written anew, region after region;
        ``slots`` asks for the faces' positions among the boundary faces
        instead of their ids.  ``add`` drops the pair."""
        bset = BoundarySet(geom, 2)
        for r in (3, 1):
            bset.add(BoundaryCondition(r, BCKind.FLUX, callback=lambda ctx, r=r: (
                r * ctx.owner_values + ctx.time)))
        u = np.random.default_rng(0).random((2, geom.ncells))
        faces, values = bset.flux_overrides(owners(geom, u), 0.5, 0.1, None)
        assert np.array_equal(faces, np.concatenate([geom.region_faces[r] for r in (3, 1)]))
        pair = bset.flux_overrides(owners(geom, 2.0 * u), 0.5, 0.1, None)
        assert bset.flux_overrides(owners(geom, 2.0 * u), 0.5, 0.1, None) is pair
        assert pair[0] is faces and pair[1] is values
        expected = [r * (2.0 * u)[:, geom.owner[geom.region_faces[r]]] + 0.5 for r in (3, 1)]
        assert values.tobytes() == np.concatenate(expected, axis=1).tobytes()
        slots, held = bset.flux_overrides(owners(geom, u), 0.5, 0.1, None, slots=True)
        assert held is values and np.array_equal(slots, geom.bface_slot[faces])
        assert bset.flux_overrides(owners(geom, u), 0.5, 0.1, None, slots=True)[0] is slots
        bset.add(BoundaryCondition(2, BCKind.FLUX, callback=lambda ctx: ctx.owner_values))
        grown, fresh = bset.flux_overrides(owners(geom, u), 0.5, 0.1, None)
        assert fresh is not values and len(grown) == len(faces) + len(geom.region_faces[2])

    def test_flux_shape_checked(self, geom):
        def bad(ctx):
            return np.zeros((1, ctx.nfaces + 1))

        bset = full_set(
            geom,
            1,
            {1: BoundaryCondition(region=1, kind=BCKind.FLUX, callback=bad)},
        )
        with pytest.raises(ConfigError):
            bset.flux_overrides(np.zeros((1, len(geom.bfaces))), 0.0, 0.0, None)


class TestOwnerValues:
    """All ``ghost_values``/``flux_overrides`` need of ``u`` is its value at
    the boundary faces' owner cells: handed those values alone — what a
    device-resident step sends back — they compute the bits of each region's
    condition evaluated on the full array, fresh, into ``out`` or in place."""

    MESHES = {
        "structured": lambda: structured_grid((5, 4)),
        "triangles": lambda: triangulated_grid((4, 3)),
    }
    NCOMP = 4

    def bset(self, geom, shift):
        """One condition of every kind but one on the four regions; ``shift``
        rotates which kind sits where (and which is left out)."""
        ncomp = self.NCOMP
        kinds = [
            lambda r: BoundaryCondition(r, BCKind.DIRICHLET, value=np.arange(ncomp) - 1.5),
            lambda r: BoundaryCondition(r, BCKind.NEUMANN0),
            lambda r: BoundaryCondition(r, BCKind.SYMMETRY,
                                        reflection_map=np.arange(ncomp)[::-1]),
            lambda r: BoundaryCondition(
                r, BCKind.GHOST_CALLBACK,
                callback=lambda ctx: 2.0 * ctx.owner_values + ctx.time + ctx.owner_cells),
            lambda r: BoundaryCondition(
                r, BCKind.FLUX,
                callback=lambda ctx: -ctx.owner_values * ctx.normals[:, 0] + ctx.dt),
        ]
        bset = BoundarySet(geom, ncomp)
        for i, region in enumerate(sorted(geom.region_faces)):
            bset.add(kinds[(i + shift) % len(kinds)](region))
        return bset

    @staticmethod
    def on_the_full_array(geom, bset, u, time, dt):
        """Each region's condition evaluated on ``u`` itself: the ghost
        values, and the FLUX values of the FLUX regions in order."""
        ghost, flux = u[:, geom.bowner].copy(), []
        for region, bc in bset.conditions.items():
            faces, slots = geom.region_faces[region], geom.region_slots[region]
            cells = geom.owner[faces]
            if bc.kind == BCKind.DIRICHLET:
                ghost[:, slots] = np.asarray(bc.value)[:, None]
            elif bc.kind == BCKind.SYMMETRY:
                ghost[:, slots] = u[bc.reflection_map][:, cells]
            elif bc.callback is not None:
                ctx = BoundaryContext(region, faces, geom.normal[faces], geom.center[faces],
                                      geom.area[faces], cells, u[:, cells], time, dt)
                if bc.kind == BCKind.FLUX:
                    flux.append(bc.callback(ctx))
                else:
                    ghost[:, slots] = bc.callback(ctx)
        return ghost, np.concatenate([np.zeros((u.shape[0], 0)), *flux], axis=1)

    @pytest.mark.parametrize("mesh", sorted(MESHES))
    @pytest.mark.parametrize("shift", range(5))
    def test_on_owner_values_equals_on_the_full_array(self, mesh, shift):
        geom = FVGeometry(self.MESHES[mesh]())
        bset = self.bset(geom, shift)
        u = np.random.default_rng(shift).standard_normal((self.NCOMP, geom.ncells))
        u[1, geom.bowner[::3]] = -0.0
        ghost, flux = self.on_the_full_array(geom, bset, u, 0.3, 0.1)
        values = u[:, geom.bowner]
        held = values.copy()
        assert bset.ghost_values(values, 0.3, 0.1, None).tobytes() == ghost.tobytes()
        out = np.full_like(values, np.nan)
        assert bset.ghost_values(values, 0.3, 0.1, None, out) is out
        assert out.tobytes() == ghost.tobytes() and values.tobytes() == held.tobytes()
        assert bset.ghost_values(held, 0.3, 0.1, None, held) is held
        assert held.tobytes() == ghost.tobytes()
        faces, got = bset.flux_overrides(values, 0.3, 0.1, None)
        assert np.array_equal(faces, np.concatenate([np.zeros(0, np.int64), *(
            geom.region_faces[r] for r, bc in bset.conditions.items() if bc.kind == BCKind.FLUX)]))
        assert got.tobytes() == flux.tobytes()


class TestContextsAreBoundOnce:
    """A region's context is built on first use and only its per-step fields
    are set again (ISSUE 23); ``remember`` keeps what a callback derives from
    arguments that are the same objects from step to step."""

    @staticmethod
    def recording_set(geom, seen):
        def cb(ctx):
            seen.append(ctx)
            return np.zeros((1, ctx.nfaces))

        return full_set(geom, 1, {1: BoundaryCondition(1, BCKind.FLUX, callback=cb)})

    def test_geometry_is_gathered_once_and_the_step_fields_follow(self, geom):
        seen, extra = [], {"tag": 7}
        bset = self.recording_set(geom, seen)
        u = np.arange(geom.ncells, dtype=float)[None, :]
        bset.flux_overrides(owners(geom, u), 0.5, 0.1, extra)
        first = seen[0]
        held = (first.faces, first.normals, first.centers, first.areas,
                first.owner_cells, first.slots, first.memo)
        bset.flux_overrides(owners(geom, 2.0 * u), 0.6, 0.1, extra)
        again = seen[1]
        assert again is first and all(a is b for a, b in zip(held, (
            again.faces, again.normals, again.centers, again.areas,
            again.owner_cells, again.slots, again.memo)))
        assert again.time == 0.6 and again.extra is extra  # the caller's, no copy
        assert np.array_equal(again.owner_values, 2.0 * u[:, again.owner_cells])
        assert np.array_equal(first.slots, geom.region_slots[1])

    def test_add_after_first_use_takes_the_cold_path(self, geom):
        seen = []
        bset = BoundarySet(geom, 1)
        bset.add(BoundaryCondition(1, BCKind.FLUX, callback=lambda ctx: (
            seen.append(ctx), ctx.remember("k", (), list), np.zeros((1, ctx.nfaces)))[-1]))
        values = np.zeros((1, len(geom.bfaces)))
        bset.flux_overrides(values, 0.0, 0.0, None)
        bset.add(BoundaryCondition(2, BCKind.NEUMANN0))
        bset.flux_overrides(values, 0.0, 0.0, None)
        assert seen[1] is not seen[0] and seen[1].memo["k"][1] is not seen[0].memo["k"][1]

    def test_remember_goes_by_the_identity_of_its_arguments(self, geom):
        ctx = self.recording_set(geom, [])._static(BoundaryCondition(1, BCKind.NEUMANN0))
        built = []

        def build():
            built.append(len(built))
            return built[-1]

        a, b = np.ones(3), 300.0
        assert [ctx.remember("k", (a, b), build) for _ in range(3)] == [0, 0, 0]
        assert ctx.remember("k", (a.copy(), b), build) == 1   # equal, not the same
        assert ctx.remember("k", (a, b), build) == 2          # only the last is kept
        assert ctx.remember("k", (a, b, None), build) == 3    # another arity
        assert ctx.remember("other", (a, b), build) == 4 and len(built) == 5

    def test_a_mask_passed_again_keeps_its_region_columns(self, geom):
        bset = full_set(geom, 2, {
            1: BoundaryCondition(1, BCKind.DIRICHLET, value=5.0),
            2: BoundaryCondition(2, BCKind.SYMMETRY, reflection_map=np.array([1, 0]))})
        values = np.random.default_rng(0).random((2, len(geom.bfaces)))
        where = np.random.default_rng(1).random(values.shape) > 0.5
        expected = values.copy()
        for region, ghost in ((1, 5.0), (2, values[::-1][:, geom.region_slots[2]])):
            slots = geom.region_slots[region]
            expected[:, slots] = np.where(where[:, slots], ghost, values[:, slots])
        for _ in range(2):  # cold, then from the kept columns and mirror index
            got = bset.ghost_values(values.copy(), 0.0, 0.0, None, values.copy(), where=where)
            assert got.tobytes() == expected.tobytes()
        memo = bset._contexts[2].memo
        assert memo["where"][0][0] is where and set(memo) == {"where", "mirror"}
        other = ~where  # another mask object: its own columns
        got = bset.ghost_values(values.copy(), 0.0, 0.0, None, values.copy(), where=other)
        assert bset._contexts[2].memo["where"][0][0] is other
        assert not np.array_equal(got, expected)
