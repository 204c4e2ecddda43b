"""SolverState: fields, initial conditions, callback adapters, buffers."""

import numpy as np
import pytest

from repro.codegen.state import SolverState
from repro.dsl.entities import CELL, VAR_ARRAY
from repro.dsl.problem import Problem
from repro.fvm.boundary import BCKind
from repro.mesh.grid import structured_grid
from repro.util.errors import CodegenError, ConfigError


def base_problem(with_equation=True):
    p = Problem("state-test")
    p.set_domain(2)
    p.set_steps(1e-3, 5)
    p.set_mesh(structured_grid((4, 4)))
    d = p.add_index("d", (1, 3))
    p.add_variable("I", VAR_ARRAY, CELL, index=[d])
    p.add_variable("aux")
    p.add_coefficient("c", np.array([1.0, 2.0, 3.0]), VAR_ARRAY, index=[d])
    for r in (1, 2, 3, 4):
        p.add_boundary("I", r, BCKind.NEUMANN0)
    if with_equation:
        p.set_conservation_form("I", "-I[d]")
    return p


class TestFields:
    def test_all_variables_get_fields(self):
        state = SolverState(base_problem())
        assert set(state.fields) == {"I", "aux"}
        assert state.fields["I"].data.shape == (3, 16)
        assert state.fields["aux"].data.shape == (1, 16)

    def test_u_property_aliases_unknown(self):
        state = SolverState(base_problem())
        state.u = np.full((3, 16), 2.0)
        assert np.allclose(state.fields["I"].data, 2.0)

    def test_unknown_field_error(self):
        state = SolverState(base_problem())
        with pytest.raises(CodegenError):
            state.field("nope")


class TestInitialConditions:
    def test_scalar_fill(self):
        p = base_problem()
        p.set_initial("I", 5.0)
        assert np.allclose(SolverState(p).u, 5.0)

    def test_per_component(self):
        p = base_problem()
        p.set_initial("I", np.array([1.0, 2.0, 3.0]))
        state = SolverState(p)
        assert np.allclose(state.u[1], 2.0)

    def test_full_array(self):
        p = base_problem()
        full = np.arange(48.0).reshape(3, 16)
        p.set_initial("I", full)
        assert np.allclose(SolverState(p).u, full)

    def test_callable_per_cell(self):
        p = base_problem()
        p.set_initial("I", lambda x: x[:, 0])
        state = SolverState(p)
        x = p.mesh.cell_centroids[:, 0]
        for comp in range(3):
            assert np.allclose(state.u[comp], x)

    def test_callable_full_shape(self):
        p = base_problem()
        p.set_initial("I", lambda x: np.tile(x[:, 1], (3, 1)))
        state = SolverState(p)
        assert np.allclose(state.u[0], p.mesh.cell_centroids[:, 1])

    def test_bad_shape_rejected(self):
        p = base_problem()
        p.set_initial("I", np.ones(7))
        with pytest.raises(ConfigError, match="matches neither"):
            SolverState(p)

    def test_callable_bad_shape_rejected(self):
        p = base_problem()
        p.set_initial("I", lambda x: np.ones(3))
        with pytest.raises(ConfigError):
            SolverState(p)


class TestCallbackAdapter:
    def test_dsl_string_arguments_resolved(self):
        p = base_problem(with_equation=False)
        seen = {}

        def probe(ctx, I_vals, c_vals, d_index, normals, number):
            seen["args"] = (I_vals, c_vals, d_index, normals, number)
            return np.zeros((3, ctx.nfaces))

        p.add_callback(probe, name="probe")
        # replace region 1 with the callback
        p.boundaries = [b for b in p.boundaries if b.region != 1]
        p.add_boundary("I", 1, BCKind.FLUX, "probe(I, c, d, normal, 42)")
        p.set_conservation_form("I", "-surface(upwind([c;c], I[d]))")
        state = SolverState(p)
        state.bset.flux_overrides(state.u[:, state.geom.bowner], 0.0, 1e-3, state.extra)
        I_vals, c_vals, d_index, normals, number = seen["args"]
        nfaces = len(state.geom.region_faces[1])
        assert I_vals.shape == (3, nfaces)
        assert np.allclose(c_vals, [1.0, 2.0, 3.0])  # coefficient values
        assert d_index.name == "d"  # the Index entity
        assert normals.shape == (nfaces, 2)
        assert number == 42.0

    def test_unresolvable_argument_rejected(self):
        p = base_problem(with_equation=False)
        p.add_callback(lambda ctx, x: None, name="bad")
        p.boundaries = [b for b in p.boundaries if b.region != 1]
        p.add_boundary("I", 1, BCKind.FLUX, "bad(mystery)")
        p.set_conservation_form("I", "-I[d]")
        with pytest.raises(CodegenError, match="cannot resolve"):
            SolverState(p)


class TestScratchBuffers:
    def test_buffer_reused(self):
        state = SolverState(base_problem())
        a = state.buffer("flux", (3, 10))
        b = state.buffer("flux", (3, 10))
        assert a is b

    def test_buffer_reallocated_on_shape_change(self):
        state = SolverState(base_problem())
        a = state.buffer("flux", (3, 10))
        b = state.buffer("flux", (3, 20))
        assert a is not b
        assert b.shape == (3, 20)

    def test_independent_names(self):
        state = SolverState(base_problem())
        assert state.buffer("a", (2,)) is not state.buffer("b", (2,))


class TestTables:
    """``state.tables(build, which)``: one entry per builder and face set."""

    @staticmethod
    def invariant_tables(normal, face_dist, owner, other):
        return [normal[:, 0] * face_dist, owner]

    def test_one_entry_per_builder_and_face_set(self):
        state = SolverState(base_problem())
        geom, build = state.geom, self.invariant_tables
        held = {which: state.tables(build, which) for which in ("interior", "boundary")}
        assert set(state._tables) == {("invariant_tables", "interior"),
                                      ("invariant_tables", "boundary")}
        for which, (x, owner) in held.items():  # built on that set's faces, and kept
            faces = geom.faces(which)
            assert np.array_equal(owner, geom.owner[faces]) and len(x) == len(faces)
            assert state.tables(build, which)[0] is x
        assert len(held["interior"][0]) != len(held["boundary"][0])
        everywhere = state.tables(build, "all")
        assert len(everywhere[0]) == geom.nfaces and len(state._tables) == 3

    def test_a_recompiled_builder_builds_anew(self):
        state = SolverState(base_problem())
        first = state.tables(self.invariant_tables, "boundary")

        def invariant_tables(normal, face_dist, owner, other):  # the same name
            return [owner.copy()]

        again = state.tables(invariant_tables, "boundary")
        assert again is not first and len(again) == 1
        assert len(state._tables) == 1


class TestBoundaryLowering:
    def test_a_dirichlet_value_of_another_shape_fails_at_generate(self):
        p = base_problem()
        p.boundaries = [b for b in p.boundaries if b.region != 1]
        p.add_boundary("I", 1, BCKind.DIRICHLET, np.ones(2))  # 3 components
        with pytest.raises(ConfigError, match=r"Dirichlet value shape \(2,\) != \(3,\)"):
            p.generate()
