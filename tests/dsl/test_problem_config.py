"""Problem configuration and validation."""

import numpy as np
import pytest

from repro.dsl.entities import VAR_ARRAY, CELL
from repro.dsl.problem import Problem, SolverConfig
from repro.fvm.boundary import BCKind
from repro.mesh.grid import structured_grid
from repro.util.errors import ConfigError, DSLError


def minimal_problem() -> Problem:
    p = Problem("test")
    p.set_domain(2)
    p.set_steps(1e-3, 10)
    p.set_mesh(structured_grid((4, 4)))
    p.add_variable("u")
    p.add_coefficient("k", 1.0)
    for r in (1, 2, 3, 4):
        p.add_boundary("u", r, BCKind.NEUMANN0)
    p.set_initial("u", 1.0)
    p.set_conservation_form("u", "-k*u")
    return p


class TestValidation:
    def test_minimal_valid(self):
        minimal_problem().validate()

    def test_missing_mesh(self):
        p = Problem("x")
        p.set_steps(1e-3, 10)
        p.add_variable("u")
        p.set_conservation_form("u", "-u")
        with pytest.raises(ConfigError, match="mesh"):
            p.validate()

    def test_missing_steps(self):
        p = minimal_problem()
        p.config.dt = 0.0
        with pytest.raises(ConfigError, match="set_steps"):
            p.validate()

    def test_missing_equation(self):
        p = Problem("x")
        p.set_domain(2)
        p.set_steps(1e-3, 10)
        p.set_mesh(structured_grid((4, 4)))
        with pytest.raises(ConfigError, match="conservation_form"):
            p.validate()

    def test_uncovered_boundary_region(self):
        p = Problem("x")
        p.set_domain(2)
        p.set_steps(1e-3, 10)
        p.set_mesh(structured_grid((4, 4)))
        p.add_variable("u")
        p.add_boundary("u", 1, BCKind.NEUMANN0)
        p.set_conservation_form("u", "-u")
        with pytest.raises(ConfigError, match="without conditions"):
            p.validate()

    def test_unknown_region_in_bc(self):
        p = minimal_problem()
        p.add_boundary("u", 9, BCKind.NEUMANN0)
        with pytest.raises(ConfigError, match="unknown regions"):
            p.validate()

    def test_mesh_dimension_mismatch(self):
        p = Problem("x")
        p.set_domain(2)
        with pytest.raises(ConfigError, match="dimension"):
            p.set_mesh(structured_grid((5,)))

    def test_solver_type_checked(self):
        p = minimal_problem()
        p.set_solver_type("FV")
        with pytest.raises(ConfigError, match="finite volumes only") as err:
            p.set_solver_type("DG")
        assert err.value.code == "RPR001"
        p.validate()

    def test_band_partition_needs_index_of_unknown(self):
        p = minimal_problem()
        p.set_partitioning("bands", 2, index="b")
        with pytest.raises(ConfigError):
            p.validate()


class TestDeclarations:
    def test_duplicate_equation_rejected(self):
        p = minimal_problem()
        with pytest.raises(DSLError):
            p.set_conservation_form("u", "-u")

    def test_duplicate_boundary_rejected(self):
        p = minimal_problem()
        with pytest.raises(DSLError, match="already has a condition"):
            p.add_boundary("u", 1, BCKind.NEUMANN0)

    def test_unknown_variable_in_boundary(self):
        p = minimal_problem()
        with pytest.raises(DSLError):
            p.add_boundary("w", 1, BCKind.NEUMANN0)

    def test_boundary_kind_from_string(self):
        p = Problem("x")
        p.set_domain(2)
        p.set_mesh(structured_grid((3, 3)))
        p.add_variable("u")
        p.add_boundary("u", 1, "dirichlet", 2.0)
        assert p.boundaries[0].kind == BCKind.DIRICHLET

    def test_flux_boundary_requires_callback_entity(self):
        p = minimal_problem()
        with pytest.raises(DSLError, match="not an imported callback"):
            p.add_boundary("u", 1, BCKind.FLUX, "nothere(u, 3)")

    def test_symmetry_needs_map(self):
        p = minimal_problem()
        with pytest.raises(DSLError, match="reflection map"):
            p.add_boundary("u", 1, BCKind.SYMMETRY)

    def test_assembly_loops_must_include_cells(self):
        p = minimal_problem()
        with pytest.raises(DSLError, match="cell loop"):
            p.set_assembly_loops([])

    def test_assembly_loops_elements_alias(self):
        p = minimal_problem()
        p.set_assembly_loops(["elements"])
        assert p.config.assembly_order == ["cells"]

    def test_assembly_loops_unknown_index(self):
        p = minimal_problem()
        with pytest.raises(DSLError, match="unknown loop"):
            p.set_assembly_loops(["cells", "q"])

    def test_set_steps_guards(self):
        p = Problem("x")
        with pytest.raises(ConfigError):
            p.set_steps(-1.0, 5)
        with pytest.raises(ConfigError):
            p.set_steps(1e-3, 0)

    def test_solve_wrong_variable(self):
        p = minimal_problem()
        p.add_variable("w")
        with pytest.raises(DSLError, match="does not match the declared unknown"):
            p.solve("w")

    def test_enable_gpu_sets_flag(self):
        p = minimal_problem()
        p.enable_gpu()
        assert p.config.use_gpu


class TestBoundaryDeclarations:
    """A boundary declaration that cannot be lowered fails where it is made,
    as a DSLError carrying the catalogue's RPR124."""

    @staticmethod
    def bare() -> Problem:
        p = Problem("bc")
        p.set_domain(1)
        p.set_steps(1e-3, 2)
        p.set_mesh(structured_grid((4,)))
        p.add_variable("u")
        p.add_coefficient("k", 1.0)
        return p

    def test_fv_rejects_valued_neumann(self):
        p = self.bare()
        p.add_boundary("u", 1, BCKind.DIRICHLET, 0.0)
        with pytest.raises(DSLError, match="unknown boundary kind 'neumann'") as err:
            p.add_boundary("u", 2, "neumann", 1.0)
        assert err.value.code == "RPR124"
        assert not hasattr(BCKind, "NEUMANN")

    def test_unknown_kind_lists_the_valid_ones(self):
        with pytest.raises(DSLError) as err:
            self.bare().add_boundary("u", 1, "bogus")
        assert err.value.code == "RPR124"
        assert not isinstance(err.value, ValueError)
        for kind in BCKind:
            assert kind.value in str(err.value)

    @pytest.mark.parametrize("kind, spec", [
        (BCKind.DIRICHLET, None),
        (BCKind.FLUX, None),
        (BCKind.FLUX, "nothere(u, 3)"),
        (BCKind.FLUX, "3 + u"),
        (BCKind.SYMMETRY, None),
        (42, None),
    ])
    def test_incomplete_declarations_carry_rpr124(self, kind, spec):
        with pytest.raises(DSLError) as err:
            self.bare().add_boundary("u", 1, kind, spec)
        assert err.value.code == "RPR124"

    def test_duplicate_region_carries_rpr123(self):
        p = self.bare()
        p.add_boundary("u", 1, BCKind.NEUMANN0)
        with pytest.raises(DSLError) as err:
            p.add_boundary("u", 1, BCKind.NEUMANN0)
        assert err.value.code == "RPR123"


class TestFiniteVolumesOnly:
    """One discretisation: ``solver_type(FV)`` is accepted, anything else and
    ``weak_form`` are a ConfigError (RPR001) at the call."""

    @pytest.mark.parametrize("kind", ["FEM", "XYZ"])
    def test_problem_rejects_other_solver_types(self, kind):
        with pytest.raises(ConfigError, match="finite volumes only") as err:
            minimal_problem().set_solver_type(kind)
        assert err.value.code == "RPR001"

    @pytest.mark.parametrize("call", [
        lambda finch: finch.solver_type(finch.FEM),
        lambda finch: finch.solver_type("XYZ"),
        lambda finch: finch.weak_form("u", "-k*dot(grad(u), grad(v))"),
    ], ids=["solver_type(FEM)", "solver_type(XYZ)", "weak_form"])
    def test_script_commands_raise_at_the_call(self, call):
        import repro.dsl as finch

        finch.init_problem("fem-script")
        finch.variable("u")
        try:
            with pytest.raises(ConfigError, match="finite volumes only") as err:
                call(finch)
            assert err.value.code == "RPR001"
            finch.solver_type(finch.FV)  # still fine
        finally:
            finch.finalize()

    def test_the_fem_path_is_gone(self):
        assert not hasattr(Problem, "set_weak_form")
        assert not hasattr(minimal_problem(), "equation_kind")
        assert "solver_type" not in SolverConfig.__dataclass_fields__
