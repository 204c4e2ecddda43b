"""Expression emission: code strings, environments, work estimates."""

import numpy as np
import pytest

from repro.codegen.emit import ExprEmitter, Table, bind_known
from repro.dsl.problem import Problem
from repro.fvm.boundary import BCKind
from repro.ir.lowering import lower_conservation_form
from repro.mesh.grid import structured_grid
from repro.util.errors import CodegenError


def make_problem(equation, ncomp_indices=False, extra_setup=None):
    p = Problem("emit-test")
    p.set_domain(2)
    p.set_steps(1e-3, 1)
    p.set_mesh(structured_grid((4, 4)))
    if ncomp_indices:
        d = p.add_index("d", (1, 4))
        b = p.add_index("b", (1, 3))
        from repro.dsl.entities import VAR_ARRAY, CELL

        p.add_variable("I", VAR_ARRAY, CELL, index=[d, b])
        p.add_variable("Io", VAR_ARRAY, CELL, index=[b])
        p.add_variable("beta", VAR_ARRAY, CELL, index=[b])
        p.add_coefficient("Sx", np.linspace(-1, 1, 4), VAR_ARRAY, index=[d])
        p.add_coefficient("Sy", np.linspace(1, -1, 4), VAR_ARRAY, index=[d])
        p.add_coefficient("vg", np.array([1.0, 2.0, 3.0]), VAR_ARRAY, index=[b])
        var = "I"
    else:
        p.add_variable("u")
        p.add_coefficient("k", 2.0)
        p.add_coefficient("b", 1.0)
        var = "u"
    if extra_setup:
        extra_setup(p)
    p.set_conservation_form(var, equation)
    _, form = lower_conservation_form(equation, p.unknown, p.entities, p.operators)
    return p, form


def text(out) -> str:
    """A statement as its tile runs it: the register lines, then the value."""
    return "\n".join([*out.prelude, out.code])


def sweep_text(out) -> str:
    return "\n".join(ln for h in out.sweep for ln in (*h.lines, h.code))


class TestScalarEmission:
    def test_volume_code(self):
        p, form = make_problem("-k*u")
        em = ExprEmitter(p, form)
        out = em.emit_sum(form.volume_terms, "volume")
        # the product is written into the statement's one register
        assert out.prelude == ["np.multiply((-1.0 * coef_k), us, out=c0)"]
        assert (out.code, out.registers) == ("c0", 1)
        assert em.emit_sum(form.volume_terms, "volume", cse=False).code == (
            "((-1.0 * coef_k * u[sel]))")

    def test_surface_code_uses_where(self):
        p, form = make_problem("-surface(upwind(b, u))")
        em = ExprEmitter(p, form)
        out = em.emit_sum(form.surface_terms, "surface")
        code = text(out)
        assert "np.where" in code
        # face sides are the tile's own gathers: bare names, no row selector
        assert "u1" in code and "u2" in code
        assert "u1[sel]" not in code and "u2[sel]" not in code
        assert "normal_x" in code

    def test_empty_terms_emit_zero(self):
        p, form = make_problem("-k*u")
        em = ExprEmitter(p, form)
        assert em.emit_sum([], "surface").code == "0.0"

    def test_flops_positive(self):
        p, form = make_problem("-surface(upwind(b, u)) - k*u")
        em = ExprEmitter(p, form)
        assert em.emit_sum(form.surface_terms, "surface").flops > 3
        assert em.emit_sum(form.volume_terms, "volume").flops >= 2

    def test_code_actually_evaluates(self):
        p, form = make_problem("-k*u")
        em = ExprEmitter(p, form)
        out = em.emit_sum(form.volume_terms, "volume")
        ns = {"np": np, "sel": slice(None), "us": np.ones((1, 5)), "coef_k": 2.0,
              "c0": np.empty((1, 5))}
        for line in out.prelude:
            exec(line, ns)  # noqa: S102 - executing our own emission
        result = eval(out.code, ns)  # noqa: S307
        assert result is ns["c0"] and np.allclose(result, -2.0)


class TestIndexedEmission:
    EQ = "(Io[b] - I[d,b]) / beta[b] - surface(vg[b] * upwind([Sx[d];Sy[d]], I[d,b]))"

    def test_known_variable_via_state(self):
        p, form = make_problem(self.EQ, ncomp_indices=True)
        em = ExprEmitter(p, form)
        out = em.emit_sum(form.volume_terms, "volume")
        # Io/beta carry fewer indices than I: read once per sweep, over
        # their own rows, and row-gathered by the statement
        sweep = sweep_text(out)
        assert "var_Io.take(cmap_Io[sel], axis=0, out=s1" in sweep
        assert "var_beta.take(cmap_beta[sel], axis=0, out=s0" in sweep
        # 1/beta and Io/beta, which reads 1/beta by name instead of redoing it
        assert out.sweep_registers == 2 and "np.multiply(s1, swp_v0, out=s1)" in sweep
        assert "state.fields" not in sweep + text(out)
        read = {a.h.name: a for s in out.statements for a in s.term.args
                if isinstance(a, Table)}
        assert read["swp_v0"].wide and read["swp_v0"].h.rows == "b"
        # a host function binds what it reads once, from the state it is
        # handed (a device kernel takes the same names as arguments)
        assert bind_known(em, out.reads) == ["var_beta = state.fields['beta'].data",
                                             "var_Io = state.fields['Io'].data"]

    def test_coefficient_broadcast(self):
        p, form = make_problem(self.EQ, ncomp_indices=True)
        em = ExprEmitter(p, form)
        out = em.emit_sum(form.surface_terms, "surface")
        assert "coef_vg[sel][:, None]" in text(out)

    def test_component_tables(self):
        p, form = make_problem(self.EQ, ncomp_indices=True)
        em = ExprEmitter(p, form)
        tables = em.component_tables()
        # cmap_Io maps the (d,b) component axis to Io's b axis
        assert tables["cmap_Io"].tolist() == [0, 1, 2] * 4
        # vg is broadcast per component
        assert tables["coef_vg"].tolist() == [1.0, 2.0, 3.0] * 4
        # Sx is per direction
        assert np.allclose(tables["coef_Sx"], np.repeat(np.linspace(-1, 1, 4), 3))

    def test_referenced_known_variables(self):
        p, form = make_problem(self.EQ, ncomp_indices=True)
        em = ExprEmitter(p, form)
        assert sorted(em.referenced_known_variables()) == ["Io", "beta"]


class TestFunctionCoefficients:
    def test_function_coefficient_detected(self):
        def setup(p):
            p.add_coefficient("q", lambda x: x[:, 0])

        p, form = make_problem("-k*u + q", extra_setup=setup)
        em = ExprEmitter(p, form)
        assert "q" in em.function_coefficients()
        out = em.emit_sum(form.volume_terms, "volume")
        assert "fcoef_q[None, :]" in text(out)


class TestEmitterErrors:
    def test_unknown_in_surface_needs_reconstruction(self):
        p, form = make_problem("-surface(u*b)")
        em = ExprEmitter(p, form)
        with pytest.raises(CodegenError, match="flux reconstruction"):
            em.emit_sum(form.surface_terms, "surface")

    def test_face_values_invalid_in_volume(self):
        from repro.symbolic.expr import SideValue, Sym

        p, form = make_problem("-k*u")
        em = ExprEmitter(p, form)
        with pytest.raises(CodegenError):
            em.emit_volume(SideValue(Sym("_u_1"), 1))

    def test_normals_invalid_in_volume(self):
        from repro.symbolic.expr import FaceNormal

        p, form = make_problem("-k*u")
        em = ExprEmitter(p, form)
        with pytest.raises(CodegenError):
            em.emit_volume(FaceNormal(1))

    def test_entity_with_foreign_index(self):
        def setup(p):
            q = p.add_index("q", (1, 5))
            from repro.dsl.entities import VAR_ARRAY

            p.add_coefficient("w", np.ones(5), VAR_ARRAY, index=[q])

        p, form = make_problem("-k*u - w[q]*u", extra_setup=setup)
        em = ExprEmitter(p, form)
        with pytest.raises(CodegenError, match="does not carry"):
            em.emit_sum(form.volume_terms, "volume")
