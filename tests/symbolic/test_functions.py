"""The unified function registry (`repro.symbolic.functions`).

One table backs every consumer of named functions: ``evaluate()`` and the
code generators' emitted source.  These tests pin the registry's contract
— registration, builtin restore, live views — and the regression the
unification exists for: a function registered once (e.g. via the
``finch.register_function`` DSL API) is immediately usable by *both*
execution paths, and a custom symbolic operator built on registry
functions (the ``examples/custom_operator.py`` flow) solves identically on
the generated ``cpu`` target and the ``interpreted`` one.
"""

import numpy as np
import pytest

import repro.dsl as finch
from repro.mesh import structured_grid
from repro.symbolic.evaluate import evaluate
from repro.symbolic.expr import Add, Call, Mul, Num, SideValue, Sym
from repro.symbolic.functions import (
    FUNCTION_CALLABLES,
    FUNCTION_CODES,
    function_callables,
    get_function,
    register_function,
    unregister_function,
)
from repro.symbolic.operators import dot_with_normal
from repro.util.errors import DSLError


@pytest.fixture
def registered():
    """Register a test function; always clean up the process-wide table."""
    names = []

    def add(name, fn, code=None):
        register_function(name, fn, code)
        names.append(name)
        return name

    yield add
    for name in names:
        unregister_function(name)


class TestRegistry:
    def test_builtins_present(self):
        for name in ("abs", "min", "max", "sqrt", "exp", "log", "sin",
                     "cos", "tanh"):
            entry = get_function(name)
            assert entry is not None and entry.code is not None

    def test_register_and_unregister(self, registered):
        registered("tripled", lambda x: 3 * x)
        assert get_function("tripled").fn(2.0) == 6.0
        unregister_function("tripled")
        assert get_function("tripled") is None

    def test_unregister_restores_builtin(self):
        register_function("abs", lambda x: 0.0)
        try:
            assert FUNCTION_CALLABLES["abs"](-5.0) == 0.0
        finally:
            unregister_function("abs")
        assert FUNCTION_CALLABLES["abs"] is np.abs

    def test_validation(self):
        with pytest.raises(DSLError):
            register_function("", lambda x: x)
        with pytest.raises(DSLError):
            register_function("notcallable", 42)

    def test_live_views_see_late_registrations(self, registered):
        assert "halved" not in FUNCTION_CALLABLES
        registered("halved", lambda x: x / 2, code="np.halved")
        assert FUNCTION_CALLABLES["halved"](8.0) == 4.0
        assert FUNCTION_CODES["halved"] == "np.halved"

    def test_codeless_functions_hidden_from_code_view(self, registered):
        registered("interponly", lambda x: x + 1)
        assert "interponly" in FUNCTION_CALLABLES
        assert "interponly" not in FUNCTION_CODES

    def test_function_callables_snapshot_with_overrides(self, registered):
        registered("f1", lambda x: 1.0)
        table = function_callables({"f1": lambda x: 2.0})
        assert table["f1"](0.0) == 2.0  # override wins
        assert FUNCTION_CALLABLES["f1"](0.0) == 1.0  # registry untouched


class TestAllConsumersShareTheTable:
    def test_dsl_registration_reaches_evaluate_and_the_code_view(self):
        finch.register_function(
            "softsign", lambda x: x / (1.0 + np.abs(x)), code="softsign")
        try:
            expr = Call("softsign", Mul(Sym("a"), Num(2)))
            a = np.array([-4.0, 0.0, 1.5])
            np.testing.assert_array_equal(
                evaluate(expr, {"a": a}), 2 * a / (1.0 + np.abs(2 * a)))
            assert FUNCTION_CODES["softsign"] == "softsign"
        finally:
            unregister_function("softsign")
        assert "softsign" not in FUNCTION_CODES

    def test_unregistered_name_fails_everywhere(self):
        with pytest.raises(DSLError):
            evaluate(Call("ghost_fn", Sym("a")), {"a": 1.0})
        assert "ghost_fn" not in FUNCTION_CODES  # the emitter's lookup


def rusanov(velocity, quantity):
    """The example's custom flux: central average + |v.n|/2 dissipation.

    Builds on ``magnitude``, registered through the DSL — the regression
    being tested is that a custom operator's function calls flow through
    the unified table into emitted source *and* the interpreter, with
    identical numerics.
    """
    vn = dot_with_normal(velocity)
    central = Mul(vn, Mul(Num(0.5),
                          Add(SideValue(quantity, 1), SideValue(quantity, 2))))
    dissipation = Mul(
        Num(-0.5),
        Call("magnitude", vn),
        Add(SideValue(quantity, 2), Mul(Num(-1), SideValue(quantity, 1))),
    )
    return Add(central, dissipation)


class TestCustomOperatorExampleFlow:
    """examples/custom_operator.py in miniature, on both execution paths."""

    @staticmethod
    def solve(target):
        finch.init_problem(f"rusanov-registry-{target}")
        finch.domain(2)
        finch.time_stepper(finch.EULER_EXPLICIT)
        n = 8
        finch.set_steps(0.25 / n, 10)
        finch.mesh(structured_grid((n, n), [(-1.0, 1.0), (-1.0, 1.0)]))
        u = finch.variable("u")
        finch.coefficient("bx", lambda c: -c[:, 1])
        finch.coefficient("by", lambda c: c[:, 0])
        for region in (1, 2, 3, 4):
            finch.boundary(u, region, finch.NEUMANN0)
        finch.initial(
            u, lambda c: np.exp(-8 * ((c[:, 0] - 0.4) ** 2 + c[:, 1] ** 2)))
        finch.custom_operator("rusanov", rusanov, arity=2)
        finch.register_function("magnitude", np.abs, code="np.abs")
        try:
            finch.conservation_form(u, "-surface(rusanov([bx;by], u))")
            solver = finch.solve(u, target=target)
        finally:
            unregister_function("magnitude")
        finch.finalize()
        return solver

    def test_identical_on_cpu_and_interpreted(self):
        generated = self.solve("cpu")
        interpreted = self.solve("interp")
        assert "np.abs(" in generated.source
        assert np.array_equal(generated.solution(), interpreted.solution())
