"""Explicit schemes as tableaux: the NumPy reference step's exactness and
convergence orders, and the one table of names."""

import numpy as np
import pytest

from repro.fvm.timesteppers import TABLEAUX, advance, tableau
from repro.util.errors import ConfigError

EULER, RK2, RK4 = (TABLEAUX[name] for name in ("euler", "rk2", "rk4"))


def integrate(scheme, u0, t_end, n):
    """du/dt = -u, exact solution u0 * exp(-t)."""
    dt = t_end / n
    u = np.array([u0])
    t = 0.0
    for _ in range(n):
        u = advance(scheme, u, t, dt, lambda uu, tt: -uu)
        t += dt
    return u[0]


def observed_order(scheme):
    exact = np.exp(-1.0)
    errors = []
    for n in (20, 40, 80):
        errors.append(abs(integrate(scheme, 1.0, 1.0, n) - exact))
    orders = [
        np.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)
    ]
    return np.mean(orders)


class TestOrders:
    def test_euler_first_order(self):
        assert observed_order(EULER) == pytest.approx(1.0, abs=0.15)

    def test_rk2_second_order(self):
        assert observed_order(RK2) == pytest.approx(2.0, abs=0.2)

    def test_rk4_fourth_order(self):
        assert observed_order(RK4) == pytest.approx(4.0, abs=0.4)


class TestExactness:
    def test_euler_one_step_formula(self):
        u = np.array([2.0])
        out = advance(EULER, u, 0.0, 0.5, lambda uu, tt: 3.0 * np.ones_like(uu))
        assert out[0] == pytest.approx(3.5)

    def test_rk4_exact_for_cubic_time_polynomial(self):
        # du/dt = 3t^2 -> u(t) = t^3; RK4 integrates polynomials up to
        # degree 3 in time exactly
        u = np.array([0.0])
        out = advance(RK4, u, 0.0, 1.0, lambda uu, tt: np.array([3.0 * tt**2]))
        assert out[0] == pytest.approx(1.0, abs=1e-12)

    def test_time_passed_to_rhs(self):
        seen = []
        advance(RK2, np.zeros(1), 1.0, 0.2, lambda uu, tt: (seen.append(tt), uu)[1])
        assert seen == [1.0, 1.1]

    def test_the_stages_associate_as_numpy_reads_the_textbook_forms(self):
        """The reference is bit for bit the forms it replaced:
        ``u + dt * k2`` from ``u + 0.5 * dt * k1``, and ``u + (dt / 6.0) *
        (k1 + 2.0 * k2 + 2.0 * k3 + k4)``."""
        rng = np.random.default_rng(7)
        u, w = rng.normal(size=(2, 64))

        def rhs(uu, tt):
            return np.sin(uu * w) * (1.0 + tt)

        t, dt = 0.3, 0.0137
        k1 = rhs(u, t)
        assert advance(RK2, u, t, dt, rhs).tobytes() == (
            u + dt * rhs(u + 0.5 * dt * k1, t + 0.5 * dt)).tobytes()
        k2 = rhs(u + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = rhs(u + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = rhs(u + dt * k3, t + dt)
        assert advance(RK4, u, t, dt, rhs).tobytes() == (
            u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)).tobytes()


class TestFactory:
    @pytest.mark.parametrize(
        "name,scheme",
        [
            ("euler", "euler"),
            ("EULER", "euler"),
            ("euler_explicit", "euler"),
            ("rk2", "rk2"),
            ("midpoint", "rk2"),
            ("rk4", "rk4"),
        ],
        ids=["euler-ForwardEuler", "EULER-ForwardEuler", "euler_explicit-ForwardEuler",
             "rk2-RK2", "midpoint-RK2", "rk4-RK4"],
    )
    def test_names(self, name, scheme):
        assert tableau(name) is TABLEAUX[scheme] and tableau(name).name == scheme

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="available: .*'rk4'") as err:
            tableau("leapfrog")
        assert err.value.code == "RPR001"

    def test_stage_counts(self):
        assert EULER.stages == 1
        assert RK2.stages == 2
        assert RK4.stages == 4
