import math

import numpy as np
import pytest

from crossdiff.fields import ScalarField, SpeciesVector, make_grid, random_band_limited
from crossdiff.semigroup import (
    KernelEstimateReport,
    duhamel_solve,
    heat_flow_trajectory,
    heat_propagate,
    kernel_gradient_lp,
    kernel_scaling_report,
    scaling_exponent,
)
from crossdiff.trajectory import FluxTrajectory, TimeGrid


def kernel_gradient_norm_closed_form(t: float, p: float, n: int) -> float:
    """Gamma-function evaluation of the radial Gaussian integral; independent
    of the quadrature path under test."""
    surface = 2.0 if n == 1 else 2.0 * math.pi
    integral = (
        surface
        * (2 * t) ** (-p)
        * (4 * math.pi * t) ** (-n * p / 2)
        * 0.5
        * (4 * t / p) ** ((p + n) / 2)
        * math.gamma((p + n) / 2)
    )
    return integral ** (1 / p)


class TestTimeGrid:
    def test_dyadic_structure(self):
        tg = TimeGrid.dyadic(1.0, levels=10, steps_per_level=8)
        assert tg.times[0] == 0.0
        assert tg.times[-1] == 1.0
        assert np.all(np.diff(tg.times) > 0)
        assert len(tg) == (10 + 1) * 8 + 1
        for j in range(10):
            lo, hi = 2.0 ** (-(j + 1)), 2.0 ** (-j)
            inside = np.sum((tg.times > lo) & (tg.times <= hi))
            assert inside == 8

    def test_uniform(self):
        tg = TimeGrid.uniform(2.0, 4)
        np.testing.assert_allclose(tg.times, [0, 0.5, 1.0, 1.5, 2.0])

    def test_validation(self):
        with pytest.raises(ValueError, match="start at 0"):
            TimeGrid(np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match="strictly increasing"):
            TimeGrid(np.array([0.0, 0.2, 0.2]))
        with pytest.raises(ValueError):
            TimeGrid.dyadic(-1.0)


class TestHeatPropagate:
    def test_constant_is_equilibrium(self):
        g = make_grid(1, 32)
        f = ScalarField.constant(g, 0.7)
        out = heat_propagate(f, 2.0)
        assert np.max(np.abs(out.values - 0.7)) < 1e-15

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_single_mode_decay(self, k):
        g = make_grid(1, 64)
        x = g.axes()[0]
        f = ScalarField(g, np.sin(2 * math.pi * k * x))
        for t in (1e-3, 0.05, 0.3):
            out = heat_propagate(f, t)
            expect = math.exp(-4 * math.pi**2 * k**2 * t) * f.values
            assert np.max(np.abs(out.values - expect)) < 1e-12

    def test_maximum_principle(self):
        g = make_grid(1, 128)
        f = ScalarField(g, np.random.default_rng(0).standard_normal(g.shape))
        sups = [heat_propagate(f, t).sup_norm() for t in (0.0, 0.01, 0.1, 1.0)]
        assert sups[0] <= f.sup_norm() + 1e-14
        assert all(a >= b - 1e-14 for a, b in zip(sups[:-1], sups[1:]))

    def test_semigroup_property(self):
        g = make_grid(2, 16)
        f = random_band_limited(g, np.random.default_rng(1), 5)
        a = heat_propagate(heat_propagate(f, 0.03), 0.11)
        b = heat_propagate(f, 0.14)
        assert np.max(np.abs(a.values - b.values)) < 1e-12

    def test_mean_invariant(self):
        g = make_grid(1, 64)
        f = ScalarField(g, np.random.default_rng(2).standard_normal(g.shape))
        assert heat_propagate(f, 0.37).mean() == pytest.approx(f.mean(), abs=1e-14)

    def test_negative_time_rejected(self):
        g = make_grid(1, 32)
        with pytest.raises(ValueError, match="nonnegative"):
            heat_propagate(ScalarField.constant(g, 1.0), -0.1)


def _species(grid, *arrays):
    return SpeciesVector.from_array(grid, np.stack(arrays))


class TestDuhamel:
    def test_zero_forcing_is_heat_flow(self):
        g = make_grid(1, 64)
        h = _species(g, np.random.default_rng(3).standard_normal(g.shape))
        tg = TimeGrid.dyadic(0.5, levels=5, steps_per_level=4)
        zero = FluxTrajectory(g, tg, np.zeros((len(tg), 1, 1) + g.shape))
        sol = duhamel_solve(h, zero, tg)
        ref = heat_flow_trajectory(h, tg)
        assert np.max(np.abs(sol.values - ref.values)) < 1e-13

    def test_constant_flux_is_heat_flow(self):
        # divergence of a constant flux vanishes
        g = make_grid(1, 32)
        h = _species(g, np.sin(2 * math.pi * g.axes()[0]))
        tg = TimeGrid.uniform(0.2, 16)
        const = FluxTrajectory(g, tg, np.full((len(tg), 1, 1) + g.shape, 3.7))
        sol = duhamel_solve(h, const, tg)
        ref = heat_flow_trajectory(h, tg)
        assert np.max(np.abs(sol.values - ref.values)) < 1e-12

    @staticmethod
    def _manufactured_error(steps: int) -> float:
        # closed-form mild solution: w = (exp(-t) - exp(-4 pi^2 t)) sin(2 pi x)
        g = make_grid(1, 64)
        x = g.axes()[0]
        tg = TimeGrid.uniform(0.5, steps)
        h = _species(g, np.zeros(g.shape))
        amp = -(4 * math.pi**2 - 1) / (2 * math.pi)

        forcing = amp * np.exp(-tg.times)[:, None] * np.cos(2 * math.pi * x)
        sol = duhamel_solve(h, FluxTrajectory(g, tg, forcing[:, None, None]), tg)
        err = 0.0
        for k, t in enumerate(tg.times):
            exact = (math.exp(-t) - math.exp(-4 * math.pi**2 * t)) * np.sin(2 * math.pi * x)
            err = max(err, float(np.max(np.abs(sol.values[k, 0] - exact))))
        return err

    def test_manufactured_solution_second_order(self):
        e1 = self._manufactured_error(32)
        e2 = self._manufactured_error(64)
        assert e1 < 1e-4
        assert 3.0 < e1 / e2 < 5.5

    def test_mass_conserved_under_forcing(self):
        g = make_grid(1, 64)
        rng = np.random.default_rng(4)
        h = _species(g, rng.standard_normal(g.shape), rng.standard_normal(g.shape))
        tg = TimeGrid.dyadic(0.25, levels=4, steps_per_level=4)
        flux = FluxTrajectory(g, tg, rng.standard_normal((len(tg), 2, 1) + g.shape))
        sol = duhamel_solve(h, flux, tg)
        means = sol.species_means()
        assert np.max(np.abs(means - means[0])) < 1e-14

    def test_shape_mismatch_rejected(self):
        g = make_grid(1, 32)
        h = _species(g, np.zeros(g.shape))
        tg = TimeGrid.uniform(0.1, 4)
        wrong = FluxTrajectory(g, tg, np.zeros((len(tg), 2, 1) + g.shape))
        with pytest.raises(ValueError, match="species"):
            duhamel_solve(h, wrong, tg)


class TestKernelGradient:
    @pytest.mark.parametrize("n,p", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)])
    @pytest.mark.parametrize("t", [1e-3, 1.0, 4.0])
    def test_matches_closed_form(self, n, p, t):
        got = kernel_gradient_lp(t, p, n)
        want = kernel_gradient_norm_closed_form(t, p, n)
        assert got == pytest.approx(want, rel=1e-6)

    def test_l1_reference_value(self):
        assert kernel_gradient_lp(1.0, 1.0, 1) == pytest.approx(1 / math.sqrt(math.pi), rel=1e-3)

    def test_quarter_time_doubles(self):
        # t^(-1/2) scaling: the value at t=4 is half the value at t=1
        assert kernel_gradient_lp(4.0, 1.0, 1) == pytest.approx(
            0.5 * kernel_gradient_lp(1.0, 1.0, 1), rel=1e-9
        )

    def test_sup_norm_analytic(self):
        t = 0.3
        want = (4 * math.pi * t) ** -0.5 * math.exp(-0.5) / math.sqrt(2 * t)
        assert kernel_gradient_lp(t, math.inf, 1) == pytest.approx(want, rel=1e-14)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="positive"):
            kernel_gradient_lp(0.0, 1.0, 1)
        with pytest.raises(ValueError, match="dimension"):
            kernel_gradient_lp(1.0, 1.0, 3)
        with pytest.raises(ValueError, match="p must be"):
            kernel_gradient_lp(1.0, 0.5, 1)


class TestKernelScalingReport:
    @pytest.mark.parametrize("n,p", [(1, 2), (2, math.inf)])
    def test_ratios_constant_over_decades(self, n, p):
        rep = kernel_scaling_report(n, p, list(np.logspace(-3, 0, 7)))
        assert isinstance(rep, KernelEstimateReport)
        assert rep.passed
        assert rep.ratio_spread < 1.05

    def test_exponent_values(self):
        assert scaling_exponent(1, 1.0) == pytest.approx(-0.5)
        assert scaling_exponent(1, math.inf) == pytest.approx(-1.0)
        assert scaling_exponent(2, 2.0) == pytest.approx(-1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no samples"):
            kernel_scaling_report(1, 2.0, [])

    def test_csv_round_trip(self, tmp_path):
        rep = kernel_scaling_report(1, 1.0, [0.01, 0.1, 1.0])
        path = tmp_path / "kernel.csv"
        rep.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,norm,ratio"
        assert len(lines) == 4
