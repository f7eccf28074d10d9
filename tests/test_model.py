import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from crossdiff import model as model_module
from crossdiff.fields import SpeciesVector, make_grid, random_band_limited
from crossdiff.model import (
    NonlinearitySpec,
    RawCoefficients,
    ReducedModel,
    flux,
    flux_trajectory,
    lipschitz_probe,
    reduce_coefficients,
)
from crossdiff.semigroup import heat_flow_trajectory
from crossdiff.trajectory import TimeGrid, Trajectory


class TestRawCoefficients:
    def test_upper_triangle_round_trip(self):
        raw = RawCoefficients.from_upper_triangle(3, [0.9, 1.1, 1.0])
        assert raw.K[0, 1] == raw.K[1, 0] == 0.9
        assert raw.K[0, 2] == raw.K[2, 0] == 1.1
        assert raw.upper_triangle() == [0.9, 1.1, 1.0]

    def test_asymmetric_rejected(self):
        K = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            RawCoefficients(d=2, K=K)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            RawCoefficients.from_upper_triangle(2, [-1.0])

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError, match="entries"):
            RawCoefficients.from_upper_triangle(3, [1.0, 2.0])


class TestReduceCoefficients:
    def test_worked_example(self):
        raw = RawCoefficients.from_upper_triangle(3, [0.9, 1.1, 1.0])
        m = reduce_coefficients(raw)
        assert m.K == pytest.approx(1.0)
        assert m.delta == pytest.approx(0.1)
        assert m.alpha[0, 1] == pytest.approx(-1.0, abs=1e-12)
        assert m.alpha[0, 2] == pytest.approx(1.0, abs=1e-12)
        assert m.alpha[1, 2] == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(m.alpha)) == 1.0  # attained exactly
        assert m.closeness_margin == pytest.approx(0.3)
        assert not m.closeness_ok

    def test_degenerate_rejected(self):
        raw = RawCoefficients.from_upper_triangle(2, [5.0])
        with pytest.raises(ValueError, match="degenerate"):
            reduce_coefficients(raw)

    def test_alpha_symmetric_zero_diagonal(self):
        raw = RawCoefficients.from_upper_triangle(4, [1.0, 1.2, 0.8, 1.1, 0.9, 1.05])
        m = reduce_coefficients(raw)
        assert np.allclose(m.alpha, m.alpha.T)
        assert np.all(np.diag(m.alpha) == 0.0)
        assert np.max(np.abs(m.alpha)) == 1.0

    def test_raw_round_trip(self):
        m = ReducedModel.from_alpha(np.array([[0, -1.0, 1.0], [-1.0, 0, 0], [1.0, 0, 0]]), 0.05)
        again = reduce_coefficients(m.raw())
        assert again.delta == pytest.approx(0.05, rel=1e-12)
        assert np.allclose(again.alpha, m.alpha, atol=1e-12)


class TestNonlinearity:
    def test_constant_state_gives_zero(self):
        g = make_grid(1, 32)
        m = ReducedModel.from_alpha(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.1)
        w = np.stack([np.full(g.shape, 0.03), np.full(g.shape, 0.07)])
        assert np.max(np.abs(flux(w, g, m))) == 0.0

    def test_equal_species_cancel(self):
        g = make_grid(1, 32)
        m = ReducedModel.from_alpha(np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0)
        v = np.sin(2 * math.pi * g.axes()[0]) * 0.1 + 0.3
        w = np.stack([v, v])
        assert np.max(np.abs(flux(w, g, m, truncated=False))) < 1e-16

    def test_flux_matches_finite_difference_oracle(self):
        # F_1 = w_2 w_1' - w_1 w_2' with derivatives from centered differences
        g = make_grid(1, 128)
        x = g.axes()[0]
        a, b, c = 0.08, 0.05, 0.2
        w1 = lambda y: a * np.sin(2 * math.pi * y) + c
        w2 = lambda y: b * np.cos(2 * math.pi * y) + c
        m = ReducedModel.from_alpha(np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0)
        w = np.stack([w1(x), w2(x)])
        out = flux(w, g, m, truncated=False)
        h = 1.0 / 65536.0
        d1 = (w1(x + h) - w1(x - h)) / (2 * h)
        d2 = (w2(x + h) - w2(x - h)) / (2 * h)
        expect = w2(x) * d1 - w1(x) * d2
        assert np.max(np.abs(out[0, 0] - expect)) < 1e-8
        assert np.max(np.abs(out[1, 0] + expect)) < 1e-8

    def test_two_homogeneous_when_clamp_inactive(self):
        g = make_grid(1, 64)
        rng = np.random.default_rng(5)
        m = ReducedModel.from_alpha(np.array([[0.0, -1.0], [-1.0, 0.0]]), 0.5)
        vals = 0.1 + 0.05 * np.stack([random_band_limited(g, rng, 6).values for _ in range(2)])
        lam = 0.5
        f1 = flux(lam * vals, g, m)
        f0 = flux(vals, g, m)
        assert np.max(np.abs(f1 - lam**2 * f0)) < 1e-15

    def test_species_sum_vanishes_for_symmetric_coupling(self):
        g = make_grid(1, 64)
        rng = np.random.default_rng(6)
        alpha = np.array([[0.0, -1.0, 1.0], [-1.0, 0.0, 0.4], [1.0, 0.4, 0.0]])
        m = ReducedModel.from_alpha(alpha, 0.2)
        vals = 0.05 + 0.02 * np.stack([random_band_limited(g, rng, 8).values for _ in range(3)])
        total = flux(vals, g, m).sum(axis=0)
        assert np.max(np.abs(total)) < 1e-12

    def test_truncation_only_touches_undifferentiated_factors(self):
        # states above delta: clamped coefficients but unclamped gradients
        g = make_grid(1, 64)
        x = g.axes()[0]
        delta = 0.1
        m = ReducedModel.from_alpha(np.array([[0.0, 1.0], [1.0, 0.0]]), delta)
        w1 = 0.3 + 0.05 * np.sin(2 * math.pi * x)  # always above delta
        w2 = 0.02 + 0.01 * np.cos(2 * math.pi * x)  # always inside [0, delta]
        w = np.stack([w1, w2])
        out = flux(w, g, m, truncated=True)
        d1 = 0.05 * 2 * math.pi * np.cos(2 * math.pi * x)
        d2 = -0.01 * 2 * math.pi * np.sin(2 * math.pi * x)
        expect = w2 * d1 - delta * d2  # w_1 clamped to delta only where undifferentiated
        assert np.max(np.abs(out[0, 0] - expect)) < 1e-10


class TestFluxTrajectory:
    @pytest.mark.parametrize("n,N", [(1, 64), (2, 16)])
    @pytest.mark.parametrize("truncated", [True, False])
    def test_blocks_equal_per_node_evaluation(self, n, N, truncated, monkeypatch):
        g = make_grid(n, N)
        tg = TimeGrid.dyadic(0.5, levels=3, steps_per_level=3)
        alpha = np.array([[0.0, -1.0, 1.0], [-1.0, 0.0, 0.4], [1.0, 0.4, 0.0]])
        m = ReducedModel.from_alpha(alpha, 0.05)
        # states on both sides of [0, delta], so the clamp is active
        vals = 0.02 + 0.05 * np.random.default_rng(n).standard_normal((len(tg), 3) + g.shape)
        node_bytes = 3 * n * g.num_nodes * 8
        monkeypatch.setattr(model_module, "FLUX_BLOCK_BYTES", 5 * node_bytes)
        real = model_module.flux
        blocks = []
        monkeypatch.setattr(model_module, "flux", lambda v, *a: blocks.append(len(v)) or real(v, *a))
        out = flux_trajectory(Trajectory(g, tg, vals), m, truncated).values
        assert blocks == [5, 5, 3]
        per_node = np.stack([real(vals[k], g, m, truncated) for k in range(len(tg))])
        assert np.array_equal(out, per_node)


class TestNonlinearitySpec:
    def test_defaults(self):
        spec = NonlinearitySpec()
        assert spec.mu == 1.0 and spec.nu == 1.0

    def test_positive_exponents_required(self):
        with pytest.raises(ValueError):
            NonlinearitySpec(mu=0.0)


class TestLipschitzProbe:
    @staticmethod
    def _setup(seed=7, N=64):
        g = make_grid(1, N)
        tg = TimeGrid.dyadic(0.5, levels=6, steps_per_level=6)
        rng = np.random.default_rng(seed)
        m = ReducedModel.from_alpha(np.array([[0.0, -1.0, 1.0], [-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), 0.05)

        def traj(scale):
            vals = 0.02 + 0.01 * scale * np.stack(
                [random_band_limited(g, rng, 6).values for _ in range(3)]
            )
            return heat_flow_trajectory(SpeciesVector.from_array(g, vals), tg)

        return g, tg, m, traj

    def test_identical_trajectories_report_zero(self):
        _, _, m, traj = self._setup()
        v = traj(1.0)
        rep = lipschitz_probe(v, v, m)
        assert rep.ratio == 0.0
        assert rep.left == 0.0

    def test_zero_reference_reduces_to_quadratic_bound(self):
        g, tg, m, traj = self._setup()
        v = traj(1.0)
        zero = Trajectory(g, tg, np.zeros_like(v.values))
        rep = lipschitz_probe(v, zero, m)
        assert rep.x_w == 0.0
        assert rep.x_diff == pytest.approx(rep.x_v)
        # with ||v|| < 1 the bound collapses to d ||v||^2
        assert rep.bound == pytest.approx(m.d * rep.x_v**2)
        assert 0.0 < rep.ratio < math.inf

    def test_sweep_constants_bounded(self):
        g, tg, m, traj = self._setup()
        ratios = [lipschitz_probe(traj(1.0), traj(0.8), m).ratio for _ in range(5)]
        assert all(np.isfinite(r) for r in ratios)
        assert max(ratios) < 10.0

    def test_flux_trajectory_shapes(self):
        g, tg, m, traj = self._setup()
        v = traj(1.0)
        flux = flux_trajectory(v, m)
        assert flux.values.shape == (len(tg), 3, 1) + g.shape
