import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from crossdiff import carleson, fields
from crossdiff import model as model_module
from crossdiff.carleson import enumerate_cylinders, xp_norm, yp_norm
from crossdiff.fields import (
    SpeciesVector,
    from_coeffs,
    gradient_from_coeffs,
    index_blocks,
    make_grid,
    random_band_limited,
    spectral_divergence,
    spectral_gradient,
    to_coeffs,
)
from crossdiff.model import (
    LipschitzReport,
    RawCoefficients,
    ReducedModel,
    flux_trajectory,
    _divergence_coeffs,
    _heat_flow_probes,
    _LipschitzPass,
    reduce_coefficients,
)
from crossdiff.semigroup import heat_flow_trajectory
from crossdiff.trajectory import (
    FluxTrajectory,
    TimeGrid,
    Trajectory,
    trajectory_difference,
    vector_magnitudes,
)

ALPHA3 = np.array([[0.0, -1.0, 1.0], [-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])


def _flux(w, g, m, truncated=True):
    """The nodal flux of one state w (d, *g.shape), as flux_trajectory
    evaluates it along a trajectory."""
    return flux_trajectory(Trajectory(g, TimeGrid(np.linspace(0.0, 1.0, 2)), np.stack([w, w])),
                           m, truncated).values[0]


def _probe(v, w, model, p=None, cylinders=None, against_zero=False):
    """The Lipschitz pass of the trajectories v and w, fed index_blocks
    of time nodes with their gradients: (report of v against w,
    report of v against 0 or None)."""
    grid = v.grid
    probe = _LipschitzPass(grid, v.tg, model, p, cylinders, against_zero)
    for b in index_blocks(len(v.tg), v.values[0].nbytes * grid.n):
        vb, wb = v.values[b], w.values[b]
        probe.add(vb, wb, spectral_gradient(vb, grid), spectral_gradient(wb, grid))
    return probe.result()


def _scan_whole(grid, times, mags, p, cylinders):
    """The cylinder scan of magnitudes held for the whole trajectory."""
    scan = carleson._CylinderScan(grid, times, p, cylinders)
    scan.add(mags)
    return scan.result()


def _probe_whole_array(v, w, model, p, cylinders):
    """The Lipschitz report of v against w with the magnitudes of
    |F(v) - F(w)|, |grad v|, |grad w| and |grad v - grad w| held for the
    whole trajectory, then scanned."""
    grid = v.grid
    mags = np.empty((4,) + v.values.shape)
    sup_diff = 0.0
    for b in index_blocks(len(v.tg), v.values[0].nbytes * grid.n):
        gv = gradient_from_coeffs(to_coeffs(v.values[b], grid), grid)
        gw = gradient_from_coeffs(to_coeffs(w.values[b], grid), grid)
        prod = model_module._flux_products(v.values[b], grid, model, False, gv)
        prod -= model_module._flux_products(w.values[b], grid, model, False, gw)
        vector_magnitudes(from_coeffs(model_module._dealiased_coeffs(prod, grid), grid),
                          out=mags[0, b])
        vector_magnitudes(gv, out=mags[1, b])
        vector_magnitudes(gw, out=mags[2, b])
        gv -= gw
        vector_magnitudes(gv, out=mags[3, b])
        diff = v.values[b] - w.values[b]
        sup_diff = max(sup_diff, float(np.maximum(diff.max(), -diff.min())))
    left, semi_v, semi_w, semi_diff = (_scan_whole(grid, v.tg.times, m, p, cylinders)[0] for m in mags)
    x_v, x_w = v.sup_norm() + semi_v, w.sup_norm() + semi_w
    x_diff = sup_diff + semi_diff
    if x_diff == 0.0:  # identical trajectories report ratio 0
        return LipschitzReport(left=left, bound=0.0, ratio=0.0, x_v=x_v, x_w=x_w, x_diff=0.0)
    bound = model.d * max(x_v, x_w, x_v**2, x_w**2) * x_diff
    return LipschitzReport(left=left, bound=bound, ratio=left / bound, x_v=x_v, x_w=x_w,
                           x_diff=x_diff)


class TestRawCoefficients:
    def test_upper_triangle_round_trip(self):
        raw = RawCoefficients.from_upper_triangle(3, [0.9, 1.1, 1.0])
        assert raw.K[0, 1] == raw.K[1, 0] == 0.9
        assert raw.K[0, 2] == raw.K[2, 0] == 1.1
        assert raw.K[np.triu_indices(3, 1)].tolist() == [0.9, 1.1, 1.0]

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
        K = m.K * (1.0 + m.delta * m.alpha)
        np.fill_diagonal(K, 0.0)
        again = reduce_coefficients(RawCoefficients(d=m.d, K=K))
        assert again.delta == pytest.approx(0.05, rel=1e-12)
        assert np.allclose(again.alpha, m.alpha, atol=1e-12)


class TestNonlinearity:
    def test_constant_state_gives_zero(self):
        g = make_grid(1, 32)
        m = ReducedModel.from_alpha(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.1)
        w = np.stack([np.full(g.shape, 0.03), np.full(g.shape, 0.07)])
        assert np.max(np.abs(_flux(w, g, m))) == 0.0

    def test_equal_species_cancel(self):
        g = make_grid(1, 32)
        m = ReducedModel.from_alpha(np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0)
        v = np.sin(2 * math.pi * g.axes()[0]) * 0.1 + 0.3
        w = np.stack([v, v])
        assert np.max(np.abs(_flux(w, g, m, truncated=False))) < 1e-16

    def test_flux_matches_finite_difference_oracle(self):
        # F_1 = w_2 w_1' - w_1 w_2' with derivatives from centered differences
        g = make_grid(1, 128)
        x = g.axes()[0]
        a, b, c = 0.08, 0.05, 0.2
        w1 = lambda y: a * np.sin(2 * math.pi * y) + c
        w2 = lambda y: b * np.cos(2 * math.pi * y) + c
        m = ReducedModel.from_alpha(np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0)
        w = np.stack([w1(x), w2(x)])
        out = _flux(w, g, m, truncated=False)
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
        vals = 0.1 + 0.05 * np.stack([random_band_limited(g, rng, 6) for _ in range(2)])
        lam = 0.5
        f1 = _flux(lam * vals, g, m)
        f0 = _flux(vals, g, m)
        assert np.max(np.abs(f1 - lam**2 * f0)) < 1e-15

    def test_species_sum_vanishes_for_symmetric_coupling(self):
        g = make_grid(1, 64)
        rng = np.random.default_rng(6)
        alpha = np.array([[0.0, -1.0, 1.0], [-1.0, 0.0, 0.4], [1.0, 0.4, 0.0]])
        m = ReducedModel.from_alpha(alpha, 0.2)
        vals = 0.05 + 0.02 * np.stack([random_band_limited(g, rng, 8) for _ in range(3)])
        total = _flux(vals, g, m).sum(axis=0)
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
        out = _flux(w, g, m, truncated=True)
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
        monkeypatch.setattr(fields, "BLOCK_BYTES", 5 * node_bytes)
        real = model_module._flux_products
        blocks = []
        monkeypatch.setattr(model_module, "_flux_products",
                            lambda v, *a: blocks.append(len(v)) or real(v, *a))
        out = flux_trajectory(Trajectory(g, tg, vals), m, truncated).values
        assert blocks == [5, 5, 3]
        monkeypatch.undo()
        per_node = np.stack([_flux(vals[k], g, m, truncated) for k in range(len(tg))])
        assert np.array_equal(out, per_node)


class TestFluxDivergence:
    @pytest.mark.parametrize("n,N", [(1, 64), (2, 16)])
    @pytest.mark.parametrize("truncated", [True, False])
    def test_matches_divergence_of_nodal_flux(self, n, N, truncated):
        g = make_grid(n, N)
        tg = TimeGrid.dyadic(0.5, levels=3, steps_per_level=3)
        alpha = np.array([[0.0, -1.0, 1.0], [-1.0, 0.0, 0.4], [1.0, 0.4, 0.0]])
        m = ReducedModel.from_alpha(alpha, 0.05)
        vals = 0.02 + 0.05 * np.random.default_rng(n).standard_normal((len(tg), 3) + g.shape)
        got = _divergence_coeffs(vals, spectral_gradient(vals, g), g, m, truncated)
        ref = spectral_divergence(flux_trajectory(Trajectory(g, tg, vals), m, truncated).values, g)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestLipschitzProbe:
    @staticmethod
    def _setup(seed=7, N=64):
        g = make_grid(1, N)
        tg = TimeGrid.dyadic(0.5, levels=6, steps_per_level=6)
        rng = np.random.default_rng(seed)
        m = ReducedModel.from_alpha(np.array([[0.0, -1.0, 1.0], [-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), 0.05)

        def traj(scale):
            vals = 0.02 + 0.01 * scale * np.stack(
                [random_band_limited(g, rng, 6) for _ in range(3)]
            )
            return heat_flow_trajectory(SpeciesVector(g, vals), tg)

        return g, tg, m, traj

    def test_identical_trajectories_report_zero(self):
        _, _, m, traj = self._setup()
        v = traj(1.0)
        rep, _ = _probe(v, v, m)
        assert rep.ratio == 0.0
        assert rep.left == 0.0

    def test_zero_reference_reduces_to_quadratic_bound(self):
        g, tg, m, traj = self._setup()
        v, w = traj(1.0), traj(0.8)
        rep, _ = _probe(v, Trajectory(g, tg, np.zeros_like(v.values)), m)
        assert rep.x_w == 0.0
        assert rep.x_diff == pytest.approx(rep.x_v)
        # with ||v|| < 1 the bound collapses to d ||v||^2
        assert rep.bound == pytest.approx(m.d * rep.x_v**2)
        assert 0.0 < rep.ratio < math.inf
        # the fifth scan of a pass of v against any w reports the same
        assert _probe(v, w, m, against_zero=True)[1] == rep

    def test_sweep_constants_bounded(self):
        g, tg, m, traj = self._setup()
        ratios = [_probe(traj(1.0), traj(0.8), m)[0].ratio for _ in range(5)]
        assert all(np.isfinite(r) for r in ratios)
        assert max(ratios) < 10.0

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 16)])
    @pytest.mark.parametrize("against_zero", [True, False])
    def test_report_equals_unshared_formulation(self, n, N, against_zero):
        # one gradient per trajectory serves F and the Xp norm, so x_v and x_w
        # equal the unshared ones bit for bit; F(v) - F(w) is one transform
        # of the difference of the products and grad(v - w) the difference of
        # the gradients, which moves left, x_diff, bound and ratio by
        # round-off. The report against zero, when asked for, takes F(v)
        # from the same pass and leaves the report against w as it is.
        g = make_grid(n, N)
        tg = TimeGrid.dyadic(0.5, levels=6, steps_per_level=6)
        rng = np.random.default_rng(3 + n)
        m = ReducedModel.from_alpha(np.array([[0.0, -1.0, 1.0], [-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), 0.05)

        def traj():
            vals = 0.02 + 0.04 * np.stack([random_band_limited(g, rng, 3) for _ in range(3)])
            return heat_flow_trajectory(SpeciesVector(g, vals), tg)

        v, w = traj(), traj()
        p, cyls = 4.5, enumerate_cylinders(g, tg)
        rep, zero = _probe(v, w, m, p, cyls, against_zero)
        fv = flux_trajectory(v, m, truncated=False).values
        fdiff = fv - flux_trajectory(w, m, truncated=False).values
        left = yp_norm(FluxTrajectory(g, tg, fdiff), p, cyls).seminorm
        x_v, x_w = xp_norm(v, p, cyls), xp_norm(w, p, cyls)
        x_diff = xp_norm(trajectory_difference(v, w), p, cyls)
        bound = m.d * max(x_v, x_w, x_v**2, x_w**2) * x_diff
        assert (rep.x_v, rep.x_w) == (x_v, x_w)
        for got, want in ((rep.left, left), (rep.x_diff, x_diff), (rep.bound, bound),
                          (rep.ratio, left / bound)):
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        if not against_zero:
            assert zero is None
            return
        left = yp_norm(FluxTrajectory(g, tg, fv), p, cyls).seminorm
        bound = m.d * max(x_v, x_v**2) * x_v
        assert (zero.x_v, zero.x_w, zero.x_diff) == (x_v, 0.0, x_v)
        for got, want in ((zero.left, left), (zero.bound, bound), (zero.ratio, left / bound)):
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @staticmethod
    def _pair(g, tg, seed=5, kmax=3):
        rng = np.random.default_rng(seed)

        def traj():
            vals = 0.02 + 0.04 * np.stack([random_band_limited(g, rng, kmax) for _ in range(3)])
            return heat_flow_trajectory(SpeciesVector(g, vals), tg)

        return traj(), traj()

    @pytest.mark.parametrize("against_zero", [True, False])
    def test_transform_budget(self, against_zero, transform_bytes):
        # in trajectories' worth: one forward transform of v and of w, n
        # inverse for each gradient, and one forward and one inverse of the
        # d x n flux difference (separate fluxes and norms took 17); against
        # zero, one more forward and inverse of the d x n flux of v
        g, tg = make_grid(2, 16), TimeGrid.dyadic(0.05, levels=4, steps_per_level=3)
        v, w = self._pair(g, tg)
        m = ReducedModel.from_alpha(ALPHA3, 0.05)
        cyls = enumerate_cylinders(g, tg)
        transform_bytes.clear()
        _probe(v, w, m, 4.5, cyls, against_zero)
        assert sum(transform_bytes) <= (14 if against_zero else 10) * v.values.nbytes

    def test_peak_memory(self):
        # only the four magnitude fields are held whole (4.6x the trajectory
        # measured); holding F(v), F(w) and a gradient together peaked at 8.1x
        g, tg = make_grid(2, 64), TimeGrid.dyadic(0.25, levels=6, steps_per_level=8)
        v, w = self._pair(g, tg, kmax=6)
        m = ReducedModel.from_alpha(ALPHA3, 0.05)
        cyls = enumerate_cylinders(g, tg)
        tracemalloc.start()
        try:
            _probe(v, w, m, None, cyls)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.0 * v.values.nbytes

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 16), (2, 64)])
    @pytest.mark.parametrize("nodes", [1, 3, None])
    def test_report_equals_whole_array_formulation(self, n, N, nodes, monkeypatch):
        # the scans fed block by block equal the scans of the magnitude fields
        # held whole, bit for bit, with the same blocks of transforms (None:
        # the default BLOCK_BYTES); the report against zero equals the
        # whole-array report of v against an all-zero trajectory
        g, tg = make_grid(n, N), TimeGrid.dyadic(0.5, levels=6, steps_per_level=6)
        v, w = self._pair(g, tg, seed=6 + n)
        zero = Trajectory(g, tg, np.zeros_like(v.values))
        m = ReducedModel.from_alpha(ALPHA3, 0.05)
        cyls = enumerate_cylinders(g, tg)
        if nodes is not None:
            monkeypatch.setattr(fields, "BLOCK_BYTES", nodes * v.values[0].nbytes * n)
        for p in (4.5, 5.0):
            assert _probe(v, w, m, p, cyls, against_zero=True) == (
                _probe_whole_array(v, w, m, p, cyls), _probe_whole_array(v, zero, m, p, cyls))

    def test_nan_in_last_block_rejected(self, monkeypatch):
        g, tg = make_grid(1, 16), TimeGrid.dyadic(0.05, levels=3, steps_per_level=3)
        v, w = self._pair(g, tg)
        # finite states whose products overflow in the last node only
        values = v.values.copy()
        values[-1] *= 1e200
        monkeypatch.setattr(fields, "BLOCK_BYTES", v.values[0].nbytes)  # one node
        with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore", invalid="ignore"):
            _probe(Trajectory(g, tg, values), w, ReducedModel.from_alpha(ALPHA3, 0.05))

    def test_peak_memory_streamed(self):
        # the four magnitude fields go to the scans block by block and each
        # radius holds mags^p over its own window only: 1.14x the trajectory
        # measured on the default time grid (4.7x with the fields held whole)
        g, tg = make_grid(2, 64), TimeGrid.dyadic(1.0, levels=10, steps_per_level=8)
        v, w = self._pair(g, tg, kmax=6)
        m = ReducedModel.from_alpha(ALPHA3, 0.05)
        cyls = enumerate_cylinders(g, tg)
        tracemalloc.start()
        try:
            _probe(v, w, m, None, cyls)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * v.values.nbytes

    def test_nonfinite_flux_rejected(self):
        g, tg = make_grid(1, 16), TimeGrid(np.linspace(0.0, 0.1, 3))
        v, w = self._pair(g, tg)
        # finite states whose products overflow
        huge = Trajectory(g, tg, 1e200 * v.values)
        with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore", invalid="ignore"):
            _probe(huge, w, ReducedModel.from_alpha(ALPHA3, 0.05))

    @pytest.mark.parametrize("p", [1.0, math.inf])
    def test_exponent_validated(self, p):
        g, tg = make_grid(1, 16), TimeGrid.dyadic(0.05, levels=3, steps_per_level=3)
        v, w = self._pair(g, tg)
        with pytest.raises(ValueError, match="p in"):
            _probe(v, w, ReducedModel.from_alpha(ALPHA3, 0.05), p)

    def test_flux_trajectory_shapes(self):
        g, tg, m, traj = self._setup()
        v = traj(1.0)
        flux = flux_trajectory(v, m)
        assert flux.values.shape == (len(tg), 3, 1) + g.shape


class TestHeatFlowProbes:
    """The probes of check_lipschitz's samples, fed the heat flows block by
    block, against the whole-array reports of the flows held whole."""

    @staticmethod
    def _data(g, seed, kmax=3):
        rng = np.random.default_rng(seed)
        return [SpeciesVector(g, 0.02 + 0.04 * np.stack(
            [random_band_limited(g, rng, kmax) for _ in range(3)])) for _ in range(2)]

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 16), (2, 64)])
    def test_equal_probes_of_the_flows(self, n, N):
        g, tg = make_grid(n, N), TimeGrid.dyadic(0.5, levels=6, steps_per_level=6)
        v0, w0 = self._data(g, 30 + n)
        m = ReducedModel.from_alpha(ALPHA3, 0.05)
        cyls = enumerate_cylinders(g, tg)
        v, w = heat_flow_trajectory(v0, tg), heat_flow_trajectory(w0, tg)
        zero = Trajectory(g, tg, np.zeros_like(v.values))
        want = _probe_whole_array(v, w, m, 4.5, cyls), _probe_whole_array(v, zero, m, 4.5, cyls)
        assert _heat_flow_probes(v0, w0, tg, m, 4.5, cyls, against_zero=True) == want
        assert _heat_flow_probes(v0, w0, tg, m, 4.5, cyls) == (want[0], None)

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 16)])
    @pytest.mark.parametrize("w_is", ["zero", "v"])
    def test_equal_probes_of_degenerate_pairs(self, n, N, w_is):
        # w = 0: the report against w is the report against zero; w = v:
        # ratio 0 by convention, and the report against zero as for any w
        g, tg = make_grid(n, N), TimeGrid.dyadic(0.5, levels=6, steps_per_level=6)
        v0 = self._data(g, 40 + n)[0]
        w0 = SpeciesVector(g, np.zeros_like(v0.values)) if w_is == "zero" else v0
        m = ReducedModel.from_alpha(ALPHA3, 0.05)
        cyls = enumerate_cylinders(g, tg)
        v, w = heat_flow_trajectory(v0, tg), heat_flow_trajectory(w0, tg)
        zero = Trajectory(g, tg, np.zeros_like(v.values))
        want = _probe_whole_array(v, w, m, 4.5, cyls), _probe_whole_array(v, zero, m, 4.5, cyls)
        got = _heat_flow_probes(v0, w0, tg, m, 4.5, cyls, against_zero=True)
        assert got == want
        if w_is == "zero":
            assert got[0] == got[1]
        else:
            assert (got[0].ratio, got[0].bound, got[0].x_diff) == (0.0, 0.0, 0.0)
        assert got[1].ratio > 0.0

    def test_transforms_no_more_than_held_flows(self, transform_bytes):
        g, tg = make_grid(2, 16), TimeGrid.dyadic(0.05, levels=4, steps_per_level=3)
        v0, w0 = self._data(g, 5)
        m = ReducedModel.from_alpha(ALPHA3, 0.05)
        cyls = enumerate_cylinders(g, tg)
        v, w = heat_flow_trajectory(v0, tg), heat_flow_trajectory(w0, tg)
        _probe(v, w, m, 4.5, cyls, against_zero=True)
        held = sum(transform_bytes)
        transform_bytes.clear()
        _heat_flow_probes(v0, w0, tg, m, 4.5, cyls, against_zero=True)
        assert sum(transform_bytes) <= held

    def test_peak_memory_one_sample(self):
        # the two heat flows and their probe on the default time grid: 1.40x
        # the trajectory measured; with both flows held whole, 3.23x
        g, tg = make_grid(2, 64), TimeGrid.dyadic(1.0, levels=10, steps_per_level=8)
        v0, w0 = self._data(g, 5, kmax=6)
        m = ReducedModel.from_alpha(ALPHA3, 0.05)
        cyls = enumerate_cylinders(g, tg)
        tracemalloc.start()
        try:
            _heat_flow_probes(v0, w0, tg, m, None, cyls)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * len(tg) * v0.values.nbytes

    def test_peak_memory_against_zero(self):
        # the probe against zero is a fifth scan of the same pass: 1.67x the
        # trajectory measured; a second pass over an all-zero flow beside
        # the first peaked at 2.28x
        g, tg = make_grid(2, 64), TimeGrid.dyadic(1.0, levels=10, steps_per_level=8)
        v0, w0 = self._data(g, 5, kmax=6)
        m = ReducedModel.from_alpha(ALPHA3, 0.05)
        cyls = enumerate_cylinders(g, tg)
        tracemalloc.start()
        try:
            _heat_flow_probes(v0, w0, tg, m, None, cyls, against_zero=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * len(tg) * v0.values.nbytes
