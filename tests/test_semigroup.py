import math
import tracemalloc

import numpy as np
import pytest

from crossdiff import fields, semigroup
from crossdiff.fields import (
    SpeciesVector,
    from_coeffs,
    index_blocks,
    make_grid,
    random_band_limited,
    spectral_divergence,
    to_coeffs,
)
from crossdiff.semigroup import (
    KernelEstimateReport,
    _duhamel_blocks,
    _heat_flow_blocks,
    _segment_weights,
    duhamel_solve,
    heat_flow_trajectory,
    heat_multiplier,
    heat_propagate,
    kernel_gradient_lp,
    kernel_scaling_report,
    scaling_exponent,
)
from crossdiff.trajectory import FluxTrajectory, TimeGrid, Trajectory, vector_magnitudes


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
        tg = TimeGrid(np.linspace(0.0, 2.0, 5))
        np.testing.assert_allclose(tg.times, [0, 0.5, 1.0, 1.5, 2.0])

    def test_validation(self):
        with pytest.raises(ValueError, match="start at 0"):
            TimeGrid(np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match="strictly increasing"):
            TimeGrid(np.array([0.0, 0.2, 0.2]))
        with pytest.raises(ValueError):
            TimeGrid.dyadic(-1.0)

    @pytest.mark.parametrize("times", [[0.0, np.nan, 0.2], [0.0, 0.1, np.nan], [0.0, 0.1, np.inf],
                                       [0.0, 0.1, np.inf, np.inf]])
    def test_non_finite_times_rejected(self, times):
        # a NaN step compares false both ways, so it passes a test for steps <= 0
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            TimeGrid(np.array(times))


class TestTrajectoryValues:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_trajectory_rejects_nonfinite(self, bad):
        grid = make_grid(2, 8)
        tg = TimeGrid(np.linspace(0.0, 1.0, 3))
        vals = np.zeros((len(tg), 2) + grid.shape)
        Trajectory(grid, tg, vals)
        vals[2, 1, 3, 4] = bad
        with pytest.raises(ValueError, match="finite"):
            Trajectory(grid, tg, vals)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_flux_trajectory_rejects_nonfinite(self, bad):
        grid = make_grid(1, 8)
        tg = TimeGrid(np.linspace(0.0, 1.0, 3))
        vals = np.zeros((len(tg), 2, 1) + grid.shape)
        FluxTrajectory(grid, tg, vals)
        vals[1, 0, 0, 7] = bad
        with pytest.raises(ValueError, match="finite"):
            FluxTrajectory(grid, tg, vals)


class TestFluxMagnitudes:
    @pytest.mark.parametrize("n", [1, 2])
    def test_bit_equal_to_summed_squares(self, n):
        grid = make_grid(n, 16)
        tg = TimeGrid(np.linspace(0.0, 1.0, 4))
        vals = np.random.default_rng(n).standard_normal((len(tg), 2, n) + grid.shape)
        ref = np.sqrt((vals**2).sum(axis=2))
        assert np.array_equal(vector_magnitudes(vals), ref)
        out = np.empty(ref.shape)
        assert vector_magnitudes(vals, out=out) is out
        assert np.array_equal(out, ref)

    def test_no_temporary_of_the_flux_size(self):
        grid = make_grid(2, 64)
        tg = TimeGrid(np.linspace(0.0, 1.0, 9))
        flux = FluxTrajectory(grid, tg, np.random.default_rng(0).standard_normal((len(tg), 3, 2) + grid.shape))
        tracemalloc.start()
        try:
            mags = vector_magnitudes(flux.values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the result plus one squared component (2.1x measured); squaring the
        # whole flux first peaked at 3.0x
        assert peak <= 2.5 * mags.nbytes

class TestHeatPropagate:
    def test_constant_is_equilibrium(self):
        g = make_grid(1, 32)
        out = heat_propagate(np.full(g.shape, 0.7), g, 2.0)
        assert np.max(np.abs(out - 0.7)) < 1e-15

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_single_mode_decay(self, k):
        g = make_grid(1, 64)
        x = g.axes()[0]
        f = np.sin(2 * math.pi * k * x)
        for t in (1e-3, 0.05, 0.3):
            out = heat_propagate(f, g, t)
            expect = math.exp(-4 * math.pi**2 * k**2 * t) * f
            assert np.max(np.abs(out - expect)) < 1e-12

    def test_maximum_principle(self):
        g = make_grid(1, 128)
        f = np.random.default_rng(0).standard_normal(g.shape)
        sups = [np.max(np.abs(heat_propagate(f, g, t))) for t in (0.0, 0.01, 0.1, 1.0)]
        assert sups[0] <= np.max(np.abs(f)) + 1e-14
        assert all(a >= b - 1e-14 for a, b in zip(sups[:-1], sups[1:]))

    def test_semigroup_property(self):
        g = make_grid(2, 16)
        f = random_band_limited(g, np.random.default_rng(1), 5)
        a = heat_propagate(heat_propagate(f, g, 0.03), g, 0.11)
        b = heat_propagate(f, g, 0.14)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_mean_invariant(self):
        g = make_grid(1, 64)
        f = np.random.default_rng(2).standard_normal(g.shape)
        assert np.mean(heat_propagate(f, g, 0.37)) == pytest.approx(np.mean(f), abs=1e-14)

    @pytest.mark.parametrize("n,N", [(1, 32), (2, 16)])
    def test_leading_axes_are_a_batch(self, n, N):
        g = make_grid(n, N)
        values = np.random.default_rng(3).standard_normal((2, 3) + g.shape)
        out = heat_propagate(values, g, 0.02)
        assert out.shape == values.shape
        for j in range(2):
            for i in range(3):
                assert np.array_equal(out[j, i], heat_propagate(values[j, i], g, 0.02))

    def test_negative_time_rejected(self):
        g = make_grid(1, 32)
        with pytest.raises(ValueError, match="nonnegative"):
            heat_propagate(np.ones(g.shape), g, -0.1)


def _species(grid, *arrays):
    return SpeciesVector(grid, np.stack(arrays))


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
        tg = TimeGrid(np.linspace(0.0, 0.2, 17))
        const = FluxTrajectory(g, tg, np.full((len(tg), 1, 1) + g.shape, 3.7))
        sol = duhamel_solve(h, const, tg)
        ref = heat_flow_trajectory(h, tg)
        assert np.max(np.abs(sol.values - ref.values)) < 1e-12

    @staticmethod
    def _manufactured_error(steps: int) -> float:
        # closed-form mild solution: w = (exp(-t) - exp(-4 pi^2 t)) sin(2 pi x)
        g = make_grid(1, 64)
        x = g.axes()[0]
        tg = TimeGrid(np.linspace(0.0, 0.5, steps + 1))
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
        tg = TimeGrid(np.linspace(0.0, 0.1, 5))
        wrong = FluxTrajectory(g, tg, np.zeros((len(tg), 2, 1) + g.shape))
        with pytest.raises(ValueError, match="species"):
            duhamel_solve(h, wrong, tg)

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 16)])
    def test_coefficients_are_those_of_the_values(self, n, N):
        g = make_grid(n, N)
        rng = np.random.default_rng(5)
        h = _species(g, rng.standard_normal(g.shape), rng.standard_normal(g.shape))
        tg = TimeGrid.dyadic(0.25, levels=3, steps_per_level=3)
        flux = FluxTrajectory(g, tg, rng.standard_normal((len(tg), 2, n) + g.shape))
        (_, coeffs, values), = _duhamel_blocks(h, _one_block(spectral_divergence(flux.values, g)), tg)
        assert np.array_equal(values, duhamel_solve(h, flux, tg).values)
        assert np.max(np.abs(to_coeffs(values, g) - coeffs)) < 1e-14 * np.max(np.abs(coeffs))

    def test_coefficient_shape_mismatch_rejected(self):
        # a forcing one time node short is rejected before any block is due
        g = make_grid(1, 32)
        h = _species(g, np.zeros(g.shape))
        tg = TimeGrid(np.linspace(0.0, 0.1, 5))
        short = FluxTrajectory(g, TimeGrid(np.linspace(0.0, 0.1, 4)), np.zeros((len(tg) - 1, 1, 1) + g.shape))
        with pytest.raises(ValueError, match="time grid"):
            duhamel_solve(h, short, tg)
        # and the recurrence fed its divergence raises once the feed ends
        with pytest.raises(ValueError, match="held 4 of the 5 time nodes"):
            list(_duhamel_blocks(h, _one_block(spectral_divergence(short.values, g)), tg))

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 16)])
    def test_heat_flow_coeffs_give_heat_flow_values(self, n, N):
        g = make_grid(n, N)
        h = _species(g, np.random.default_rng(6).standard_normal(g.shape))
        tg = TimeGrid.dyadic(0.25, levels=3, steps_per_level=3)
        coeffs, _ = _whole(_heat_flow_blocks(h, tg))
        values = heat_flow_trajectory(h, tg).values
        assert np.array_equal(coeffs[0], to_coeffs(h.values, g))
        assert np.array_equal(from_coeffs(coeffs[1:], g), values[1:])


# -- the per-node loops the batched paths replaced: references bit for bit --


def _heat_flow_coeffs_per_node(h, tg):
    what = to_coeffs(h.values, h.grid)
    return np.stack([what * heat_multiplier(h.grid, float(t)) for t in tg.times])


def _values_per_node(coeffs, grid, datum):
    values = np.empty((len(coeffs),) + datum.shape)
    values[0] = datum
    for k in range(1, len(coeffs)):
        values[k] = from_coeffs(coeffs[k], grid)
    return values


def _duhamel_per_node(h, div_coeffs, tg):
    grid = h.grid
    coeffs = np.empty_like(div_coeffs)
    coeffs[0] = to_coeffs(h.values, grid)
    for k in range(1, len(tg)):
        dt = float(tg.times[k] - tg.times[k - 1])
        E, w_left, w_right = _segment_weights(grid, dt)
        coeffs[k] = E * coeffs[k - 1] + w_left * div_coeffs[k - 1] + w_right * div_coeffs[k]
    return _values_per_node(coeffs, grid, h.values), coeffs


def _bit_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _one_block(div):
    """The forcing of every time node as _duhamel_blocks's one (nodes, div) block."""
    return [(slice(0, len(div)), div)]


def _whole(blocks):
    """The coefficients and values of every node, put together from a
    generator's (nodes, coeffs, values) blocks."""
    _, coeffs, values = zip(*blocks)
    return np.concatenate(coeffs), np.concatenate(values)


class TestBatchedTransforms:
    """The heat flow and Duhamel paths take their inverse transforms and the
    divergence over blocks of time nodes; each output must equal the
    per-node loop's bit for bit, with numpy.fft's out= and with the copying
    fallback numpy < 2.0 takes."""

    # the time grids of the recurrence tests: the dyadic grid (one or two
    # distinct steps per level, by round-off), a uniform grid (one distinct
    # step: 1/32 and its multiples are exact) and a grid of all distinct steps
    TIME_GRIDS = {
        "dyadic": TimeGrid.dyadic(0.5, levels=4, steps_per_level=3),
        "uniform": TimeGrid(np.linspace(0.0, 0.5, 17)),
        "distinct": TimeGrid(np.concatenate(([0.0], np.cumsum(np.linspace(0.01, 0.05, 14))))),
    }

    @classmethod
    def _problem(cls, n, N, times="dyadic"):
        g = make_grid(n, N)
        rng = np.random.default_rng(N)
        tg = cls.TIME_GRIDS[times]
        h = SpeciesVector(g, rng.standard_normal((3,) + g.shape))
        flux = FluxTrajectory(g, tg, rng.standard_normal((len(tg), 3, n) + g.shape))
        return g, tg, h, flux

    @pytest.fixture(params=[True, False], ids=["fft-out", "copy-fallback"])
    def fft_out(self, request, monkeypatch):
        monkeypatch.setattr(fields, "_FFT_OUT", request.param and fields._FFT_OUT)

    @staticmethod
    def _set_blocks(monkeypatch, flux, block_nodes):
        if block_nodes is not None:
            # blocks of block_nodes flux nodes (the last one short), and of
            # n times as many nodes of the values
            monkeypatch.setattr(fields, "BLOCK_BYTES", block_nodes * flux.values[0].nbytes)

    @pytest.mark.parametrize("n,N", [(1, 64), (1, 128), (2, 16), (2, 64)])
    @pytest.mark.parametrize("block_nodes", [None, 2])
    def test_heat_flow(self, n, N, block_nodes, fft_out, monkeypatch):
        g, tg, h, flux = self._problem(n, N)
        self._set_blocks(monkeypatch, flux, block_nodes)
        coeffs = _heat_flow_coeffs_per_node(h, tg)
        got_coeffs, got_values = _whole(_heat_flow_blocks(h, tg))
        assert _bit_equal(got_coeffs, coeffs)
        values = heat_flow_trajectory(h, tg).values
        assert _bit_equal(values, _values_per_node(coeffs, g, h.values))
        assert _bit_equal(got_values, values)

    @pytest.mark.parametrize("n,N", [(1, 64), (1, 128), (2, 16), (2, 64)])
    @pytest.mark.parametrize("block_nodes", [None, 2])
    def test_duhamel(self, n, N, block_nodes, fft_out, monkeypatch):
        g, tg, h, flux = self._problem(n, N)
        self._set_blocks(monkeypatch, flux, block_nodes)
        div = np.stack([spectral_divergence(flux.values[k], g) for k in range(len(tg))])
        ref_values, ref_coeffs = _duhamel_per_node(h, div, tg)
        (_, coeffs, values), = _duhamel_blocks(h, _one_block(div), tg)
        assert _bit_equal(values, ref_values) and _bit_equal(coeffs, ref_coeffs)
        blocks = index_blocks(len(tg), flux.values[0].nbytes)
        coeffs, values = _whole(_duhamel_blocks(
            h, ((b, spectral_divergence(flux.values[b], g)) for b in blocks), tg))
        assert _bit_equal(values, ref_values) and _bit_equal(coeffs, ref_coeffs)
        assert _bit_equal(duhamel_solve(h, flux, tg).values, ref_values)

    def test_call_budget(self, transform_bytes):
        # the acceptance battery's 1-D time grid: 89 nodes, 88 inverse
        # transforms of one node each before the transforms were batched
        g = make_grid(1, 64)
        tg = TimeGrid.dyadic(1.0, levels=10, steps_per_level=8)
        rng = np.random.default_rng(3)
        h = SpeciesVector(g, rng.standard_normal((3,) + g.shape))
        flux = FluxTrajectory(g, tg, rng.standard_normal((len(tg), 3, 1) + g.shape))
        node = h.values.nbytes
        div = spectral_divergence(flux.values, g)
        for run in (lambda: heat_flow_trajectory(h, tg),
                    lambda: list(_duhamel_blocks(h, _one_block(div), tg))):
            transform_bytes.clear()
            run()
            assert transform_bytes.calls["from_coeffs"] <= 2
            # the datum forward, every later node back: the same bytes as node by node
            assert sum(transform_bytes) == len(tg) * node
        transform_bytes.clear()
        duhamel_solve(h, flux, tg)
        assert transform_bytes.calls["to_coeffs"] <= 2
        # the flux and the datum forward, every later node back
        assert sum(transform_bytes) == 2 * len(tg) * node

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 16), (2, 64)])
    @pytest.mark.parametrize("block_nodes", [1, 3, None])
    def test_heat_flow_blocks(self, n, N, block_nodes, monkeypatch):
        # consecutive blocks from node 0, the datum itself, on, which put
        # together are the per-node heat flow and heat_flow_trajectory, bit
        # for bit
        g, tg, h, _ = self._problem(n, N)
        want = _values_per_node(_heat_flow_coeffs_per_node(h, tg), g, h.values)
        assert _bit_equal(heat_flow_trajectory(h, tg).values, want)
        if block_nodes is not None:
            monkeypatch.setattr(fields, "BLOCK_BYTES", block_nodes * h.values.nbytes)
        blocks = list(_heat_flow_blocks(h, tg))
        assert [b for b, _, _ in blocks] == index_blocks(len(tg), h.values.nbytes)
        coeffs, values = _whole(blocks)
        assert _bit_equal(coeffs, _heat_flow_coeffs_per_node(h, tg))
        assert _bit_equal(values, want)

    def test_time_grids_steps(self):
        steps = {name: len(np.unique(np.diff(tg.times))) for name, tg in self.TIME_GRIDS.items()}
        # round-off splits some dyadic levels' steps in two
        assert steps == {"dyadic": 10, "uniform": 1, "distinct": 14}

    @pytest.mark.parametrize("n,N", [(1, 64), (1, 128), (2, 16), (2, 64)])
    @pytest.mark.parametrize("block_nodes", [1, 3, None])
    def test_duhamel_blocks(self, n, N, block_nodes, monkeypatch):
        # the recurrence fed the forcing in blocks of any size, the first
        # block short of a whole one or not, equals the per-node loop, on
        # time grids of few and of all distinct steps: the coefficients, and
        # the values with node 0 the datum
        for times in self.TIME_GRIDS:
            g, tg, h, flux = self._problem(n, N, times)
            div = np.stack([spectral_divergence(flux.values[k], g) for k in range(len(tg))])
            want_values, want = _duhamel_per_node(h, div, tg)
            monkeypatch.setattr(fields, "BLOCK_BYTES", (block_nodes or len(tg)) * div[0].nbytes)
            blocks = index_blocks(len(tg), div[0].nbytes)
            got = list(_duhamel_blocks(h, ((b, div[b]) for b in blocks), tg))
            assert [(b, len(c), len(v)) for b, c, v in got] == [(b, len(div[b]), len(div[b]))
                                                                for b in blocks]
            assert _bit_equal(np.concatenate([c for _, c, _ in got]), want), times
            assert _bit_equal(np.concatenate([v for _, _, v in got]), want_values), times

    @pytest.mark.parametrize("nodes", [
        lambda t: list(range(1, t)),  # no node 0
        lambda t: [0, 2] + list(range(3, t)),  # a gap
        lambda t: [0, 1, 1] + list(range(2, t)),  # a repeat
        lambda t: list(range(t - 1)),  # no last node
    ])
    def test_duhamel_blocks_take_every_node_once_in_order(self, nodes):
        # each raises, where the recurrence would read a forcing never fed
        g, tg, h, flux = self._problem(1, 32, "dyadic")
        div = spectral_divergence(flux.values, g)
        blocks = [(slice(k, k + 1), div[k:k + 1]) for k in nodes(len(tg))]
        with pytest.raises(ValueError, match=f"is not the next block|held {len(tg) - 1} of the {len(tg)}"):
            list(_duhamel_blocks(h, blocks, tg))

    @pytest.mark.parametrize("times", ["dyadic", "uniform", "distinct"])
    def test_segment_weights_once_per_distinct_step(self, times, monkeypatch):
        # the recurrence reads its weights from a table of the distinct steps
        # of its time grid, not by one lookup per node
        g, tg, h, flux = self._problem(1, 32, times)
        div = spectral_divergence(flux.values, g)
        steps = []

        def counted(grid, dt):
            steps.append(dt)
            return _segment_weights(grid, dt)

        monkeypatch.setattr(semigroup, "_segment_weights", counted)
        semigroup._step_table.cache_clear()
        (_, got, _), = _duhamel_blocks(h, _one_block(div), tg)
        assert sorted(steps) == sorted(set(np.diff(tg.times).tolist()))
        assert _bit_equal(got, _duhamel_per_node(h, div, tg)[1])
        # a second sweep on the same grid and time grid reuses the table
        calls = len(steps)
        list(_duhamel_blocks(h, _one_block(div), tg))
        assert len(steps) == calls

    def test_step_table_cached_read_only(self):
        g, tg = make_grid(2, 16), self.TIME_GRIDS["dyadic"]
        key = (g, tuple(tg.times.tolist()))
        table = semigroup._step_table(*key)
        assert semigroup._step_table(*key) is table
        E, left, right, segment = table
        assert len(E) == len(left) == len(right) == 10 and len(segment) == len(tg) - 1
        for k, dt in enumerate(np.diff(tg.times)):
            weights = _segment_weights(g, float(dt))
            s = segment[k]
            assert _bit_equal(E[s], weights[0])
            assert _bit_equal(left[s], weights[1]) and _bit_equal(right[s], weights[2])
        for a in (*E, left, right, segment):
            assert not a.flags.writeable

    def test_segment_weights_read_only(self):
        g = make_grid(2, 16)
        weights = _segment_weights(g, 0.01)
        for w in weights:
            assert not w.flags.writeable
        with pytest.raises(ValueError):
            weights[0][...] = 0.0


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

    def test_three_percent_spread_fails(self):
        # one bound, KERNEL_SCALING_SPREAD = 2%, decides passed
        assert semigroup.KERNEL_SCALING_SPREAD == 0.02
        rep = KernelEstimateReport(samples=[(0.1, 2.0, 1.0), (1.0, 1.03, 1.03)])
        assert rep.ratio_spread == pytest.approx(1.03)
        assert not rep.passed
        assert KernelEstimateReport(samples=[(0.1, 2.0, 1.0), (1.0, 1.01, 1.01)]).passed

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
