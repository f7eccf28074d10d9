import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from crossdiff import fields
from crossdiff.fields import (
    SpeciesVector,
    dealias_keep_mask,
    derivative_symbol,
    divergence_from_coeffs,
    frequencies,
    from_coeffs,
    gradient_from_coeffs,
    index_blocks,
    laplacian_symbol,
    make_grid,
    random_band_limited,
    rfft_shape,
    spectral_divergence,
    spectral_gradient,
    to_coeffs,
)
from crossdiff.model import RawCoefficients, ReducedModel, flux_trajectory
from crossdiff.trajectory import FluxTrajectory, TimeGrid, Trajectory

GRID_MATRIX = [(1, 8), (1, 64), (1, 128), (2, 8), (2, 32)]


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestGrid:
    def test_make_grid_1d(self):
        g = make_grid(1, 128)
        assert g.num_nodes == 128
        assert g.shape == (128,)

    def test_make_grid_2d(self):
        g = make_grid(2, 64)
        assert g.num_nodes == 4096
        assert g.shape == (64, 64)

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError, match="unsupported dimension"):
            make_grid(3, 64)

    @pytest.mark.parametrize("N", [4, 100, 96, 7])
    def test_bad_resolution(self, N):
        with pytest.raises(ValueError, match="power of two"):
            make_grid(1, N)


class TestTransform:
    def test_constant_field(self):
        g = make_grid(1, 32)
        coeffs = to_coeffs(np.full(g.shape, 2.5), g)
        assert coeffs[0] == pytest.approx(2.5)
        coeffs[0] = 0
        assert np.max(np.abs(coeffs)) < 1e-15

    def test_single_sine_mode(self):
        g = make_grid(1, 64)
        coeffs = to_coeffs(np.sin(2 * math.pi * g.axes()[0]), g)
        assert coeffs[1] == pytest.approx(1 / 2j, abs=1e-14)
        # c_{-1} = conj(c_1) is implied by the half layout
        assert np.conj(coeffs[1]) == pytest.approx(-1 / 2j, abs=1e-14)

    @pytest.mark.parametrize("n,N", GRID_MATRIX)
    def test_round_trip(self, n, N):
        g = make_grid(n, N)
        values = _rng(n * N).standard_normal(g.shape)
        back = from_coeffs(to_coeffs(values, g), g)
        assert np.max(np.abs(back - values)) < 1e-12

    @pytest.mark.parametrize("n,N", GRID_MATRIX)
    def test_parseval(self, n, N):
        g = make_grid(n, N)
        values = _rng(7).standard_normal(g.shape)
        # full-spectrum sum of |c_k|^2 from the half layout
        c = to_coeffs(values, g)
        if n == 1:
            total = abs(c[0]) ** 2 + abs(c[-1]) ** 2 + 2 * np.sum(np.abs(c[1:-1]) ** 2)
        else:
            weights = np.full(c.shape, 2.0)
            weights[:, 0] = 1.0
            weights[:, -1] = 1.0
            total = float(np.sum(weights * np.abs(c) ** 2))
        assert total == pytest.approx(np.mean(values**2), rel=1e-12)

    @given(hnp.arrays(np.float64, (16,), elements=st.floats(-50, 50)))
    def test_round_trip_property(self, values):
        g = make_grid(1, 16)
        back = from_coeffs(to_coeffs(values, g), g)
        assert np.max(np.abs(back - values)) <= 1e-10 * (1 + np.max(np.abs(values)))

    @given(
        hnp.arrays(np.float64, (16,), elements=st.floats(-10, 10)),
        hnp.arrays(np.float64, (16,), elements=st.floats(-10, 10)),
        st.floats(-3, 3),
    )
    def test_linearity(self, a, b, lam):
        g = make_grid(1, 16)
        combo = to_coeffs(a + lam * b, g)
        parts = to_coeffs(a, g) + lam * to_coeffs(b, g)
        assert np.max(np.abs(combo - parts)) < 1e-10


class TestIndexBlocks:
    def test_runs_cover_the_range_within_the_budget(self, monkeypatch):
        monkeypatch.setattr(fields, "BLOCK_BYTES", 40)
        assert index_blocks(13, 8) == [slice(0, 5), slice(5, 10), slice(10, 15)]

    def test_at_least_one_item_per_run(self, monkeypatch):
        monkeypatch.setattr(fields, "BLOCK_BYTES", 1)
        assert index_blocks(3, 100) == [slice(0, 1), slice(1, 2), slice(2, 3)]


class TestDifferentiation:
    @pytest.mark.parametrize("n,N", [(1, 8), (1, 64), (2, 8), (2, 64)])
    def test_derivative_symbol_cached_and_read_only(self, n, N):
        g = make_grid(n, N)
        for axis in range(n):
            # the symbol as built before it was cached
            k = frequencies(g)[axis].copy()
            k[np.abs(k) == N // 2] = 0.0
            fresh = np.broadcast_to(2.0j * math.pi * k, rfft_shape(g)).copy()
            sym = derivative_symbol(g, axis)
            assert sym is derivative_symbol(make_grid(n, N), axis)
            assert sym.dtype == fresh.dtype and sym.tobytes() == fresh.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                sym[(0,) * n] = 1.0

    @pytest.mark.parametrize("n,N", [(1, 8), (1, 64), (2, 8), (2, 64)])
    def test_laplacian_symbol_cached_and_read_only(self, n, N):
        g = make_grid(n, N)
        # the symbol as built before it was cached
        fresh = -4.0 * math.pi**2 * sum(k**2 for k in frequencies(g))
        sym = laplacian_symbol(g)
        assert sym is laplacian_symbol(make_grid(n, N))
        assert sym.dtype == fresh.dtype and sym.tobytes() == fresh.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            sym[(0,) * n] = 1.0

    def test_gradient_of_constant(self):
        g = make_grid(2, 16)
        grad = spectral_gradient(np.full(g.shape, 3.0), g)
        assert grad.shape == (2,) + g.shape
        assert np.max(np.abs(grad)) == 0.0

    def test_gradient_of_sine(self):
        g = make_grid(1, 64)
        grad = spectral_gradient(np.sin(2 * math.pi * g.axes()[0]), g)
        expect = 2 * math.pi * np.cos(2 * math.pi * g.axes()[0])
        assert np.max(np.abs(grad[0] - expect)) < 1e-12

    def test_gradient_vs_finite_difference_oracle(self):
        # independent oracle: centered differences of the analytic function
        g = make_grid(1, 256)
        fn = lambda x: np.exp(np.sin(2 * math.pi * x))
        x = g.axes()[0]
        grad = spectral_gradient(fn(x), g)
        h = 1.0 / 65536.0
        fd = (fn(x + h) - fn(x - h)) / (2 * h)
        assert np.max(np.abs(grad[0] - fd)) < 1e-6

    def test_divergence_of_constant(self):
        g = make_grid(1, 32)
        div = spectral_divergence(np.full((1,) + g.shape, 4.0), g)
        assert np.max(np.abs(div)) == 0.0

    def test_divergence_of_gradient_is_laplacian(self):
        # differentiation zeroes the Nyquist mode, so compare on band-limited data
        g = make_grid(2, 32)
        f = random_band_limited(g, _rng(3), g.N // 3)
        lap = from_coeffs(spectral_divergence(spectral_gradient(f, g), g), g)
        expect = from_coeffs(laplacian_symbol(g) * to_coeffs(f, g), g)
        assert np.max(np.abs(lap - expect)) < 1e-12 * (1 + np.max(np.abs(expect)))

    def test_divergence_of_cosine(self):
        g = make_grid(1, 128)
        f = np.cos(2 * math.pi * g.axes()[0])
        div = from_coeffs(spectral_divergence(f[None], g), g)
        expect = -2 * math.pi * np.sin(2 * math.pi * g.axes()[0])
        assert np.max(np.abs(div - expect)) < 1e-12

    def test_divergence_has_zero_mean(self):
        g = make_grid(2, 16)
        comps = _rng(0).standard_normal((2,) + g.shape)
        assert abs(spectral_divergence(comps, g)[0, 0]) < 1e-14

    def test_gradient_divergence_adjoint(self):
        g = make_grid(1, 64)
        rng = _rng(11)
        f = random_band_limited(g, rng, 12)
        G = random_band_limited(g, rng, 12)
        lhs = np.mean(spectral_gradient(f, g)[0] * G)
        rhs = -np.mean(f * from_coeffs(spectral_divergence(G[None], g), g))
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_component_count_checked(self):
        g = make_grid(2, 16)
        with pytest.raises(ValueError, match="components"):
            spectral_divergence(np.ones((1,) + g.shape), g)

    def test_leading_axes_are_a_batch(self):
        g = make_grid(2, 16)
        values = _rng(4).standard_normal((3, 2) + g.shape)
        grad = spectral_gradient(values, g)
        div = spectral_divergence(grad, g)
        assert grad.shape == (3, 2, 2) + g.shape
        for t in range(3):
            for i in range(2):
                assert np.array_equal(grad[t, i], spectral_gradient(values[t, i], g))
                assert np.array_equal(div[t, i], spectral_divergence(grad[t, i], g))


class TestForwardNormalisation:
    """to_coeffs/from_coeffs scale by norm="forward"; N^n is a power of two,
    so that equals the division and multiplication by N^n bit for bit."""

    @pytest.mark.parametrize("n,N", GRID_MATRIX + [(2, 64)])
    @pytest.mark.parametrize("lead", [(), (3,), (5, 3)])
    def test_bit_equal_to_explicit_scaling(self, n, N, lead):
        g = make_grid(n, N)
        axes = tuple(range(len(lead), len(lead) + n))
        for scale in (1e-300, 1e-150, 1.0, 1e150, 1e300):
            values = scale * _rng(N + len(lead)).standard_normal(lead + g.shape)
            coeffs = np.fft.rfftn(values, axes=axes) / g.num_nodes
            assert np.array_equal(to_coeffs(values, g), coeffs)
            back = np.fft.irfftn(coeffs * g.num_nodes, s=g.shape, axes=axes)
            assert np.array_equal(from_coeffs(coeffs, g), back)

    @pytest.mark.parametrize("fft_out", [True, False])
    def test_from_coeffs_into_out(self, monkeypatch, fft_out):
        # numpy < 2.0 has no out= in numpy.fft; the fallback copies into out
        monkeypatch.setattr(fields, "_FFT_OUT", fft_out and fields._FFT_OUT)
        for n in (1, 2):
            g = make_grid(n, 16)
            coeffs = to_coeffs(_rng(8).standard_normal((3, 2) + g.shape), g)
            out = np.empty((3, 2, 2) + g.shape)
            got = from_coeffs(coeffs, g, out=out[:, :, 1])
            assert np.shares_memory(got, out)
            assert np.array_equal(out[:, :, 1], from_coeffs(coeffs, g))


class TestFromCoeffs:
    @pytest.mark.parametrize("n,N", GRID_MATRIX)
    def test_gradient_and_divergence_match_nodal_forms(self, n, N):
        g = make_grid(n, N)
        values = _rng(9).standard_normal((4, 2) + g.shape)
        chat = to_coeffs(values, g)
        grad = gradient_from_coeffs(chat, g)
        assert np.array_equal(grad, spectral_gradient(values, g))
        assert np.array_equal(divergence_from_coeffs(to_coeffs(grad, g), g),
                              spectral_divergence(grad, g))

    @pytest.mark.parametrize("n,N", GRID_MATRIX)
    def test_divergence_equals_a_sum_from_zero(self, n, N):
        # the terms added in place onto the first, not onto the int 0 of
        # sum(): the same values, and an identically zero mean mode
        g = make_grid(n, N)
        chat = to_coeffs(_rng(11).standard_normal((4, 3, n) + g.shape), g)
        div = divergence_from_coeffs(chat, g)
        spatial = (slice(None),) * n
        ref = sum(derivative_symbol(g, m) * chat[(..., m) + spatial] for m in range(n))
        assert np.array_equal(div, ref)
        assert np.all(div[(..., 0) + (0,) * (n - 1)] == 0.0)

    def test_gradient_peak_memory(self):
        # each component goes straight into the output: besides the gradient
        # itself the peak holds the coefficients, one component's symbol
        # product and the inverse transform's complex intermediate (about
        # 0.52 of the gradient each); numpy < 2.0 adds one nodal component
        g = make_grid(2, 64)
        values = _rng(10).standard_normal((16, 3) + g.shape)
        tracemalloc.start()
        try:
            grad = spectral_gradient(values, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 2.75 if fields._FFT_OUT else 3.25
        assert peak <= bound * grad.nbytes


class TestDealias:
    def test_top_third_removed(self):
        g = make_grid(1, 32)
        keep = dealias_keep_mask(g)
        assert keep[: g.N // 3 + 1].all()
        assert not keep[g.N // 3 + 1:].any()

    def test_idempotent(self):
        # the flux is dealiased once; the 2/3 rule applied again changes nothing
        g = make_grid(1, 32)
        model = ReducedModel.from_alpha(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.5)
        values = 0.2 + 0.1 * _rng(6).standard_normal((2, 2) + g.shape)
        once = flux_trajectory(Trajectory(g, TimeGrid(np.linspace(0.0, 1.0, 2)), values), model).values
        fhat = to_coeffs(once, g)
        fhat[..., ~dealias_keep_mask(g)] = 0.0
        assert_allclose(from_coeffs(fhat, g), once, atol=1e-14)

    @pytest.mark.parametrize("n,N", [(1, 32), (2, 16)])
    def test_keep_mask_cached_and_read_only(self, n, N):
        keep = dealias_keep_mask(make_grid(n, N))
        assert keep is dealias_keep_mask(make_grid(n, N))
        with pytest.raises(ValueError, match="read-only"):
            keep[(0,) * n] = False

    def test_keep_mask_2d(self):
        g = make_grid(2, 16)
        keep = dealias_keep_mask(g)
        assert keep[0, 0]
        assert not keep[0, g.N // 2]
        assert not keep[g.N // 2, 0]


class TestSpeciesVector:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        g = make_grid(1, 16)
        values = np.ones((2, 16))
        values[1, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            SpeciesVector(g, values)

    @pytest.mark.parametrize("shape", [(2, 8), (16,), (2, 16, 16), (2, 1, 16)],
                             ids=["other-N", "no-species-axis", "2-D-values", "extra-unit-axis"])
    def test_shape_checked(self, shape):
        with pytest.raises(ValueError, match="shape"):
            SpeciesVector(make_grid(1, 16), np.ones(shape))

    @pytest.mark.parametrize("n", [1, 2])
    def test_zero_species_rejected(self, n):
        g = make_grid(n, 8)
        with pytest.raises(ValueError, match="shape"):
            SpeciesVector(g, np.ones((0,) + g.shape))

    def test_values_read_only(self):
        sv = SpeciesVector(make_grid(2, 8), np.ones((3, 8, 8)))
        with pytest.raises(ValueError, match="read-only"):
            sv.values[0, 0, 0] = 2.0

    def test_source_array_copied(self):
        source = np.ones((2, 16))
        sv = SpeciesVector(make_grid(1, 16), source)
        source[0, 3] = 5.0
        assert np.all(sv.values == 1.0)
        assert source.flags.writeable

    def test_one_array_of_floats(self):
        g = make_grid(1, 16)
        sv = SpeciesVector(g, [np.ones(16), -2 * np.ones(16, dtype=int)])
        assert sv.d == 2 and sv.grid == g
        assert sv.values.shape == (2, 16) and sv.values.dtype == float
        assert_allclose(sv.values.sum(axis=0), -1.0)
        assert sv.sup_norm() == 2.0
        assert SpeciesVector(g, np.ones((1, 16))).d == 1

    def test_equality_and_hash_by_identity(self):
        g, x = make_grid(1, 16), np.ones((2, 16))
        h = SpeciesVector(g, x)
        assert (SpeciesVector(g, x) == SpeciesVector(g, x)) is False
        assert h == h and isinstance(hash(h), int)
        assert {h: 1}[h] == 1


_G16, _TG3 = make_grid(1, 16), TimeGrid(np.array([0.0, 0.5, 1.0]))
_ALPHA = np.array([[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("make", [
    lambda: TimeGrid.dyadic(1.0, 3, 2),
    lambda: Trajectory(_G16, _TG3, np.ones((3, 2, 16))),
    lambda: FluxTrajectory(_G16, _TG3, np.ones((3, 2, 1, 16))),
    lambda: RawCoefficients(2, 1.0 + _ALPHA),
    lambda: ReducedModel(K=1.0, delta=0.1, alpha=_ALPHA),
], ids=["TimeGrid", "Trajectory", "FluxTrajectory", "RawCoefficients", "ReducedModel"])
def test_array_dataclasses_compare_by_identity(make):
    # each holds an ndarray, which has no single truth value
    a, b = make(), make()
    assert a == a
    assert (a == b) is False
    assert isinstance(hash(a), int)


def _random_band_limited_per_mode(grid, rng, kmax, amplitude=1.0, mean=0.0):
    """Reference generator: the per-mode loop that defined the draw order."""
    coeffs = np.zeros(rfft_shape(grid), dtype=complex)
    scale = amplitude / (2.0 * math.sqrt(kmax))
    if grid.n == 1:
        for k in range(1, kmax + 1):
            a, b = rng.standard_normal(2)
            coeffs[k] = scale * (a + 1j * b)
    else:
        N = grid.N
        for k1 in range(-kmax, kmax + 1):
            for k2 in range(0, kmax + 1):
                if k2 == 0 and k1 <= 0:
                    continue
                a, b = rng.standard_normal(2)
                c = scale * (a + 1j * b) / math.sqrt(2.0 * kmax)
                coeffs[k1 % N, k2] = c
                if k2 == 0:
                    coeffs[(-k1) % N, 0] = np.conj(c)
    coeffs[(0,) * grid.n] = mean
    return from_coeffs(coeffs, grid)


class TestRandomBandLimited:
    @pytest.mark.parametrize("n,N", [(1, 64), (1, 128), (2, 16), (2, 64), (2, 128)])
    def test_bit_equal_to_per_mode_loop(self, n, N):
        g = make_grid(n, N)
        for kmax in sorted({1, 3, N // 3, N // 2 - 1}):
            rng, ref_rng = _rng(kmax), _rng(kmax)
            for amplitude, mean in ((1.0, 0.0), (0.3, -0.2)):
                got = random_band_limited(g, rng, kmax, amplitude, mean)
                ref = _random_band_limited_per_mode(g, ref_rng, kmax, amplitude, mean)
                assert got.tobytes() == ref.tobytes()
            # both consumed the same stretch of the stream
            assert rng.standard_normal() == ref_rng.standard_normal()

    def test_resolution_independent(self):
        # same seed: the N=64 field is the N=128 field sampled on coarser nodes
        coarse = random_band_limited(make_grid(1, 64), _rng(42), 8)
        fine = random_band_limited(make_grid(1, 128), _rng(42), 8)
        assert np.max(np.abs(fine[::2] - coarse)) < 1e-12

    def test_resolution_independent_2d(self):
        coarse = random_band_limited(make_grid(2, 16), _rng(42), 4)
        fine = random_band_limited(make_grid(2, 32), _rng(42), 4)
        assert np.max(np.abs(fine[::2, ::2] - coarse)) < 1e-12

    def test_declared_spectrum_2d(self):
        # the nodal field carries exactly the drawn coefficients
        g = make_grid(2, 16)
        f = random_band_limited(g, _rng(3), 3, amplitude=1.0)
        coeffs = to_coeffs(f, g)
        rng = _rng(3)
        scale = 1.0 / (2.0 * np.sqrt(3.0))
        for k1 in range(-3, 4):
            for k2 in range(0, 4):
                if k2 == 0 and k1 <= 0:
                    continue
                a, b = rng.standard_normal(2)
                c = scale * (a + 1j * b) / np.sqrt(6.0)
                assert coeffs[k1 % g.N, k2] == pytest.approx(c, abs=1e-14)

    def test_mean_control(self):
        f = random_band_limited(make_grid(1, 64), _rng(1), 5, mean=0.7)
        assert np.mean(f) == pytest.approx(0.7, abs=1e-13)

    def test_kmax_validated(self):
        with pytest.raises(ValueError, match="kmax"):
            random_band_limited(make_grid(1, 8), _rng(0), 4)


# zeros of both signs, subnormal, huge and tiny magnitudes, non-dyadic and
# integral values
AWKWARD_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e-300, 0.1, -0.1, 1 / 3,
                  3.0, -7.0, 2.0**53, 1e16, 123456789.0, 2.2250738585072014e-308]


def _awkward_field(g, seed=0) -> np.ndarray:
    values = _rng(seed).standard_normal(g.num_nodes)
    values[: len(AWKWARD_VALUES)] = AWKWARD_VALUES
    return _rng(seed + 1).permutation(values).reshape(g.shape)


def _trajectory(g, count: int, d: int = 2) -> Trajectory:
    values = np.stack([
        np.stack([_awkward_field(g, seed=10 * k + i) for i in range(d)])
        for k in range(count)
    ])
    return Trajectory(g, TimeGrid(np.linspace(0.0, 0.5, count)), values, metadata={"kind": "test"})


class TestSnapshots:
    """A saved run is manifest.json and values.npy; load gives the values
    back bit for bit, and rejects a values.npy it cannot trust, naming it."""

    @pytest.mark.parametrize("n,N", [(1, 16), (2, 8)])
    def test_round_trip(self, tmp_path, n, N):
        traj = _trajectory(make_grid(n, N), 5)
        out = traj.save(tmp_path / "run")
        assert sorted(f.name for f in out.iterdir()) == ["manifest.json", "values.npy"]
        back = Trajectory.load(out)
        assert back.values.tobytes() == traj.values.tobytes()
        assert back.tg.times.tobytes() == traj.tg.times.tobytes()
        assert back.grid == traj.grid and back.metadata == traj.metadata
        assert back.content_hash() == traj.content_hash()

    def test_header_format(self, tmp_path):
        # the array is written in C order, whatever the strides of the values
        traj = _trajectory(make_grid(1, 16), 6)
        strided = Trajectory(traj.grid, TimeGrid(traj.tg.times[::2]), traj.values[::2])
        assert not strided.values.flags["C_CONTIGUOUS"]
        for saved in (traj, strided):
            path = saved.save(tmp_path / "run") / "values.npy"
            with open(path, "rb") as fh:
                np.lib.format.read_magic(fh)
                header = np.lib.format.read_array_header_1_0(fh)
            assert header == (saved.values.shape, False, np.dtype(float))
            assert Trajectory.load(path.parent).values.tobytes() == saved.values.tobytes()

    def test_manifest_with_levels_loads(self, tmp_path):
        # older runs' manifests also hold levels and steps_per_level, which
        # TimeGrid no longer has: load reads the times and ignores both
        g = make_grid(1, 16)
        tg = TimeGrid.dyadic(0.3, levels=2, steps_per_level=2)
        traj = Trajectory(g, tg, _rng(3).standard_normal((len(tg), 2) + g.shape), {"kind": "test"})
        out = traj.save(tmp_path / "run")
        manifest = json.loads((out / "manifest.json").read_text())
        assert "levels" not in manifest and "steps_per_level" not in manifest
        manifest.update(levels=2, steps_per_level=2)
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
        back = Trajectory.load(out)
        assert back.values.tobytes() == traj.values.tobytes()
        assert back.tg.times.tobytes() == tg.times.tobytes()
        assert back.metadata == traj.metadata

    def test_bad_header_rejected(self, tmp_path):
        path = _trajectory(make_grid(1, 16), 3).save(tmp_path / "run") / "values.npy"
        path.write_text("nonsense\n")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            Trajectory.load(path.parent)

    @pytest.mark.parametrize("n", [1, 2])
    def test_truncated_body_rejected(self, tmp_path, n):
        traj = _trajectory(make_grid(n, 16 if n == 1 else 8), 5)
        path = traj.save(tmp_path / "run") / "values.npy"
        data = path.read_bytes()
        # one value short, one byte short, the header alone, half the header, nothing
        header = len(data) - traj.values.nbytes
        for cut in (data[:-8], data[:-1], data[:header], data[:header // 2], b""):
            path.write_bytes(cut)
            with pytest.raises(ValueError, match=re.escape(str(path))):
                Trajectory.load(path.parent)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
    def test_non_numeric_value_rejected(self, tmp_path, n, token):
        traj = _trajectory(make_grid(n, 16 if n == 1 else 8), 5)
        traj.values[3, 1].flat[5] = float(token)
        path = tmp_path / "run" / "values.npy"
        path.parent.mkdir()
        (path.parent / "manifest.json").write_text(traj.manifest_text())
        np.save(path, traj.values, allow_pickle=False)
        with pytest.raises(ValueError, match=f"{re.escape(str(path))} values must be finite"):
            Trajectory.load(path.parent)


class TestLoadChecksHeaders:
    """The header of values.npy must give float64 and the shape (times, d,
    *grid.shape) of the manifest; any other array raises a ValueError that
    names the file."""

    @pytest.fixture
    def saved(self, tmp_path):
        return _trajectory(make_grid(2, 16), 5).save(tmp_path / "run")

    @staticmethod
    def _rejects(saved, array, got: str):
        path = saved / "values.npy"
        np.save(path, array, allow_pickle=False)
        with pytest.raises(ValueError, match=re.escape(
                f"{path} holds {got}; the manifest gives float64 of shape (5, 2, 16, 16)")):
            Trajectory.load(saved)

    def test_1d_snapshot_in_2d_run_rejected(self, saved):
        self._rejects(saved, np.zeros((5, 2, 16)), "float64 of shape (5, 2, 16)")

    def test_other_N_rejected(self, saved):
        self._rejects(saved, np.zeros((5, 2, 8, 8)), "float64 of shape (5, 2, 8, 8)")

    def test_one_node_short_rejected(self, saved):
        values = Trajectory.load(saved).values
        self._rejects(saved, values[:-1], "float64 of shape (4, 2, 16, 16)")

    def test_float32_rejected(self, saved):
        self._rejects(saved, np.zeros((5, 2, 16, 16), np.float32), "float32 of shape (5, 2, 16, 16)")

    def test_object_array_rejected(self, saved):
        path = saved / "values.npy"
        values = Trajectory.load(saved).values
        np.save(path, values.astype(object), allow_pickle=True)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            Trajectory.load(saved)
