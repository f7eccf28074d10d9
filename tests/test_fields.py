import math
import os
import re
import shutil
import signal
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from crossdiff import fields, trajectory
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
    read_snapshot,
    rfft_shape,
    spectral_divergence,
    spectral_gradient,
    to_coeffs,
    write_snapshot,
)
from crossdiff.model import ReducedModel, flux_trajectory
from crossdiff.trajectory import TimeGrid, Trajectory

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
    def test_runs_cover_the_range_within_the_budget(self):
        assert index_blocks(13, 8, 40) == [slice(0, 5), slice(5, 10), slice(10, 15)]
        assert index_blocks(13, 8, 40, start=1) == [slice(1, 6), slice(6, 11), slice(11, 16)]

    def test_at_least_one_item_per_run(self):
        assert index_blocks(3, 100, 1) == [slice(0, 1), slice(1, 2), slice(2, 3)]
        assert index_blocks(1, 8, 40, start=1) == []


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


def _write_snapshot_per_row(values: np.ndarray, grid, t: float, path):
    """Reference writer: the per-row loop that defined the snapshot bytes."""
    coords = grid.meshgrid()
    flat = [c.ravel() for c in coords] + [values.ravel()]
    with open(path, "w") as fh:
        fh.write(f"# {grid.n} {grid.N} {t:.17g}\n")
        for row in zip(*flat):
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


# zeros of both signs, subnormal, huge and tiny magnitudes, non-dyadic and
# integral values
AWKWARD_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e-300, 0.1, -0.1, 1 / 3,
                  3.0, -7.0, 2.0**53, 1e16, 123456789.0, 2.2250738585072014e-308]


def _awkward_field(g, seed=0) -> np.ndarray:
    values = _rng(seed).standard_normal(g.num_nodes)
    values[: len(AWKWARD_VALUES)] = AWKWARD_VALUES
    return _rng(seed + 1).permutation(values).reshape(g.shape)


class TestSnapshots:
    @pytest.mark.parametrize("n,N", [(1, 16), (2, 8)])
    @pytest.mark.parametrize("t", [0.0, 0.375, 0.1, 1 / 3])
    def test_bytes_equal_per_row_writer(self, tmp_path, n, N, t):
        g = make_grid(n, N)
        f = _awkward_field(g)
        write_snapshot(f, g, t, tmp_path / "new.txt")
        _write_snapshot_per_row(f, g, t, tmp_path / "ref.txt")
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()
        back, g_back, t_back = read_snapshot(tmp_path / "new.txt")
        assert t_back == t and g_back == g
        assert back.tobytes() == f.tobytes()

    def test_trajectory_2d_files_equal_per_row_writer(self, tmp_path):
        g = make_grid(2, 8)
        tg = TimeGrid.dyadic(0.3, levels=2, steps_per_level=2)
        d = 2
        values = np.stack([
            np.stack([_awkward_field(g, seed=10 * k + i) for i in range(d)])
            for k in range(len(tg))
        ])
        traj = Trajectory(g, tg, values, metadata={"kind": "test"})
        out = traj.save(tmp_path / "run")
        for k, t in enumerate(tg.times):
            for i in range(d):
                name = f"state_t{k:05d}_s{i}.txt"
                _write_snapshot_per_row(values[k, i], g, float(t), tmp_path / "ref.txt")
                assert (out / name).read_bytes() == (tmp_path / "ref.txt").read_bytes(), name
        assert len(list(out.glob("state_t*.txt"))) == len(tg) * d
        back = Trajectory.load(out)
        assert back.values.tobytes() == traj.values.tobytes()
        assert back.content_hash() == traj.content_hash()

    @pytest.mark.parametrize("n,N", [(1, 16), (2, 8)])
    def test_round_trip(self, tmp_path, n, N):
        g = make_grid(n, N)
        f = _rng(9).standard_normal(g.shape)
        path = tmp_path / "snap.txt"
        write_snapshot(f, g, 0.375, path)
        back, back_grid, t = read_snapshot(path)
        assert t == 0.375
        assert back_grid == g
        assert_allclose(back, f, rtol=0, atol=0)

    def test_header_format(self, tmp_path):
        g = make_grid(1, 8)
        path = tmp_path / "snap.txt"
        write_snapshot(np.ones(g.shape), g, 0.5, path)
        header = path.read_text().splitlines()[0].split()
        assert header == ["#", "1", "8", "0.5"]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nonsense\n")
        with pytest.raises(ValueError, match="header"):
            read_snapshot(path)

    @staticmethod
    def _written(tmp_path, n):
        g = make_grid(n, 16 if n == 1 else 8)
        path = tmp_path / "snap.txt"
        write_snapshot(_awkward_field(g), g, 0.25, path)
        return path, path.read_text().splitlines(keepends=True)

    @pytest.mark.parametrize("n", [1, 2])
    def test_truncated_body_rejected(self, tmp_path, n):
        path, lines = self._written(tmp_path, n)
        for body in (lines[1:-1], lines[1:-1] + [lines[-1].rsplit(" ", 1)[0] + "\n"], []):
            path.write_text(lines[0] + "".join(body))
            with pytest.raises(ValueError, match=f"snapshot {re.escape(str(path))} holds"):
                read_snapshot(path)

    @pytest.mark.parametrize("n", [1, 2])
    def test_extra_column_rejected(self, tmp_path, n):
        path, lines = self._written(tmp_path, n)
        path.write_text(lines[0] + "".join(line[:-1] + " 0\n" for line in lines[1:]))
        with pytest.raises(ValueError, match=f"snapshot {re.escape(str(path))} holds"):
            read_snapshot(path)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("token", ["abc", "0x1p3", "1,5", "nan", "inf", "-Infinity"])
    def test_non_numeric_value_rejected(self, tmp_path, n, token):
        path, lines = self._written(tmp_path, n)
        row = lines[5].split()
        lines[5] = " ".join(row[:-1] + [token]) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=f"bad value in snapshot {re.escape(str(path))}"):
            read_snapshot(path)

    def test_reads_back_what_loadtxt_reads(self, tmp_path):
        # the value column alone is converted, to the same floats np.loadtxt gives
        for n, N in ((1, 16), (2, 8)):
            g = make_grid(n, N)
            write_snapshot(_awkward_field(g), g, 0.5, tmp_path / "snap.txt")
            want = np.loadtxt(tmp_path / "snap.txt", ndmin=2)[:, -1]
            assert read_snapshot(tmp_path / "snap.txt")[0].ravel().tobytes() == want.tobytes()


def _trajectory(g, count: int, d: int = 2) -> Trajectory:
    values = np.stack([
        np.stack([_awkward_field(g, seed=10 * k + i) for i in range(d)])
        for k in range(count)
    ])
    return Trajectory(g, TimeGrid(np.linspace(0.0, 0.5, count)), values, metadata={"kind": "test"})


@pytest.fixture
def node_log(monkeypatch, tmp_path):
    """Log every call of trajectory._write_nodes and _read_nodes with the
    process that made it; the returned function gives the calls so far as
    (name, made by this process, first node, end node), sorted, as the two
    processes append in either order."""
    log = tmp_path / "nodes.log"
    for name, nodes_arg in (("_write_nodes", -1), ("_read_nodes", -2)):
        def spy(*args, _real=getattr(trajectory, name), _name=name, _at=nodes_arg):
            with open(log, "a") as fh:
                fh.write(f"{_name} {os.getpid()} {args[_at].start} {args[_at].stop}\n")
            return _real(*args)

        monkeypatch.setattr(trajectory, name, spy)

    def calls():
        if not log.exists():
            return []
        rows = [line.split() for line in log.read_text().splitlines()]
        return sorted((name, int(pid) == os.getpid(), int(a), int(b)) for name, pid, a, b in rows)

    return calls


def _split_calls(count: int) -> list:
    mid = count // 2
    return sorted((name, here, a, b) for name in ("_write_nodes", "_read_nodes")
                  for here, a, b in ((True, 0, mid), (False, mid, count)))


def _serial_calls(count: int) -> list:
    return sorted([("_write_nodes", True, 0, count), ("_read_nodes", True, 0, count)])


@pytest.fixture
def forking(monkeypatch):
    """Split every save and load, whatever its size and the host's cores."""
    monkeypatch.setattr(trajectory, "SPLIT_BYTES", 0)
    monkeypatch.setattr(trajectory, "_usable_cores", lambda: 2)


def _files(directory) -> dict:
    return {f.name: f.read_bytes() for f in sorted(directory.iterdir())}


class TestSplitSaveLoad:
    """From SPLIT_BYTES on a forked child writes and reads the
    second half of the nodes; files, values and errors must not depend on
    the path."""

    def test_above_threshold_files_equal_per_row_writer(self, tmp_path, monkeypatch, node_log):
        monkeypatch.setattr(trajectory, "_usable_cores", lambda: 2)
        g = make_grid(2, 64)
        count = -(-trajectory.SPLIT_BYTES // (2 * g.num_nodes * 8))
        traj = _trajectory(g, count)
        assert traj.values.nbytes >= trajectory.SPLIT_BYTES
        out = traj.save(tmp_path / "run")
        back = Trajectory.load(out)
        assert node_log() == _split_calls(count)
        for k, t in enumerate(traj.tg.times):
            for i in range(traj.d):
                name = f"state_t{k:05d}_s{i}.txt"
                _write_snapshot_per_row(traj.values[k, i], g, float(t), tmp_path / "ref.txt")
                assert (out / name).read_bytes() == (tmp_path / "ref.txt").read_bytes(), name
        assert len(list(out.glob("state_t*.txt"))) == count * traj.d
        assert back.values.tobytes() == traj.values.tobytes()
        assert back.content_hash() == traj.content_hash()

    def test_small_trajectories_stay_serial(self, tmp_path, monkeypatch, node_log):
        monkeypatch.setattr(trajectory, "_usable_cores", lambda: 2)
        traj = _trajectory(make_grid(2, 8), 5)
        assert traj.values.nbytes < trajectory.SPLIT_BYTES
        Trajectory.load(traj.save(tmp_path / "run"))
        assert node_log() == _serial_calls(5)

    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_fork_only_on_two_or_more_cores(self, tmp_path, monkeypatch, forking, node_log, no_child_left,
                                            cores):
        monkeypatch.setattr(trajectory, "_usable_cores", lambda: cores)
        traj = _trajectory(make_grid(1, 16), 7)
        back = Trajectory.load(traj.save(tmp_path / "run"))
        assert node_log() == (_serial_calls(7) if cores < 2 else _split_calls(7))
        assert back.values.tobytes() == traj.values.tobytes()
        no_child_left()

    @pytest.mark.parametrize("fallback", ["one usable core", "second thread", "no os.fork"])
    def test_serial_fallback_gives_the_same_files_and_values(self, tmp_path, monkeypatch, forking,
                                                             node_log, fallback):
        traj = _trajectory(make_grid(2, 8), 7)
        split_dir = traj.save(tmp_path / "split")
        split_back = Trajectory.load(split_dir)
        assert node_log() == _split_calls(7)

        def serial():
            return Trajectory.load(traj.save(tmp_path / "serial"))

        if fallback != "second thread":
            if fallback == "one usable core":
                monkeypatch.setattr(trajectory, "_usable_cores", lambda: 1)
            else:
                monkeypatch.delattr(os, "fork")
            serial_back = serial()
        else:
            result = []
            thread = threading.Thread(target=lambda: result.append(serial()))
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()
            serial_back, = result
        assert node_log() == sorted(_split_calls(7) + _serial_calls(7))
        assert _files(tmp_path / "serial") == _files(split_dir)
        for back in (split_back, serial_back):
            assert back.values.tobytes() == traj.values.tobytes()
            assert back.metadata == traj.metadata and back.grid == traj.grid

    def test_no_fork_to_be_had_runs_both_halves_here(self, tmp_path, monkeypatch, forking, node_log):
        def refuse():
            raise BlockingIOError("no process")

        monkeypatch.setattr(os, "fork", refuse)
        traj = _trajectory(make_grid(2, 8), 7)
        back = Trajectory.load(traj.save(tmp_path / "run"))
        assert back.values.tobytes() == traj.values.tobytes()
        mid = 7 // 2
        assert node_log() == sorted((name, True, a, b) for name in ("_write_nodes", "_read_nodes")
                                    for a, b in ((0, mid), (mid, 7)))

    @pytest.mark.parametrize("death", ["os._exit(3)", "SIGKILL"])
    def test_child_dying_without_raising_has_its_half_redone_here(self, tmp_path, monkeypatch, forking,
                                                                  node_log, capfd, no_child_left, death):
        traj = _trajectory(make_grid(2, 8), 7)
        out = traj.save(tmp_path / "run")
        parent, real = os.getpid(), trajectory._read_nodes

        def read_or_die(*args):
            if os.getpid() != parent:
                if death == "SIGKILL":
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(3)
            return real(*args)

        monkeypatch.setattr(trajectory, "_read_nodes", read_or_die)
        capfd.readouterr()
        back = Trajectory.load(out)
        assert back.values.tobytes() == traj.values.tobytes()
        # the child died before it read a node: its half was read again here
        mid = 7 // 2
        assert node_log() == sorted([("_write_nodes", True, 0, mid), ("_write_nodes", False, mid, 7),
                                     ("_read_nodes", True, 0, mid), ("_read_nodes", True, mid, 7)])
        assert capfd.readouterr().err == ""
        no_child_left()

    @staticmethod
    def _serial_error(monkeypatch, call) -> pytest.ExceptionInfo:
        monkeypatch.setattr(trajectory, "_usable_cores", lambda: 1)
        with pytest.raises(Exception) as serial:
            call()
        monkeypatch.setattr(trajectory, "_usable_cores", lambda: 2)
        return serial

    # nodes 0-2 are the parent's half of 7, nodes 3-6 the child's
    @pytest.mark.parametrize("node", [1, 5])
    @pytest.mark.parametrize("fault", ["bad value", "nan value", "inf value", "1-D snapshot",
                                       "another node's time"])
    def test_bad_snapshot_raises_the_serial_error(self, tmp_path, monkeypatch, forking, capfd,
                                                  no_child_left, node, fault):
        traj = _trajectory(make_grid(2, 16), 7)
        out = traj.save(tmp_path / "run")
        path = out / f"state_t{node:05d}_s1.txt"
        if fault.endswith("value"):
            lines = path.read_text().splitlines(keepends=True)
            token = {"bad value": "abc", "nan value": "nan", "inf value": "inf"}[fault]
            lines[5] = lines[5].rsplit(" ", 1)[0] + f" {token}\n"
            path.write_text("".join(lines))
        elif fault == "1-D snapshot":
            write_snapshot(np.ones(16), make_grid(1, 16), float(traj.tg.times[node]), path)
        else:
            shutil.copyfile(out / f"state_t{2 if node == 1 else 1:05d}_s1.txt", path)
        capfd.readouterr()
        serial = self._serial_error(monkeypatch, lambda: Trajectory.load(out))
        assert serial.type is ValueError and str(path) in str(serial.value)
        if fault in ("nan value", "inf value"):
            assert "finite" in str(serial.value)
        with pytest.raises(ValueError) as split:
            Trajectory.load(out)
        assert str(split.value) == str(serial.value)
        assert capfd.readouterr().err == ""
        no_child_left()

    @pytest.mark.parametrize("node", [1, 5])
    def test_failed_write_raises_the_serial_error(self, tmp_path, monkeypatch, forking, capfd,
                                                  no_child_left, node):
        traj = _trajectory(make_grid(2, 8), 7)
        blocked = tmp_path / "run" / f"state_t{node:05d}_s0.txt"
        blocked.mkdir(parents=True)
        serial = self._serial_error(monkeypatch, lambda: traj.save(tmp_path / "run"))
        with pytest.raises(serial.type) as split:
            traj.save(tmp_path / "run")
        assert str(split.value) == str(serial.value) and str(blocked) in str(split.value)
        assert capfd.readouterr().err == ""
        no_child_left()


class TestLoadChecksHeaders:
    """Each snapshot's header must give the manifest's n, N and time."""

    @pytest.fixture
    def saved(self, tmp_path):
        return _trajectory(make_grid(2, 16), 5).save(tmp_path / "run")

    def test_1d_snapshot_in_2d_run_rejected(self, saved):
        path = saved / "state_t00002_s0.txt"
        write_snapshot(np.arange(16.0), make_grid(1, 16), 0.25, path)
        with pytest.raises(ValueError, match=f"snapshot {re.escape(str(path))} holds n=1 N=16 t=0.25; "
                                             "the manifest gives n=2 N=16 t=0.25"):
            Trajectory.load(saved)

    def test_other_N_rejected(self, saved):
        path = saved / "state_t00002_s0.txt"
        write_snapshot(np.zeros((8, 8)), make_grid(2, 8), 0.25, path)
        with pytest.raises(ValueError, match="holds n=2 N=8 t=0.25; the manifest gives n=2 N=16"):
            Trajectory.load(saved)

    def test_copy_of_another_node_rejected(self, saved):
        path = saved / "state_t00003_s1.txt"
        shutil.copyfile(saved / "state_t00001_s1.txt", path)
        with pytest.raises(ValueError, match=f"snapshot {re.escape(str(path))} holds n=2 N=16 t=0.125; "
                                             "the manifest gives n=2 N=16 t=0.375"):
            Trajectory.load(saved)

    def test_time_compared_bit_for_bit(self, saved):
        path = saved / "state_t00001_s0.txt"
        lines = path.read_text().splitlines(keepends=True)
        near = float(np.nextafter(0.125, 1.0))
        path.write_text(f"# 2 16 {near:.17g}\n" + "".join(lines[1:]))
        with pytest.raises(ValueError, match=re.escape(f"t={near!r}; the manifest gives n=2 N=16 t=0.125")):
            Trajectory.load(saved)
