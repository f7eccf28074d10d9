import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from crossdiff.fields import (
    ScalarField,
    SpeciesVector,
    dealias_keep_mask,
    from_coeffs,
    laplacian_symbol,
    make_grid,
    random_band_limited,
    read_snapshot,
    spectral_divergence,
    spectral_gradient,
    to_coeffs,
    write_snapshot,
)
from crossdiff.model import ReducedModel, flux

GRID_MATRIX = [(1, 8), (1, 64), (1, 128), (2, 8), (2, 32)]


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestGrid:
    def test_make_grid_1d(self):
        g = make_grid(1, 128)
        assert g.num_nodes == 128
        assert g.spacing == 1 / 128

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


class TestDifferentiation:
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
        lap = from_coeffs(spectral_divergence(spectral_gradient(f.values, g), g), g)
        expect = from_coeffs(laplacian_symbol(g) * to_coeffs(f.values, g), g)
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
        f = random_band_limited(g, rng, 12).values
        G = random_band_limited(g, rng, 12).values
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
        once = flux(0.2 + 0.1 * _rng(6).standard_normal((2,) + g.shape), g, model)
        fhat = to_coeffs(once, g)
        fhat[..., ~dealias_keep_mask(g)] = 0.0
        assert_allclose(from_coeffs(fhat, g), once, atol=1e-14)

    def test_keep_mask_2d(self):
        g = make_grid(2, 16)
        keep = dealias_keep_mask(g)
        assert keep[0, 0]
        assert not keep[0, g.N // 2]
        assert not keep[g.N // 2, 0]


class TestScalarField:
    def test_non_finite_rejected(self):
        g = make_grid(1, 16)
        values = np.ones(16)
        values[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ScalarField(g, values)

    def test_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            ScalarField(make_grid(1, 16), np.ones(8))


class TestSpeciesVector:
    def test_common_grid_required(self):
        a = ScalarField.constant(make_grid(1, 16), 1.0)
        b = ScalarField.constant(make_grid(1, 32), 1.0)
        with pytest.raises(ValueError, match="share one grid"):
            SpeciesVector((a, b))

    def test_stack_and_total(self):
        g = make_grid(1, 16)
        sv = SpeciesVector.from_array(g, np.stack([np.ones(16), 2 * np.ones(16)]))
        assert sv.d == 2
        assert sv.stack().shape == (2, 16)
        assert_allclose(sv.total().values, 3.0)


class TestRandomBandLimited:
    def test_resolution_independent(self):
        # same seed: the N=64 field is the N=128 field sampled on coarser nodes
        coarse = random_band_limited(make_grid(1, 64), _rng(42), 8)
        fine = random_band_limited(make_grid(1, 128), _rng(42), 8)
        assert np.max(np.abs(fine.values[::2] - coarse.values)) < 1e-12

    def test_resolution_independent_2d(self):
        coarse = random_band_limited(make_grid(2, 16), _rng(42), 4)
        fine = random_band_limited(make_grid(2, 32), _rng(42), 4)
        assert np.max(np.abs(fine.values[::2, ::2] - coarse.values)) < 1e-12

    def test_declared_spectrum_2d(self):
        # the nodal field carries exactly the drawn coefficients
        g = make_grid(2, 16)
        f = random_band_limited(g, _rng(3), 3, amplitude=1.0)
        coeffs = to_coeffs(f.values, g)
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
        assert f.mean() == pytest.approx(0.7, abs=1e-13)

    def test_kmax_validated(self):
        with pytest.raises(ValueError, match="kmax"):
            random_band_limited(make_grid(1, 8), _rng(0), 4)


class TestSnapshots:
    @pytest.mark.parametrize("n,N", [(1, 16), (2, 8)])
    def test_round_trip(self, tmp_path, n, N):
        g = make_grid(n, N)
        f = ScalarField(g, _rng(9).standard_normal(g.shape))
        path = tmp_path / "snap.txt"
        write_snapshot(f, 0.375, path)
        back, t = read_snapshot(path)
        assert t == 0.375
        assert back.grid == g
        assert_allclose(back.values, f.values, rtol=0, atol=0)

    def test_header_format(self, tmp_path):
        g = make_grid(1, 8)
        path = tmp_path / "snap.txt"
        write_snapshot(ScalarField.constant(g, 1.0), 0.5, path)
        header = path.read_text().splitlines()[0].split()
        assert header == ["#", "1", "8", "0.5"]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nonsense\n")
        with pytest.raises(ValueError, match="header"):
            read_snapshot(path)
