import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from crossdiff import carleson, fields
from crossdiff.carleson import (
    CylinderLadder,
    CylinderSpec,
    decay_probe,
    default_exponent,
    enumerate_cylinders,
    gradient_flux,
    maximal_regularity_ratio,
    xp_norm,
    xp_seminorm,
    yp_norm,
)
from crossdiff.fields import (
    SpeciesVector,
    gradient_from_coeffs,
    index_blocks,
    make_grid,
    random_band_limited,
    spectral_divergence,
    to_coeffs,
)
from crossdiff.harness import ExperimentConfig, InitialDataSpec, generate_initial_data
from crossdiff.semigroup import (
    _duhamel_blocks,
    duhamel_solve,
    heat_flow_trajectory,
    heat_propagate,
    kernel_gradient_lp,
    kernel_scaling_report,
)
from crossdiff.trajectory import FluxTrajectory, TimeGrid, Trajectory, vector_magnitudes


def _scan_whole(grid, times, mags, p, ladder):
    """The cylinder scan fed the magnitudes of every time node it reads at once."""
    scan = carleson._CylinderScan(grid, times, p, ladder)
    scan.add(mags[scan.nodes])
    return scan.result()


def _scan_per_cylinder(grid, times, mags, p, cylinders):
    """The cylinder scan as one Python iteration per cylinder: the reference
    for the vectorised scan, which must return the same tuple exactly."""
    ordered = sorted(cylinders, key=lambda c: (c.radius, c.center))
    axes = tuple(range(1, 1 + grid.n))
    best, best_cyl = 0.0, None
    skipped = 0
    for radius, group in itertools.groupby(ordered, key=lambda c: c.radius):
        group = list(group)
        lo, hi = radius**2 / 2, radius**2
        eps = 1e-12 * hi
        sel = np.nonzero((times >= lo - eps) & (times <= hi + eps))[0]
        if sel.size == 0:
            skipped += len(group)
            continue
        w = carleson._trap_weights(times[sel])
        q = np.tensordot(w, mags[sel] ** p, axes=(0, 0))
        mask = carleson._ball_mask(grid, radius)
        count = int(mask.sum())
        mhat = np.fft.fftn(mask.astype(float))
        qhat = np.fft.fftn(q, axes=axes)
        avg = np.fft.ifftn(qhat * np.conj(mhat), axes=axes).real / count
        np.maximum(avg, 0.0, out=avg)
        vals = radius * avg ** (1.0 / p)
        for cyl in group:
            index = tuple(int(round(c * grid.N)) % grid.N for c in cyl.center)
            v = float(vals[(slice(None),) + index].max())
            if v > best:
                best, best_cyl = v, cyl
    if skipped:
        warnings.warn(f"skipped {skipped} cylinders with no stored time in their window")
        if skipped == len(ordered):
            raise ValueError("no cylinder window contains a stored time")
    return best, best_cyl, len(ordered) - skipped, skipped


def _expand(ladder):
    """The ladder as the list of cylinders it stands for, radius by radius with
    the centers in C order: the input of the per-cylinder reference scan."""
    steps = range(0, ladder.grid.N, ladder.stride)
    centers = list(itertools.product(steps, repeat=ladder.grid.n))
    return [CylinderSpec(tuple(i / ladder.grid.N for i in z), r) for r in ladder.radii for z in centers]


def _species(grid, *arrays):
    return SpeciesVector(grid, np.stack(arrays))


@pytest.fixture(scope="module")
def setup():
    grid = make_grid(1, 128)
    tg = TimeGrid.dyadic(1.0, levels=10, steps_per_level=8)
    cylinders = enumerate_cylinders(grid, tg)
    return grid, tg, cylinders


class TestEnumerateCylinders:
    def test_default_ladder(self, setup):
        grid, tg, ladder = setup
        radii = ladder.radii
        assert radii[0] == pytest.approx(math.sqrt(2 * tg.times[1]))
        assert radii[-1] == 0.5
        # two radii per octave
        assert radii[2] / radii[0] == pytest.approx(2.0, rel=1e-12)
        assert ladder.stride == grid.N // 16
        assert ladder.centers_per_radius == 16
        assert len({c.center for c in _expand(ladder)}) == 16

    def test_stride_full_gives_single_center(self):
        grid = make_grid(1, 64)
        tg = TimeGrid.dyadic(1.0, levels=6, steps_per_level=4)
        ladder = enumerate_cylinders(grid, tg, centers_stride=64)
        assert ladder.centers_per_radius == 1
        assert {c.center for c in _expand(ladder)} == {(0.0,)}

    def test_radius_capped_at_half(self):
        grid = make_grid(1, 64)
        tg = TimeGrid.dyadic(16.0, levels=8, steps_per_level=4)
        assert max(enumerate_cylinders(grid, tg).radii) == 0.5

    def test_unresolvable_grid_rejected(self):
        grid = make_grid(1, 64)
        tg = TimeGrid(np.array([0.0, 0.9, 1.0]))
        with pytest.raises(ValueError, match="ladder"):
            enumerate_cylinders(grid, tg)

    def test_window_definition(self):
        # the window of radius 0.2 is [0.2**2 / 2, 0.2**2] = [0.02, 0.04]
        times = (0.0, 0.01, 0.019, 0.02, 0.03, 0.04, 0.041, 0.05)
        (nodes, _), = carleson._cylinder_windows(times, (0.2,))
        assert times[nodes] == (0.02, 0.03, 0.04)


class TestCylinderLadder:
    @pytest.mark.parametrize("stride", [0, -1, 17])
    def test_stride_out_of_range_rejected(self, stride):
        grid = make_grid(2, 16)
        with pytest.raises(ValueError, match="centers_stride"):
            CylinderLadder(grid, (0.1, 0.2), stride)
        with pytest.raises(ValueError, match="centers_stride"):
            enumerate_cylinders(grid, TimeGrid.dyadic(1.0, 4, 4), centers_stride=stride)

    @pytest.mark.parametrize("radii", [(), (0.0, 0.1), (-0.1, 0.1), (0.2, 0.1), (0.1, 0.1)])
    def test_radii_positive_and_increasing(self, radii):
        with pytest.raises(ValueError, match="radii"):
            CylinderLadder(make_grid(1, 16), radii, 1)

    def test_frozen_and_sized(self):
        grid = make_grid(2, 16)
        ladder = CylinderLadder(grid, (0.1, 0.25, 0.5), 3)
        assert ladder.radii == (0.1, 0.25, 0.5)
        assert ladder.centers_per_radius == 6 * 6  # nodes 0, 3, ..., 15 on each axis
        assert len(ladder) == 3 * 36 == len(_expand(ladder))
        with pytest.raises(AttributeError):
            ladder.stride = 1

    def test_scan_on_other_grid_rejected(self):
        tg = TimeGrid.dyadic(1.0, levels=4, steps_per_level=4)
        ladder = enumerate_cylinders(make_grid(1, 64), tg)
        for grid in (make_grid(1, 32), make_grid(2, 64)):
            traj = Trajectory(grid, tg, np.zeros((len(tg), 1) + grid.shape))
            with pytest.raises(ValueError, match="ladder"):
                xp_seminorm(traj, 4.0, ladder)
            flux = FluxTrajectory(grid, tg, np.zeros((len(tg), 1, grid.n) + grid.shape))
            with pytest.raises(ValueError, match="ladder"):
                yp_norm(flux, 4.0, ladder)


class TestSeminorms:
    def test_constant_in_space_is_zero(self, setup):
        grid, tg, cylinders = setup
        vals = np.tile(np.exp(-tg.times)[:, None, None], (1, 2, grid.N))
        traj = Trajectory(grid, tg, vals)
        rep = xp_seminorm(traj, cylinders=cylinders)
        assert rep.seminorm == 0.0

    def test_single_mode_vs_dense_quadrature_oracle(self, setup):
        grid, tg, cylinders = setup
        x = grid.axes()[0]
        p = 4.0
        vals = np.exp(-4 * math.pi**2 * tg.times)[:, None, None] * np.sin(2 * math.pi * x)
        traj = Trajectory(grid, tg, vals)
        got = xp_seminorm(traj, p, cylinders).seminorm

        # oracle: same cylinder set, but continuum averages of
        # |grad w|^p = (2 pi)^p exp(-4 pi^2 p t) |cos(2 pi x)|^p
        lam = 4 * math.pi**2 * p
        xs = np.linspace(0.0, 1.0, 200001)
        best = 0.0
        for cyl in _expand(cylinders):
            lo, hi = cyl.radius**2 / 2, cyl.radius**2
            t_avg = (math.exp(-lam * lo) - math.exp(-lam * hi)) / (lam * (hi - lo))
            dist = np.abs(xs - cyl.center[0])
            dist = np.minimum(dist, 1.0 - dist)
            inside = dist <= cyl.radius
            x_avg = float(np.mean(np.abs(2 * math.pi * np.cos(2 * math.pi * xs[inside])) ** p))
            best = max(best, cyl.radius * (t_avg * x_avg) ** (1 / p))
        assert got == pytest.approx(best, rel=0.01)

    def test_transform_budget(self, transform_bytes):
        # in nodes' worth of the trajectory, on the default time grid: each
        # node the cylinders read (R = 72 of T = 89) forward once and back n
        # times for its gradient, and no other node
        grid, tg = make_grid(2, 16), TimeGrid.dyadic(1.0, levels=10, steps_per_level=8)
        rng = np.random.default_rng(8)
        traj = heat_flow_trajectory(_species(grid, *(random_band_limited(grid, rng, 3)
                                                     for _ in range(3))), tg)
        transform_bytes.clear()
        xp_seminorm(traj, 4.0, enumerate_cylinders(grid, tg))
        assert sum(transform_bytes) <= (1 + grid.n) * 72 * traj.values[0].nbytes

    @pytest.mark.parametrize("node", [0, -1])
    def test_nan_at_an_unread_node_rejected(self, node):
        # node 0 and, on the default time grid, the last node lie in no window
        grid, tg = make_grid(1, 64), TimeGrid.dyadic(1.0, levels=10, steps_per_level=8)
        traj = heat_flow_trajectory(_species(grid, random_band_limited(
            grid, np.random.default_rng(4), 3)), tg)
        ladder = enumerate_cylinders(grid, tg)
        assert carleson._CylinderScan(grid, tg.times, 4.0, ladder).part(
            slice(node % len(tg), node % len(tg) + 1)) is None
        traj.values[node, 0, 5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            xp_seminorm(traj, 4.0, ladder)

    def test_heat_flow_seminorm_bounded_and_grid_stable(self):
        tg = TimeGrid.dyadic(1.0, levels=8, steps_per_level=6)
        values = {}
        for N in (64, 128):
            grid = make_grid(1, N)
            h = _species(grid, random_band_limited(grid, np.random.default_rng(12), 6))
            traj = heat_flow_trajectory(h, tg)
            cyl = enumerate_cylinders(grid, tg)
            values[N] = xp_seminorm(traj, cylinders=cyl).seminorm / h.sup_norm()
        assert values[128] == pytest.approx(values[64], rel=0.2)

    def test_zero_flux(self, setup):
        grid, tg, cylinders = setup
        flux = FluxTrajectory(grid, tg, np.zeros((len(tg), 1, 1, grid.N)))
        assert yp_norm(flux, cylinders=cylinders).seminorm == 0.0

    def test_constant_flux_value(self, setup):
        # R * (average of |c|^p)^(1/p) = R |c|; the ladder tops out at R = 1/2
        grid, tg, cylinders = setup
        c = 3.0
        flux = FluxTrajectory(grid, tg, np.full((len(tg), 1, 1, grid.N), c))
        rep = yp_norm(flux, 4.0, cylinders)
        assert rep.seminorm == pytest.approx(0.5 * c, rel=1e-12)
        assert rep.attaining.radius == 0.5

    def test_jensen_monotonicity(self, setup):
        grid, tg, cylinders = setup
        rng = np.random.default_rng(3)
        flux = FluxTrajectory(grid, tg, rng.standard_normal((len(tg), 2, 1, grid.N)))
        y1 = yp_norm(flux, 1.0, cylinders).seminorm
        y4 = yp_norm(flux, 4.0, cylinders).seminorm
        assert y1 <= y4 + 1e-12

    def test_gradient_flux_identity_exact(self, setup):
        grid, tg, cylinders = setup
        h = _species(grid, random_band_limited(grid, np.random.default_rng(4), 8))
        traj = heat_flow_trajectory(h, tg)
        semi = xp_seminorm(traj, 4.0, cylinders).seminorm
        asflux = yp_norm(gradient_flux(traj), 4.0, cylinders).seminorm
        assert semi == asflux  # bit-identical by construction

    def test_triangle_and_homogeneity(self, setup):
        grid, tg, cylinders = setup
        rng = np.random.default_rng(5)
        for _ in range(3):
            u = heat_flow_trajectory(
                _species(grid, random_band_limited(grid, rng, 8)), tg)
            v = heat_flow_trajectory(
                _species(grid, random_band_limited(grid, rng, 8)), tg)
            s = Trajectory(grid, tg, u.values + v.values)
            nu, nv, ns = (xp_norm(t, 4.0, cylinders) for t in (u, v, s))
            assert ns <= nu + nv + 1e-10
            lam = float(rng.uniform(0.2, 2.0))
            scaled = xp_norm(Trajectory(grid, tg, lam * u.values), 4.0, cylinders)
            assert scaled == pytest.approx(lam * nu, abs=1e-10)

    def test_exponent_validation(self, setup):
        grid, tg, cylinders = setup
        traj = Trajectory(grid, tg, np.zeros((len(tg), 1, grid.N)))
        with pytest.raises(ValueError, match="p in"):
            xp_seminorm(traj, 1.0, cylinders)
        flux = FluxTrajectory(grid, tg, np.zeros((len(tg), 1, 1, grid.N)))
        with pytest.raises(ValueError, match="finite p"):
            yp_norm(flux, math.inf, cylinders)

    def test_all_windows_empty_rejected(self):
        grid = make_grid(1, 64)
        tg = TimeGrid.dyadic(1.0, levels=4, steps_per_level=4)
        traj = Trajectory(grid, tg, np.zeros((len(tg), 1, grid.N)))
        bad = CylinderLadder(grid, (1e-4,), grid.N)
        with pytest.raises(ValueError, match="no cylinder window"):
            with pytest.warns(UserWarning, match="skipped"):
                xp_seminorm(traj, 4.0, bad)

    def test_default_exponent(self):
        assert default_exponent(make_grid(1, 64)) == 4
        assert default_exponent(make_grid(2, 16)) == 5


class TestGradientMagnitudes:
    @pytest.mark.parametrize("n,N", [(1, 128), (2, 64)])
    @pytest.mark.parametrize("block_nodes", [None, 1, 3])
    def test_bit_equal_to_gradient_flux(self, n, N, block_nodes, monkeypatch):
        # the magnitudes xp_seminorm feeds its scan, in blocks of block_nodes
        # nodes (None: the default BLOCK_BYTES), are those of gradient_flux
        # at the nodes the cylinders read (1..9 of 13 here) bit for bit, and
        # those of numpy's complex FFT gradient within round-off
        grid = make_grid(n, N)
        tg = TimeGrid.dyadic(0.5, levels=3, steps_per_level=3)
        traj = Trajectory(grid, tg, np.random.default_rng(n).standard_normal((len(tg), 3) + grid.shape))
        fed, add = [], carleson._CylinderScan.add
        monkeypatch.setattr(carleson._CylinderScan, "add",
                            lambda scan, block: fed.append(block.copy()) or add(scan, block))
        if block_nodes is not None:
            monkeypatch.setattr(fields, "BLOCK_BYTES", block_nodes * traj.values[0].nbytes)
        xp_seminorm(traj, 4.0, enumerate_cylinders(grid, tg))
        read = slice(1, 10)
        if block_nodes is not None:
            assert [len(block) for block in fed] == [block_nodes] * (9 // block_nodes)
        mags = np.concatenate(fed)
        assert mags.tobytes() == vector_magnitudes(gradient_flux(traj).values)[read].tobytes()
        want = np.sqrt(np.sum(_fft_gradient(traj.values[read], grid) ** 2, axis=2))
        assert np.max(np.abs(mags - want)) <= 1e-13 * np.max(want)


def _fft_gradient(vals, grid):
    """Gradient of nodal fields on the unit torus from numpy's complex FFT
    alone: the multiplier 2*pi*i*k per axis, Nyquist mode zeroed.
    Shapes: (..., *grid.shape) -> (..., n, *grid.shape)."""
    axes = tuple(range(-grid.n, 0))
    hat = np.fft.fftn(vals, axes=axes)
    k = np.fft.fftfreq(grid.N, d=1.0 / grid.N)
    k[grid.N // 2] = 0.0
    comps = [np.fft.ifftn(2j * np.pi * k.reshape((-1,) + (1,) * (grid.n - 1 - m)) * hat, axes=axes).real
             for m in range(grid.n)]
    return np.stack(comps, axis=-1 - grid.n)


class TestGradientFlux:
    @pytest.mark.parametrize("n,N", [(1, 128), (2, 64)])
    def test_matches_numpy_fft_gradient(self, n, N):
        grid = make_grid(n, N)
        tg = TimeGrid.dyadic(0.5, levels=3, steps_per_level=3)
        vals = np.random.default_rng(n).standard_normal((len(tg), 3) + grid.shape)
        want = _fft_gradient(vals, grid)
        got = gradient_flux(Trajectory(grid, tg, vals)).values
        assert got.shape == want.shape
        # the two transforms round differently; they read <= 4.2e-16 apart, relative
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _magnitudes(kind, tg, ladder, d=3):
    """(n_times, d, *shape) magnitudes of one of five kinds on the ladder's grid."""
    grid = ladder.grid
    shape = (len(tg), d) + grid.shape
    if kind == "random":
        return np.random.default_rng(11 + grid.n).random(shape)
    if kind == "constant":  # exact ties between species and between centers
        return np.full(shape, 0.75)
    mags = np.zeros(shape)
    if kind == "spike":
        mags[(len(tg) // 2, 1) + (grid.N // 4,) * grid.n] = 3.0
    elif kind == "nan":
        mags = np.random.default_rng(9).random(shape)
        r_max = ladder.radii[-1]
        k = np.nonzero(tg.times > r_max**2 / 2)[0][0]  # inside the largest window
        mags[(k, 2) + (0,) * grid.n] = np.nan
    return mags


class TestScanMatchesPerCylinderLoop:
    @staticmethod
    def _case(n, N, stride=None, d=3):
        grid = make_grid(n, N)
        tg = TimeGrid.dyadic(1.0, levels=6, steps_per_level=4)
        return grid, tg, enumerate_cylinders(grid, tg, centers_stride=stride), (len(tg), d) + grid.shape

    @staticmethod
    def _assert_same(grid, tg, mags, p, ladder):
        ref = _scan_per_cylinder(grid, tg.times, mags, p, _expand(ladder))
        assert _scan_whole(grid, tg.times, mags, p, ladder) == ref
        return ref

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 16)])
    @pytest.mark.parametrize("p", [2.5, 5.0])
    def test_random_magnitudes(self, n, N, p):
        grid, tg, ladder, _ = self._case(n, N)
        mags = _magnitudes("random", tg, ladder)
        best, cyl, scanned, skipped = self._assert_same(grid, tg, mags, p, ladder)
        assert best > 0.0 and cyl in _expand(ladder)
        assert (scanned, skipped) == (len(ladder), 0)

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 16)])
    def test_constant_magnitudes_all_ties(self, n, N):
        # every species and every center equal: exact ties
        grid, tg, ladder, _ = self._case(n, N)
        mags = _magnitudes("constant", tg, ladder)
        best, cyl, _, _ = self._assert_same(grid, tg, mags, 4.0, ladder)
        # R * (average)^(1/p) grows with R, so the largest ball attains,
        # at the first center
        assert cyl == CylinderSpec((0.0,) * n, ladder.radii[-1])

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 16)])
    def test_single_spike(self, n, N):
        grid, tg, ladder, _ = self._case(n, N)
        mags = _magnitudes("spike", tg, ladder)
        best, cyl, _, _ = self._assert_same(grid, tg, mags, 4.0, ladder)
        assert best > 0.0

    def test_nan_cylinders_never_attain(self):
        # a NaN spreads over every center of the radii whose window holds it
        grid, tg, ladder, shape = self._case(2, 16)
        mags = np.random.default_rng(9).random(shape)
        r_max = ladder.radii[-1]
        assert self._assert_same(grid, tg, mags, 4.0, ladder)[1].radius == r_max
        k = np.nonzero(tg.times > r_max**2 / 2)[0][0]  # inside the largest window
        mags[k, 2, 0, 0] = np.nan
        best, cyl, _, _ = self._assert_same(grid, tg, mags, 4.0, ladder)
        assert math.isfinite(best) and cyl.radius < r_max

    def test_zero_magnitudes_attain_nothing(self):
        grid, tg, ladder, shape = self._case(2, 16)
        ref = self._assert_same(grid, tg, np.zeros(shape), 4.0, ladder)
        assert ref[:2] == (0.0, None)

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 16)])
    def test_partly_empty_windows_warn(self, n, N):
        grid, tg, ladder, shape = self._case(n, N)
        mags = np.random.default_rng(5).random(shape)
        # radii whose windows end before the first positive time
        tiny = CylinderLadder(grid, (1e-4, 2e-4) + ladder.radii, ladder.stride)
        skipped = 2 * ladder.centers_per_radius
        with pytest.warns(UserWarning, match=f"skipped {skipped} cylinders"):
            ref = self._assert_same(grid, tg, mags, 4.0, tiny)
        assert ref[2:] == (len(ladder), skipped)

    # the tests above scan the default stride
    @pytest.mark.parametrize("n,N", [(1, 64), (2, 16)])
    @pytest.mark.parametrize("stride", [1, 3, "N/2", "N"])
    @pytest.mark.parametrize("kind", ["random", "constant", "spike", "nan", "zero"])
    def test_every_stride(self, n, N, stride, kind):
        stride = {"N/2": N // 2, "N": N}.get(stride, stride)
        grid, tg, ladder, _ = self._case(n, N, stride)
        mags = _magnitudes(kind, tg, ladder)
        best, cyl, scanned, skipped = self._assert_same(grid, tg, mags, 4.0, ladder)
        assert (scanned, skipped) == (len(ladder), 0)
        assert (cyl is None) == (kind == "zero")

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 16)])
    @pytest.mark.parametrize("stride", [1, 3, "N/2", "N"])
    def test_every_stride_empty_windows(self, n, N, stride):
        stride = {"N/2": N // 2, "N": N}.get(stride, stride)
        grid, tg, ladder, _ = self._case(n, N, stride)
        mags = _magnitudes("random", tg, ladder)
        partly = CylinderLadder(grid, (1e-4, 2e-4) + ladder.radii, ladder.stride)
        with pytest.warns(UserWarning, match=f"skipped {2 * ladder.centers_per_radius} cylinders"):
            self._assert_same(grid, tg, mags, 4.0, partly)
        empty = CylinderLadder(grid, (1e-4, 2e-4), ladder.stride)
        for scan in (_scan_per_cylinder, _scan_whole):
            cylinders = _expand(empty) if scan is _scan_per_cylinder else empty
            with pytest.raises(ValueError, match="no cylinder window"):
                with pytest.warns(UserWarning, match="skipped"):
                    scan(grid, tg.times, mags, 4.0, cylinders)

    def test_ball_spectra_cached_and_read_only(self):
        grid = make_grid(2, 16)
        radii = (0.1, 0.25, 0.5)
        counts, spec = carleson._ball_spectra(grid, radii)
        assert carleson._ball_spectra(make_grid(2, 16), radii)[1] is spec
        for r, count, row in zip(radii, counts, spec):
            mask = carleson._ball_mask(grid, r)
            assert count == int(mask.sum())
            assert row.tobytes() == np.conj(np.fft.fftn(mask.astype(float))).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            spec[0, 0, 0] = 0.0


class TestScanBlocksAndWindows:
    """The scan takes the radii in index_blocks of spectra and reads each
    radius's time window from one cached table."""

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 16)])
    @pytest.mark.parametrize("kind", ["random", "constant", "spike", "nan", "zero"])
    def test_one_radius_per_block(self, n, N, kind, monkeypatch):
        grid = make_grid(n, N)
        tg = TimeGrid.dyadic(1.0, levels=6, steps_per_level=4)
        ladder = enumerate_cylinders(grid, tg)
        mags = _magnitudes(kind, tg, ladder)
        ref = _scan_per_cylinder(grid, tg.times, mags, 4.0, _expand(ladder))
        monkeypatch.setattr(fields, "BLOCK_BYTES", 1)
        assert _scan_whole(grid, tg.times, mags, 4.0, ladder) == ref

    def test_several_blocks_at_2d_n64(self):
        # one radius of 3 species per block of spectra
        grid = make_grid(2, 64)
        tg = TimeGrid.dyadic(1.0, levels=6, steps_per_level=4)
        ladder = enumerate_cylinders(grid, tg)
        assert 2 * 3 * grid.num_nodes * 8 * len(ladder.radii) > fields.BLOCK_BYTES
        mags = _magnitudes("random", tg, ladder)
        ref = _scan_per_cylinder(grid, tg.times, mags, 5.0, _expand(ladder))
        assert _scan_whole(grid, tg.times, mags, 5.0, ladder) == ref

    def test_window_table_cached_and_read_only(self, setup):
        grid, tg, ladder = setup
        key = (tuple(tg.times.tolist()), ladder.radii)
        windows = carleson._cylinder_windows(*key)
        assert carleson._cylinder_windows(*key) is windows
        for radius, (nodes, w) in zip(ladder.radii, windows):
            lo, hi = radius**2 / 2.0, radius**2
            eps = 1e-12 * hi
            sel = np.nonzero((tg.times >= lo - eps) & (tg.times <= hi + eps))[0]
            assert np.array_equal(np.arange(len(tg))[nodes], sel)
            assert np.array_equal(w, carleson._trap_weights(tg.times[sel])[None])
            with pytest.raises(ValueError, match="read-only"):
                w[0, 0] = 1.0

    def test_scans_share_the_window_table(self, setup):
        grid, tg, ladder = setup
        mags = np.random.default_rng(4).random((len(tg), 2) + grid.shape)
        carleson._cylinder_windows.cache_clear()
        _scan_whole(grid, tg.times, mags, 4.0, ladder)
        _scan_whole(grid, tg.times, 2.0 * mags, 4.0, ladder)
        info = carleson._cylinder_windows.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestTieBetweenRadii:
    @pytest.mark.parametrize("n", [1, 2])
    def test_smallest_radius_wins_an_exact_tie(self, n):
        # magnitudes constant in space, 2 in the window of R = 1/4 and 1 in
        # that of R = 1/2: with p = 4 both radii give R * (avg of mags^4)^(1/4)
        # = 1/2 exactly (spatially constant averages are exact, and each
        # window holds one node of weight 1)
        grid = make_grid(n, 16)
        times = np.array([0.0, 0.0625, 0.25])
        ladder = CylinderLadder(grid, (0.25, 0.5), 4)
        mags = np.zeros((3, 2) + grid.shape)
        mags[1], mags[2] = 2.0, 1.0
        best, cyl, scanned, skipped = _scan_whole(grid, times, mags, 4.0, ladder)
        assert best == 0.5
        assert cyl == CylinderSpec((0.0,) * n, 0.25)
        assert (scanned, skipped) == (len(ladder), 0)


def _fed_in_blocks(grid, times, mags, p, ladder, nodes):
    """The streaming scan fed the time nodes it reads `nodes` at a time
    (None: all at once)."""
    scan = carleson._CylinderScan(grid, times, p, ladder)
    read = mags[scan.nodes]
    for start in range(0, len(read), nodes or len(read)):
        scan.add(read[start:start + (nodes or len(read))])
    return scan.result()


class TestStreamingScan:
    """The scan fed blocks of time nodes returns the tuple of the scan fed
    every node at once, bit for bit, however the blocks fall across the
    windows."""

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 16), (2, 64)])
    @pytest.mark.parametrize("p", [2.5, 4.0, 5.0])
    @pytest.mark.parametrize("nodes", [1, 3, None])
    def test_blocks_equal_one_block(self, n, N, p, nodes):
        grid = make_grid(n, N)
        tg = TimeGrid.dyadic(1.0, levels=6, steps_per_level=4)
        ladder = enumerate_cylinders(grid, tg)
        windows = carleson._cylinder_windows(tuple(tg.times.tolist()), ladder.radii)
        # blocks of 3 nodes split windows
        assert any(win[0].start // 3 != (win[0].stop - 1) // 3 for win in windows)
        mags = _magnitudes("random", tg, ladder)
        ref = _scan_whole(grid, tg.times, mags, p, ladder)
        assert _fed_in_blocks(grid, tg.times, mags, p, ladder, nodes) == ref

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 16)])
    @pytest.mark.parametrize("kind", ["constant", "spike", "nan"])
    @pytest.mark.parametrize("nodes", [1, 3])
    def test_blocks_with_skipped_radii(self, n, N, kind, nodes):
        grid = make_grid(n, N)
        tg = TimeGrid.dyadic(1.0, levels=6, steps_per_level=4)
        ladder = enumerate_cylinders(grid, tg)
        partly = CylinderLadder(grid, (1e-4, 2e-4) + ladder.radii, ladder.stride)
        mags = _magnitudes(kind, tg, ladder)
        with pytest.warns(UserWarning, match=f"skipped {2 * ladder.centers_per_radius}"):
            ref = _scan_whole(grid, tg.times, mags, 4.0, partly)
        with pytest.warns(UserWarning, match=f"skipped {2 * ladder.centers_per_radius}"):
            assert _fed_in_blocks(grid, tg.times, mags, 4.0, partly, nodes) == ref

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 32)])
    @pytest.mark.parametrize("kind", ["random", "constant", "nan"])
    def test_radius_runs_equal_one_run(self, n, N, kind, monkeypatch):
        # the radii finish in index_blocks runs as each run's last window
        # closes: runs of one radius (a budget of one item), of some (the
        # default at 2-D N=32) and of all (1 MiB, and the default at 1-D)
        grid = make_grid(n, N)
        tg = TimeGrid.dyadic(1.0, levels=10, steps_per_level=8)
        ladder = enumerate_cylinders(grid, tg)
        mags = _magnitudes(kind, tg, ladder)
        results, runs = [], set()
        for budget in (1, fields.BLOCK_BYTES, 1 << 20):
            monkeypatch.setattr(fields, "BLOCK_BYTES", budget)
            radii = range(len(ladder.radii))
            step = len(radii[fields.index_blocks(len(radii), 16 * mags[0].size)[0]])
            runs.add("one" if step == 1 else "all" if step == len(radii) else "some")
            scan = carleson._CylinderScan(grid, tg.times, 4.0, ladder)
            read = mags[scan.nodes]
            for b in fields.index_blocks(len(read), read[0].nbytes):
                scan.add(read[b])
            results.append(scan.result())
        assert runs == ({"one", "all"} if n == 1 else {"one", "some", "all"})
        assert results[1:] == results[:1] * 2

    def test_every_node_must_be_fed(self):
        grid = make_grid(1, 64)
        tg = TimeGrid.dyadic(1.0, levels=6, steps_per_level=4)
        ladder = enumerate_cylinders(grid, tg)
        mags = _magnitudes("random", tg, ladder)
        scan = carleson._CylinderScan(grid, tg.times, 4.0, ladder)
        count = scan.nodes.stop - scan.nodes.start
        scan.add(mags[scan.nodes][:-1])
        with pytest.raises(ValueError, match=f"fed {count - 1} of its {count} time nodes"):
            scan.result()
        # nor more: every node of the time grid is more than the scan reads
        scan = carleson._CylinderScan(grid, tg.times, 4.0, ladder)
        scan.add(mags)
        with pytest.raises(ValueError, match=f"fed {len(tg)} of its {count} time nodes"):
            scan.result()


class TestScanReadsItsWindows:
    """The scan reads the run of time nodes its live windows cover, and
    inverts the ball averages at the centers only."""

    @pytest.mark.parametrize("n,N", [(1, 128), (2, 64)])
    def test_nodes_are_the_union_of_the_windows(self, n, N):
        # on the default grid the windows run from t_1 (R_min^2 = 2 t_1) to
        # 1/4 (R = 1/2): nodes 1..72 of 89; node 0 and the 16 after 1/4 unread
        cfg = ExperimentConfig(n=n, N=N)
        grid, tg = cfg.grid(), cfg.time_grid()
        ladder = cfg.cylinders(grid, tg)
        scan = carleson._CylinderScan(grid, tg.times, 4.0, ladder)
        assert (len(tg), scan.nodes) == (89, slice(1, 73))
        assert tg.times[72] == 0.25
        windows = carleson._cylinder_windows(tuple(tg.times.tolist()), ladder.radii)
        read = set().union(*(range(len(tg))[win[0]] for win in windows))
        assert read == set(range(1, 73))

    def test_part_of_a_block(self, setup):
        grid, tg, ladder = setup
        scan = carleson._CylinderScan(grid, tg.times, 4.0, ladder)
        assert scan.nodes == slice(1, 73)
        assert scan.part(slice(0, 1)) is None
        assert scan.part(slice(73, 89)) is None
        assert scan.part(slice(0, 3)) == slice(1, 3)
        assert scan.part(slice(70, 80)) == slice(0, 3)
        # index_blocks' last run may end past the last node
        assert scan.part(slice(64, 128)) == slice(0, 9)

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 64)])
    @pytest.mark.parametrize("stride", [1, 4, "N"])
    def test_inverse_at_centers_equals_ifftn(self, n, N, stride):
        stride = N if stride == "N" else stride
        rng = np.random.default_rng(n + stride)
        shape = (3, 2) + (N,) * n
        spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        centers = (slice(None), slice(None)) + (slice(None, None, stride),) * n
        want = np.fft.ifftn(spec, axes=tuple(range(2, 2 + n)))[centers]
        got = carleson._ifft_at_centers(spec, n, stride)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _xp_whole_array(traj, p, ladder):
    """xp_seminorm with the magnitudes of the whole trajectory in one array."""
    mags = vector_magnitudes(gradient_from_coeffs(to_coeffs(traj.values, traj.grid), traj.grid))
    semi, cyl, scanned, skipped = _scan_whole(
        traj.grid, traj.tg.times, mags, p, ladder)
    return carleson.NormReport(p, traj.sup_norm(), semi, cyl, scanned, skipped, traj.grid)


def _yp_whole_array(flux, p, ladder):
    """yp_norm with the magnitudes of the whole trajectory in one array."""
    mags = vector_magnitudes(flux.values)
    semi, cyl, scanned, skipped = _scan_whole(
        flux.grid, flux.tg.times, mags, p, ladder)
    return carleson.NormReport(p, float(np.max(mags)), semi, cyl, scanned, skipped, flux.grid)


class TestNormsFedInBlocks:
    @pytest.mark.parametrize("n,N", [(1, 64), (2, 16), (2, 64)])
    @pytest.mark.parametrize("nodes", [1, 3, None, "all"])
    def test_equal_whole_array_formulation(self, n, N, nodes, monkeypatch):
        grid = make_grid(n, N)
        tg = TimeGrid.dyadic(1.0, levels=6, steps_per_level=4)
        ladder = enumerate_cylinders(grid, tg)
        rng = np.random.default_rng(20 + n)
        h = _species(grid, *(random_band_limited(grid, rng, 3) for _ in range(3)))
        traj = heat_flow_trajectory(h, tg)
        flux = FluxTrajectory(grid, tg, rng.standard_normal((len(tg), 3, n) + grid.shape))
        refs = [(_xp_whole_array(traj, p, ladder), _yp_whole_array(flux, p, ladder))
                for p in (2.5, 5.0)]
        if nodes is not None:
            nodes = len(tg) if nodes == "all" else nodes
            monkeypatch.setattr(fields, "BLOCK_BYTES", nodes * 3 * grid.num_nodes * 8)
        for p, (xp_ref, yp_ref) in zip((2.5, 5.0), refs):
            assert xp_seminorm(traj, p, ladder) == xp_ref
            assert yp_norm(flux, p, ladder) == yp_ref

    def test_yp_peak_memory(self):
        # blocks of magnitudes and one window of mags^p at a time: 0.29x the
        # state trajectory measured; the magnitudes of the whole flux peaked
        # at 2.0x
        grid, tg = make_grid(2, 64), TimeGrid.dyadic(1.0, levels=10, steps_per_level=8)
        h = _species(grid, *(random_band_limited(grid, np.random.default_rng(2), 6)
                             for _ in range(3)))
        traj = heat_flow_trajectory(h, tg)
        flux, ladder = gradient_flux(traj), enumerate_cylinders(grid, tg)
        tracemalloc.start()
        try:
            yp_norm(flux, None, ladder)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * traj.values.nbytes

    def test_xp_peak_memory(self):
        # the coefficients, gradient and magnitudes of one block of nodes and
        # the scan's windows: 0.31x the trajectory measured; the coefficients
        # of the whole trajectory held first peaked at 2.06x
        grid, tg = make_grid(2, 64), TimeGrid.dyadic(1.0, levels=10, steps_per_level=8)
        h = _species(grid, *(random_band_limited(grid, np.random.default_rng(2), 6)
                             for _ in range(3)))
        traj, ladder = heat_flow_trajectory(h, tg), enumerate_cylinders(grid, tg)
        tracemalloc.start()
        try:
            xp_seminorm(traj, None, ladder)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.0 * traj.values.nbytes


def _blocks(flux, nodes=None):
    """The (nodes, nodal flux block) views of a FluxTrajectory that
    maximal_regularity_ratio takes: blocks of `nodes` time nodes, the last
    one short, or with None those of index_blocks."""
    if nodes is None:
        return [(b, flux.values[b]) for b in index_blocks(len(flux.tg), flux.values[0].nbytes)]
    return [(slice(k, k + nodes), flux.values[k:k + nodes]) for k in range(0, len(flux.tg), nodes)]


def _ratio_separate_passes(h, flux, tg, p, cylinders):
    """maximal_regularity_ratio as separate passes: the Duhamel solution and
    its coefficients held whole, then the X^p seminorm of w from those
    coefficients in one scan, and yp_norm."""
    divs = ((b, spectral_divergence(block, h.grid)) for b, block in _blocks(flux))
    _, coeffs, values = zip(*_duhamel_blocks(h, divs, tg))
    coeffs, values = np.concatenate(coeffs), np.concatenate(values)
    mags = vector_magnitudes(gradient_from_coeffs(coeffs, h.grid))
    semi = _scan_whole(h.grid, tg.times, mags, p, cylinders)[0]
    num = Trajectory(h.grid, tg, values).sup_norm() + semi
    return num / (yp_norm(flux, p, cylinders).seminorm + h.sup_norm())


class TestMaximalRegularity:
    def test_constant_datum_gives_ratio_one(self, setup):
        grid, tg, cylinders = setup
        h = _species(grid, np.full(grid.shape, 0.4))
        flux = FluxTrajectory(grid, tg, np.zeros((len(tg), 1, 1, grid.N)))
        ratio = maximal_regularity_ratio(h, _blocks(flux), tg, 4.0, cylinders)
        assert ratio == pytest.approx(1.0, rel=1e-12)

    def test_random_datum_finite(self, setup):
        grid, tg, cylinders = setup
        h = _species(grid, random_band_limited(grid, np.random.default_rng(6), 8))
        flux = FluxTrajectory(grid, tg, np.zeros((len(tg), 1, 1, grid.N)))
        ratio = maximal_regularity_ratio(h, _blocks(flux), tg, 4.0, cylinders)
        assert np.isfinite(ratio) and ratio > 0

    @staticmethod
    def _problem(n, N, tg=None):
        grid = make_grid(n, N)
        if tg is None:
            tg = TimeGrid.dyadic(0.05, levels=4, steps_per_level=3)
        rng = np.random.default_rng(9 + n)
        h = _species(grid, *(random_band_limited(grid, rng, 3, mean=0.3) for _ in range(2)))
        shape = (len(tg), 2, n) + grid.shape
        envelope = np.exp(-3.0 * tg.times).reshape((-1,) + (1,) * (len(shape) - 1))
        flux = FluxTrajectory(grid, tg, envelope * np.stack(
            [random_band_limited(grid, rng, 3) for _ in range(2 * n)]).reshape(shape[1:]))
        return h, flux, tg, enumerate_cylinders(grid, tg)

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 16)])
    def test_equals_nodal_formulation(self, n, N):
        # the Xp seminorm of w comes from the Duhamel coefficients instead of
        # a forward transform of w: equal up to round-off
        h, flux, tg, cylinders = self._problem(n, N)
        w = duhamel_solve(h, flux, tg)
        ref = xp_seminorm(w, 4.0, cylinders).xp_total / (
            yp_norm(flux, 4.0, cylinders).seminorm + h.sup_norm())
        ratio = maximal_regularity_ratio(h, _blocks(flux), tg, 4.0, cylinders)
        assert ratio == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_transform_budget(self, transform_bytes):
        # in nodes' worth of w, on the default time grid (T = 89 nodes): at
        # every node the divergence of F forward (n) and w back (1, the
        # datum's own forward transform at node 0), and |grad w| back (n)
        # only at the R = 72 nodes the cylinders read
        h, flux, tg, cylinders = self._problem(2, 16, TimeGrid.dyadic(1.0, levels=10,
                                                                      steps_per_level=8))
        transform_bytes.clear()
        maximal_regularity_ratio(h, _blocks(flux), tg, 4.0, cylinders)
        assert sum(transform_bytes) <= (3 * 89 + 2 * 72) * h.values.nbytes

    @pytest.mark.parametrize("node", [0, -1])
    def test_nan_at_an_unread_node_rejected(self, node):
        # a NaN in F at a node no cylinder reads still reaches w, whose sup
        # is taken over every node
        h, flux, tg, cylinders = self._problem(1, 64, TimeGrid.dyadic(1.0, levels=10,
                                                                      steps_per_level=8))
        assert carleson._CylinderScan(h.grid, tg.times, 4.0, cylinders).part(
            slice(node % len(tg), node % len(tg) + 1)) is None
        flux.values[node, 1, 0, 7] = np.nan
        with pytest.raises(ValueError, match="finite"):
            maximal_regularity_ratio(h, _blocks(flux), tg, 4.0, cylinders)

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 16), (2, 64)])
    @pytest.mark.parametrize("nodes", [1, 3, None])
    def test_streamed_equals_separate_passes(self, n, N, nodes):
        # bit for bit, with blocks of 1, 3 or all flux nodes
        h, flux, tg, cylinders = self._problem(n, N)
        want = [_ratio_separate_passes(h, flux, tg, p, cylinders) for p in (2.5, 4.0)]
        blocks = _blocks(flux, nodes or len(tg))
        assert [maximal_regularity_ratio(h, blocks, tg, p, cylinders) for p in (2.5, 4.0)] == want

    def test_transforms_no_more_than_separate_passes(self, transform_bytes):
        h, flux, tg, cylinders = self._problem(2, 16)
        _ratio_separate_passes(h, flux, tg, 4.0, cylinders)
        separate = sum(transform_bytes)
        transform_bytes.clear()
        maximal_regularity_ratio(h, _blocks(flux), tg, 4.0, cylinders)
        assert sum(transform_bytes) <= separate

    def test_peak_memory_streamed(self):
        # on the default time grid, with the flux built before tracing: 0.52x
        # the trajectory of w measured (0.66x with the time quadratures of
        # every radius held to the end of each scan); the Duhamel solution
        # and its coefficients held whole peaked at 3.17x
        grid, tg = make_grid(2, 64), TimeGrid.dyadic(1.0, levels=10, steps_per_level=8)
        rng = np.random.default_rng(12)
        h = _species(grid, *(random_band_limited(grid, rng, 6, mean=0.3) for _ in range(3)))
        envelope = np.exp(-2.0 * tg.times).reshape((-1, 1, 1, 1, 1))
        flux = FluxTrajectory(grid, tg, envelope * np.stack(
            [random_band_limited(grid, rng, 6) for _ in range(6)]).reshape((3, 2) + grid.shape))
        ladder = enumerate_cylinders(grid, tg)
        tracemalloc.start()
        try:
            maximal_regularity_ratio(h, _blocks(flux), tg, None, ladder)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.0 * len(tg) * h.values.nbytes

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 16)])
    @pytest.mark.parametrize("nodes", [1, 3, None])
    def test_block_fed_pass_equals_whole_flux(self, n, N, nodes):
        # bit for bit, with blocks of 1, 3 or all flux nodes, each a copy
        # drawn only when it is due, against views of the flux held whole
        h, flux, tg, cylinders = self._problem(n, N)
        for p in (2.5, 4.0):
            blocks = ((b, block.copy()) for b, block in _blocks(flux, nodes or len(tg)))
            want = maximal_regularity_ratio(h, _blocks(flux), tg, p, cylinders)
            assert maximal_regularity_ratio(h, blocks, tg, p, cylinders) == want

    @pytest.mark.parametrize("node", [0, 5, -1])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_block_fed_pass_rejects_a_non_finite_block(self, node, value):
        # node 0 lies below every cylinder window, nodes 5 and -1 in some
        h, flux, tg, cylinders = self._problem(2, 16)
        values = flux.values.copy()
        values[node, 1, 0, 3, 7] = value
        blocks = ((slice(k, k + 1), values[k:k + 1]) for k in range(len(tg)))
        with pytest.raises(ValueError, match="flux values must be finite"):
            maximal_regularity_ratio(h, blocks, tg, 4.0, cylinders)

    @pytest.mark.parametrize("cut", [np.s_[:, :1], np.s_[..., ::2, ::2], np.s_[:, :, :1]],
                             ids=["one-species", "coarser-grid", "one-component"])
    def test_block_fed_pass_rejects_a_block_of_another_shape(self, cut):
        # the blocks carry no grid: their shape is checked against the datum's
        h, flux, tg, cylinders = self._problem(2, 16)
        with pytest.raises(ValueError, match="is not nodes x"):
            maximal_regularity_ratio(h, [(slice(0, len(tg)), flux.values[cut])], tg, 4.0, cylinders)

    @pytest.mark.parametrize("nodes", [
        lambda t: [0, 1, 3] + list(range(4, t)),  # a gap
        lambda t: [0, 1] + list(range(1, t)),  # a repeat
        lambda t: list(range(1, t)),  # no node 0
        lambda t: list(range(t - 1)),  # no last node
    ])
    def test_block_fed_pass_takes_every_node_once_in_order(self, nodes):
        h, flux, tg, cylinders = self._problem(1, 64)
        blocks = ((slice(k, k + 1), flux.values[k:k + 1]) for k in nodes(len(tg)))
        with pytest.raises(ValueError, match=f"forcing block|of the {len(tg)} time nodes"):
            maximal_regularity_ratio(h, blocks, tg, 4.0, cylinders)

    def test_trivial_problem_rejected(self, setup):
        grid, tg, cylinders = setup
        h = _species(grid, np.zeros(grid.shape))
        flux = FluxTrajectory(grid, tg, np.zeros((len(tg), 1, 1, grid.N)))
        with pytest.raises(ValueError, match="trivial"):
            maximal_regularity_ratio(h, _blocks(flux), tg, 4.0, cylinders)


_NAN = math.nan


@pytest.mark.parametrize("call,match", [
    (lambda g, tg: yp_norm(FluxTrajectory(g, tg, np.zeros((len(tg), 1, 1, g.N))), _NAN), "finite p"),
    (lambda g, tg: kernel_gradient_lp(_NAN, 4.0, 1), "time must be positive"),
    (lambda g, tg: kernel_gradient_lp(0.1, _NAN, 1), "p must be"),
    (lambda g, tg: CylinderLadder(g, (_NAN,), 1), "radii must be positive"),
    (lambda g, tg: CylinderLadder(g, (0.1, _NAN), 1), "radii must be positive"),
    (lambda g, tg: CylinderSpec((0.5,), _NAN), "radius must be positive"),
    # a ladder whose radii never reach the cap (NaN) grew without end; on a
    # time grid with no cylinder window a missing guard fails, not hangs
    (lambda g, tg: enumerate_cylinders(g, TimeGrid(np.array([0.0, 1.0])), radii_per_octave=_NAN),
     "radii_per_octave must be finite"),
    # and so did an infinite one, every radius the smallest
    (lambda g, tg: enumerate_cylinders(g, TimeGrid(np.array([0.0, 1.0])), radii_per_octave=math.inf),
     "radii_per_octave must be finite"),
    (lambda g, tg: kernel_scaling_report(1, 4.0, [0.1, _NAN]), "sample times must be positive"),
    (lambda g, tg: heat_propagate(np.ones(g.shape), g, _NAN), "propagation time"),
], ids=["yp_norm-p", "kernel_gradient_lp-t", "kernel_gradient_lp-p", "ladder-first-radius",
        "ladder-later-radius", "cylinder-radius", "enumerate_cylinders-radii_per_octave",
        "enumerate_cylinders-radii_per_octave-inf",
        "kernel_scaling_report-t", "heat_propagate-t"])
def test_nan_argument_rejected(call, match, setup):
    # each guard is written so that NaN, which fails every comparison, fails it
    grid, tg, _ = setup
    with pytest.raises(ValueError, match=match):
        call(grid, tg)


@pytest.fixture(scope="module")
def step_flow():
    grid = make_grid(1, 128)
    tg = TimeGrid.dyadic(1.0, levels=10, steps_per_level=8)
    h = generate_initial_data(
        InitialDataSpec(generator="step-like", smoothing=0.005), grid, 3, 0.05)
    return grid, tg, h, heat_flow_trajectory(h, tg)


class TestDecayProbe:
    def test_zeroth_order_samples_are_sups(self, step_flow):
        grid, tg, h, traj = step_flow
        probe = decay_probe(traj, k=0, beta=(0,))
        assert len(probe.samples) == len(tg) - 1
        for t, sup, scaled in probe.samples:
            assert scaled == sup
            assert sup <= traj.sup_norm() + 1e-15

    def test_step_data_gradient_slope(self, step_flow):
        grid, tg, h, traj = step_flow
        probe = decay_probe(traj, k=0, beta=(1,), fit_window=(1e-4, 1e-2))
        assert probe.slope == pytest.approx(-0.5, abs=0.1)

    def test_time_derivative_consistent_with_mode_rate(self):
        # single decaying mode: d/dt sup = -4 pi^2 sup, so the scaled probe is flat
        grid = make_grid(1, 64)
        tg = TimeGrid.dyadic(0.5, levels=6, steps_per_level=8)
        x = grid.axes()[0]
        vals = np.exp(-4 * math.pi**2 * tg.times)[:, None, None] * np.sin(2 * math.pi * x)
        traj = Trajectory(grid, tg, vals)
        probe = decay_probe(traj, k=1, beta=(0,))
        mid = len(probe.samples) // 2
        t, sup, _ = probe.samples[mid]
        expect = 4 * math.pi**2 * math.exp(-4 * math.pi**2 * t)
        assert sup == pytest.approx(expect, rel=5e-3)

    def test_order_validation(self, step_flow):
        grid, tg, h, traj = step_flow
        with pytest.raises(ValueError, match="unsupported"):
            decay_probe(traj, k=1, beta=(2,))
        with pytest.raises(ValueError, match="unsupported"):
            decay_probe(traj, k=2, beta=(0,))
        with pytest.raises(ValueError, match="beta"):
            decay_probe(traj, k=0, beta=(1, 1))

    def test_insufficient_nodes_rejected(self):
        grid = make_grid(1, 64)
        tg = TimeGrid(np.array([0.0, 0.5, 1.0]))
        traj = Trajectory(grid, tg, np.ones((3, 1, grid.N)))
        with pytest.raises(ValueError, match="insufficient"):
            decay_probe(traj, k=0, beta=(1,), fit_window=(0.4, 0.6))

    def test_csv(self, tmp_path, step_flow):
        grid, tg, h, traj = step_flow
        probe = decay_probe(traj, k=0, beta=(1,))
        path = tmp_path / "decay.csv"
        probe.to_csv(path, manifest_hash="abc", content_hash="def")
        text = path.read_text().splitlines()
        assert text[0].startswith("# k=0 beta=(1,)")
        assert text[0].endswith(" manifest=abc content=def")
        assert text[1] == "t,sup,scaled"


def _stencil_time_derivative(arr, times):
    """The first time derivative as crossdiff once wrote it out by hand: the
    3-point nonuniform stencil in the interior, one-sided at the endpoints.
    The reference for np.gradient(arr, times, axis=0), which replaced it."""
    out = np.empty_like(arr)
    shape = (-1,) + (1,) * (arr.ndim - 1)
    hp = (times[1:-1] - times[:-2]).reshape(shape)
    hn = (times[2:] - times[1:-1]).reshape(shape)
    out[0] = (arr[1] - arr[0]) / (times[1] - times[0])
    out[-1] = (arr[-1] - arr[-2]) / (times[-1] - times[-2])
    out[1:-1] = (
        -hn / (hp * (hp + hn)) * arr[:-2]
        + (hn - hp) / (hp * hn) * arr[1:-1]
        + hp / (hn * (hp + hn)) * arr[2:]
    )
    return out


class TestTimeDerivative:
    """The decay probe and the energy identity take the time derivative with
    np.gradient, which on a nonuniform time grid is the stencil bit for bit."""

    TIMES = {
        "default-dyadic": ExperimentConfig().time_grid().times,
        "dyadic-3x3": TimeGrid.dyadic(0.5, levels=3, steps_per_level=3).times,
        "three-nodes": np.array([0.0, 0.1, 0.25]),
        "two-nodes": np.array([0.0, 0.5]),  # one-sided at both ends; the stencil once raised
        "random-41": np.concatenate([[0.0], np.sort(np.random.default_rng(4).uniform(0.0, 1.0, 40))]),
    }

    @pytest.mark.parametrize("times", TIMES)
    @pytest.mark.parametrize("shape", [(), (3,), (2, 16), (2, 16, 16)])
    @pytest.mark.parametrize("scale", [1e-20, 1.0, 1e5])
    def test_gradient_is_the_stencil_bit_for_bit(self, times, shape, scale):
        times = self.TIMES[times]
        arr = scale * np.random.default_rng(len(shape)).standard_normal((len(times),) + shape)
        got, want = np.gradient(arr, times, axis=0), _stencil_time_derivative(arr, times)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_uniform_grid_agrees_to_round_off(self):
        # on equal steps np.gradient takes (f[k+1] - f[k-1]) / 2h, which can
        # round differently from the stencil's weights -1/2h, 0 and 1/2h
        times, h = 3.0 * np.arange(9.0), 3.0
        arr = np.random.default_rng(2).standard_normal((9, 3, 16))
        got, want = np.gradient(arr, times, axis=0), _stencil_time_derivative(arr, times)
        assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps * np.max(np.abs(arr)) / h
