import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from crossdiff import carleson, fields, semigroup, solver
from crossdiff.carleson import default_exponent, enumerate_cylinders, xp_norm
from crossdiff.fields import (
    SpeciesVector,
    gradient_from_coeffs,
    make_grid,
    random_band_limited,
    to_coeffs,
)
from crossdiff.harness import ExperimentConfig, InitialDataSpec, SuiteContext, generate_initial_data
from crossdiff.model import ReducedModel, _divergence_coeffs, flux_trajectory
from crossdiff.semigroup import (
    _duhamel_blocks,
    _heat_flow_blocks,
    duhamel_solve,
    heat_flow_trajectory,
)
from crossdiff.solver import (
    ContractionReport,
    DivergedError,
    _theta_hat,
    imex_solve,
    picard_solve,
)
from crossdiff.trajectory import TimeGrid, Trajectory, trajectory_difference, vector_magnitudes

ALPHA3 = np.array([[0.0, -1.0, 1.0], [-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])


@pytest.fixture(scope="module")
def small():
    grid = make_grid(1, 64)
    tg = TimeGrid.dyadic(0.25, levels=6, steps_per_level=8)
    model = ReducedModel.from_alpha(ALPHA3, 0.05)
    h = generate_initial_data(InitialDataSpec("random-simplex", seed=3), grid, 3, 0.05)
    return grid, tg, model, h


class TestImex:
    def test_constant_datum_stays_constant(self, small):
        grid, tg, model, _ = small
        h = generate_initial_data(InitialDataSpec("uniform"), grid, 3, 0.05)
        traj = imex_solve(h, model, tg)
        assert np.max(np.abs(traj.values - 0.05 / 3)) < 1e-14

    def test_decoupled_matches_heat_flow(self, small):
        grid, tg, _, _ = small
        decoupled = ReducedModel(delta=0.05, alpha=np.zeros((2, 2)))
        rng = np.random.default_rng(9)
        h = SpeciesVector(
            grid, 0.02 * np.stack([random_band_limited(grid, rng, 8) for _ in range(2)])
        )
        traj = imex_solve(h, decoupled, tg)
        ref = heat_flow_trajectory(h, tg)
        assert np.max(np.abs(traj.values - ref.values)) < 1e-10

    def test_second_order_self_convergence(self, small):
        grid, tg, model, h = small

        def solve(refine):
            # split every segment, the initial layer included, into equal steps
            fine = TimeGrid.dyadic(0.25, levels=6, steps_per_level=8 * refine)
            return imex_solve(h, model, fine).values[::refine]

        ref = solve(8)
        e1 = np.max(np.abs(solve(1) - ref))
        e2 = np.max(np.abs(solve(2) - ref))
        assert 3.2 < e1 / e2 < 5

    def test_mass_and_partition_conserved(self, small):
        grid, tg, model, h = small
        traj = imex_solve(h, model, tg)
        means = traj.species_means()
        assert np.max(np.abs(means - means[0])) < 1e-10
        assert np.max(np.abs(traj.values.sum(axis=1) - 0.05)) < 1e-10

    def test_blowup_guard(self, small):
        grid, tg, _, _ = small
        rng = np.random.default_rng(8)
        big = SpeciesVector(
            grid, 50 * np.stack([random_band_limited(grid, rng, 10) for _ in range(3)])
        )
        wild = ReducedModel.from_alpha(ALPHA3, 0.5)
        with pytest.raises(DivergedError, match="diverged"):
            imex_solve(big, wild, tg, truncated=False)

    def test_nonfinite_state_diverges(self, small, monkeypatch):
        grid, tg, model, h = small
        real = solver.from_coeffs
        monkeypatch.setattr(solver, "from_coeffs", lambda c, g: real(c, g) * np.nan)
        with pytest.raises(DivergedError, match="sup nan"):
            imex_solve(h, model, tg)

    def test_default_dt_is_one_step_per_segment(self, small):
        grid, tg, model, h = small
        traj = imex_solve(h, model, tg)
        assert traj.metadata["dt"] == np.max(np.diff(tg.times))

    def test_invalid_dt(self, small):
        grid, tg, model, h = small
        with pytest.raises(ValueError):
            imex_solve(h, model, tg, dt=0.0)

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 16)])
    @pytest.mark.parametrize("truncated", [True, False])
    def test_transport_equals_inline_flux_copy(self, n, N, truncated):
        # the transport term through the one flux formula, bit for bit the
        # stepper with its own copy of the formula, at one and two substeps
        grid = make_grid(n, N)
        tg = TimeGrid.dyadic(0.25, levels=5, steps_per_level=4)
        alpha = np.array([[0.0, -1.0, 1.0], [-1.0, 0.0, 0.4], [1.0, 0.4, 0.0]])
        model = ReducedModel.from_alpha(alpha, 0.05)
        h = generate_initial_data(InitialDataSpec("random-simplex", seed=4, kmax=3), grid, 3, 0.05)
        for refine in (1, 2):
            dt = float(np.max(np.diff(tg.times))) / refine
            got = imex_solve(h, model, tg, truncated=truncated, dt=dt).values
            assert got.tobytes() == _imex_inline_flux(h, model, tg, truncated, dt).tobytes()


def _imex_inline_flux(h, model, tg, truncated, dt):
    """imex_solve's stepping with its own copy of the flux, its dealiasing
    and its divergence written out inline: an oracle that calls no flux
    code of crossdiff.model."""
    grid = h.grid
    derivs = np.stack([fields.derivative_symbol(grid, m) for m in range(grid.n)])[:, None]
    ddiv = derivs * fields.dealias_keep_mask(grid)

    def transport(what):
        nodal = fields.from_coeffs(np.concatenate([what[None], derivs * what]), grid)
        wv, g = nodal[0], nodal[1:]
        coef = np.clip(wv, 0.0, model.delta) if truncated else wv
        mixed_c = np.einsum("ij,j...->i...", model.alpha, coef)
        mixed_g = np.einsum("ij,mj...->mi...", model.alpha, g)
        fhat = to_coeffs(g * mixed_c - coef * mixed_g, grid)
        return np.sum(ddiv * fhat, axis=0)

    values = np.empty((len(tg), h.d) + grid.shape)
    values[0] = h.values
    what = to_coeffs(values[0], grid)
    for k in range(1, len(tg)):
        seg = float(tg.times[k]) - float(tg.times[k - 1])
        nsub = max(1, math.ceil(seg / dt - 1e-12))
        sub = seg / nsub
        E = semigroup.heat_multiplier(grid, sub)
        for _ in range(nsub):
            n1 = transport(what)
            n2 = transport(E * (what + sub * n1))
            what = E * (what + 0.5 * sub * n1) + 0.5 * sub * n2
        values[k] = fields.from_coeffs(what, grid)
    return values


def _fixed_point_map(h, w, model, truncated=True):
    """One application of the solution map as picard_solve applies it: the
    divergence of the flux along w in coefficients, then Duhamel with datum
    h, block by block."""
    out = np.empty_like(w.values)
    coeffs = to_coeffs(w.values, w.grid)
    for b, _, values in solver._map_blocks(h, w.values, coeffs, model, w.tg, truncated):
        out[b] = values
    return out


def _picard_nodal(h, model, tg, tol=1e-12, max_iter=30, truncated=True, metric="xp"):
    """The Picard loop on nodal iterates, kept as the reference for the
    coefficient-space solver: the flux goes back to the nodes, Duhamel
    transforms its divergence again, and the distance comes from the nodal
    difference. Returns (values, distances, converged, theta_hat)."""
    if metric == "xp":
        p, cylinders = default_exponent(h.grid), enumerate_cylinders(h.grid, tg)
        dist = lambda a, b: xp_norm(trajectory_difference(a, b), p, cylinders)
    else:
        dist = lambda a, b: float(np.max(np.abs(a.values - b.values)))
    w = heat_flow_trajectory(h, tg)
    distances, converged = [], False
    for _ in range(max_iter):
        w_next = duhamel_solve(h, flux_trajectory(w, model, truncated), tg)
        distances.append(dist(w_next, w))
        w = w_next
        if distances[-1] < tol:
            converged = True
            break
    return w.values, distances, converged, _theta_hat(distances)


class TestFixedPointMap:
    def test_constant_fixed_point(self, small):
        grid, tg, model, _ = small
        h = generate_initial_data(InitialDataSpec("uniform"), grid, 3, 0.05)
        w = heat_flow_trajectory(h, tg)
        out = _fixed_point_map(h, w, model)
        assert np.max(np.abs(out - 0.05 / 3)) < 1e-14

    def test_zero_flux_gives_heat_flow(self, small):
        grid, tg, _, h = small
        decoupled = ReducedModel(delta=0.05, alpha=np.zeros((3, 3)))
        w = heat_flow_trajectory(h, tg)
        out = _fixed_point_map(h, w, decoupled)
        assert np.max(np.abs(out - w.values)) < 1e-13

    def test_consistent_with_imex(self, small):
        grid, tg, model, h = small
        traj = imex_solve(h, model, tg)
        mapped = _fixed_point_map(h, traj, model)
        rel = np.max(np.abs(mapped - traj.values)) / np.max(np.abs(traj.values))
        assert rel < 2e-3

    @pytest.mark.parametrize("truncated", [True, False])
    def test_matches_nodal_map(self, small, truncated):
        grid, tg, model, h = small
        w = imex_solve(h, model, tg)
        nodal = duhamel_solve(h, flux_trajectory(w, model, truncated), tg).values
        rel = np.max(np.abs(_fixed_point_map(h, w, model, truncated) - nodal)) / np.max(np.abs(nodal))
        assert rel < 1e-13


class TestPicard:
    def test_constant_datum_converges_immediately(self, small):
        grid, tg, model, _ = small
        h = generate_initial_data(InitialDataSpec("uniform"), grid, 3, 0.05)
        traj, report = picard_solve(h, model, tg)
        assert report.converged
        assert report.iterates == 1
        assert report.distances[0] == 0.0
        assert report.theta_hat == 0.0

    def test_contraction_factor_shrinks_with_delta(self, small):
        grid, tg, _, _ = small
        thetas = {}
        for delta in (0.01, 0.05):
            h = generate_initial_data(InitialDataSpec("random-simplex", seed=3), grid, 3, delta)
            model = ReducedModel.from_alpha(ALPHA3, delta)
            _, rep = picard_solve(h, model, tg, metric="sup")
            assert rep.converged and rep.theta_hat < 1.0
            thetas[delta] = rep.theta_hat
        assert thetas[0.01] < thetas[0.05]

    def test_matches_refined_imex(self, small):
        grid, tg, model, h = small
        traj, _ = picard_solve(h, model, tg, metric="sup")
        oracle = imex_solve(h, model, tg, dt=0.25 / grid.N**2 / 4)
        rel = np.max(np.abs(traj.values - oracle.values)) / np.max(np.abs(oracle.values))
        assert rel < 1e-3

    def test_partition_nonnegativity_truncation_inactive(self, small):
        grid, tg, model, h = small
        traj, _ = picard_solve(h, model, tg, metric="sup")
        assert np.max(np.abs(traj.values.sum(axis=1) - 0.05)) < 1e-10
        assert traj.values.min() >= -1e-8
        clamped = np.clip(traj.values, 0.0, model.delta)
        assert np.max(np.abs(clamped - traj.values)) < 1e-8

    def test_xp_metric_matches_sup_solution(self, small):
        grid, tg, model, h = small
        a, _ = picard_solve(h, model, tg, metric="xp")
        b, _ = picard_solve(h, model, tg, metric="sup")
        assert np.max(np.abs(a.values - b.values)) < 1e-10

    def test_smallness_warning(self, small):
        grid, tg, model, _ = small
        rng = np.random.default_rng(10)
        h = SpeciesVector(
            grid, 0.2 + 0.05 * np.stack([random_band_limited(grid, rng, 4) for _ in range(3)])
        )
        with pytest.warns(UserWarning, match="smallness"):
            picard_solve(h, model, tg, max_iter=2, metric="sup")

    def test_nonconvergence_reported(self, small):
        grid, tg, model, h = small
        _, report = picard_solve(h, model, tg, tol=1e-30, max_iter=3, metric="sup")
        assert not report.converged
        assert report.iterates == 3

    def test_divergence_raises(self, small):
        grid, tg, _, _ = small
        h = generate_initial_data(InitialDataSpec("random-simplex", seed=3), grid, 3, 3.0)
        wild = ReducedModel.from_alpha(ALPHA3, 3.0)
        with pytest.raises(DivergedError, match="diverged"):
            picard_solve(h, wild, tg, metric="sup", max_iter=40)

    def test_nonfinite_iterate_diverges(self, small, monkeypatch):
        # the heat flow (first iterate) is clean; every inverse transform of
        # the Duhamel recurrence after it returns NaN
        grid, tg, model, h = small
        real_from, real_heat = semigroup.from_coeffs, solver._heat_flow_blocks
        poisoned = []

        def heat_flow(*args):
            poisoned.clear()
            yield from real_heat(*args)
            poisoned.append(True)

        def from_coeffs(c, g, out=None):
            res = real_from(c, g, out)
            if poisoned:
                res[...] = np.nan
            return res

        monkeypatch.setattr(solver, "_heat_flow_blocks", heat_flow)
        monkeypatch.setattr(semigroup, "from_coeffs", from_coeffs)
        for metric in ("xp", "sup"):
            with pytest.raises(DivergedError, match="sup nan"):
                picard_solve(h, model, tg, metric=metric)

    def test_unknown_metric(self, small):
        grid, tg, model, h = small
        with pytest.raises(ValueError, match="metric"):
            picard_solve(h, model, tg, metric="l2")


def _equivalence_case(n):
    if n == 1:
        grid, tg = make_grid(1, 64), TimeGrid.dyadic(0.25, levels=6, steps_per_level=8)
        spec = InitialDataSpec("random-simplex", seed=3)
    else:
        grid, tg = make_grid(2, 16), TimeGrid.dyadic(0.05, levels=4, steps_per_level=3)
        spec = InitialDataSpec("random-simplex", seed=3, kmax=3)
    return generate_initial_data(spec, grid, 3, 0.05), ReducedModel.from_alpha(ALPHA3, 0.05), tg


class TestCoefficientSpaceEquivalence:
    """picard_solve against the nodal loop it replaced: same iterations, and
    values, distances and theta_hat within round-off."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("truncated", [True, False])
    @pytest.mark.parametrize("metric", ["xp", "sup"])
    def test_matches_nodal_picard(self, n, truncated, metric):
        h, model, tg = _equivalence_case(n)
        traj, rep = picard_solve(h, model, tg, truncated=truncated, metric=metric)
        values, distances, converged, theta_hat = _picard_nodal(
            h, model, tg, truncated=truncated, metric=metric)
        assert rep.iterates == len(distances)
        assert rep.converged == converged
        for got, ref in zip(rep.distances, distances):
            if ref >= 1e-9:
                assert got == pytest.approx(ref, rel=1e-6)
        assert np.max(np.abs(traj.values - values)) <= 1e-13 * np.max(np.abs(values))
        assert abs(rep.theta_hat - theta_hat) <= 1e-6


def _picard_whole_array(h, model, tg, truncated, metric):
    """The Picard loop with every array of an iteration held whole: the two
    iterates as values and coefficients, the divergence of the flux over all
    nodes, Duhamel's values and coefficients, and the distance from the
    whole difference in one cylinder scan. Returns (values, distances,
    converged, theta_hat)."""
    grid = h.grid
    p, cylinders = default_exponent(grid), enumerate_cylinders(grid, tg)
    (_, coeffs, values), = _heat_flow_blocks(h, tg)  # one block at these sizes
    distances, converged = [], False
    for _ in range(30):
        div = _divergence_coeffs(values, gradient_from_coeffs(coeffs, grid), grid, model, truncated)
        (_, next_coeffs, next_values), = _duhamel_blocks(h, [(slice(0, len(tg)), div)], tg)
        dist = float(np.max(np.abs(next_values - values)))
        if metric == "xp":
            mags = vector_magnitudes(gradient_from_coeffs(next_coeffs - coeffs, grid))
            scan = carleson._CylinderScan(grid, tg.times, p, cylinders)
            scan.add(mags[scan.nodes])
            dist += scan.result()[0]
        distances.append(dist)
        values, coeffs = next_values, next_coeffs
        if dist < 1e-12:
            converged = True
            break
    return values, distances, converged, solver._theta_hat(distances)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("truncated", [True, False])
@pytest.mark.parametrize("metric", ["xp", "sup"])
def test_picard_streamed_equals_whole_array(n, truncated, metric, monkeypatch):
    # bit for bit, with blocks of 1, 3 or all nodes
    h, model, tg = _equivalence_case(n)
    values, distances, converged, theta_hat = _picard_whole_array(h, model, tg, truncated, metric)
    node = values[0].nbytes * n  # the flux of one node
    for nodes in (1, 3, len(tg)):
        monkeypatch.setattr(fields, "BLOCK_BYTES", nodes * node)
        traj, rep = picard_solve(h, model, tg, truncated=truncated, metric=metric)
        assert traj.values.tobytes() == values.tobytes()
        assert [d.hex() for d in rep.distances] == [d.hex() for d in distances]
        assert rep.theta_hat.hex() == theta_hat.hex()
        assert rep.converged == converged


def test_picard_xp_iteration_transform_budget(transform_bytes):
    # in nodes' worth of the iterate, on the default time grid (T = 89
    # nodes): the heat flow, then one map with the sup metric, each node's
    # gradient back (n), its products forward (n) and the next iterate back
    # (1, the datum forward at node 0) take 2T + 2nT; the xp metric adds the
    # gradient of the difference (n) at the R = 72 nodes the cylinders read
    grid, tg = make_grid(2, 16), TimeGrid.dyadic(1.0, levels=10, steps_per_level=8)
    h = generate_initial_data(InitialDataSpec("random-simplex", seed=3, kmax=3), grid, 3, 0.05)
    model = ReducedModel.from_alpha(ALPHA3, 0.05)
    node, n, T, R = h.values.nbytes, grid.n, 89, 72
    transform_bytes.clear()
    picard_solve(h, model, tg, max_iter=1, metric="sup")
    assert sum(transform_bytes) == (2 * T + 2 * n * T) * node
    transform_bytes.clear()
    picard_solve(h, model, tg, max_iter=1)
    assert sum(transform_bytes) <= (2 * T + 2 * n * T + n * R) * node


def test_picard_peak_memory():
    # one iterate as values and coefficients, written over block by block,
    # the cylinder scan's windows and one node's flux: 2.72x the trajectory
    # measured (2.38x with the sup metric); two iterates, the divergence
    # coefficients and the distance's magnitudes held whole peaked at 5.6x
    grid, tg = make_grid(2, 64), TimeGrid.dyadic(0.25, levels=6, steps_per_level=8)
    h = generate_initial_data(InitialDataSpec("random-simplex", seed=3, kmax=6), grid, 3, 0.05)
    tracemalloc.start()
    try:
        traj, _ = picard_solve(h, ReducedModel.from_alpha(ALPHA3, 0.05), tg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * traj.values.nbytes


class TestStability:
    def test_identical_data_give_zero(self, small):
        grid, tg, model, h = small
        w, _ = picard_solve(h, model, tg, metric="sup", tol=1e-11)
        again, _ = picard_solve(h, model, tg, metric="sup", tol=1e-11)
        assert xp_norm(trajectory_difference(w, again)) == 0.0

    def test_linear_response(self, small):
        grid, tg, model, h = small
        x = grid.axes()[0]
        mode = np.cos(2 * math.pi * 2 * x)
        w, _ = picard_solve(h, model, tg, metric="sup", tol=1e-11)
        ratios = []
        for eps in (2e-3, 1e-3):
            vals = h.values.copy()
            vals[0] += eps * mode
            vals[1:] -= eps * mode / 2
            ht = SpeciesVector(grid, vals)
            wt, _ = picard_solve(ht, model, tg, metric="sup", tol=1e-11)
            # ||w - w~||_Xp / ||h - h~||_inf
            den = np.max(np.abs(h.values - ht.values))
            ratios.append(xp_norm(trajectory_difference(w, wt)) / den)
        assert all(np.isfinite(r) and r > 0 for r in ratios)
        assert ratios[1] == pytest.approx(ratios[0], rel=0.2)


class TestTwoDimensions:
    def test_both_schemes_agree_on_torus_2d(self):
        grid = make_grid(2, 16)
        tg = TimeGrid.dyadic(0.05, levels=4, steps_per_level=3)
        model = ReducedModel.from_alpha(ALPHA3, 0.05)
        h = generate_initial_data(
            InitialDataSpec("random-simplex", seed=3, kmax=3), grid, 3, 0.05)
        ti = imex_solve(h, model, tg)
        tp, rep = picard_solve(h, model, tg, metric="xp")
        assert rep.converged and rep.theta_hat < 1.0
        assert np.max(np.abs(ti.values.sum(axis=1) - 0.05)) < 1e-10
        assert np.max(np.abs(tp.values.sum(axis=1) - 0.05)) < 1e-10
        assert ti.values.min() > -1e-8 and tp.values.min() > -1e-8
        rel = np.max(np.abs(tp.values - ti.values)) / np.max(np.abs(ti.values))
        assert rel < 1e-3


class TestTrajectoryPersistence:
    def test_save_load_round_trip(self, tmp_path, small):
        grid, tg, model, h = small
        traj = imex_solve(h, model, TimeGrid.dyadic(0.01, levels=2, steps_per_level=2))
        out = traj.save(tmp_path / "run")
        back = Trajectory.load(out)
        assert back.grid == traj.grid
        np.testing.assert_array_equal(back.tg.times, traj.tg.times)
        np.testing.assert_array_equal(back.values, traj.values)
        assert back.metadata["scheme"] == "imex"
        assert back.manifest_hash() == traj.manifest_hash()
        assert back.content_hash() == traj.content_hash()

    def test_metadata_records_the_model_as_delta_and_alpha(self, small):
        grid, _, model, h = small
        tg = TimeGrid.dyadic(0.01, levels=2, steps_per_level=2)
        for traj in (imex_solve(h, model, tg), picard_solve(h, model, tg)[0]):
            assert "K" not in traj.metadata
            assert traj.metadata["delta"] == model.delta
            assert traj.metadata["alpha"] == model.alpha.tolist()

    def test_manifest_hash_is_pinned(self, small):
        # the manifest of a solved run names the same run whatever writes it.
        # The content hash is pinned by its formula: the values themselves
        # round with the FFT and SIMD paths of the numpy build.
        grid, _, model, h = small
        tg = TimeGrid.dyadic(0.01, levels=2, steps_per_level=2)
        pins = {"imex": "68be57faebf5", "picard": "a8ba6e2b7d77"}
        for traj in (imex_solve(h, model, tg), picard_solve(h, model, tg)[0]):
            assert traj.manifest_hash() == pins[traj.metadata["scheme"]]
            digest = hashlib.sha256(traj.manifest_text().encode() + traj.values.tobytes())
            assert traj.content_hash() == digest.hexdigest()[:12]

    def test_content_hash_names_the_values(self, small):
        grid, tg, model, h = small
        traj = imex_solve(h, model, TimeGrid.dyadic(0.01, levels=2, steps_per_level=2))
        bumped = traj.values.copy()
        bumped[-1, 0, 5] = np.nextafter(bumped[-1, 0, 5], np.inf)  # one ulp
        other = Trajectory(traj.grid, traj.tg, bumped, metadata=dict(traj.metadata))
        assert other.manifest_hash() == traj.manifest_hash()
        assert other.content_hash() != traj.content_hash()

    def test_content_hash_reads_the_values_in_c_order_without_a_copy(self):
        # the suite's refined reference keeps every second node of a finer
        # solve, a strided view; the digest is that of the C-order bytes
        ctx = SuiteContext(ExperimentConfig(N=16, kmax=3, t_end=0.25, levels=3, steps_per_level=3))
        strided = ctx.imex(0.05, refine=2)
        assert not strided.values.flags["C_CONTIGUOUS"]
        dense = Trajectory(strided.grid, strided.tg, strided.values.copy(), dict(strided.metadata))
        for traj in (strided, dense):
            h = hashlib.sha256(traj.manifest_text().encode())
            h.update(traj.values.tobytes())
            assert traj.content_hash() == h.hexdigest()[:12]
        # C-contiguous values are hashed in place, not copied
        big = Trajectory(make_grid(2, 64), TimeGrid(np.linspace(0.0, 1.0, 5)), np.ones((5, 3, 64, 64)))
        tracemalloc.start()
        try:
            big.content_hash()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < big.values.nbytes // 2


class TestContractionReport:
    def test_theta_geometric_mean(self):
        rep = ContractionReport(iterates=3, distances=[1.0, 0.1, 0.01])
        # field is computed by the solver; check the helper directly
        assert _theta_hat([1.0, 0.1, 0.01]) == pytest.approx(0.1)
        assert _theta_hat([0.5]) == 0.0
        assert _theta_hat([]) == 0.0
        assert rep.final_distance == 0.01
