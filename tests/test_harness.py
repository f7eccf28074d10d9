import math

import numpy as np
import pytest

from crossdiff.fields import make_grid
from crossdiff.harness import (
    _SECTIONS,
    ExperimentConfig,
    InitialDataSpec,
    SuiteContext,
    VerificationReport,
    default_alpha,
    energy_identity_probe,
    generate_initial_data,
    make_check,
    perturb_initial_data,
    run_suite,
    verify_mass_conservation,
    verify_nonnegativity,
    verify_partition,
)
from crossdiff.model import ReducedModel
from crossdiff.semigroup import heat_flow_trajectory
from crossdiff.solver import imex_solve
from crossdiff.trajectory import TimeGrid, Trajectory

TINY = ExperimentConfig(
    N=16, t_end=0.25, levels=3, steps_per_level=3, kmax=3, smoothing=0.02,
    sweep_samples=2, stability_pairs=2, contraction_deltas=(0.02, 0.05),
    refine=False, seed=7,
)


class TestConfig:
    def test_round_trip_default(self):
        cfg = ExperimentConfig()
        again = ExperimentConfig.from_text(cfg.to_text())
        assert again == cfg
        assert again.to_text() == cfg.to_text()

    def test_round_trip_non_defaults(self):
        cfg = ExperimentConfig(
            n=2, N=32, d=4, coefficients=(1.0, 1.1, 0.9, 1.05, 0.95, 1.0),
            p=5.0, centers_stride=4, generator="step-like", truncated=False,
            contraction_deltas=(0.01,), refine=False,
        )
        again = ExperimentConfig.from_text(cfg.to_text())
        assert again == cfg

    def test_hash_stable_and_sensitive(self):
        a = ExperimentConfig()
        b = ExperimentConfig()
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != a.with_overrides(seed=1).config_hash()

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            ExperimentConfig().with_overrides(banana=1)

    def test_unknown_key_rejected(self):
        text = ExperimentConfig().to_text() + "\n[grid]\nbogus = 1\n"
        with pytest.raises(Exception):
            ExperimentConfig.from_text(text)

    @pytest.mark.parametrize("field,value,match", [
        ("scheme", "rk4", "unknown scheme"),
        ("metric", "l2", "unknown metric"),
        ("generator", "nope", "unknown generator"),
        ("n", 3, "unsupported dimension"),
        ("N", 96, "power of two"),
        ("N", 4, "power of two"),
        ("d", 1, "two species"),
        ("delta", -1.0, "delta must be positive"),
        ("t_end", 0.0, "t_end must be positive"),
        ("tol", 0.0, "tol must be positive"),
        ("max_iter", 0, "max_iter must be positive"),
        ("delta", math.nan, "delta must be positive"),
    ])
    def test_invalid_values_rejected(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(**{field: value})
        with pytest.raises(ValueError, match=match):
            ExperimentConfig().with_overrides(**{field: value})
        section = next(sec for sec, names in _SECTIONS.items() if field in names)
        text = f"[{section}]\n{field} = {value}\n"
        with pytest.raises(ValueError, match=match):
            ExperimentConfig.from_text(text)

    def test_empty_config_rejected(self):
        with pytest.raises(ValueError, match="empty config"):
            ExperimentConfig.from_text("")

    def test_file_round_trip(self, tmp_path):
        cfg = ExperimentConfig(N=32, seed=5)
        path = tmp_path / "exp.ini"
        cfg.save(path)
        assert ExperimentConfig.load(path) == cfg

    def test_reduced_model_from_coefficients(self):
        cfg = ExperimentConfig(coefficients=(0.9, 1.1, 1.0), delta=0.1)
        m = cfg.reduced_model()
        assert m.delta == pytest.approx(0.1)
        assert m.alpha[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_reduced_model_delta_override(self):
        cfg = ExperimentConfig(coefficients=(0.9, 1.1, 1.0))
        m = cfg.reduced_model(0.02)
        assert m.delta == 0.02
        assert np.max(np.abs(m.alpha)) == pytest.approx(1.0)

    def test_default_alpha_extremes(self):
        a = default_alpha(3)
        assert a.min() == -1.0 and a.max() == 1.0
        assert np.allclose(a, a.T)


class TestInitialData:
    def test_uniform(self):
        g = make_grid(1, 16)
        h = generate_initial_data(InitialDataSpec("uniform"), g, 3, 0.1)
        assert np.max(np.abs(h.stack() - 0.1 / 3)) < 1e-16

    def test_random_simplex_partition(self):
        g = make_grid(1, 64)
        h = generate_initial_data(InitialDataSpec("random-simplex", seed=11), g, 3, 0.05)
        vals = h.stack()
        assert np.max(np.abs(vals.sum(axis=0) - 0.05)) < 1e-12
        assert vals.min() > 0.0

    def test_random_simplex_deterministic(self):
        g = make_grid(1, 32)
        a = generate_initial_data(InitialDataSpec("random-simplex", seed=1), g, 2, 0.1)
        b = generate_initial_data(InitialDataSpec("random-simplex", seed=1), g, 2, 0.1)
        np.testing.assert_array_equal(a.stack(), b.stack())

    def test_step_like_partition(self):
        g = make_grid(1, 128)
        h = generate_initial_data(InitialDataSpec("step-like", smoothing=0.01), g, 3, 0.05)
        vals = h.stack()
        assert np.max(np.abs(vals.sum(axis=0) - 0.05)) < 1e-12
        assert vals.min() >= 0.0
        # steep but smooth transitions
        assert vals.max() > 0.04

    def test_step_like_rejects_zero_smoothing(self):
        g = make_grid(1, 32)
        with pytest.raises(ValueError, match="smoothing"):
            generate_initial_data(InitialDataSpec("step-like", smoothing=0.0), g, 3, 0.05)

    def test_unknown_generator(self):
        g = make_grid(1, 32)
        with pytest.raises(ValueError, match="unknown"):
            generate_initial_data(InitialDataSpec("bogus"), g, 3, 0.05)

    def test_species_count_validated(self):
        g = make_grid(1, 32)
        with pytest.raises(ValueError, match="two species"):
            generate_initial_data(InitialDataSpec("uniform"), g, 1, 0.05)

    def test_perturbation_keeps_partition(self):
        g = make_grid(1, 64)
        h = generate_initial_data(InitialDataSpec("random-simplex", seed=2), g, 3, 0.02)
        ht = perturb_initial_data(h, 1e-3, seed=5)
        assert np.max(np.abs(ht.stack().sum(axis=0) - 0.02)) < 1e-15
        assert np.max(np.abs(ht.stack() - h.stack())) > 1e-4


class TestChecks:
    def test_make_check_ops(self):
        assert make_check("a", 1.0, 2.0, "<=").passed
        assert not make_check("a", 3.0, 2.0, "<=").passed
        assert make_check("a", 3.0, 2.0, ">").passed
        assert not make_check("a", math.nan, 2.0, "<=").passed

    def test_partition_check_on_decoupled_flow(self):
        g = make_grid(1, 64)
        tg = TimeGrid.dyadic(0.5, levels=4, steps_per_level=4)
        h = generate_initial_data(InitialDataSpec("random-simplex", seed=3), g, 3, 0.05)
        traj = heat_flow_trajectory(h, tg)  # sum of species solves the heat equation
        check = verify_partition(traj, 0.05, threshold=1e-12)
        assert check.passed

    def test_partition_check_fails_for_asymmetric_coupling(self):
        g = make_grid(1, 64)
        tg = TimeGrid.dyadic(0.5, levels=5, steps_per_level=4)
        asym = np.zeros((3, 3))
        asym[0, 1], asym[1, 0] = 1.0, -1.0
        broken = ReducedModel(K=1.0, delta=0.2, alpha=asym)
        h = generate_initial_data(InitialDataSpec("random-simplex", seed=3), g, 3, 0.2)
        traj = imex_solve(h, broken, tg)
        check = verify_partition(traj, 0.2)
        assert not check.passed
        assert check.value > 1e-4

    def test_nonnegativity_and_mass(self):
        g = make_grid(1, 32)
        tg = TimeGrid.uniform(0.1, 4)
        h = generate_initial_data(InitialDataSpec("random-simplex", seed=4), g, 2, 0.1)
        traj = heat_flow_trajectory(h, tg)
        assert verify_nonnegativity(traj).passed
        assert verify_mass_conservation(traj).passed


class TestEnergyProbe:
    def test_nonnegative_trajectory_has_zero_residual(self):
        g = make_grid(1, 64)
        tg = TimeGrid.dyadic(0.25, levels=4, steps_per_level=4)
        h = generate_initial_data(InitialDataSpec("random-simplex", seed=5), g, 3, 0.05)
        traj = heat_flow_trajectory(h, tg)
        model = ReducedModel.from_alpha(default_alpha(3), 0.05)
        residual, coercivity = energy_identity_probe(traj, model)
        assert residual.passed and residual.value == 0.0
        assert coercivity.passed
        assert coercivity.value >= 1.0 - 2 * 0.05

    def test_injected_negative_bump_detected(self):
        g = make_grid(1, 64)
        tg = TimeGrid.uniform(0.1, 8)
        x = g.axes()[0]
        bump = -0.05 * np.exp(-((x - 0.5) ** 2) / 0.002)
        vals = np.tile(np.stack([bump + 0.03, np.full(g.shape, 0.03)]), (len(tg), 1, 1))
        traj = Trajectory(g, tg, vals)
        model = ReducedModel.from_alpha(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.05)
        residual, coercivity = energy_identity_probe(traj, model)
        assert residual.value > 0.0
        assert coercivity.value > 0.0


class TestSuite:
    def test_tiny_suite_deterministic(self, tmp_path):
        r1 = run_suite(TINY)
        r2 = run_suite(TINY, out_dir=tmp_path / "suite")
        assert r1.to_text() == r2.to_text()
        assert (tmp_path / "suite" / "summary.txt").exists()
        assert (tmp_path / "suite" / "checks.csv").exists()
        assert (tmp_path / "suite" / "config.ini").exists()
        names = [c.name for c in r1.checks]
        assert any(n.startswith("kernel-scaling") for n in names)
        assert any(n.startswith("negative-controls") for n in names)

    def test_report_text_lists_thresholds(self):
        rep = VerificationReport(checks=[make_check("x", 1.0, 2.0, "<=")],
                                 provenance={"seed": 0})
        text = rep.to_text()
        assert "x: 1 <= 2" in text
        assert "1/1 checks passed" in text

    def test_context_caches_solves(self):
        ctx = SuiteContext(TINY)
        a, _ = ctx.picard(0.05)
        b, _ = ctx.picard(0.05)
        assert a is b

    def test_refined_reference_sampled_on_suite_grid(self):
        ctx = SuiteContext(TINY)
        fine = ctx.imex(0.05, refine=4)
        assert fine.tg is ctx.tg
        assert fine.metadata["dt"] < ctx.imex(0.05).metadata["dt"]


class TestReference:
    def test_self_convergence_at_suite_config(self):
        # a tenth of the 1e-3 picard-vs-reference gate
        ctx = SuiteContext(ExperimentConfig())
        for delta in ctx.config.contraction_deltas:
            coarse, fine = ctx.imex(delta, refine=4), ctx.imex(delta, refine=8)
            rel = np.max(np.abs(coarse.values - fine.values)) / np.max(np.abs(fine.values))
            assert rel <= 1e-4
