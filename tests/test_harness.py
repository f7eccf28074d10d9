import csv
import math
import os
import re
import signal
import threading
import tracemalloc
from dataclasses import fields as dc_fields, replace
from pathlib import Path

import numpy as np
import pytest

from crossdiff import fields, harness, solver
from crossdiff.carleson import enumerate_cylinders, gradient_flux
from crossdiff.fields import SpeciesVector, make_grid, random_band_limited
from crossdiff.harness import (
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
    def test_readme_example_loads(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = re.findall(r"```ini\n(.*?)```", readme, re.S)
        assert len(blocks) == 1
        cfg = ExperimentConfig.from_text(blocks[0])
        assert cfg.generator == "random-simplex" and cfg.smoothing == 0.005
        assert cfg.output_dir == "runs"

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

    def test_every_key_declares_its_section_and_parser(self):
        for key in dc_fields(ExperimentConfig):
            assert isinstance(key.metadata["section"], str) and key.metadata["section"]
            assert callable(key.metadata["parse"])

    def test_to_text_writes_sections_and_keys_in_field_order(self):
        text = ExperimentConfig().to_text()
        written = [line.split(" = ")[0] for line in text.splitlines() if " = " in line]
        headers = re.findall(r"^\[(\w+)\]$", text, re.M)
        keys = dc_fields(ExperimentConfig)
        assert written == [key.name for key in keys]
        assert headers == list(dict.fromkeys(key.metadata["section"] for key in keys))
        assert headers == ["grid", "model", "initial", "time", "solver", "norms", "suite", "output"]

    def test_config_hash_is_pinned(self):
        # a change in the bytes to_text() writes renames every run directory and recorded hash
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        example = ExperimentConfig.from_text(re.findall(r"```ini\n(.*?)```", readme, re.S)[0])
        assert ExperimentConfig().config_hash() == "9de80d4f8e96"
        assert example.config_hash() == "38429d37748c"
        assert ExperimentConfig(n=2, N=64, refine=False, seed=2025).config_hash() == "11e260df80c0"

    def test_initial_spec_holds_the_initial_keys(self):
        cfg = ExperimentConfig(generator="step-like", seed=9, kmax=5, smoothing=0.01, amplitude=0.3)
        assert cfg.initial_spec() == InitialDataSpec(
            generator="step-like", seed=9, kmax=5, smoothing=0.01, amplitude=0.3)

    def test_percent_in_a_value_is_text(self, tmp_path):
        cfg = ExperimentConfig(output_dir="runs%1")
        assert "output_dir = runs%1\n" in cfg.to_text()
        assert ExperimentConfig.from_text(cfg.to_text()) == cfg
        path = tmp_path / "pct.ini"
        path.write_text("[output]\noutput_dir = runs%%1\n")
        assert ExperimentConfig.load(path).output_dir == "runs%%1"

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nseed = 1\n",
        "[DEFAULT]\nseed = 1\n[grid]\nn = 1\n",
        "[grid]\nn = 1\n[DEFAULT]\nseed = 1\n",
    ])
    def test_default_section_is_an_unknown_section(self, text):
        # not configparser's defaults for every other section
        with pytest.raises(ValueError, match=r"^unknown config section \[DEFAULT\]$"):
            ExperimentConfig.from_text(text)

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
        ("centers_stride", 0, "centers_stride"),
        ("centers_stride", 129, "centers_stride"),
        ("radii_per_octave", 0, "radii_per_octave"),
        ("p", 1.0, "p must be in"),
        ("p", 0.5, "p must be in"),
        ("p", math.inf, "p must be in"),
        ("p", math.nan, "p must be in"),
        ("levels", 0, "levels must be positive"),
        ("steps_per_level", 0, "steps_per_level must be positive"),
        ("sweep_samples", 0, "sweep_samples must be positive"),
        ("stability_pairs", 0, "stability_pairs must be positive"),
        ("delta", math.inf, "delta must be positive and finite"),
        ("t_end", math.inf, "t_end must be finite"),
        ("tol", math.inf, "tol must be finite"),
        ("amplitude", math.nan, "amplitude must be finite"),
        ("smoothing", math.nan, "smoothing must be finite"),
        ("contraction_deltas", (0.01, math.inf), "contraction_deltas must be"),
        ("coefficients", (math.nan, 1.0, 1.0), "coefficients must be positive and finite"),
        ("coefficients", (math.inf, 1.0, 1.0), "coefficients must be positive and finite"),
    ])
    def test_invalid_values_rejected(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(**{field: value})
        with pytest.raises(ValueError, match=match):
            ExperimentConfig().with_overrides(**{field: value})
        section = harness._KEYS[field].metadata["section"]
        text = f"[{section}]\n{field} = {harness._format_value(value)}\n"
        with pytest.raises(ValueError, match=match):
            ExperimentConfig.from_text(text)

    @pytest.mark.parametrize("field", ["kmax", "seed"])
    @pytest.mark.parametrize("value", [2.5, 8.0, math.nan, math.inf], ids=["fraction", "float", "nan", "inf"])
    def test_kmax_and_seed_must_be_integers(self, field, value):
        # rejected when the config is built, not when data is drawn
        match = re.escape(f"{field} must be an integer, got {value!r}")
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(**{field: value})
        with pytest.raises(ValueError, match=match):
            ExperimentConfig().with_overrides(**{field: value})
        # the INI parser reads both as integers, and names the key
        with pytest.raises(ValueError, match=f"\\[initial\\] {field} = "):
            ExperimentConfig.from_text(f"[initial]\n{field} = {value}\n")
        assert getattr(ExperimentConfig(**{field: np.int64(3)}), field) == 3

    @pytest.mark.parametrize("deltas,text", [((), ""), ((0.01, -0.02), "0.01 -0.02")])
    def test_contraction_deltas_rejected(self, deltas, text):
        with pytest.raises(ValueError, match="contraction_deltas"):
            ExperimentConfig(contraction_deltas=deltas)
        with pytest.raises(ValueError, match="contraction_deltas"):
            ExperimentConfig.from_text(f"[suite]\ncontraction_deltas = {text}\n")

    @pytest.mark.parametrize("word", ["1", "true", "yes", "on", "0", "false", "no", "off"])
    def test_every_boolean_spelling_in_any_case(self, word):
        want = word in ("1", "true", "yes", "on")
        for spelling in (word, word.upper(), word.capitalize()):
            assert harness.boolean(spelling) is want
            text = f"[solver]\ntruncated = {spelling}\n[suite]\nrefine = {spelling}\n"
            cfg = ExperimentConfig.from_text(text)
            assert cfg.truncated is want and cfg.refine is want

    @pytest.mark.parametrize("section,key,value", [
        ("solver", "truncated", "treu"),
        ("suite", "refine", "ture"),
        ("solver", "truncated", ""),
        ("suite", "refine", "2"),
    ])
    def test_misspelt_boolean_rejected(self, section, key, value):
        with pytest.raises(ValueError, match=re.escape(f"[{section}] {key} = {value!r}: expected one of")):
            ExperimentConfig.from_text(f"[{section}]\n{key} = {value}\n")

    @pytest.mark.parametrize("text,match", [
        ("[bogus]\nx = 1\n", "unknown config section [bogus]"),
        ("[grid]\nbogus = 1\n", "unknown config key 'bogus' in [grid]"),
        ("[solver]\ntruncated = treu\n", "[solver] truncated = 'treu': expected one of"),
        ("[model]\nd = 1\n", "need at least two species"),
        ("", "empty config"),
    ])
    def test_every_error_names_the_source(self, text, match):
        with pytest.raises(ValueError, match="^" + re.escape(f"f.ini: {match}")):
            ExperimentConfig.from_text(text, "f.ini")
        # a text from no file is named by nothing
        with pytest.raises(ValueError, match="^" + re.escape(match)):
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

    def test_reduced_model_keeps_the_configured_delta(self):
        # the coefficients set alpha only; delta is the configured value,
        # whatever the coefficients' own spread
        cfg = ExperimentConfig(coefficients=(0.95, 1.05, 1.0))
        m, again = cfg.reduced_model(), cfg.reduced_model(0.05)
        assert m.delta == 0.05
        assert np.array_equal(m.alpha, again.alpha)

    def test_default_alpha_extremes(self):
        a = default_alpha(3)
        assert a.min() == -1.0 and a.max() == 1.0
        assert np.allclose(a, a.T)


class TestInitialData:
    def test_uniform(self):
        g = make_grid(1, 16)
        h = generate_initial_data(InitialDataSpec("uniform"), g, 3, 0.1)
        assert np.max(np.abs(h.values - 0.1 / 3)) < 1e-16

    def test_random_simplex_partition(self):
        g = make_grid(1, 64)
        h = generate_initial_data(InitialDataSpec("random-simplex", seed=11), g, 3, 0.05)
        vals = h.values
        assert np.max(np.abs(vals.sum(axis=0) - 0.05)) < 1e-12
        assert vals.min() > 0.0

    def test_random_simplex_deterministic(self):
        g = make_grid(1, 32)
        a = generate_initial_data(InitialDataSpec("random-simplex", seed=1), g, 2, 0.1)
        b = generate_initial_data(InitialDataSpec("random-simplex", seed=1), g, 2, 0.1)
        np.testing.assert_array_equal(a.values, b.values)

    def test_step_like_partition(self):
        g = make_grid(1, 128)
        h = generate_initial_data(InitialDataSpec("step-like", smoothing=0.01), g, 3, 0.05)
        vals = h.values
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
        assert np.max(np.abs(ht.values.sum(axis=0) - 0.02)) < 1e-15
        assert np.max(np.abs(ht.values - h.values)) > 1e-4


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
        check = verify_partition(traj, 0.05)
        assert check.passed and check.value <= 1e-12

    def test_partition_check_fails_for_asymmetric_coupling(self):
        g = make_grid(1, 64)
        tg = TimeGrid.dyadic(0.5, levels=5, steps_per_level=4)
        asym = np.zeros((3, 3))
        asym[0, 1], asym[1, 0] = 1.0, -1.0
        broken = ReducedModel(delta=0.2, alpha=asym)
        h = generate_initial_data(InitialDataSpec("random-simplex", seed=3), g, 3, 0.2)
        traj = imex_solve(h, broken, tg)
        check = verify_partition(traj, 0.2)
        assert not check.passed
        assert check.value > 1e-4

    def test_nonnegativity_and_mass(self):
        g = make_grid(1, 32)
        tg = TimeGrid(np.linspace(0.0, 0.1, 5))
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
        tg = TimeGrid(np.linspace(0.0, 0.1, 9))
        x = g.axes()[0]
        bump = -0.05 * np.exp(-((x - 0.5) ** 2) / 0.002)
        vals = np.tile(np.stack([bump + 0.03, np.full(g.shape, 0.03)]), (len(tg), 1, 1))
        traj = Trajectory(g, tg, vals)
        model = ReducedModel.from_alpha(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.05)
        residual, coercivity = energy_identity_probe(traj, model)
        assert residual.value > 0.0
        assert coercivity.value > 0.0

    def test_two_node_trajectory_takes_one_sided_differences(self):
        # np.gradient differences the two nodes, where the hand-written
        # stencil raised for want of a third
        g = make_grid(1, 32)
        tg = TimeGrid(np.array([0.0, 0.01]))
        h = generate_initial_data(InitialDataSpec("random-simplex", seed=5), g, 3, 0.05)
        model = ReducedModel.from_alpha(default_alpha(3), 0.05)
        residual, coercivity = energy_identity_probe(heat_flow_trajectory(h, tg), model)
        assert residual.passed and residual.value == 0.0 and coercivity.passed


    @staticmethod
    def _signed_heat_flow(n, N, tg):
        # three species of zero mean: every energy term is nonzero
        g = make_grid(n, N)
        rng = np.random.default_rng(30 + n)
        h = SpeciesVector(g, 0.05 * np.stack(
            [random_band_limited(g, rng, 6) for _ in range(3)]))
        return heat_flow_trajectory(h, tg)

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 16), (2, 64)])
    def test_streamed_equals_whole_array(self, n, N, monkeypatch):
        # bit for bit, with blocks of 1, 3 or all nodes
        tg = TimeGrid.dyadic(0.25, levels=4, steps_per_level=4)
        traj = self._signed_heat_flow(n, N, tg)
        model = ReducedModel.from_alpha(default_alpha(3), 0.05)
        ref = _energy_probe_whole_array(traj, model)
        assert ref[0] > 0.0 and ref[1] < 1.0
        node = traj.values[0].nbytes * n  # the gradient of one node
        for nodes in (1, 3, len(tg)):
            monkeypatch.setattr(fields, "BLOCK_BYTES", nodes * node)
            got = [c.value for c in energy_identity_probe(traj, model)]
            assert [v.hex() for v in got] == [v.hex() for v in ref]

    def test_peak_memory(self):
        # one block of nodes at a time and the (T, d) tables: 0.10x the
        # trajectory measured; the negative part, its gradient and the
        # coercivity factor held whole peaked at 7.0x
        tg = TimeGrid.dyadic(1.0, levels=10, steps_per_level=8)
        traj = self._signed_heat_flow(2, 64, tg)
        model = ReducedModel.from_alpha(default_alpha(3), 0.05)
        tracemalloc.start()
        try:
            energy_identity_probe(traj, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * traj.values.nbytes


def _energy_probe_whole_array(traj, model):
    """The energy identity residual and the coercivity minimum with every
    field of the whole trajectory held in one array."""
    grid = traj.grid
    neg = np.minimum(traj.values, 0.0)
    axes = tuple(range(2, 2 + grid.n))
    energy = 0.5 * np.mean(neg**2, axis=axes)
    dedt = np.gradient(energy, traj.tg.times, axis=0)
    grad_sq = (gradient_flux(Trajectory(grid, traj.tg, neg)).values ** 2).sum(axis=2)
    factor = 1.0 + np.einsum("ij,tj...->ti...", model.alpha, np.clip(traj.values, 0.0, model.delta))
    dissipation = np.mean(grad_sq * factor, axis=axes)
    return [float(np.max(np.abs(dedt + dissipation))), float(factor.min())]


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

    @pytest.mark.parametrize("n", [1, 2])
    def test_suite_ignores_blocking(self, n, monkeypatch):
        # every streamed pass, run one node (or one radius) per block, gives
        # every check the same value, bit for bit
        cfg = replace(TINY, n=n)
        want = [(c.name, float(c.value).hex()) for c in run_suite(cfg).checks]
        monkeypatch.setattr(fields, "BLOCK_BYTES", 1)
        assert [(c.name, float(c.value).hex()) for c in run_suite(cfg).checks] == want

    def test_checks_csv_rows_parse_to_six_fields(self, tmp_path):
        # a name and a note that hold commas, as the kernel-scaling check's
        # name and the gradient-decay note's interval do
        note = "fitted slope -0.5000 over t in (0.0001, 0.01)"
        checks = [make_check("decay, order 1", -0.5, -0.4, "<=", note),
                  make_check("plain", 1.0, 2.0, "<")]
        VerificationReport(checks=checks).write(tmp_path)
        with open(tmp_path / "checks.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["name", "value", "op", "threshold", "passed", "note"]
        assert [len(row) for row in rows] == [6, 6, 6]
        assert rows[1] == ["decay, order 1", "-0.5", "<=", "-0.40000000000000002", "True", note]
        assert rows[2][0] == "plain" and rows[2][5] == ""

    def test_suite_checks_csv_parses(self, tmp_path):
        # levels=8 resolves the gradient-decay fit window [0.0001, 0.01]
        cfg = replace(TINY, levels=8)
        report = run_suite(cfg, out_dir=tmp_path, groups=("kernel-scaling", "gradient-decay"))
        with open(tmp_path / "checks.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(len(row) == 6 for row in rows)
        assert [(row[0], row[5]) for row in rows[1:]] == [(c.name, c.note) for c in report.checks]
        assert any("," in c.name for c in report.checks)
        assert any(c.note.endswith("over t in [0.0001, 0.01]") for c in report.checks)

    def test_report_text_lists_thresholds(self):
        rep = VerificationReport(checks=[make_check("x", 1.0, 2.0, "<=")],
                                 provenance={"seed": 0})
        text = rep.to_text()
        assert "x: 1 <= 2" in text
        assert "1/1 checks passed" in text

    @pytest.mark.parametrize("group", ["check_stability", "check_gradient_decay"])
    def test_groups_pass_the_configured_max_iter(self, group, monkeypatch):
        seen = []
        real = harness.picard_solve

        def recorded(*args, **kwargs):
            seen.append(kwargs.get("max_iter"))
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "picard_solve", recorded)
        getattr(harness, group)(SuiteContext(replace(TINY, max_iter=7)))
        assert seen and set(seen) == {7}

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


    def test_refinement_adds_one_last_check_per_group(self):
        # N -> 2N only appends a stability check; the suite-grid checks are
        # the same with or without refinement
        coarse, fine = SuiteContext(TINY), SuiteContext(replace(TINY, refine=True))
        for group in ("check_gradient_decay", "check_maximal_regularity", "check_lipschitz"):
            base = getattr(harness, group)(coarse)
            refined = getattr(harness, group)(fine)
            assert refined[:-1] == base
            assert refined[-1].name.endswith(" stability under N -> 2N")
            assert refined[-1].threshold == 0.2 and refined[-1].op == "<="

    @pytest.mark.parametrize("deltas,ordered", [((0.05,), False), ((0.05, 0.05), False),
                                                ((0.05, 0.02), True)])
    def test_contraction_ordering_needs_two_deltas(self, deltas, ordered):
        # "one or more" deltas is a valid config; the ordering check is
        # formed only from two or more distinct ones
        checks = harness.check_contraction(SuiteContext(replace(TINY, contraction_deltas=deltas)))
        names = [c.name for c in checks]
        assert ("contraction factor non-increasing as delta decreases" in names) == ordered
        per_delta = {float(name.rsplit("=", 1)[1]) for name in names if "=" in name}
        assert per_delta == set(deltas)

    def test_repeated_delta_checked_once(self):
        checks = harness.check_contraction(SuiteContext(replace(TINY, contraction_deltas=(0.05, 0.05))))
        names = [c.name for c in checks]
        assert len(names) == len(set(names)) == 3
        assert checks == harness.check_contraction(SuiteContext(replace(TINY, contraction_deltas=(0.05,))))

    def test_ladder_built_from_config(self):
        cfg = ExperimentConfig(N=32, radii_per_octave=3, centers_stride=8)
        ctx = SuiteContext(cfg)
        assert ctx.cylinders == enumerate_cylinders(ctx.grid, ctx.tg, 3, 8)
        fine = make_grid(1, 64)
        assert cfg.cylinders(fine, ctx.tg) == enumerate_cylinders(fine, ctx.tg, 3, 8)


class TestReference:
    def test_self_convergence_at_suite_config(self):
        # a tenth of the 1e-3 picard-vs-reference gate
        ctx = SuiteContext(ExperimentConfig())
        for delta in ctx.config.contraction_deltas:
            coarse, fine = ctx.imex(delta, refine=4), ctx.imex(delta, refine=8)
            rel = np.max(np.abs(coarse.values - fine.values)) / np.max(np.abs(fine.values))
            assert rel <= 1e-4


def _random_flux_whole(grid, tg, d, seed, kmax):
    """The seeded fluxes of the maximal-regularity sweep as one whole array,
    by the formula that built them whole before they were streamed."""
    rng = np.random.default_rng(seed)
    vals = np.zeros((len(tg), d, grid.n) + grid.shape)
    for i in range(d):
        for m in range(grid.n):
            a = random_band_limited(grid, rng, kmax, 1.0)
            rate = float(rng.uniform(0.5, 4.0))
            envelope = np.exp(-rate * tg.times).reshape((-1,) + (1,) * grid.n)
            vals[:, i, m] = envelope * a
    return vals


class TestSweepMemory:
    """The maximal-regularity sweep streams its flux, and no cylinder scan
    holds the time quadratures of every radius."""

    @pytest.mark.parametrize("n,N,blocks", [(1, 64, 1), (2, 64, 89)])
    def test_random_flux_blocks_equal_whole_array(self, n, N, blocks):
        grid, tg = make_grid(n, N), TimeGrid.dyadic(1.0, levels=10, steps_per_level=8)
        want = _random_flux_whole(grid, tg, 3, 2525, 6)
        got = list(harness._random_flux(grid, tg, 3, 2525, 6))
        assert len(got) == blocks
        assert [b for b, _ in got] == fields.index_blocks(len(tg), want[0].nbytes)
        # bit for bit: the bytes tell -0.0 from 0.0
        assert np.concatenate([block for _, block in got]).tobytes() == want.tobytes()

    @pytest.mark.parametrize("check,bound", [("check_maximal_regularity", 1.0),
                                             ("check_lipschitz", 1.5)])
    def test_peak_at_2d_n64(self, check, bound):
        # tracemalloc peaks in trajectories of one sample (T x d x N^2
        # floats), with the cached tables warm: 0.42 and 1.06 measured; the
        # flux held whole and the quadratures of every radius held to the
        # end of each scan peaked at 2.60 and 1.68
        ctx = SuiteContext(ExperimentConfig(n=2, N=64, sweep_samples=2, refine=False))
        getattr(harness, check)(ctx)
        tracemalloc.start()
        try:
            getattr(harness, check)(ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * harness._sample_bytes(ctx, ctx.grid)


class TestFiniteGates:
    """The gates on the suite's constants are finite: a value past its bound
    fails the check."""

    @pytest.mark.parametrize("check,name,source,index", [
        ("check_stability", "stability ratio maximum", "xp_norm", None),
        ("check_maximal_regularity", "maximal-regularity ratio maximum", "maximal_regularity_ratio", None),
        ("check_lipschitz", "flux-map Lipschitz constant maximum", "_heat_flow_probes", 0),
        ("check_lipschitz", "flux-map quadratic bound at w=0", "_heat_flow_probes", 1),
    ])
    def test_value_past_the_bound_fails(self, monkeypatch, check, name, source, index):
        def run():
            checks = getattr(harness, check)(SuiteContext(TINY))
            return next(c for c in checks if c.name == name)

        base = run()
        assert base.passed and base.op == "<" and math.isfinite(base.threshold)
        # scale what the ratio is made of so that its maximum lands just past the bound
        scale = base.threshold / base.value * (1.0 + 1e-6)
        real = getattr(harness, source)
        if index is None:
            monkeypatch.setattr(harness, source, lambda *a, **k: scale * real(*a, **k))
        else:
            def scaled(*args, **kwargs):
                reports = list(real(*args, **kwargs))
                if reports[index] is not None:
                    reports[index] = replace(reports[index], ratio=scale * reports[index].ratio)
                return tuple(reports)

            monkeypatch.setattr(harness, source, scaled)
        past = run()
        assert past.threshold == base.threshold
        assert base.threshold < past.value < 1.001 * base.threshold
        assert not past.passed


# os.fork itself, whichever wrapper a test puts in its place
_REAL_FORK = os.fork


@pytest.fixture
def sample_log(tmp_path):
    """A sample function that logs (sample, process) to a file, and a reader
    of that log as sorted (sample, run by this process) pairs."""
    log = tmp_path / "samples.log"

    def fn(j, fail=()):
        with open(log, "a") as fh:
            fh.write(f"{j} {os.getpid()}\n")
        if j in fail:
            raise ValueError(f"sample {j} failed")
        return math.sqrt(j) / 3.0, -0.1 * j

    def read():
        if not log.exists():
            return []
        rows = [line.split() for line in log.read_text().splitlines()]
        return sorted((int(j), int(pid) == os.getpid()) for j, pid in rows)

    return fn, read


class TestSampleFanOut:
    """A check's samples split between this process and a forked child once
    count x sample_bytes reach solver.SPLIT_BYTES; the checks, and the
    errors, must not depend on the path."""

    CFG = ExperimentConfig(n=2, N=16, kmax=3, levels=4, steps_per_level=4, sweep_samples=5,
                           stability_pairs=3, refine=False, seed=11)
    # 7 samples, 0-2 in this process and 3-6 in the child
    COUNT = 7
    ABOVE = -(-solver.SPLIT_BYTES // COUNT)

    @staticmethod
    def _force(monkeypatch, split) -> list:
        # two usable cores, whatever this machine has; returns a log of forks
        monkeypatch.setattr(solver, "_usable_cores", lambda: 2)
        monkeypatch.setattr(solver, "SPLIT_BYTES", 0 if split else math.inf)
        forks = []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or _REAL_FORK())
        return forks

    def _serial_rows(self, fn):
        return [list(fn(j)) for j in range(self.COUNT)]

    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_child_takes_the_second_half_on_two_or_more_cores(self, monkeypatch, sample_log, no_child_left,
                                                              cores):
        fn, log = sample_log
        monkeypatch.setattr(solver, "_usable_cores", lambda: cores)
        rows = harness._map_samples(fn, self.COUNT, 2, self.ABOVE)
        assert self.COUNT * self.ABOVE >= solver.SPLIT_BYTES
        assert log() == [(j, cores < 2 or j < self.COUNT // 2) for j in range(self.COUNT)]
        assert rows == self._serial_rows(fn)
        no_child_left()

    @pytest.mark.parametrize("fallback", ["below the constant", "one sample", "second thread", "no os.fork"])
    def test_no_fork_below_the_constant_or_from_a_second_thread(self, monkeypatch, sample_log, fallback):
        fn, log = sample_log
        monkeypatch.setattr(solver, "_usable_cores", lambda: 2)
        count, size = self.COUNT, self.ABOVE
        if fallback == "below the constant":
            size = (solver.SPLIT_BYTES - 1) // count
        elif fallback == "one sample":
            count, size = 1, solver.SPLIT_BYTES
        elif fallback == "no os.fork":
            monkeypatch.delattr(os, "fork")
        if fallback == "second thread":
            result = []
            thread = threading.Thread(target=lambda: result.append(harness._map_samples(fn, count, 2, size)))
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()
            rows, = result
        else:
            rows = harness._map_samples(fn, count, 2, size)
        assert log() == [(j, True) for j in range(count)]
        assert rows == self._serial_rows(fn)[:count]

    # samples 0-2 are this process's half of 7, samples 3-6 the child's,
    # which runs its half up to its first failure
    @pytest.mark.parametrize("fail,by_child", [((1,), [3, 4, 5, 6]), ((1, 5), [3, 4, 5]),
                                               ((4,), [3, 4]), ((4, 6), [3, 4])])
    def test_failing_sample_raises_the_serial_error(self, monkeypatch, sample_log, capfd, no_child_left,
                                                    fail, by_child):
        fn, log = sample_log
        capfd.readouterr()
        monkeypatch.setattr(solver, "_usable_cores", lambda: 1)
        with pytest.raises(ValueError) as serial:
            harness._map_samples(lambda j: fn(j, fail), self.COUNT, 2, self.ABOVE)
        assert str(serial.value) == f"sample {fail[0]} failed"
        monkeypatch.setattr(solver, "_usable_cores", lambda: 2)
        with pytest.raises(ValueError) as split:
            harness._map_samples(lambda j: fn(j, fail), self.COUNT, 2, self.ABOVE)
        assert str(split.value) == str(serial.value)
        assert [j for j, here in log() if not here] == by_child
        assert capfd.readouterr().err == ""
        no_child_left()

    @pytest.mark.parametrize("death", ["os._exit(3)", "SIGKILL"])
    def test_child_dying_without_raising_has_its_half_redone_here(self, monkeypatch, sample_log, capfd,
                                                                  no_child_left, death):
        fn, log = sample_log
        monkeypatch.setattr(solver, "_usable_cores", lambda: 2)
        parent = os.getpid()

        def sample(j):
            row = fn(j)
            if os.getpid() != parent and j == 5:
                if death == "SIGKILL":
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(3)
            return row

        capfd.readouterr()
        rows = harness._map_samples(sample, self.COUNT, 2, self.ABOVE)
        # the child ran samples 3-5 before it died; all of 3-6 ran again here
        assert log() == sorted([(j, True) for j in range(self.COUNT)] + [(j, False) for j in (3, 4, 5)])
        assert rows == self._serial_rows(fn)
        assert capfd.readouterr().err == ""
        no_child_left()

    def test_no_fork_to_be_had_runs_both_halves_here(self, monkeypatch, sample_log):
        fn, log = sample_log
        monkeypatch.setattr(solver, "_usable_cores", lambda: 2)

        def refuse():
            raise BlockingIOError("no process")

        monkeypatch.setattr(os, "fork", refuse)
        rows = harness._map_samples(fn, self.COUNT, 2, self.ABOVE)
        assert log() == [(j, True) for j in range(self.COUNT)]
        assert rows == self._serial_rows(fn)

    @pytest.mark.parametrize("check", ["check_maximal_regularity", "check_lipschitz", "check_stability"])
    def test_threaded_equals_serial(self, check, monkeypatch, no_child_left):
        # one fork per sample map, and one for the stability check's
        # unperturbed Picard solve; its perturbed solves inside the map fork not
        split_forks = 2 if check == "check_stability" else 1
        values, forks = {}, {}
        for split in (False, True):
            forks[split] = self._force(monkeypatch, split)
            values[split] = [(c.name, c.value) for c in getattr(harness, check)(SuiteContext(self.CFG))]
        assert values[True] == values[False]
        assert (len(forks[False]), len(forks[True])) == (0, split_forks)
        no_child_left()

    @pytest.mark.parametrize("group", ["maximal-regularity", "lipschitz", "stability"])
    @pytest.mark.parametrize("bad,match", [("p", "p in \\(1, inf\\), got 0.5"),
                                           ("kmax", "kmax must be in")])
    def test_worker_error_reads_as_serial(self, group, bad, match, monkeypatch, capfd, no_child_left):
        cfg = replace(self.CFG, kmax=8) if bad == "kmax" else replace(self.CFG)
        if bad == "p":
            cfg.p = 0.5  # past the config's own check, as a caller may set it
        messages = []
        for split in (False, True):
            self._force(monkeypatch, split)
            with pytest.raises(RuntimeError, match=match) as exc:
                run_suite(cfg, groups=[group])
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith(f"suite group {group!r} failed to run: ")
        assert capfd.readouterr().err == ""
        no_child_left()

    def test_run_suite_starts_no_thread(self, monkeypatch):
        started = []
        real_start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self: started.append(self) or real_start(self))
        forks = self._force(monkeypatch, True)
        run_suite(TINY, groups=["stability", "maximal-regularity", "lipschitz"])
        assert started == [] and threading.active_count() == 1
        # the three sample maps, and the stability check's unperturbed solve
        assert len(forks) == 4
