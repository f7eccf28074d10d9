import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields as dc_fields
from pathlib import Path

import pytest

from crossdiff.carleson import enumerate_cylinders
from crossdiff.cli import EXIT_DIVERGED, _add_common, main
from crossdiff.harness import ExperimentConfig, _format_value
from crossdiff.trajectory import Trajectory


@pytest.fixture()
def tiny_args(tmp_path):
    return [
        "--N", "16", "--t-end", "0.01", "--levels", "2", "--steps-per-level", "2",
        "--kmax", "3", "--seed", "7", "--out", str(tmp_path / "run"),
    ]


def test_solve_verify_norms_round_trip(tmp_path, tiny_args, capsys):
    code = main(["solve", "--scheme", "imex"] + tiny_args)
    assert code == 0
    run_dir = tmp_path / "run"
    assert (run_dir / "manifest.json").exists()
    assert (run_dir / "config.ini").exists()
    assert (run_dir / "values.npy").exists()
    out = capsys.readouterr().out
    assert "partition deviation" in out

    traj = Trajectory.load(run_dir)
    assert main(["verify", "--traj", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "partition-of-unity" in out
    assert f"content = {traj.content_hash()}" in out
    assert f"manifest = {traj.manifest_hash()}" in out
    assert (run_dir / "checks.csv").exists()

    assert main(["norms", "--traj", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "seminorm" in out
    header = (run_dir / "norms.csv").read_text().splitlines()[0]
    assert header.endswith(f" manifest={traj.manifest_hash()} content={traj.content_hash()}")


def test_solve_picard_reports_iterations(tmp_path, tiny_args, capsys):
    code = main(["solve", "--scheme", "picard", "--metric", "sup"] + tiny_args)
    assert code == 0
    assert "fixed-point iteration" in capsys.readouterr().out


def test_lemma_checks(tmp_path, capsys):
    out_dir = tmp_path / "lemmas"
    code = main([
        "lemma-checks", "--N", "16", "--t-end", "0.25", "--levels", "3",
        "--steps-per-level", "3", "--kmax", "3", "--sweep-samples", "2",
        "--seed", "7", "--no-refine", "--out", str(out_dir),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert re.search(rf"^lemma-checks finished in [0-9.]+s; report written to {re.escape(str(out_dir))}$",
                     out, re.M)
    with open(out_dir / "checks.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    groups = {row[0].split(":")[0] for row in rows[1:]}
    assert groups == {"kernel-scaling", "maximal-regularity", "lipschitz"}
    assert (out_dir / "summary.txt").read_text() in out
    assert (out_dir / "config.ini").exists()


def test_solve_divergence_is_one_line_error(tmp_path, tiny_args, capsys):
    code = main(["solve", "--scheme", "picard", "--metric", "sup", "--delta", "3"] + tiny_args)
    assert code == EXIT_DIVERGED
    err = capsys.readouterr().err
    assert "diverged" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "run").exists()


def test_invalid_config_exits_with_usage_code(tiny_args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--scheme", "rk4"] + tiny_args)
    assert exc.value.code == 2
    assert "unknown scheme" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,match", [("--p", "1", "p must be in"),
                                              ("--levels", "0", "levels must be positive")])
def test_out_of_range_value_exits_with_usage_code(tmp_path, flag, value, match, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--N", "64", flag, value, "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert match in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["solve", "suite"])
@pytest.mark.parametrize("coefficients,match", [("1 2", "expected 3 upper-triangular entries, got 2"),
                                                ("1 1 1", "degenerate")])
def test_unusable_coefficients_exit_with_usage_code(command, coefficients, match, tmp_path, capsys):
    # d=3 needs three entries that do not all coincide; the config says so
    # before any suite group runs
    with pytest.raises(SystemExit) as exc:
        main([command, "--N", "16", "--kmax", "4", "--coefficients", coefficients,
              "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("crossdiff: invalid config: ") and match in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["solve", "suite"])
def test_time_grid_without_a_cylinder_exits_with_usage_code(command, tmp_path, capsys):
    # the first stored time 2 wants R_min = 2, past the cap R = 1/2
    with pytest.raises(SystemExit) as exc:
        main([command, "--N", "16", "--kmax", "4", "--t-end", "4", "--levels", "1",
              "--steps-per-level", "1", "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("crossdiff: invalid config: empty radius ladder")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "run").exists()


def _drop_manifest_key(run_dir):
    manifest = json.loads((run_dir / "manifest.json").read_text())
    del manifest["N"]
    (run_dir / "manifest.json").write_text(json.dumps(manifest))


def _cut_values(run_dir):
    path = run_dir / "values.npy"
    path.write_bytes(path.read_bytes()[:-100])


def _list_manifest(run_dir):
    (run_dir / "manifest.json").write_text("[1, 2]")


def _nan_time(run_dir):
    manifest = json.loads((run_dir / "manifest.json").read_text())
    manifest["times"][1] = math.nan  # json writes NaN, and reads it back
    (run_dir / "manifest.json").write_text(json.dumps(manifest))


def _inf_last_time(run_dir):
    manifest = json.loads((run_dir / "manifest.json").read_text())
    manifest["times"][-1] = math.inf
    (run_dir / "manifest.json").write_text(json.dumps(manifest))


def _float_N(run_dir):
    manifest = json.loads((run_dir / "manifest.json").read_text())
    manifest["N"] = 16.0
    (run_dir / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("command", ["verify", "norms"])
@pytest.mark.parametrize("damage,match", [(None, "No such file"), (_drop_manifest_key, "lacks the key 'N'"),
                                          (_cut_values, "values.npy"),
                                          (_list_manifest, "manifest.json is not a JSON object"),
                                          (_nan_time, "finite and strictly increasing"),
                                          (_inf_last_time, "finite and strictly increasing"),
                                          (_float_N, "must be integers, got n=1, N=16.0")])
def test_unreadable_run_exits_with_usage_code(command, damage, match, tmp_path, tiny_args, capsys):
    run_dir = tmp_path / "run"
    if damage is not None:
        assert main(["solve", "--scheme", "imex"] + tiny_args) == 0
        damage(run_dir)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([command, "--traj", str(run_dir)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"crossdiff: cannot read the run in {run_dir}: ") and match in err
    assert len(err.strip().splitlines()) == 1


def _edit_metadata(run_dir, edit):
    manifest = json.loads((run_dir / "manifest.json").read_text())
    edit(manifest["metadata"])
    (run_dir / "manifest.json").write_text(json.dumps(manifest))


def _without_alpha(delta):
    """The metadata edit that drops alpha and records delta."""
    return lambda meta: (meta.pop("alpha"), meta.update(delta=delta))


@pytest.mark.parametrize("edit,match", [
    (lambda meta: meta.pop("delta"), "records alpha but no delta"),
    (lambda meta: meta.update(alpha=[[0.0, 1.0], [1.0, 0.0]]), "alpha must be 3x3"),
    (lambda meta: meta.update(alpha=[[0.0, 2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
     "|alpha_ij| <= 1"),
    (lambda meta: meta.update(delta=None), "its manifest records delta None, not a number"),
    # without alpha, not a traceback (null, text) nor a silent run without
    # the partition check (negative, zero, nan)
    (_without_alpha(None), "its manifest records delta None, not a number"),
    (_without_alpha("abc"), "its manifest records delta 'abc', not a number"),
    (_without_alpha(-1), "delta must be positive and finite, got -1.0"),
    (_without_alpha(0), "delta must be positive and finite, got 0.0"),
    (_without_alpha(math.nan), "delta must be positive and finite, got nan"),
], ids=["no-delta", "alpha-2x2", "alpha-too-large", "delta-null", "no-alpha-delta-null", "no-alpha-delta-text",
        "no-alpha-delta-negative", "no-alpha-delta-zero", "no-alpha-delta-nan"])
def test_broken_model_record_exits_with_usage_code(edit, match, tmp_path, tiny_args, capsys):
    run_dir = tmp_path / "run"
    assert main(["solve", "--scheme", "imex"] + tiny_args) == 0
    _edit_metadata(run_dir, edit)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--traj", str(run_dir)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"crossdiff: cannot read the run in {run_dir}: ") and match in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("edit,checks", [(lambda meta: meta.pop("delta"), 2), (lambda meta: None, 3)],
                         ids=["no-delta", "delta"])
def test_run_without_alpha_checks_the_partition_when_it_records_delta(edit, checks, tmp_path, tiny_args,
                                                                       capsys):
    run_dir = tmp_path / "run"
    assert main(["solve", "--scheme", "imex"] + tiny_args) == 0
    _edit_metadata(run_dir, lambda meta: (meta.pop("alpha"), edit(meta)))
    capsys.readouterr()
    assert main(["verify", "--traj", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert f"{checks}/{checks} checks passed" in out
    assert ("partition-of-unity" in out) == (checks == 3)


def test_run_that_records_a_diffusivity_still_verifies(tmp_path, tiny_args, capsys):
    # runs saved before the model lost its diffusivity K hold it in their
    # metadata, which nothing reads
    run_dir = tmp_path / "run"
    assert main(["solve", "--scheme", "imex"] + tiny_args) == 0
    assert "K" not in json.loads((run_dir / "manifest.json").read_text())["metadata"]
    _edit_metadata(run_dir, lambda meta: meta.update(K=1.0))
    capsys.readouterr()
    assert main(["verify", "--traj", str(run_dir)]) == 0
    assert "5/5 checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("delta", ["0", "-1", "nan", "inf"])
def test_verify_delta_that_is_not_positive_exits_with_usage_code(delta, tmp_path, tiny_args, capsys):
    run_dir = tmp_path / "run"
    assert main(["solve", "--scheme", "imex"] + tiny_args) == 0
    capsys.readouterr()
    # not a silent run without the partition check, which 0, -1 and nan once gave
    assert main(["verify", "--traj", str(run_dir), "--delta", delta]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"crossdiff verify: --delta must be positive and finite, got {float(delta)}\n"
    assert captured.out == ""


@pytest.mark.parametrize("flag,value,match", [("--delta", "inf", "delta must be positive and finite"),
                                              ("--contraction-deltas", "inf", "contraction_deltas"),
                                              ("--tol", "inf", "tol must be finite"),
                                              ("--amplitude", "nan", "amplitude must be finite"),
                                              ("--coefficients", "nan 1 1", "coefficients must be")])
def test_nonfinite_value_exits_before_the_suite(flag, value, match, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["suite", "--N", "16", "--kmax", "4", flag, value, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("crossdiff: invalid config: ") and match in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_unparsable_flag_names_its_parser(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--p", "abc", "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert "argument --p: invalid optional float value: 'abc'" in capsys.readouterr().err


def test_unparsable_config_value_names_its_section_and_key(tmp_path, capsys):
    cfg_path = tmp_path / "bad.ini"
    cfg_path.write_text("[norms]\np = abc\n")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"crossdiff: invalid config: {cfg_path}: [norms] p = 'abc': could not convert")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("section,key,value", [("solver", "truncated", "treu"),
                                               ("suite", "refine", "ture")])
def test_misspelt_boolean_in_config_exits_with_usage_code(tmp_path, capsys, section, key, value):
    cfg_path = tmp_path / "bad.ini"
    cfg_path.write_text(f"[{section}]\n{key} = {value}\n")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"crossdiff: invalid config: {cfg_path}: [{section}] {key} = '{value}': "
                          "expected one of")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("text,match", [
    ("[bogus]\nx = 1\n", "unknown config section [bogus]"),
    ("[DEFAULT]\nseed = 1\n", "unknown config section [DEFAULT]"),
    ("[grid]\nbogus = 1\n", "unknown config key 'bogus' in [grid]"),
    ("[grid]\nN = sixteen\n", "[grid] N = 'sixteen': invalid literal for int()"),
    ("[grid]\nN = 96\n", "N must be a power of two >= 8, got 96"),
    ("\n", "empty config: no sections found"),
])
def test_config_error_names_the_file(text, match, tmp_path, capsys):
    # the errors from_text raises itself, and the config's own validation
    # errors, name the file as configparser's do
    cfg_path = tmp_path / "bad.ini"
    cfg_path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"crossdiff: invalid config: {cfg_path}: {match}")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "run").exists()


# case: (the file's text, None for no file and "" for a directory; what stderr names)
_UNREADABLE_CONFIGS = {
    "duplicate-key": ("[grid]\nN = 16\nN = 32\n", "option 'N' in section 'grid' already exists"),
    "duplicate-section": ("[grid]\nN = 16\n[grid]\nn = 1\n", "section 'grid' already exists"),
    "no-section-header": ("N = 16\n", "File contains no section headers"),
    "malformed-line": ("[grid]\nN 16\n", "Source contains parsing errors"),
    "missing-path": (None, "No such file or directory"),
    "directory": ("", "Is a directory"),
}


def test_every_key_has_a_flag():
    # each key's flag parses the text to_text() writes; truncated and refine have the paired flags
    parser = argparse.ArgumentParser()
    _add_common(parser)
    paired = {"truncated": {"--truncated": True, "--untruncated": False}, "refine": {"--no-refine": False}}
    for key in dc_fields(ExperimentConfig):
        flag = f"--{key.name.replace('_', '-')}"
        for argv, want in paired.get(key.name, {f"{flag}={_format_value(key.default)}": key.default}).items():
            assert vars(parser.parse_args([argv])) == {"config": None, key.name: want}


# norms reads its run's config.ini only where there is one
@pytest.mark.parametrize("command,case", [
    (command, case) for command in ("solve", "suite", "lemma-checks", "norms")
    for case in _UNREADABLE_CONFIGS if (command, case) != ("norms", "missing-path")])
def test_config_that_cannot_be_read_exits_with_usage_code(command, case, tmp_path, tiny_args, capsys):
    text, match = _UNREADABLE_CONFIGS[case]
    if command == "norms":
        assert main(["solve"] + tiny_args) == 0
        path = tmp_path / "run" / "config.ini"
        argv = ["norms", "--traj", str(tmp_path / "run")]
    else:
        path = tmp_path / "bad.ini"
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
    if text == "":
        path.unlink(missing_ok=True)
        path.mkdir()
    elif text is not None:
        path.write_text(text)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("crossdiff: invalid config: ") and match in err
    assert str(path) in err  # the line names the file, not configparser's '<string>'
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_percent_in_a_value_is_text(tmp_path, tiny_args, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = [a for a in tiny_args if a not in ("--out", str(tmp_path / "run"))]
    assert main(["solve", "--output-dir", "runs%1"] + args) == 0
    (run_dir,) = (tmp_path / "runs%1").iterdir()
    assert "output_dir = runs%1\n" in (run_dir / "config.ini").read_text()
    assert ExperimentConfig.load(run_dir / "config.ini").output_dir == "runs%1"


def test_closeness_threshold_is_neither_flag_nor_key(tmp_path, tiny_args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--closeness-threshold", "0.1", "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --closeness-threshold" in capsys.readouterr().err
    # a run whose config.ini still has the key: norms names it and exits 2
    run_dir = tmp_path / "run"
    assert main(["solve"] + tiny_args) == 0
    saved = run_dir / "config.ini"
    saved.write_text(saved.read_text().replace("[model]\n", "[model]\ncloseness_threshold = 0.1\n"))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["norms", "--traj", str(run_dir)])
    assert exc.value.code == 2
    assert "unknown config key 'closeness_threshold' in [model]" in capsys.readouterr().err


def test_kmax_too_large_for_grid_exits_with_usage_code(tmp_path, capsys):
    # the default kmax=8 needs N >= 18; the generator, not the config, rejects it
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--N", "16", "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("crossdiff: invalid config: kmax must be in")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("generator", ["uniform", "step-like"])
def test_kmax_is_not_checked_where_no_data_is_band_limited(generator, tmp_path, capsys):
    # neither generator reads kmax, and norms draws no data at all: the
    # default kmax=8 on N=16 stays valid for both commands
    run_dir = tmp_path / "run"
    assert main(["solve", "--N", "16", "--t-end", "0.01", "--levels", "2", "--steps-per-level", "2",
                 "--generator", generator, "--out", str(run_dir)]) == 0
    assert main(["norms", "--traj", str(run_dir)]) == 0
    assert capsys.readouterr().err == ""


def test_lemma_checks_default_directory(tmp_path, monkeypatch, capsys):
    # <output_dir>/<command>-<config hash>, as for suite
    monkeypatch.chdir(tmp_path)
    flags = ["--N", "16", "--t-end", "0.25", "--levels", "3", "--steps-per-level", "3",
             "--kmax", "3", "--sweep-samples", "2", "--no-refine"]
    assert main(["lemma-checks"] + flags) == 0
    cfg = ExperimentConfig(N=16, t_end=0.25, levels=3, steps_per_level=3, kmax=3, sweep_samples=2,
                           refine=False)
    out_dir = Path("runs") / f"lemma-checks-{cfg.config_hash()}"
    assert (out_dir / "checks.csv").exists()
    assert capsys.readouterr().out.endswith(f"report written to {out_dir}\n")


@pytest.mark.parametrize("command", ["suite", "lemma-checks"])
def test_kmax_too_large_for_grid_exits_before_the_suite(command, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--N", "16", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("crossdiff: invalid config: kmax must be in")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_zero_smoothing_exits_before_the_suite(tmp_path, capsys):
    # the gradient-decay group always draws step-like data, which needs a
    # positive smoothing width: the suite refuses the config before any group
    with pytest.raises(SystemExit) as exc:
        main(["suite", "--smoothing", "0", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("crossdiff: invalid config: ")
    assert "smoothing" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_zero_smoothing_is_valid_where_no_step_like_data_is_drawn(tmp_path, capsys):
    # lemma-checks runs no gradient-decay group, and uniform data has no
    # smoothing width
    assert main(["lemma-checks", "--smoothing", "0", "--N", "16", "--t-end", "0.25",
                 "--levels", "3", "--steps-per-level", "3", "--kmax", "3",
                 "--sweep-samples", "2", "--no-refine", "--out", str(tmp_path / "lemmas")]) == 0
    assert main(["solve", "--generator", "uniform", "--smoothing", "0", "--N", "16",
                 "--t-end", "0.01", "--levels", "2", "--steps-per-level", "2",
                 "--out", str(tmp_path / "run")]) == 0
    assert capsys.readouterr().err == ""


def test_suite_with_one_contraction_delta(tmp_path, capsys):
    code = main(["suite", "--N", "16", "--kmax", "3", "--levels", "3", "--steps-per-level", "3",
                 "--sweep-samples", "2", "--stability-pairs", "2", "--no-refine",
                 "--contraction-deltas", "0.05", "--out", str(tmp_path / "suite")])
    assert code in (0, 1)  # smoke run at toy scale; it must run every group
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "picard contraction factor at delta=0.05" in out
    assert "non-increasing as delta decreases" not in out


def test_suite_with_config_file(tmp_path, capsys):
    cfg = ExperimentConfig(
        N=16, t_end=0.25, levels=3, steps_per_level=3, kmax=3, smoothing=0.02,
        sweep_samples=2, stability_pairs=2, contraction_deltas=(0.02, 0.05),
        refine=False, seed=7,
    )
    cfg_path = tmp_path / "tiny.ini"
    cfg.save(cfg_path)
    out_dir = tmp_path / "suite"
    code = main(["suite", "--config", str(cfg_path), "--out", str(out_dir)])
    assert code in (0, 1)  # smoke run at toy scale; the report is what matters
    assert (out_dir / "summary.txt").exists()
    assert (out_dir / "checks.csv").exists()
    assert "checks passed" in capsys.readouterr().out


def test_config_flag_overrides_file(tmp_path):
    cfg_path = tmp_path / "base.ini"
    ExperimentConfig(N=32).save(cfg_path)
    out_dir = tmp_path / "run"
    code = main([
        "solve", "--config", str(cfg_path), "--scheme", "imex", "--N", "16",
        "--t-end", "0.01", "--levels", "2", "--steps-per-level", "2",
        "--kmax", "3", "--out", str(out_dir),
    ])
    assert code == 0
    saved = ExperimentConfig.load(out_dir / "config.ini")
    assert saved.N == 16


def test_none_flag_means_the_default_as_in_the_file(tmp_path):
    # `--p none` and `--centers-stride none` parse as the INI file parses
    # them, and override the file's values back to the defaults
    cfg_path = tmp_path / "base.ini"
    ExperimentConfig(p=3.5, centers_stride=4).save(cfg_path)
    out_dir = tmp_path / "run"
    assert main(["solve", "--config", str(cfg_path), "--scheme", "imex", "--p", "none",
                 "--centers-stride", "none", "--N", "16", "--t-end", "0.01", "--levels", "2",
                 "--steps-per-level", "2", "--kmax", "3", "--out", str(out_dir)]) == 0
    saved = ExperimentConfig.load(out_dir / "config.ini")
    assert (saved.p, saved.centers_stride) == (None, None)


LADDER_ARGS = ["--N", "16", "--t-end", "0.25", "--levels", "3", "--steps-per-level", "3",
               "--kmax", "3", "--seed", "7"]


def test_solve_uses_configured_cylinder_ladder(tmp_path, capsys):
    # the xp contraction metric is a cylinder supremum, so a sparser ladder
    # (one center instead of every node) changes the measured factor
    thetas = {}
    for stride in (1, 16):
        out = tmp_path / f"stride{stride}"
        assert main(["solve", "--metric", "xp", "--centers-stride", str(stride),
                     "--out", str(out)] + LADDER_ARGS) == 0
        line = capsys.readouterr().out.splitlines()[0]
        thetas[stride] = line.split("theta_hat=")[1].split(",")[0]
    assert thetas == {1: "0.02331", 16: "0.02454"}


def test_norms_reads_run_config(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["solve", "--metric", "sup", "--centers-stride", "16", "--radii-per-octave", "3",
                 "--p", "3.5", "--out", str(run_dir)] + LADDER_ARGS) == 0
    capsys.readouterr()
    traj = Trajectory.load(run_dir)
    scanned = len(enumerate_cylinders(traj.grid, traj.tg, 3, 16))
    assert scanned == 7  # seven radii, one center

    assert main(["norms", "--traj", str(run_dir)]) == 0
    assert f"cylinders     {scanned} scanned, 0 skipped" in capsys.readouterr().out
    assert (run_dir / "norms.csv").read_text().startswith("# p=3.5 ")
    # an explicit --p wins over the run's config
    assert main(["norms", "--traj", str(run_dir), "--p", "6"]) == 0
    assert (run_dir / "norms.csv").read_text().startswith("# p=6.0 ")


def test_text_printed_before_a_split_sample_map_appears_once(tmp_path):
    # a piped stdout is block-buffered: text printed before a sample map is
    # still in the buffer when the map forks, and must not be written again
    # by the child
    args = ["lemma-checks", "--N", "16", "--t-end", "0.25", "--levels", "3", "--steps-per-level", "3",
            "--kmax", "3", "--sweep-samples", "2", "--no-refine", "--out", str(tmp_path / "lemmas")]
    script = (
        "import os, sys\n"
        "from crossdiff import cli, solver\n"
        "solver.SPLIT_BYTES = 0\n"
        "solver._usable_cores = lambda: 2\n"
        "forks = []\n"
        "real = os.fork\n"
        "os.fork = lambda: forks.append(1) or real()\n"
        "print('printed before the split')\n"
        f"code = cli.main({args!r})\n"
        "print(f'forks {len(forks)}', file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                          env={**env, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "forks 2\n"
    assert proc.stdout.count("printed before the split") == 1, proc.stdout
    assert proc.stdout.count("lemma-checks finished in") == 1, proc.stdout
    assert (tmp_path / "lemmas" / "checks.csv").exists()


def test_verify_delta_flag_wins_over_the_run(tmp_path, tiny_args, capsys):
    run_dir = tmp_path / "run"
    assert main(["solve", "--scheme", "imex", "--delta", "0.05"] + tiny_args) == 0
    assert main(["verify", "--traj", str(run_dir)]) == 0
    capsys.readouterr()
    assert main(["verify", "--traj", str(run_dir), "--delta", "0.5"]) == 1
    line, = [row for row in capsys.readouterr().out.splitlines() if "partition-of-unity" in row]
    assert line.startswith("[FAIL] ")
    assert float(re.search(r"deviation: (\S+) <=", line).group(1)) == pytest.approx(0.45, rel=1e-4)


def test_solve_into_closed_pipe_keeps_run_and_prints_no_traceback(tmp_path):
    # `crossdiff solve | head -1`: the reader is gone before the report is
    # printed. The read end is closed before the child starts writing, so the
    # first report line already meets a broken pipe.
    run_dir = tmp_path / "run"
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "crossdiff.cli", "solve", "--metric", "sup",
         "--out", str(run_dir)] + LADDER_ARGS,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(src)},
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.wait(timeout=120)
    proc.stderr.close()
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
    assert proc.returncode == 1
    saved = ExperimentConfig.load(run_dir / "config.ini")
    traj = Trajectory.load(run_dir)
    assert traj.d == saved.d
    assert traj.metadata["converged"]
