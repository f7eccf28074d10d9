import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from crossdiff.carleson import enumerate_cylinders
from crossdiff.cli import EXIT_DIVERGED, main
from crossdiff.harness import ExperimentConfig
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


@pytest.mark.parametrize("command", ["verify", "norms"])
@pytest.mark.parametrize("damage,match", [(None, "No such file"), (_drop_manifest_key, "lacks the key 'N'"),
                                          (_cut_values, "values.npy")])
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
    assert err.startswith("crossdiff: invalid config: [norms] p = 'abc': could not convert")
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
    assert err.startswith(f"crossdiff: invalid config: [{section}] {key} = '{value}': expected one of")
    assert not (tmp_path / "run").exists()


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
        "from crossdiff import cli, harness\n"
        "harness.SPLIT_BYTES = 0\n"
        "harness._usable_cores = lambda: 2\n"
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
