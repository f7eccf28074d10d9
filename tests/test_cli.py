import pytest

from crossdiff.cli import EXIT_DIVERGED, main
from crossdiff.harness import ExperimentConfig


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
    assert list(run_dir.glob("state_t*_s0.txt"))
    out = capsys.readouterr().out
    assert "partition deviation" in out

    assert main(["verify", "--traj", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "partition-of-unity" in out
    assert (run_dir / "checks.csv").exists()

    assert main(["norms", "--traj", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "seminorm" in out
    assert (run_dir / "norms.csv").exists()


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
    lines = (out_dir / "checks.csv").read_text().splitlines()
    groups = {line.split(":")[0] for line in lines[1:]}
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
