"""Command-line entry point: solve, verify, norms, lemma-checks, suite."""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from pathlib import Path
from typing import NoReturn

import numpy as np

from .carleson import xp_seminorm
from .fields import check_kmax
from .harness import (
    _KEYS,
    ExperimentConfig,
    VerificationReport,
    energy_identity_probe,
    generate_initial_data,
    run_suite,
    verify_mass_conservation,
    verify_nonnegativity,
    verify_partition,
)
from .model import ReducedModel
from .solver import DivergedError, imex_solve, picard_solve
from .trajectory import Trajectory

# exit code of `crossdiff solve` when the solution blows up
EXIT_DIVERGED = 3

# the suite groups `crossdiff lemma-checks` runs
LEMMA_GROUPS = ("kernel-scaling", "maximal-regularity", "lipschitz")


def _add_common(parser: argparse.ArgumentParser):
    """--config and a flag per config field, parsed as the INI file parses
    it (so `--p none` means the default); truncated and refine are the
    paired flags. A flag not given leaves no attribute."""
    parser.add_argument("--config", type=Path, help="INI config file; flags override its values")
    for name, key in _KEYS.items():
        if name not in ("truncated", "refine"):
            parser.add_argument(f"--{name.replace('_', '-')}", type=key.metadata["parse"],
                                default=argparse.SUPPRESS)
    parser.add_argument("--truncated", dest="truncated", action="store_true", default=argparse.SUPPRESS)
    parser.add_argument("--untruncated", dest="truncated", action="store_false",
                        default=argparse.SUPPRESS)
    parser.add_argument("--no-refine", dest="refine", action="store_false", default=argparse.SUPPRESS)


def _build_config(args) -> ExperimentConfig:
    """The config file (or the defaults) with the flags given applied; an
    invalid config, or a config file that cannot be read, exits with code 2,
    as argparse does for a bad flag."""
    overrides = {name: getattr(args, name) for name in _KEYS if hasattr(args, name)}
    try:
        cfg = ExperimentConfig.load(args.config) if args.config else ExperimentConfig()
        return cfg.with_overrides(**overrides)
    except (OSError, ValueError) as exc:
        _exit_invalid_config(exc)


def _suite_config(args) -> ExperimentConfig:
    """_build_config for the suite commands, whose sweeps always draw
    band-limited data and whose gradient-decay group always draws step-like
    data: the config leaves kmax and the smoothing width to the generators,
    which would raise them from inside a suite group. args.groups are the
    suite groups the command runs (None: all of them)."""
    cfg = _build_config(args)
    try:
        check_kmax(cfg.grid(), cfg.kmax)
        if (args.groups is None or "gradient-decay" in args.groups) and not cfg.smoothing > 0:
            raise ValueError(f"the gradient-decay group draws step-like data, which needs "
                             f"a positive smoothing width, got {cfg.smoothing:g}")
    except ValueError as exc:
        _exit_invalid_config(exc)
    return cfg


def _exit_invalid_config(exc: Exception) -> NoReturn:
    print(f"crossdiff: invalid config: {exc}", file=sys.stderr)
    raise SystemExit(2) from None


def _out_dir(cfg: ExperimentConfig, args, default_name: str) -> Path:
    base = Path(args.out) if getattr(args, "out", None) else Path(cfg.output_dir) / default_name
    base.mkdir(parents=True, exist_ok=True)
    return base


def _exit_unreadable(directory: Path, exc: Exception) -> NoReturn:
    """A run that cannot be read exits with code 2, not the 1 of a verify
    whose checks fail."""
    print(f"crossdiff: cannot read the run in {directory}: {exc}", file=sys.stderr)
    raise SystemExit(2) from None


def _load_run(directory: Path) -> Trajectory:
    try:
        return Trajectory.load(directory)
    except (OSError, ValueError) as exc:
        _exit_unreadable(directory, exc)


def _load_model(traj: Trajectory, directory: Path) -> tuple[float | None, ReducedModel | None]:
    """The partition level delta and the coupling the run's metadata
    records, each None when it records no delta or no alpha; a record that
    gives no usable delta or model exits with code 2."""
    meta = traj.metadata
    try:
        if "delta" not in meta:
            if "alpha" in meta:
                raise ValueError("its metadata records alpha but no delta")
            return None, None
        try:
            delta = float(meta["delta"])
        except (TypeError, ValueError):
            raise ValueError(f"its manifest records delta {meta['delta']!r}, not a number") from None
        if not 0 < delta < math.inf:
            raise ValueError(f"its delta must be positive and finite, got {delta}")
        if "alpha" not in meta:
            return delta, None
        alpha, d = np.asarray(meta["alpha"], dtype=float), traj.values.shape[1]
        if alpha.shape != (d, d):
            raise ValueError(f"its alpha must be {d}x{d} for {d} species, got shape {alpha.shape}")
        return delta, ReducedModel.from_alpha(alpha, delta)
    except (TypeError, ValueError) as exc:
        _exit_unreadable(directory, exc)


def cmd_solve(args) -> int:
    cfg = _build_config(args)
    grid, tg = cfg.grid(), cfg.time_grid()
    model = cfg.reduced_model()
    try:
        # the config does not check kmax against N; the generator does
        h = generate_initial_data(cfg.initial_spec(), grid, cfg.d, model.delta)
    except ValueError as exc:
        _exit_invalid_config(exc)
    t0 = time.perf_counter()
    report = None
    try:
        if cfg.scheme == "imex":
            traj = imex_solve(h, model, tg, truncated=cfg.truncated)
        else:
            traj, report = picard_solve(h, model, tg, tol=cfg.tol, max_iter=cfg.max_iter,
                                        truncated=cfg.truncated, metric=cfg.metric, p=cfg.p,
                                        cylinders=cfg.cylinders(grid, tg))
    except DivergedError as exc:
        print(f"crossdiff solve: {exc}; nothing written", file=sys.stderr)
        return EXIT_DIVERGED
    elapsed = time.perf_counter() - t0
    traj.metadata["generator"] = cfg.generator
    traj.metadata["config_hash"] = cfg.config_hash()
    out = _out_dir(cfg, args, f"solve-{cfg.scheme}-{cfg.config_hash()}")
    traj.save(out)
    cfg.save(out / "config.ini")
    # report only once the run is on disk, so a reader that closes the pipe
    # early cannot cut the run short
    if report is not None:
        print(f"fixed-point iteration: {report.iterates} steps, "
              f"theta_hat={report.theta_hat:.4g}, converged={report.converged}")
    print(f"solved {cfg.scheme} to t={tg.t_end:g} in {elapsed:.2f}s; "
          f"trajectory written to {out}")
    print(f"partition deviation {verify_partition(traj, model.delta).value:.3e}, "
          f"species minimum {verify_nonnegativity(traj).value:.3e}")
    return 0


def cmd_verify(args) -> int:
    if args.delta is not None and not 0 < args.delta < math.inf:
        print(f"crossdiff verify: --delta must be positive and finite, got {args.delta}", file=sys.stderr)
        return 2
    traj = _load_run(args.traj)
    run_delta, model = _load_model(traj, args.traj)
    # an explicit --delta wins over the run's own delta
    delta = args.delta if args.delta is not None else run_delta
    checks = []
    if delta is not None:
        checks.append(verify_partition(traj, delta))
    checks.append(verify_nonnegativity(traj))
    checks.append(verify_mass_conservation(traj))
    if model is not None:
        checks.extend(energy_identity_probe(traj, model))
    report = VerificationReport(checks=checks, provenance={"trajectory": str(args.traj),
                                                           "manifest": traj.manifest_hash(),
                                                           "content": traj.content_hash()})
    print(report.to_text())
    report.write(Path(args.traj))
    return 0 if report.passed else 1


def cmd_norms(args) -> int:
    traj = _load_run(args.traj)
    # the cylinder ladder and p of the run's config.ini; an explicit --p wins
    saved = Path(args.traj) / "config.ini"
    args.config = saved if saved.exists() else None
    cfg = _build_config(args)
    rep = xp_seminorm(traj, cfg.p, cfg.cylinders(traj.grid, traj.tg))
    path = Path(args.traj) / "norms.csv"
    rep.to_csv(path, manifest_hash=traj.manifest_hash(), content_hash=traj.content_hash())
    z = ",".join(f"{c:.4g}" for c in rep.attaining.center) if rep.attaining else "-"
    print(f"sup norm      {rep.sup_norm:.6g}")
    print(f"seminorm      {rep.seminorm:.6g}  (p={rep.p:g}, attained at z=({z}), "
          f"R={rep.attaining.radius if rep.attaining else float('nan'):.4g})")
    print(f"total         {rep.xp_total:.6g}")
    print(f"cylinders     {rep.cylinders_scanned} scanned, {rep.cylinders_skipped} skipped")
    print(f"report written to {path}")
    return 0


def cmd_suite(args) -> int:
    """`suite` (every group) and `lemma-checks` (LEMMA_GROUPS): args.groups."""
    cfg = _suite_config(args)
    out = _out_dir(cfg, args, f"{args.command}-{cfg.config_hash()}")
    t0 = time.perf_counter()
    report = run_suite(cfg, out_dir=out, groups=args.groups)
    elapsed = time.perf_counter() - t0
    print(report.to_text())
    print(f"{args.command} finished in {elapsed:.1f}s; report written to {out}")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="crossdiff",
        description="Spectral cross-diffusion solver and verification lab on the periodic torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one experiment and store the trajectory")
    _add_common(p_solve)
    p_solve.add_argument("--out", type=Path, help="output directory")
    p_solve.set_defaults(fn=cmd_solve)

    p_verify = sub.add_parser("verify", help="invariant checks on a stored trajectory")
    p_verify.add_argument("--traj", type=Path, required=True)
    p_verify.add_argument("--delta", type=float, default=None)
    p_verify.set_defaults(fn=cmd_verify)

    p_norms = sub.add_parser("norms", help="cylinder norms of a stored trajectory")
    p_norms.add_argument("--traj", type=Path, required=True)
    p_norms.add_argument("--p", type=_KEYS["p"].metadata["parse"], default=argparse.SUPPRESS)
    p_norms.set_defaults(fn=cmd_norms)

    p_lemma = sub.add_parser("lemma-checks",
                             help="kernel scaling, maximal regularity and Lipschitz suite groups")
    _add_common(p_lemma)
    p_lemma.add_argument("--out", type=Path)
    p_lemma.set_defaults(fn=cmd_suite, groups=LEMMA_GROUPS)

    p_suite = sub.add_parser("suite", help="full verification battery")
    _add_common(p_suite)
    p_suite.add_argument("--out", type=Path)
    p_suite.set_defaults(fn=cmd_suite, groups=None)

    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        # the reader went away (`crossdiff solve | head -1`): send what is
        # left to devnull so the flush at exit does not raise again, and exit
        # with 1 as Python does on EPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
