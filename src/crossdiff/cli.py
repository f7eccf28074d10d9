"""Command-line entry point: solve, verify, norms, lemma-checks, suite."""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .carleson import enumerate_cylinders, xp_seminorm
from .harness import (
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


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split())


_OVERRIDES = [
    ("n", int), ("N", int), ("d", int), ("delta", float), ("seed", int),
    ("coefficients", _floats), ("closeness-threshold", float),
    ("generator", str), ("kmax", int), ("smoothing", float), ("amplitude", float),
    ("t-end", float), ("levels", int), ("steps-per-level", int),
    ("scheme", str), ("tol", float), ("max-iter", int),
    ("metric", str), ("p", float), ("radii-per-octave", int), ("centers-stride", int),
    ("stability-pairs", int), ("sweep-samples", int),
    ("contraction-deltas", _floats), ("output-dir", str),
]


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", type=Path, help="INI config file; flags override its values")
    for name, typ in _OVERRIDES:
        parser.add_argument(f"--{name}", type=typ, default=None)
    parser.add_argument("--truncated", dest="truncated", action="store_true", default=None)
    parser.add_argument("--untruncated", dest="truncated", action="store_false")
    parser.add_argument("--no-refine", dest="refine", action="store_false", default=None)


def _build_config(args) -> ExperimentConfig:
    """The config file (or the defaults) with the flags applied; an invalid
    config exits with code 2, as argparse does for a bad flag."""
    overrides = {}
    for name, _ in _OVERRIDES:
        value = getattr(args, name.replace("-", "_"), None)
        if value is not None:
            overrides[name.replace("-", "_")] = value
    for flag in ("truncated", "refine"):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[flag] = value
    try:
        cfg = ExperimentConfig.load(args.config) if args.config else ExperimentConfig()
        return cfg.with_overrides(**overrides)
    except ValueError as exc:
        print(f"crossdiff: invalid config: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _out_dir(cfg: ExperimentConfig, args, default_name: str) -> Path:
    base = Path(args.out) if getattr(args, "out", None) else Path(cfg.output_dir) / default_name
    base.mkdir(parents=True, exist_ok=True)
    return base


def _load_model(traj: Trajectory) -> ReducedModel | None:
    meta = traj.metadata
    if "alpha" not in meta:
        return None
    return ReducedModel(K=float(meta.get("K", 1.0)), delta=float(meta["delta"]),
                        alpha=np.asarray(meta["alpha"]))


def cmd_solve(args) -> int:
    cfg = _build_config(args)
    grid, tg = cfg.grid(), cfg.time_grid()
    model = cfg.reduced_model()
    h = generate_initial_data(cfg.initial_spec(), grid, cfg.d, model.delta)
    t0 = time.perf_counter()
    try:
        if cfg.scheme == "imex":
            traj = imex_solve(h, model, tg, truncated=cfg.truncated)
        else:
            traj, report = picard_solve(h, model, tg, tol=cfg.tol, max_iter=cfg.max_iter,
                                        truncated=cfg.truncated, metric=cfg.metric, p=cfg.p)
            print(f"fixed-point iteration: {report.iterates} steps, "
                  f"theta_hat={report.theta_hat:.4g}, converged={report.converged}")
    except DivergedError as exc:
        print(f"crossdiff solve: {exc}; nothing written", file=sys.stderr)
        return EXIT_DIVERGED
    elapsed = time.perf_counter() - t0
    traj.metadata["generator"] = cfg.generator
    traj.metadata["config_hash"] = cfg.config_hash()
    out = _out_dir(cfg, args, f"solve-{cfg.scheme}-{cfg.config_hash()}")
    traj.save(out)
    cfg.save(out / "config.ini")
    print(f"solved {cfg.scheme} to t={tg.t_end:g} in {elapsed:.2f}s; "
          f"trajectory written to {out}")
    print(f"partition deviation {verify_partition(traj, model.delta).value:.3e}, "
          f"species minimum {verify_nonnegativity(traj).value:.3e}")
    return 0


def cmd_verify(args) -> int:
    traj = Trajectory.load(args.traj)
    model = _load_model(traj)
    delta = float(traj.metadata.get("delta", args.delta or 0.0))
    checks = []
    if delta > 0:
        checks.append(verify_partition(traj, delta))
    checks.append(verify_nonnegativity(traj))
    checks.append(verify_mass_conservation(traj))
    if model is not None:
        checks.extend(energy_identity_probe(traj, model))
    report = VerificationReport(checks=checks, provenance={"trajectory": str(args.traj),
                                                           "manifest": traj.manifest_hash()})
    print(report.to_text())
    report.write(Path(args.traj))
    return 0 if report.passed else 1


def cmd_norms(args) -> int:
    traj = Trajectory.load(args.traj)
    p = args.p
    cylinders = enumerate_cylinders(traj.grid, traj.tg)
    rep = xp_seminorm(traj, p, cylinders)
    path = Path(args.traj) / "norms.csv"
    rep.to_csv(path, manifest_hash=traj.manifest_hash())
    z = ",".join(f"{c:.4g}" for c in rep.attaining.center) if rep.attaining else "-"
    print(f"sup norm      {rep.sup_norm:.6g}")
    print(f"seminorm      {rep.seminorm:.6g}  (p={rep.p:g}, attained at z=({z}), "
          f"R={rep.attaining.radius if rep.attaining else float('nan'):.4g})")
    print(f"total         {rep.xp_total:.6g}")
    print(f"cylinders     {rep.cylinders_scanned} scanned, {rep.cylinders_skipped} skipped")
    print(f"report written to {path}")
    return 0


def cmd_lemma_checks(args) -> int:
    cfg = _build_config(args)
    out = _out_dir(cfg, args, f"lemma-checks-{cfg.config_hash()}")
    report = run_suite(cfg, out_dir=out, groups=LEMMA_GROUPS)
    print(report.to_text())
    print(f"report written to {out}")
    return 0 if report.passed else 1


def cmd_suite(args) -> int:
    cfg = _build_config(args)
    out = _out_dir(cfg, args, f"suite-{cfg.config_hash()}")
    t0 = time.perf_counter()
    report = run_suite(cfg, out_dir=out)
    elapsed = time.perf_counter() - t0
    print(report.to_text())
    print(f"suite finished in {elapsed:.1f}s; report written to {out}")
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
    p_norms.add_argument("--p", type=float, default=None)
    p_norms.set_defaults(fn=cmd_norms)

    p_lemma = sub.add_parser("lemma-checks",
                             help="kernel scaling, maximal regularity and Lipschitz suite groups")
    _add_common(p_lemma)
    p_lemma.add_argument("--out", type=Path)
    p_lemma.set_defaults(fn=cmd_lemma_checks)

    p_suite = sub.add_parser("suite", help="full verification battery")
    _add_common(p_suite)
    p_suite.add_argument("--out", type=Path)
    p_suite.set_defaults(fn=cmd_suite)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
