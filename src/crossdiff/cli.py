"""Command-line entry point: solve, verify, norms, lemma-checks, suite."""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from .carleson import enumerate_cylinders, maximal_regularity_ratio, xp_seminorm
from .fields import SpeciesVector, random_band_limited
from .harness import (
    ExperimentConfig,
    SuiteContext,
    VerificationReport,
    energy_identity_probe,
    generate_initial_data,
    run_suite,
    verify_mass_conservation,
    verify_nonnegativity,
    verify_partition,
    _random_flux,
    _seeded_datum,
)
from .model import ReducedModel, lipschitz_probe
from .semigroup import heat_flow_trajectory, kernel_scaling_report
from .solver import imex_solve, picard_solve
from .trajectory import Trajectory

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
    cfg = ExperimentConfig.load(args.config) if args.config else ExperimentConfig()
    overrides = {}
    for name, _ in _OVERRIDES:
        value = getattr(args, name.replace("-", "_"), None)
        if value is not None:
            overrides[name.replace("-", "_")] = value
    for flag in ("truncated", "refine"):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[flag] = value
    return cfg.with_overrides(**overrides)


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
    if cfg.scheme == "imex":
        traj = imex_solve(h, model, tg, truncated=cfg.truncated)
    elif cfg.scheme == "picard":
        traj, report = picard_solve(h, model, tg, tol=cfg.tol, max_iter=cfg.max_iter,
                                    truncated=cfg.truncated, metric=cfg.metric, p=cfg.p)
        print(f"fixed-point iteration: {report.iterates} steps, "
              f"theta_hat={report.theta_hat:.4g}, converged={report.converged}")
    else:
        print(f"unknown scheme {cfg.scheme!r}", file=sys.stderr)
        return 2
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
    exit_code = 0
    for n in (1, 2):
        for p in (1.0, 2.0, math.inf):
            rep = kernel_scaling_report(n, p, list(np.logspace(-3, 0, 7)))
            rep.to_csv(out / f"kernel_scaling_n{n}_p{p:g}.csv")
            status = "ok" if rep.passed else "FAIL"
            print(f"kernel scaling n={n} p={p:<3g} ratio spread {rep.ratio_spread - 1:.3e}  [{status}]")
            exit_code |= 0 if rep.passed else 1
    ctx = SuiteContext(cfg)
    grid, tg = ctx.grid, ctx.tg
    ratios = []
    for j in range(cfg.sweep_samples):
        rng = np.random.default_rng(cfg.seed + 2000 + j)
        h = SpeciesVector.from_array(grid, np.stack([
            random_band_limited(grid, rng, cfg.kmax, 1.0, mean=float(rng.uniform(-1, 1))).values
            for _ in range(cfg.d)
        ]))
        flux = _random_flux(grid, tg, cfg.d, cfg.seed + 2500 + j, cfg.kmax)
        ratios.append(maximal_regularity_ratio(h, flux, tg, ctx.p, ctx.cylinders))
    print(f"maximal regularity: max ratio {max(ratios):.4g} over {len(ratios)} linear problems")
    model = ctx.model()
    lips = []
    for j in range(cfg.sweep_samples):
        v = heat_flow_trajectory(_seeded_datum(ctx, grid, cfg.delta, cfg.seed + 3000 + j), tg)
        w = heat_flow_trajectory(_seeded_datum(ctx, grid, cfg.delta, cfg.seed + 3250 + j), tg)
        lips.append(lipschitz_probe(v, w, model, ctx.p, ctx.cylinders).ratio)
    print(f"flux-map Lipschitz: max empirical constant {max(lips):.4g} over {len(lips)} pairs")
    with open(out / "sweeps.csv", "w") as fh:
        fh.write("sweep,index,value\n")
        for j, r in enumerate(ratios):
            fh.write(f"maximal_regularity,{j},{r:.17g}\n")
        for j, r in enumerate(lips):
            fh.write(f"lipschitz,{j},{r:.17g}\n")
    print(f"reports written to {out}")
    return exit_code


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
                             help="kernel scaling, Lipschitz sweep, maximal regularity sweep")
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
