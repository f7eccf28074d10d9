#!/usr/bin/env python3
"""Sweep the coefficient spread delta and record the empirical contraction
factor of the fixed-point iteration, locating the onset of contraction.

The smallness threshold delta_0 is not pinned down by theory; this script
reports where the iteration actually starts to contract on a given setup.
"""

import argparse
from pathlib import Path

from crossdiff.harness import ExperimentConfig, SuiteContext
from crossdiff.solver import DivergedError

DEFAULT_LADDER = (0.2, 0.1, 0.05, 0.02, 0.01)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--deltas", type=float, nargs="+", default=list(DEFAULT_LADDER))
    ap.add_argument("--N", type=int, default=128)
    ap.add_argument("--t-end", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--out", type=Path, default=Path("runs/contraction-ladder"))
    args = ap.parse_args()

    cfg = ExperimentConfig(N=args.N, t_end=args.t_end, seed=args.seed, max_iter=40)
    ctx = SuiteContext(cfg)
    args.out.mkdir(parents=True, exist_ok=True)
    rows = []
    print(f"{'delta':>8} {'theta_hat':>10} {'iters':>6} {'converged':>10}")
    for delta in sorted(args.deltas, reverse=True):
        try:
            _, rep = ctx.picard(delta)
            rows.append((delta, rep.theta_hat, rep.iterates, rep.converged))
            print(f"{delta:>8g} {rep.theta_hat:>10.4g} {rep.iterates:>6d} {str(rep.converged):>10}")
        except DivergedError as exc:  # oversized delta may legitimately blow up
            rows.append((delta, float("nan"), 0, False))
            print(f"{delta:>8g} {'-':>10} {'-':>6} {'diverged':>10}  ({exc})")
    with open(args.out / "ladder.csv", "w") as fh:
        fh.write("delta,theta_hat,iterates,converged\n")
        for delta, theta, iters, conv in rows:
            fh.write(f"{delta:.17g},{theta:.17g},{iters},{conv}\n")
    print(f"ladder written to {args.out / 'ladder.csv'}")


if __name__ == "__main__":
    main()
