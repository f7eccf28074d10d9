#!/usr/bin/env python3
"""Derivative-decay study: solve with step-like data and tabulate
t^(k+|beta|/2) * sup |d^k_t d^beta_x w| for all supported orders."""

import argparse
from pathlib import Path

from crossdiff.carleson import decay_probe
from crossdiff.harness import ExperimentConfig, SuiteContext


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--N", type=int, default=128)
    ap.add_argument("--delta", type=float, default=0.05)
    ap.add_argument("--smoothing", type=float, default=0.005)
    ap.add_argument("--out", type=Path, default=Path("runs/decay-study"))
    args = ap.parse_args()

    cfg = ExperimentConfig(N=args.N, delta=args.delta, generator="step-like",
                           smoothing=args.smoothing)
    ctx = SuiteContext(cfg)
    traj, _ = ctx.picard(args.delta)
    args.out.mkdir(parents=True, exist_ok=True)
    print(f"{'k':>2} {'beta':>6} {'slope':>8} {'max scaled sup':>16}")
    for k, beta in ((0, (0,)), (0, (1,)), (0, (2,)), (1, (0,)), (1, (1,))):
        probe = decay_probe(traj, k=k, beta=beta)
        probe.to_csv(args.out / f"decay_k{k}_b{''.join(map(str, beta))}.csv",
                     manifest_hash=traj.manifest_hash(), content_hash=traj.content_hash())
        print(f"{k:>2} {str(beta):>6} {probe.slope:>8.3f} {probe.max_scaled:>16.6g}")
    print(f"probes written to {args.out}")


if __name__ == "__main__":
    main()
