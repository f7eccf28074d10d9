"""The crossdiff benchmark workloads, driven through crossdiff's public
functions. Every call goes through a module attribute, so the tracer's
wrappers see it. Each pass starts from a fresh ``SuiteContext``, so no
solve is served from the cache of an earlier pass. A pass times its phases
with the PhaseTimer it is given and returns its output checks and the key
outputs that go into the fingerprint.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import crossdiff as cd
from crossdiff import harness

# The ten acceptance groups in run_suite order. The list is fixed here, so a
# group added to the suite later does not change the battery-1d workload.
BATTERY_GROUPS = (
    ("kernel-scaling", "check_kernel_scaling"),
    ("spectral-exactness", "check_spectral_exactness"),
    ("partition-nonnegativity", "check_partition_nonnegativity"),
    ("contraction", "check_contraction"),
    ("stability", "check_stability"),
    ("gradient-decay", "check_gradient_decay"),
    ("maximal-regularity", "check_maximal_regularity"),
    ("lipschitz", "check_lipschitz"),
    ("norm-identities", "check_norm_identities"),
    ("negative-controls", "check_negative_controls"),
)
SWEEP_GROUPS = BATTERY_GROUPS[6:8]

Check = tuple[str, float, bool]  # (name, value, passed)


class PhaseTimer:
    """Times the named phases of one pass, each inside a tracer span."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.phases: dict[str, float] = {}

    def __call__(self, name: str, fn, *args):
        start = time.perf_counter()
        with self.tracer.span(name):
            out = fn(*args)
        self.phases[name] = time.perf_counter() - start
        return out


@dataclass
class Setup:
    ctx: harness.SuiteContext
    model: cd.ReducedModel


def prepare(cfg: harness.ExperimentConfig) -> Setup:
    """Config, grids, cylinder list and model: what every workload builds
    before its first timed call."""
    ctx = harness.SuiteContext(cfg)
    return Setup(ctx, ctx.model())


def _run_groups(setup: Setup, timer: PhaseTimer, groups) -> list[Check]:
    checks = []
    for group, fn_name in groups:
        out = timer(f"harness.group.{group}", getattr(harness, fn_name), setup.ctx)
        checks += [(f"{group}: {c.name}", float(c.value), bool(c.passed)) for c in out]
    return checks


def battery_pass(setup: Setup, timer: PhaseTimer, workdir: Path) -> tuple[list[Check], dict]:
    checks, keys = _run_groups(setup, timer, BATTERY_GROUPS), {}
    for delta in setup.ctx.config.contraction_deltas:
        rep = setup.ctx.picard(delta)[1]  # cached by the contraction group
        keys[f"theta_hat@{delta:g}"] = rep.theta_hat
        keys[f"iterations@{delta:g}"] = rep.iterates
    return checks, keys


def sweeps_pass(setup: Setup, timer: PhaseTimer, workdir: Path) -> tuple[list[Check], dict]:
    return _run_groups(setup, timer, SWEEP_GROUPS), {}


def pipeline_pass(setup: Setup, timer: PhaseTimer, workdir: Path) -> tuple[list[Check], dict]:
    """`crossdiff solve`, then `verify` and `norms` on the saved run."""
    ctx, model = setup.ctx, setup.model
    cfg = ctx.config
    run_dir = Path(tempfile.mkdtemp(prefix="traj-", dir=workdir))

    def solve():
        h = cd.generate_initial_data(cfg.initial_spec(), ctx.grid, cfg.d, model.delta)
        traj, report = cd.picard_solve(
            h, model, ctx.tg, tol=cfg.tol, max_iter=cfg.max_iter, truncated=cfg.truncated,
            metric=cfg.metric, p=ctx.p, cylinders=ctx.cylinders,
        )
        traj.save(run_dir)
        return traj, report

    def inspect():
        loaded = cd.Trajectory.load(run_dir)
        delta = float(loaded.metadata["delta"])
        checks = [
            cd.verify_partition(loaded, delta),
            cd.verify_nonnegativity(loaded),
            cd.verify_mass_conservation(loaded),
            *cd.energy_identity_probe(loaded, model),
        ]
        cylinders = cd.enumerate_cylinders(loaded.grid, loaded.tg, cfg.radii_per_octave,
                                           cfg.centers_stride)
        return loaded, checks, cylinders, cd.xp_seminorm(loaded, ctx.p, cylinders)

    try:
        traj, report = timer("pipeline.solve_cmd", solve)
        loaded, verified, cylinders, norm = timer("pipeline.inspect_cmd", inspect)
    finally:
        shutil.rmtree(run_dir)
    with timer.tracer.paused():
        in_memory = cd.xp_seminorm(traj, ctx.p, cylinders).xp_total
    same = loaded.values.shape == traj.values.shape and loaded.values.tobytes() == traj.values.tobytes()
    checks = [("picard converged", float(report.final_distance), bool(report.converged))]
    checks += [(c.name, float(c.value), bool(c.passed)) for c in verified]
    checks += [
        ("loaded trajectory equals saved values bit for bit", 0.0 if same else 1.0, same),
        ("xp_total of loaded equals in-memory", norm.xp_total - in_memory, norm.xp_total == in_memory),
    ]
    keys = {"xp_total": norm.xp_total, "theta_hat": report.theta_hat, "iterations": report.iterates}
    return checks, keys


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int], harness.ExperimentConfig]  # seed -> config
    # (set-up, timer, scratch directory) -> (checks, key outputs)
    run_pass: Callable[[Setup, PhaseTimer, Path], tuple[list[Check], dict]]


# battery-1d runs at N=64, not the suite default N=128: one N=128 pass takes
# about 90 s, more than a whole benchmark run may take. At N=64 the IMEX
# reference is still most of the pass.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("battery-1d", lambda seed: harness.ExperimentConfig(N=64, seed=seed), battery_pass),
        Workload("pipeline-2d", lambda seed: harness.ExperimentConfig(n=2, N=64, seed=seed),
                 pipeline_pass),
        Workload("sweeps-2d",
                 lambda seed: harness.ExperimentConfig(n=2, N=64, refine=False, seed=seed),
                 sweeps_pass),
    )
}
