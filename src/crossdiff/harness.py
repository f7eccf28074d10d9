"""Experiment configuration, initial-data generators, invariant checks, and
the full verification suite. This is the only module with side effects:
everything it writes goes under the configured output directory.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import io
import math
import operator
import os
from dataclasses import dataclass, field, fields as dc_fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .carleson import (
    CylinderLadder,
    decay_probe,
    default_exponent,
    enumerate_cylinders,
    gradient_flux,
    maximal_regularity_ratio,
    xp_norm,
    xp_seminorm,
    yp_norm,
)
from .fields import (
    GridSpec,
    SpeciesVector,
    index_blocks,
    make_grid,
    random_band_limited,
    spectral_gradient,
)
from .model import ReducedModel, _heat_flow_probes, reduce_coefficients
from .semigroup import (KERNEL_SCALING_SPREAD, heat_flow_trajectory, heat_propagate, kernel_gradient_lp,
                        kernel_scaling_report)
from .solver import _distance_ratios, _fork_child, _may_fork, _reap, _shared, imex_solve, picard_solve
from .trajectory import (
    TimeGrid,
    Trajectory,
    trajectory_difference,
)

__all__ = [
    "ExperimentConfig",
    "InitialDataSpec",
    "Check",
    "VerificationReport",
    "SuiteContext",
    "default_alpha",
    "generate_initial_data",
    "perturb_initial_data",
    "verify_partition",
    "verify_nonnegativity",
    "verify_mass_conservation",
    "energy_identity_probe",
    "run_suite",
    "check_kernel_scaling",
    "check_spectral_exactness",
    "check_partition_nonnegativity",
    "check_contraction",
    "check_stability",
    "check_gradient_decay",
    "check_maximal_regularity",
    "check_lipschitz",
    "check_norm_identities",
    "check_negative_controls",
]


# -- configuration -----------------------------------------------------------

# parsers of config values as the INI file and the CLI flags write them,
# named for argparse, which names a flag's bad value by its parser's name
def boolean(s: str) -> bool:
    value = s.lower()
    if value not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError("expected one of 1, true, yes, on, 0, false, no, off")
    return value in ("1", "true", "yes", "on")


def floats(s: str) -> tuple[float, ...]:
    return tuple(float(x) for x in s.split())


def _optional(parse):
    """parse, or None for an empty, "none" or "default" value."""
    def optional(s: str):
        return None if s in ("", "none", "default") else parse(s)
    optional.__name__ = f"optional {parse.__name__}"
    return optional


def _key(section: str, default, parse):
    """A config key: its INI section, its default and the parser of its
    text. The fields' order is the order of the INI file."""
    return field(default=default, metadata={"section": section, "parse": parse})


@dataclass
class ExperimentConfig:
    """Every knob of one experiment; round-trips through the INI format."""

    n: int = _key("grid", 1, int)
    N: int = _key("grid", 128, int)
    d: int = _key("model", 3, int)
    coefficients: tuple[float, ...] | None = _key("model", None, _optional(floats))
    delta: float = _key("model", 0.05, float)
    generator: str = _key("initial", "random-simplex", str)
    seed: int = _key("initial", 2024, int)
    kmax: int = _key("initial", 8, int)
    smoothing: float = _key("initial", 0.005, float)
    amplitude: float = _key("initial", 0.5, float)
    t_end: float = _key("time", 1.0, float)
    levels: int = _key("time", 10, int)
    steps_per_level: int = _key("time", 8, int)
    scheme: str = _key("solver", "picard", str)
    truncated: bool = _key("solver", True, boolean)
    tol: float = _key("solver", 1e-12, float)
    max_iter: int = _key("solver", 30, int)
    metric: str = _key("solver", "xp", str)
    p: float | None = _key("norms", None, _optional(float))
    radii_per_octave: int = _key("norms", 2, int)
    centers_stride: int | None = _key("norms", None, _optional(int))
    stability_pairs: int = _key("suite", 10, int)
    sweep_samples: int = _key("suite", 20, int)
    contraction_deltas: tuple[float, ...] = _key("suite", (0.01, 0.02, 0.05), floats)
    refine: bool = _key("suite", True, boolean)
    output_dir: str = _key("output", "runs", str)

    def __post_init__(self):
        self.grid()  # n in {1, 2} and N a power of two >= 8
        for name, allowed in (("scheme", ("picard", "imex")), ("metric", ("xp", "sup")),
                              ("generator", ("uniform", "random-simplex", "step-like"))):
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"unknown {name} {value!r}; expected one of {', '.join(allowed)}")
        for name in ("t_end", "tol", "max_iter", "radii_per_octave", "levels",
                     "steps_per_level", "stability_pairs", "sweep_samples"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("t_end", "tol", "amplitude", "smoothing"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("kmax", "seed"):  # the INI parser reads integers; a caller may set anything
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.p is not None and not 1.0 < self.p < math.inf:
            raise ValueError(f"p must be in (1, inf), got {self.p}")
        if not self.contraction_deltas or not all(0 < x < math.inf for x in self.contraction_deltas):
            raise ValueError(f"contraction_deltas must be one or more positive finite spreads, "
                             f"got {self.contraction_deltas}")
        self.reduced_model()  # d >= 2, a positive finite delta, and usable coefficients
        self.cylinders(self.grid(), self.time_grid())  # a time grid that resolves a cylinder

    def grid(self) -> GridSpec:
        return make_grid(self.n, self.N)

    def time_grid(self) -> TimeGrid:
        return TimeGrid.dyadic(self.t_end, self.levels, self.steps_per_level)

    def exponent(self) -> float:
        return self.p if self.p is not None else float(default_exponent(self.grid()))

    def cylinders(self, grid: GridSpec, tg: TimeGrid) -> CylinderLadder:
        """The configured cylinder ladder on a grid and time grid: the one
        place that reads radii_per_octave and centers_stride."""
        return enumerate_cylinders(grid, tg, self.radii_per_octave, self.centers_stride)

    def initial_spec(self) -> "InitialDataSpec":
        return InitialDataSpec(**{name: getattr(self, name) for name in _section("initial")})

    def reduced_model(self, delta: float | None = None) -> ReducedModel:
        """Coupling from the configured coefficients (or the default template)
        at the configured (or overridden) spread delta."""
        alpha = (default_alpha(self.d) if self.coefficients is None
                 else reduce_coefficients(self.d, self.coefficients))
        return ReducedModel.from_alpha(alpha, self.delta if delta is None else delta)

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        cp = _ini()
        for name, key in _KEYS.items():
            cp.read_dict({key.metadata["section"]: {name: _format_value(getattr(self, name))}})
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    def save(self, path):
        Path(path).write_text(self.to_text())

    @classmethod
    def from_text(cls, text: str, source: str | None = None) -> "ExperimentConfig":
        """The config an INI text holds; every error names source, when given."""
        cp = _ini()
        try:
            cp.read_string(text, source or "<string>")
        except configparser.Error as exc:
            raise ValueError(" ".join(str(exc).split())) from None  # one line
        try:
            return cls(**_parse(cp))
        except ValueError as exc:
            if source is None:
                raise
            raise ValueError(f"{source}: {exc}") from None

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        return cls.from_text(Path(path).read_text(), str(path))

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        bad = set(kwargs) - _KEYS.keys()
        if bad:
            raise ValueError(f"unknown config fields: {sorted(bad)}")
        return replace(self, **kwargs)

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:12]


# every config key's field by name, in the order of the INI file
_KEYS = {key.name: key for key in dc_fields(ExperimentConfig)}


def _parse(cp: configparser.ConfigParser) -> dict:
    """The value of every key an INI file sets, by name, each from its
    section's text by its key's parser."""
    if not cp.sections():
        raise ValueError("empty config: no sections found")
    kwargs = {}
    for section in cp.sections():
        names = _section(section)
        if not names:
            raise ValueError(f"unknown config section [{section}]")
        for name, raw in cp[section].items():
            if name not in names:
                raise ValueError(f"unknown config key {name!r} in [{section}]")
            try:
                kwargs[name] = _KEYS[name].metadata["parse"](raw)
            except ValueError as exc:
                raise ValueError(f"[{section}] {name} = {raw!r}: {exc}") from None
    return kwargs


def _section(section: str) -> list[str]:
    """The names of the keys of one INI section; none for an unknown one."""
    return [name for name, key in _KEYS.items() if key.metadata["section"] == section]


def _ini() -> configparser.ConfigParser:
    """The INI dialect of a config: keys are case sensitive (N vs n), a %
    in a value is text, and [DEFAULT] is a section like any other (the
    defaults go to the empty name, which no header line can hold)."""
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    cp.optionxform = str
    return cp


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return " ".join(f"{v:.17g}" for v in value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def default_alpha(d: int) -> np.ndarray:
    """Symmetric coupling template with entries in {-1, 0, +1} and both
    extremes attained (for d >= 3)."""
    if d < 2:
        raise ValueError("need at least two species")
    alpha = np.zeros((d, d))
    alpha[0, 1] = alpha[1, 0] = -1.0
    if d >= 3:
        alpha[0, 2] = alpha[2, 0] = 1.0
    return alpha


# -- initial data ------------------------------------------------------------


@dataclass(frozen=True)
class InitialDataSpec:
    generator: str
    seed: int = 0
    kmax: int = 8
    smoothing: float = 0.005
    amplitude: float = 0.5


def generate_initial_data(spec: InitialDataSpec, grid: GridSpec, d: int, delta: float) -> SpeciesVector:
    """Named generators for partition data: h_i >= 0 and sum_i h_i = delta.

    "uniform": every species constant delta/d. "random-simplex": band-limited
    positive fields normalised pointwise. "step-like": smoothed indicator
    partition with physical smoothing width (grid independent).
    """
    if d < 2:
        raise ValueError("need at least two species")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if spec.generator == "uniform":
        vals = np.full((d,) + grid.shape, delta / d)
    elif spec.generator == "random-simplex":
        rng = np.random.default_rng(spec.seed)
        logs = [random_band_limited(grid, rng, spec.kmax, spec.amplitude) for _ in range(d)]
        pos = np.exp(logs)
        vals = delta * pos / pos.sum(axis=0)
    elif spec.generator == "step-like":
        if spec.smoothing <= 0:
            raise ValueError("step-like data needs a positive smoothing width "
                             "(a hard indicator is not band-limited)")
        x = grid.meshgrid()[0]
        cells = np.stack([((x >= i / d) & (x < (i + 1) / d)).astype(float) for i in range(d)])
        smooth = heat_propagate(cells, grid, 0.5 * spec.smoothing**2)
        np.maximum(smooth, 0.0, out=smooth)  # spectral truncation can undershoot
        vals = delta * smooth / smooth.sum(axis=0)
    else:
        raise ValueError(f"unknown initial data generator {spec.generator!r}")
    return SpeciesVector(grid, vals)


def perturb_initial_data(
    h: SpeciesVector, eps: float, seed: int, kmax: int = 8
) -> SpeciesVector:
    """Add a single-mode perturbation of species 0, rebalanced across the
    other species so the partition sum is unchanged."""
    rng = np.random.default_rng(seed)
    k0 = int(rng.integers(1, kmax + 1))
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    x = h.grid.meshgrid()[0]
    mode = eps * np.cos(2.0 * math.pi * k0 * x + phase)
    vals = h.values.copy()
    vals[0] += mode
    vals[1:] -= mode / (h.d - 1)
    return SpeciesVector(h.grid, vals)


# -- checks ------------------------------------------------------------------


_OPS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt}


@dataclass
class Check:
    name: str
    value: float
    threshold: float
    op: str
    passed: bool
    note: str = ""


def make_check(name: str, value: float, threshold: float, op: str, note: str = "") -> Check:
    ok = bool(np.isfinite(value)) and _OPS[op](value, threshold)
    return Check(name=name, value=float(value), threshold=float(threshold), op=op,
                 passed=ok, note=note)


def verify_partition(traj: Trajectory, delta: float) -> Check:
    """Max over time and space of |sum_i w_i - delta|."""
    dev = float(np.max(np.abs(traj.values.sum(axis=1) - delta)))
    return make_check("partition-of-unity deviation", dev, 1e-10, "<=")


def verify_nonnegativity(traj: Trajectory) -> Check:
    """Min over species, nodes, and times."""
    return make_check("species minimum", float(traj.values.min()), -1e-8, ">=")


def verify_mass_conservation(traj: Trajectory) -> Check:
    means = traj.species_means()
    drift = float(np.max(np.abs(means - means[0])))
    return make_check("per-species mean drift", drift, 1e-10, "<=")


def energy_identity_probe(traj: Trajectory, model: ReducedModel) -> list[Check]:
    """Evaluate both terms of the negative-part energy identity along the
    trajectory and the pointwise coercivity factor 1 + sum_j alpha_ij c_j.

    For nonnegative trajectories both energy terms vanish identically.

    One pass over index_blocks of gradient forms, per time node and species,
    the energy and the dissipation, and the minimum of the factor; only the
    time derivative of the (T, d) energy table is taken after it, so no field
    of the whole trajectory is made.
    """
    grid, times = traj.grid, traj.tg.times
    axes = tuple(range(2, 2 + grid.n))
    energy = np.empty(traj.values.shape[:2])  # (T, d)
    dissipation = np.empty_like(energy)
    coercivity = math.inf
    for b in index_blocks(len(times), traj.values[0].nbytes * grid.n):
        values = traj.values[b]
        neg = np.minimum(values, 0.0)  # (nodes, d, *shape)
        energy[b] = 0.5 * np.mean(neg**2, axis=axes)
        grad_sq = (spectral_gradient(neg, grid) ** 2).sum(axis=2)  # (nodes, d, *shape)
        clamped = np.clip(values, 0.0, model.delta)
        factor = 1.0 + np.einsum("ij,tj...->ti...", model.alpha, clamped)
        dissipation[b] = np.mean(grad_sq * factor, axis=axes)
        coercivity = min(coercivity, float(factor.min()))
    dedt = np.gradient(energy, times, axis=0)
    residual = float(np.max(np.abs(dedt + dissipation)))
    return [
        make_check("energy-identity residual", residual, 1e-12, "<="),
        make_check("coercivity factor minimum", coercivity, 0.5, ">="),
    ]


# -- suite -------------------------------------------------------------------


@dataclass
class VerificationReport:
    checks: list[Check]
    provenance: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = ["verification report"]
        for k in sorted(self.provenance):
            lines.append(f"  {k} = {self.provenance[k]}")
        lines.append("")
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            note = f"  ({c.note})" if c.note else ""
            lines.append(f"[{status}] {c.name}: {c.value:.6g} {c.op} {c.threshold:.6g}{note}")
        n_fail = sum(not c.passed for c in self.checks)
        lines.append("")
        lines.append(f"{len(self.checks) - n_fail}/{len(self.checks)} checks passed")
        return "\n".join(lines) + "\n"

    def write(self, directory) -> Path:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "summary.txt").write_text(self.to_text())
        # csv quotes the fields that hold a comma, such as a note's interval
        with open(directory / "checks.csv", "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["name", "value", "op", "threshold", "passed", "note"])
            for c in self.checks:
                out.writerow([c.name, f"{c.value:.17g}", c.op, f"{c.threshold:.17g}", c.passed, c.note])
        return directory


class SuiteContext:
    """Shared, lazily cached artifacts for the verification battery."""

    def __init__(self, config: ExperimentConfig | None = None):
        self.config = config or ExperimentConfig()
        self.grid = self.config.grid()
        self.tg = self.config.time_grid()
        self.p = self.config.exponent()
        self.cylinders = self.config.cylinders(self.grid, self.tg)
        self._picard: dict = {}
        self._imex: dict = {}

    def model(self, delta: float | None = None) -> ReducedModel:
        return self.config.reduced_model(delta)

    def datum(self, delta: float, grid: GridSpec | None = None,
              generator: str | None = None, seed: int | None = None) -> SpeciesVector:
        spec = self.config.initial_spec()
        if generator is not None or seed is not None:
            spec = replace(spec, generator=generator or spec.generator,
                           seed=spec.seed if seed is None else seed)
        return generate_initial_data(spec, grid or self.grid, self.config.d, delta)

    def picard(self, delta: float):
        if delta not in self._picard:
            h = self.datum(delta)
            self._picard[delta] = picard_solve(
                h, self.model(delta), self.tg,
                tol=self.config.tol, max_iter=self.config.max_iter,
                truncated=self.config.truncated, metric=self.config.metric,
                p=self.p, cylinders=self.cylinders,
            )
        return self._picard[delta]

    def imex(self, delta: float, refine: int = 1):
        """The reference solve with every segment of the suite grid split into
        `refine` equal steps, sampled at the suite grid's nodes."""
        key = (delta, refine)
        if key not in self._imex:
            cfg = self.config
            fine = TimeGrid.dyadic(cfg.t_end, cfg.levels, cfg.steps_per_level * refine)
            if not np.array_equal(fine.times[::refine], self.tg.times):
                raise ValueError(f"refine={refine} does not nest the suite time grid")
            traj = imex_solve(self.datum(delta), self.model(delta), fine, truncated=cfg.truncated)
            self._imex[key] = Trajectory(self.grid, self.tg, traj.values[::refine], traj.metadata)
        return self._imex[key]


# each check_* function implements one block of the acceptance battery


def check_kernel_scaling(ctx: SuiteContext) -> list[Check]:
    checks = []
    t_list = list(np.logspace(-3.0, 0.0, 7))
    for n in (1, 2):
        for p in (1.0, 2.0, math.inf):
            rep = kernel_scaling_report(n, p, t_list)
            checks.append(make_check(
                f"kernel-scaling n={n} p={p:g} ratio spread", rep.ratio_spread - 1.0,
                KERNEL_SCALING_SPREAD, "<=",
                note="max/min of norm / t^(-n/2-1/2+n/2p) over three decades",
            ))
    value = kernel_gradient_lp(1.0, 1.0, 1)
    checks.append(make_check(
        "kernel-gradient L1(t=1, n=1) vs closed form 1/sqrt(pi)",
        abs(value * math.sqrt(math.pi) - 1.0), 1e-3, "<=",
    ))
    return checks


def check_spectral_exactness(ctx: SuiteContext) -> list[Check]:
    grid = ctx.grid
    x = grid.meshgrid()[0]
    worst = 0.0
    for k in (1, 3, grid.N // 4):
        f = np.sin(2.0 * math.pi * k * x)
        for t in (1e-4, 1e-2, 0.1):
            exact = math.exp(-4.0 * math.pi**2 * k**2 * t) * f
            err = float(np.max(np.abs(heat_propagate(f, grid, t) - exact)))
            worst = max(worst, err)
    checks = [make_check("single-mode heat flow vs exp(-4 pi^2 k^2 t)", worst, 1e-12, "<=")]
    rng = np.random.default_rng(ctx.config.seed)
    f = random_band_limited(grid, rng, ctx.config.kmax, 1.0)
    worst = 0.0
    for s, t in ((1e-3, 1e-2), (0.05, 0.2), (0.3, 0.7)):
        a = heat_propagate(heat_propagate(f, grid, s), grid, t)
        b = heat_propagate(f, grid, s + t)
        worst = max(worst, float(np.max(np.abs(a - b))))
    checks.append(make_check("semigroup composition", worst, 1e-12, "<="))
    return checks


def check_partition_nonnegativity(ctx: SuiteContext) -> list[Check]:
    delta = 0.05
    checks = []
    for label, traj in (("imex", ctx.imex(delta)), ("picard", ctx.picard(delta)[0])):
        c = verify_partition(traj, delta)
        c.name = f"{label} {c.name}"
        checks.append(c)
        c = verify_nonnegativity(traj)
        c.name = f"{label} {c.name}"
        checks.append(c)
    for c in energy_identity_probe(ctx.picard(delta)[0], ctx.model(delta)):
        c.name = f"picard {c.name}"
        checks.append(c)
    return checks


def check_contraction(ctx: SuiteContext) -> list[Check]:
    checks = []
    thetas = {}
    # a repeated delta would repeat its checks: each distinct one, in order
    deltas = tuple(dict.fromkeys(ctx.config.contraction_deltas))
    for delta in deltas:
        traj, rep = ctx.picard(delta)
        thetas[delta] = rep.theta_hat
        checks.append(make_check(
            f"picard contraction factor at delta={delta:g}", rep.theta_hat, 1.0, "<",
            note=f"{rep.iterates} iterations, converged={rep.converged}",
        ))
        ratios = _distance_ratios(rep.distances)
        if ratios:
            checks.append(make_check(
                f"picard distances strictly decreasing at delta={delta:g}", max(ratios), 1.0, "<",
            ))
    # the ordering check needs a ladder: two or more distinct deltas
    ordered = sorted(thetas)
    if len(ordered) > 1:
        worst = max(thetas[a] - thetas[b] for a, b in zip(ordered[:-1], ordered[1:]))
        checks.append(make_check(
            "contraction factor non-increasing as delta decreases", worst, 0.0, "<=",
            note="max over consecutive ladder steps of theta(small) - theta(large)",
        ))
    for delta in deltas:
        w_p, _ = ctx.picard(delta)
        w_i = ctx.imex(delta, refine=4)
        rel = float(np.max(np.abs(w_p.values - w_i.values)) / np.max(np.abs(w_i.values)))
        checks.append(make_check(
            f"picard vs refined imex relative sup distance at delta={delta:g}", rel, 1e-3, "<=",
        ))
    return checks


def _map_samples(fn, count: int, width: int, sample_bytes: int) -> list[list[float]]:
    """[fn(j) for j in range(count)], each fn(j) a tuple of width floats, in
    sample order. Samples count//2.. run in a forked child where the fork
    policy allows count x sample_bytes (solver._may_fork). The child writes
    its rows into an anonymous shared mapping, so nothing is pickled. A
    child that fails, or a fork that fails, has its half run again here, so
    a sample that raises raises from here, the first one in sample order, as
    in the serial loop."""

    def fill(samples, out):
        for i, j in enumerate(samples):
            out[i] = fn(j)

    rows = np.empty((count, width))
    if count < 2 or not _may_fork(count * sample_bytes):
        fill(range(count), rows)
        return rows.tolist()
    mid = count // 2
    head, tail = rows[:mid], rows[mid:]
    shared = _shared(tail.shape)
    pid = _fork_child(lambda: fill(range(mid, count), shared))
    try:
        fill(range(mid), head)
    finally:
        done = pid > 0 and _reap(pid)
    if done:
        tail[...] = shared
    else:
        fill(range(mid, count), tail)
    return rows.tolist()


def _sample_bytes(ctx: SuiteContext, grid: GridSpec) -> int:
    return len(ctx.tg) * ctx.config.d * grid.num_nodes * 8


def check_stability(ctx: SuiteContext) -> list[Check]:
    delta = 0.02
    model = ctx.model(delta)
    h = ctx.datum(delta)
    solve_kw = dict(tol=1e-11, max_iter=ctx.config.max_iter,
                    truncated=ctx.config.truncated, metric="sup")
    w_base, _ = picard_solve(h, model, ctx.tg, **solve_kw)
    eps = 0.05 * delta

    def pair(j):
        # the ratio at the full and at the halved perturbation of one seed
        seed = ctx.config.seed + 1000 + j
        ratio = []
        for scale in (1.0, 0.5):
            ht = perturb_initial_data(h, scale * eps, seed, ctx.config.kmax)
            wt, _ = picard_solve(ht, model, ctx.tg, **solve_kw)
            num = xp_norm(trajectory_difference(w_base, wt), ctx.p, ctx.cylinders)
            den = float(np.max(np.abs(h.values - ht.values)))
            ratio.append(num / den)
        return ratio

    rows = _map_samples(pair, ctx.config.stability_pairs, 2, _sample_bytes(ctx, ctx.grid))
    ratios, ratios_half = [r for r, _ in rows], [r for _, r in rows]
    checks = [
        # this bound, and those on the maximal-regularity, Lipschitz and
        # quadratic constants, are 10x the largest value measured on the 1-D
        # suite at N=64 and N=128 and the 2-D sweeps at N=64, seeds 2024 and
        # 2025, rounded up to two digits; here 1.4665 (N=64, seed 2024). A
        # center on every node reads about 10% higher.
        make_check("stability ratio maximum", max(ratios), 15.0, "<",
                   note="||w - w~||_Xp / ||h - h~||_inf over seeded pairs"),
        make_check("stability ratio spread across pairs", max(ratios) / min(ratios), 10.0, "<"),
    ]
    change = max(abs(a - b) / a for a, b in zip(ratios, ratios_half))
    checks.append(make_check(
        "stability ratio change under halved perturbation", change, 0.2, "<=",
    ))
    return checks


def _with_refinement(ctx: SuiteContext, name: str, measure) -> tuple:
    """measure(grid) -> (value, extra) on the suite grid and, when the config
    refines, on the grid with 2N nodes. Returns the suite grid's (value, extra)
    and the checks that value moves by at most 20% under N -> 2N (none
    without refinement)."""
    base = measure(ctx.grid)
    if not ctx.config.refine:
        return base, []
    fine = measure(make_grid(ctx.grid.n, 2 * ctx.grid.N))
    rel = abs(fine[0] / base[0] - 1.0)
    return base, [make_check(f"{name} stability under N -> 2N", rel, 0.2, "<=")]


def check_gradient_decay(ctx: SuiteContext) -> list[Check]:
    delta = 0.05
    beta = (1,) + (0,) * (ctx.grid.n - 1)
    # the target fit range needs the time grid to resolve it
    fit = (1e-4, 1e-2) if float(ctx.tg.times[1]) <= 1e-3 else None

    def measure(grid):
        h = ctx.datum(delta, grid=grid, generator="step-like")
        traj, _ = picard_solve(h, ctx.model(delta), ctx.tg, tol=1e-11, max_iter=ctx.config.max_iter,
                               truncated=ctx.config.truncated, metric="sup")
        probe = decay_probe(traj, k=0, beta=beta, fit_window=fit)
        return probe.max_scaled / h.sup_norm(), probe.slope

    (_, slope), refined = _with_refinement(ctx, "sup_t sqrt(t)||grad w||/||h||", measure)
    window = f"[{fit[0]:g}, {fit[1]:g}]" if fit else "first two decades"
    return [
        make_check("gradient decay slope for step-like data", abs(slope + 0.5), 0.1, "<=",
                   note=f"fitted slope {slope:.4f} over t in {window}"),
        *refined,
    ]


def _random_flux(grid: GridSpec, tg: TimeGrid, d: int, seed: int, kmax: int):
    """Seeded band-limited fluxes with smooth exponential time envelopes;
    identical continuum data at every grid resolution. Yields the (nodes,
    flux block of shape (nodes, d, n, *grid.shape)) pairs that
    maximal_regularity_ratio takes, over index_blocks of the time nodes, so
    only the d x n fields, the (T, d, n) table of envelopes and one block
    are held: each block is envelope x field, the value the whole-array
    product takes at its nodes."""
    rng = np.random.default_rng(seed)
    fields = np.empty((d, grid.n) + grid.shape)
    envelope = np.empty((len(tg), d, grid.n))
    for i in range(d):
        for m in range(grid.n):
            fields[i, m] = random_band_limited(grid, rng, kmax, 1.0)
            rate = float(rng.uniform(0.5, 4.0))
            envelope[:, i, m] = np.exp(-rate * tg.times)
    spatial = (...,) + (None,) * grid.n
    for b in index_blocks(len(tg), fields.nbytes):
        yield b, envelope[b][spatial] * fields


def check_maximal_regularity(ctx: SuiteContext) -> list[Check]:
    def measure(grid):
        cyls = ctx.config.cylinders(grid, ctx.tg)

        def sample(j):
            seed = ctx.config.seed + 2000 + j
            rng = np.random.default_rng(seed)
            h = SpeciesVector(grid, [
                random_band_limited(grid, rng, ctx.config.kmax, 1.0, mean=float(rng.uniform(-1, 1)))
                for _ in range(ctx.config.d)
            ])
            flux = _random_flux(grid, ctx.tg, ctx.config.d, seed + 500, ctx.config.kmax)
            return (maximal_regularity_ratio(h, flux, ctx.tg, ctx.p, cyls),)

        rows = _map_samples(sample, ctx.config.sweep_samples, 1, _sample_bytes(ctx, grid))
        return max(row[0] for row in rows), None

    (maximum, _), refined = _with_refinement(ctx, "maximal-regularity maximum", measure)
    return [
        # 10x the largest measured, 1.2601 (N=128, seed 2025): see stability
        make_check("maximal-regularity ratio maximum", maximum, 13.0, "<",
                   note="||w||_Xp / (||F||_Yp + ||h||_inf) over seeded linear problems"),
        *refined,
    ]


def check_lipschitz(ctx: SuiteContext) -> list[Check]:
    delta = ctx.config.delta
    model = ctx.model(delta)

    def measure(grid):
        cyls = ctx.config.cylinders(grid, ctx.tg)

        def sample(j):
            # the heat flows of two seeded data; the first pair on the suite
            # grid also probes v against w = 0
            seed = ctx.config.seed + 3000 + j
            v, w = (ctx.datum(delta, grid, seed=s) for s in (seed, seed + 250))
            pair, zero = _heat_flow_probes(v, w, ctx.tg, model, ctx.p, cyls,
                                           against_zero=j == 0 and grid == ctx.grid)
            return pair.ratio, math.nan if zero is None else zero.ratio

        rows = _map_samples(sample, ctx.config.sweep_samples, 2, _sample_bytes(ctx, grid))
        return max(r for r, _ in rows), rows[0][1]

    (maximum, zero_ratio), refined = _with_refinement(ctx, "Lipschitz constant maximum", measure)
    return [
        # 10x the largest measured, 0.085355 and 0.043606 (both N=128, seed
        # 2024): see stability
        make_check("flux-map Lipschitz constant maximum", maximum, 0.86, "<",
                   note="||F(v)-F(w)||_Yp / (d max{...} ||v-w||_Xp) over seeded pairs"),
        make_check("flux-map quadratic bound at w=0", zero_ratio, 0.44, "<",
                   note="||F(v)||_Yp / (d ||v||_Xp^2)"),
        *refined,
    ]


def check_norm_identities(ctx: SuiteContext) -> list[Check]:
    traj, _ = ctx.picard(0.05)
    grad = gradient_flux(traj)
    semi = xp_seminorm(traj, ctx.p, ctx.cylinders).seminorm
    ynorm = yp_norm(grad, ctx.p, ctx.cylinders).seminorm
    checks = [make_check("gradient-as-flux identity |Yp(grad w) - Xp_dot(w)|",
                         abs(ynorm - semi), 0.0, "<=")]
    y1 = yp_norm(grad, 1.0, ctx.cylinders).seminorm
    checks.append(make_check("Jensen monotonicity Y1 <= Yp", y1 - ynorm, 1e-12, "<="))
    worst_tri, worst_hom = 0.0, 0.0
    for j in range(5):
        rng = np.random.default_rng(ctx.config.seed + 4000 + j)
        u = heat_flow_trajectory(ctx.datum(0.05, ctx.grid, seed=ctx.config.seed + 4100 + j), ctx.tg)
        v = heat_flow_trajectory(ctx.datum(0.05, ctx.grid, seed=ctx.config.seed + 4200 + j), ctx.tg)
        s = Trajectory(ctx.grid, ctx.tg, u.values + v.values)
        nu = xp_norm(u, ctx.p, ctx.cylinders)
        nv = xp_norm(v, ctx.p, ctx.cylinders)
        ns = xp_norm(s, ctx.p, ctx.cylinders)
        worst_tri = max(worst_tri, ns - nu - nv)
        lam = float(rng.uniform(0.1, 2.0))
        scaled = Trajectory(ctx.grid, ctx.tg, lam * u.values)
        worst_hom = max(worst_hom, abs(xp_norm(scaled, ctx.p, ctx.cylinders) - lam * nu))
    checks.append(make_check("Xp triangle inequality defect", worst_tri, 1e-10, "<="))
    checks.append(make_check("Xp absolute homogeneity defect", worst_hom, 1e-10, "<="))
    return checks


def check_negative_controls(ctx: SuiteContext) -> list[Check]:
    delta = 0.2
    d = ctx.config.d
    asym = np.zeros((d, d))
    asym[0, 1] = 1.0
    asym[1, 0] = -1.0
    broken = ReducedModel(delta=delta, alpha=asym)
    h = ctx.datum(delta)
    traj = imex_solve(h, broken, ctx.tg, truncated=ctx.config.truncated)
    dev = verify_partition(traj, delta).value
    return [make_check(
        "asymmetric-coupling injection breaks partition conservation", dev, 1e-4, ">",
        note="expected failure of the conservation mechanism; suite reports it",
    )]


_SUITE = {
    "kernel-scaling": check_kernel_scaling,
    "spectral-exactness": check_spectral_exactness,
    "partition-nonnegativity": check_partition_nonnegativity,
    "contraction": check_contraction,
    "stability": check_stability,
    "gradient-decay": check_gradient_decay,
    "maximal-regularity": check_maximal_regularity,
    "lipschitz": check_lipschitz,
    "norm-identities": check_norm_identities,
    "negative-controls": check_negative_controls,
}


def run_suite(
    config: ExperimentConfig | None = None,
    out_dir=None,
    groups: Sequence[str] | None = None,
) -> VerificationReport:
    """Run the verification battery, or only the named groups of it, on one
    SuiteContext and optionally write the report."""
    config = config or ExperimentConfig()
    ctx = SuiteContext(config)
    checks = []
    for group in _SUITE if groups is None else groups:
        fn = _SUITE[group]
        try:
            group_checks = fn(ctx)
        except Exception as exc:
            raise RuntimeError(f"suite group {group!r} failed to run: {exc}") from exc
        for c in group_checks:
            c.name = f"{group}: {c.name}"
        checks.extend(group_checks)
    report = VerificationReport(
        checks=checks,
        provenance={
            "config_hash": config.config_hash(),
            "version": __version__,
            "seed": config.seed,
        },
    )
    if out_dir is not None:
        report.write(out_dir)
        config.save(Path(out_dir) / "config.ini")
    return report
