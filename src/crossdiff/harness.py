"""Experiment configuration, initial-data generators, invariant checks, and
the full verification suite. This is the only module with side effects:
everything it writes goes under the configured output directory.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, field, fields as dc_fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .carleson import (
    decay_probe,
    default_exponent,
    enumerate_cylinders,
    gradient_flux,
    maximal_regularity_ratio,
    xp_norm,
    xp_seminorm,
    yp_norm,
    _time_derivative,
)
from .fields import (
    GridSpec,
    ScalarField,
    SpeciesVector,
    from_coeffs,
    laplacian_symbol,
    make_grid,
    random_band_limited,
    to_coeffs,
)
from .model import RawCoefficients, ReducedModel, lipschitz_probe, reduce_coefficients
from .semigroup import heat_flow_trajectory, heat_propagate, kernel_gradient_lp, kernel_scaling_report
from .solver import imex_solve, picard_solve
from .trajectory import FluxTrajectory, TimeGrid, Trajectory, trajectory_difference

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

_SECTIONS = {
    "grid": ["n", "N"],
    "model": ["d", "coefficients", "delta", "closeness_threshold"],
    "initial": ["generator", "seed", "kmax", "smoothing", "amplitude"],
    "time": ["t_end", "levels", "steps_per_level"],
    "solver": ["scheme", "truncated", "tol", "max_iter", "metric"],
    "norms": ["p", "radii_per_octave", "centers_stride"],
    "suite": ["stability_pairs", "sweep_samples", "contraction_deltas", "refine"],
    "output": ["output_dir"],
}

_PARSERS = {
    "n": int, "N": int, "d": int, "seed": int, "kmax": int, "levels": int,
    "steps_per_level": int, "max_iter": int, "radii_per_octave": int,
    "stability_pairs": int, "sweep_samples": int,
    "delta": float, "closeness_threshold": float, "smoothing": float,
    "amplitude": float, "t_end": float, "tol": float,
    "generator": str, "scheme": str, "metric": str, "output_dir": str,
    "truncated": lambda s: s.lower() in ("1", "true", "yes", "on"),
    "refine": lambda s: s.lower() in ("1", "true", "yes", "on"),
    "coefficients": lambda s: tuple(float(x) for x in s.split()) if s and s != "none" else None,
    "contraction_deltas": lambda s: tuple(float(x) for x in s.split()),
    "p": lambda s: None if s in ("", "none", "default") else float(s),
    "centers_stride": lambda s: None if s in ("", "none", "default") else int(s),
}


@dataclass
class ExperimentConfig:
    """Every knob of one experiment; round-trips through the INI format."""

    n: int = 1
    N: int = 128
    d: int = 3
    coefficients: tuple[float, ...] | None = None
    delta: float = 0.05
    closeness_threshold: float = 0.1
    generator: str = "random-simplex"
    seed: int = 2024
    kmax: int = 8
    smoothing: float = 0.005
    amplitude: float = 0.5
    t_end: float = 1.0
    levels: int = 10
    steps_per_level: int = 8
    scheme: str = "picard"
    truncated: bool = True
    tol: float = 1e-12
    max_iter: int = 30
    metric: str = "xp"
    p: float | None = None
    radii_per_octave: int = 2
    centers_stride: int | None = None
    stability_pairs: int = 10
    sweep_samples: int = 20
    contraction_deltas: tuple[float, ...] = (0.01, 0.02, 0.05)
    refine: bool = True
    output_dir: str = "runs"

    def __post_init__(self):
        self.grid()  # n in {1, 2} and N a power of two >= 8
        for name, allowed in (("scheme", ("picard", "imex")), ("metric", ("xp", "sup")),
                              ("generator", ("uniform", "random-simplex", "step-like"))):
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"unknown {name} {value!r}; expected one of {', '.join(allowed)}")
        if self.d < 2:
            raise ValueError("need at least two species")
        for name in ("delta", "t_end", "tol", "max_iter"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    def grid(self) -> GridSpec:
        return make_grid(self.n, self.N)

    def time_grid(self) -> TimeGrid:
        return TimeGrid.dyadic(self.t_end, self.levels, self.steps_per_level)

    def exponent(self) -> float:
        return self.p if self.p is not None else float(default_exponent(self.grid()))

    def initial_spec(self) -> "InitialDataSpec":
        return InitialDataSpec(
            generator=self.generator, seed=self.seed, kmax=self.kmax,
            smoothing=self.smoothing, amplitude=self.amplitude,
        )

    def alpha_template(self) -> np.ndarray:
        if self.coefficients is not None:
            raw = RawCoefficients.from_upper_triangle(self.d, self.coefficients)
            return reduce_coefficients(raw, self.closeness_threshold).alpha
        return default_alpha(self.d)

    def reduced_model(self, delta: float | None = None) -> ReducedModel:
        """Coupling from the configured coefficients (or the default template)
        at the configured (or overridden) spread delta."""
        if self.coefficients is not None and delta is None:
            raw = RawCoefficients.from_upper_triangle(self.d, self.coefficients)
            m = reduce_coefficients(raw, self.closeness_threshold)
            if abs(m.delta - self.delta) <= 1e-12 * self.delta:
                return m
            delta = self.delta
            alpha = m.alpha
        else:
            alpha = self.alpha_template()
            delta = self.delta if delta is None else delta
        return ReducedModel.from_alpha(alpha, delta, threshold=self.closeness_threshold)

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        cp = configparser.ConfigParser()
        cp.optionxform = str  # keys are case sensitive (N vs n)
        for section, names in _SECTIONS.items():
            cp[section] = {}
            for name in names:
                cp[section][name] = _format_value(getattr(self, name))
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    def save(self, path):
        Path(path).write_text(self.to_text())

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        cp = configparser.ConfigParser()
        cp.optionxform = str
        cp.read_string(text)
        if not cp.sections():
            raise ValueError("empty config: no sections found")
        kwargs = {}
        for section in cp.sections():
            if section not in _SECTIONS:
                raise ValueError(f"unknown config section [{section}]")
            for name, raw in cp[section].items():
                if name not in _SECTIONS[section]:
                    raise ValueError(f"unknown config key {name!r} in [{section}]")
                kwargs[name] = _PARSERS[name](raw)
        return cls(**kwargs)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        return cls.from_text(Path(path).read_text())

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        known = {f.name for f in dc_fields(self)}
        bad = set(kwargs) - known
        if bad:
            raise ValueError(f"unknown config fields: {sorted(bad)}")
        return replace(self, **kwargs)

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:12]


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
        logs = np.stack(
            [random_band_limited(grid, rng, spec.kmax, spec.amplitude).values for _ in range(d)]
        )
        pos = np.exp(logs)
        vals = delta * pos / pos.sum(axis=0)
    elif spec.generator == "step-like":
        if spec.smoothing <= 0:
            raise ValueError("step-like data needs a positive smoothing width "
                             "(a hard indicator is not band-limited)")
        x = grid.meshgrid()[0]
        cells = np.stack([((x >= i / d) & (x < (i + 1) / d)).astype(float) for i in range(d)])
        smoother = np.exp(0.5 * spec.smoothing**2 * laplacian_symbol(grid))
        smooth = from_coeffs(smoother * to_coeffs(cells, grid), grid)
        np.maximum(smooth, 0.0, out=smooth)  # spectral truncation can undershoot
        vals = delta * smooth / smooth.sum(axis=0)
    else:
        raise ValueError(f"unknown initial data generator {spec.generator!r}")
    return SpeciesVector.from_array(grid, vals)


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
    vals = h.stack().copy()
    vals[0] += mode
    vals[1:] -= mode / (h.d - 1)
    return SpeciesVector.from_array(h.grid, vals)


# -- checks ------------------------------------------------------------------


_OPS = {
    "<=": lambda v, t: v <= t,
    ">=": lambda v, t: v >= t,
    "<": lambda v, t: v < t,
    ">": lambda v, t: v > t,
}


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


def verify_partition(traj: Trajectory, delta: float, threshold: float = 1e-10) -> Check:
    """Max over time and space of |sum_i w_i - delta|."""
    dev = float(np.max(np.abs(traj.values.sum(axis=1) - delta)))
    return make_check("partition-of-unity deviation", dev, threshold, "<=")


def verify_nonnegativity(traj: Trajectory, threshold: float = -1e-8) -> Check:
    """Min over species, nodes, and times."""
    return make_check("species minimum", float(traj.values.min()), threshold, ">=")


def verify_mass_conservation(traj: Trajectory, threshold: float = 1e-10) -> Check:
    means = traj.species_means()
    drift = float(np.max(np.abs(means - means[0])))
    return make_check("per-species mean drift", drift, threshold, "<=")


def energy_identity_probe(
    traj: Trajectory,
    model: ReducedModel,
    residual_threshold: float = 1e-12,
    coercivity_threshold: float = 0.5,
) -> list[Check]:
    """Evaluate both terms of the negative-part energy identity along the
    trajectory and the pointwise coercivity factor 1 + sum_j alpha_ij c_j.

    For nonnegative trajectories both energy terms vanish identically.
    """
    grid = traj.grid
    neg = np.minimum(traj.values, 0.0)  # (T, d, *shape)
    axes = tuple(range(2, 2 + grid.n))
    energy = 0.5 * np.mean(neg**2, axis=axes)  # (T, d)
    dedt = _time_derivative(energy, traj.tg.times)
    gflux = gradient_flux(Trajectory(grid, traj.tg, neg))
    grad_sq = (gflux.values**2).sum(axis=2)  # (T, d, *shape)
    clamped = np.clip(traj.values, 0.0, model.delta)
    factor = 1.0 + np.einsum("ij,tj...->ti...", model.alpha, clamped)
    dissipation = np.mean(grad_sq * factor, axis=axes)  # (T, d)
    residual = float(np.max(np.abs(dedt + dissipation)))
    coercivity = float(factor.min())
    return [
        make_check("energy-identity residual", residual, residual_threshold, "<="),
        make_check("coercivity factor minimum", coercivity, coercivity_threshold, ">="),
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
        with open(directory / "checks.csv", "w") as fh:
            fh.write("name,value,op,threshold,passed,note\n")
            for c in self.checks:
                fh.write(f"{c.name},{c.value:.17g},{c.op},{c.threshold:.17g},{c.passed},{c.note}\n")
        return directory


class SuiteContext:
    """Shared, lazily cached artifacts for the verification battery."""

    def __init__(self, config: ExperimentConfig | None = None):
        self.config = config or ExperimentConfig()
        self.grid = self.config.grid()
        self.tg = self.config.time_grid()
        self.p = self.config.exponent()
        self.cylinders = enumerate_cylinders(
            self.grid, self.tg, self.config.radii_per_octave, self.config.centers_stride
        )
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
                f"kernel-scaling n={n} p={p:g} ratio spread", rep.ratio_spread - 1.0, 0.02, "<=",
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
        f = ScalarField(grid, np.sin(2.0 * math.pi * k * x))
        for t in (1e-4, 1e-2, 0.1):
            exact = math.exp(-4.0 * math.pi**2 * k**2 * t) * f.values
            err = float(np.max(np.abs(heat_propagate(f, t).values - exact)))
            worst = max(worst, err)
    checks = [make_check("single-mode heat flow vs exp(-4 pi^2 k^2 t)", worst, 1e-12, "<=")]
    rng = np.random.default_rng(ctx.config.seed)
    f = random_band_limited(grid, rng, ctx.config.kmax, 1.0)
    worst = 0.0
    for s, t in ((1e-3, 1e-2), (0.05, 0.2), (0.3, 0.7)):
        a = heat_propagate(heat_propagate(f, s), t).values
        b = heat_propagate(f, s + t).values
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
    for delta in ctx.config.contraction_deltas:
        traj, rep = ctx.picard(delta)
        thetas[delta] = rep.theta_hat
        checks.append(make_check(
            f"picard contraction factor at delta={delta:g}", rep.theta_hat, 1.0, "<",
            note=f"{rep.iterates} iterations, converged={rep.converged}",
        ))
        floor = 1e-15 * max(rep.distances[0], 1e-300)
        ratios = [b / a for a, b in zip(rep.distances[:-1], rep.distances[1:]) if a > floor and b > floor]
        if ratios:
            checks.append(make_check(
                f"picard distances strictly decreasing at delta={delta:g}", max(ratios), 1.0, "<",
            ))
    ordered = sorted(ctx.config.contraction_deltas)
    worst = max(thetas[a] - thetas[b] for a, b in zip(ordered[:-1], ordered[1:]))
    checks.append(make_check(
        "contraction factor non-increasing as delta decreases", worst, 0.0, "<=",
        note="max over consecutive ladder steps of theta(small) - theta(large)",
    ))
    for delta in ctx.config.contraction_deltas:
        w_p, _ = ctx.picard(delta)
        w_i = ctx.imex(delta, refine=4)
        rel = float(np.max(np.abs(w_p.values - w_i.values)) / np.max(np.abs(w_i.values)))
        checks.append(make_check(
            f"picard vs refined imex relative sup distance at delta={delta:g}", rel, 1e-3, "<=",
        ))
    return checks


def check_stability(ctx: SuiteContext) -> list[Check]:
    delta = 0.02
    model = ctx.model(delta)
    h = ctx.datum(delta)
    solve_kw = dict(tol=1e-11, max_iter=ctx.config.max_iter,
                    truncated=ctx.config.truncated, metric="sup")
    w_base, _ = picard_solve(h, model, ctx.tg, **solve_kw)
    ratios, ratios_half = [], []
    eps = 0.05 * delta
    for j in range(ctx.config.stability_pairs):
        seed = ctx.config.seed + 1000 + j
        for scale, acc in ((1.0, ratios), (0.5, ratios_half)):
            ht = perturb_initial_data(h, scale * eps, seed, ctx.config.kmax)
            wt, _ = picard_solve(ht, model, ctx.tg, **solve_kw)
            num = xp_norm(trajectory_difference(w_base, wt), ctx.p, ctx.cylinders)
            den = float(np.max(np.abs(h.stack() - ht.stack())))
            acc.append(num / den)
    checks = [
        make_check("stability ratio maximum", max(ratios), math.inf, "<",
                   note="||w - w~||_Xp / ||h - h~||_inf over seeded pairs"),
        make_check("stability ratio spread across pairs", max(ratios) / min(ratios), 10.0, "<"),
    ]
    change = max(abs(a - b) / a for a, b in zip(ratios, ratios_half))
    checks.append(make_check(
        "stability ratio change under halved perturbation", change, 0.2, "<=",
    ))
    return checks


def check_gradient_decay(ctx: SuiteContext) -> list[Check]:
    delta = 0.05
    beta = (1,) + (0,) * (ctx.grid.n - 1)
    qs = {}
    slopes = {}
    factors = (1, 2) if ctx.config.refine else (1,)
    # the target fit range needs the time grid to resolve it
    fit = (1e-4, 1e-2) if float(ctx.tg.times[1]) <= 1e-3 else None
    for refine in factors:
        grid = make_grid(ctx.grid.n, ctx.grid.N * refine)
        h = ctx.datum(delta, grid=grid, generator="step-like")
        traj, _ = picard_solve(h, ctx.model(delta), ctx.tg, tol=1e-11,
                               truncated=ctx.config.truncated, metric="sup")
        probe = decay_probe(traj, k=0, beta=beta, fit_window=fit)
        qs[refine] = probe.max_scaled / h.sup_norm()
        slopes[refine] = probe.slope
    window = f"[{fit[0]:g}, {fit[1]:g}]" if fit else "first two decades"
    checks = [
        make_check("gradient decay slope for step-like data", abs(slopes[1] + 0.5), 0.1, "<=",
                   note=f"fitted slope {slopes[1]:.4f} over t in {window}"),
    ]
    if ctx.config.refine:
        rel = abs(qs[2] / qs[1] - 1.0)
        checks.append(make_check(
            "sup_t sqrt(t)||grad w||/||h|| stability under N -> 2N", rel, 0.2, "<=",
        ))
    return checks


def _random_flux(grid: GridSpec, tg: TimeGrid, d: int, seed: int, kmax: int) -> FluxTrajectory:
    """Seeded band-limited fluxes with smooth exponential time envelopes;
    identical continuum data at every grid resolution."""
    rng = np.random.default_rng(seed)
    vals = np.zeros((len(tg), d, grid.n) + grid.shape)
    for i in range(d):
        for m in range(grid.n):
            a = random_band_limited(grid, rng, kmax, 1.0).values
            rate = float(rng.uniform(0.5, 4.0))
            envelope = np.exp(-rate * tg.times).reshape((-1,) + (1,) * grid.n)
            vals[:, i, m] = envelope * a
    return FluxTrajectory(grid, tg, vals)


def check_maximal_regularity(ctx: SuiteContext) -> list[Check]:
    maxima = {}
    factors = (1, 2) if ctx.config.refine else (1,)
    for refine in factors:
        grid = make_grid(ctx.grid.n, ctx.grid.N * refine)
        cyls = enumerate_cylinders(grid, ctx.tg, ctx.config.radii_per_octave,
                                   ctx.config.centers_stride)
        ratios = []
        for j in range(ctx.config.sweep_samples):
            seed = ctx.config.seed + 2000 + j
            rng = np.random.default_rng(seed)
            h = SpeciesVector.from_array(grid, np.stack([
                random_band_limited(grid, rng, ctx.config.kmax, 1.0, mean=float(rng.uniform(-1, 1))).values
                for _ in range(ctx.config.d)
            ]))
            flux = _random_flux(grid, ctx.tg, ctx.config.d, seed + 500, ctx.config.kmax)
            ratios.append(maximal_regularity_ratio(h, flux, ctx.tg, ctx.p, cyls))
        maxima[refine] = max(ratios)
    checks = [make_check("maximal-regularity ratio maximum", maxima[1], math.inf, "<",
                         note="||w||_Xp / (||F||_Yp + ||h||_inf) over seeded linear problems")]
    if ctx.config.refine:
        rel = abs(maxima[2] / maxima[1] - 1.0)
        checks.append(make_check(
            "maximal-regularity maximum stability under N -> 2N", rel, 0.2, "<=",
        ))
    return checks


def check_lipschitz(ctx: SuiteContext) -> list[Check]:
    delta = ctx.config.delta
    maxima = {}
    zero_ratio = None
    factors = (1, 2) if ctx.config.refine else (1,)
    for refine in factors:
        grid = make_grid(ctx.grid.n, ctx.grid.N * refine)
        cyls = enumerate_cylinders(grid, ctx.tg, ctx.config.radii_per_octave,
                                   ctx.config.centers_stride)
        model = ctx.model(delta)
        ratios = []
        for j in range(ctx.config.sweep_samples):
            seed = ctx.config.seed + 3000 + j
            v = heat_flow_trajectory(_seeded_datum(ctx, grid, delta, seed), ctx.tg)
            w = heat_flow_trajectory(_seeded_datum(ctx, grid, delta, seed + 250), ctx.tg)
            rep = lipschitz_probe(v, w, model, ctx.p, cyls)
            ratios.append(rep.ratio)
            if j == 0 and refine == 1:
                zero = Trajectory(grid, ctx.tg, np.zeros_like(v.values))
                zero_ratio = lipschitz_probe(v, zero, model, ctx.p, cyls).ratio
        maxima[refine] = max(ratios)
    checks = [
        make_check("flux-map Lipschitz constant maximum", maxima[1], math.inf, "<",
                   note="||F(v)-F(w)||_Yp / (d max{...} ||v-w||_Xp) over seeded pairs"),
        make_check("flux-map quadratic bound at w=0", zero_ratio, math.inf, "<",
                   note="||F(v)||_Yp / (d ||v||_Xp^2)"),
    ]
    if ctx.config.refine:
        rel = abs(maxima[2] / maxima[1] - 1.0)
        checks.append(make_check(
            "Lipschitz constant maximum stability under N -> 2N", rel, 0.2, "<=",
        ))
    return checks


def _seeded_datum(ctx: SuiteContext, grid: GridSpec, delta: float, seed: int) -> SpeciesVector:
    return generate_initial_data(
        replace(ctx.config.initial_spec(), seed=seed), grid, ctx.config.d, delta
    )


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
        u = heat_flow_trajectory(_seeded_datum(ctx, ctx.grid, 0.05, ctx.config.seed + 4100 + j), ctx.tg)
        v = heat_flow_trajectory(_seeded_datum(ctx, ctx.grid, 0.05, ctx.config.seed + 4200 + j), ctx.tg)
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
    broken = ReducedModel(K=1.0, delta=delta, alpha=asym)
    h = ctx.datum(delta)
    traj = imex_solve(h, broken, ctx.tg, truncated=ctx.config.truncated)
    dev = float(np.max(np.abs(traj.values.sum(axis=1) - delta)))
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
