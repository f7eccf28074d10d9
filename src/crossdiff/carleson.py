"""Parabolic-cylinder (semi)norms, maximal-regularity ratios, and
derivative-decay probes for sampled trajectories.

The continuum supremum over cylinder centers z and radii R is discretised
by a geometric radius ladder (two radii per octave by default) and a
strided set of node-aligned centers. Balls wrap periodically; once
2R >= 1 the ball is the whole torus. Reported values are certified lower
bounds of the discrete supremum over the scanned cylinder set.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fields import (
    GridSpec,
    SpeciesVector,
    derivative_symbol,
    from_coeffs,
    spectral_gradient,
    to_coeffs,
)
from .semigroup import duhamel_solve
from .trajectory import FluxTrajectory, TimeGrid, Trajectory

__all__ = [
    "CylinderSpec",
    "NormReport",
    "DecayProbe",
    "default_exponent",
    "enumerate_cylinders",
    "gradient_flux",
    "xp_seminorm",
    "yp_norm",
    "xp_norm",
    "maximal_regularity_ratio",
    "decay_probe",
]


def default_exponent(grid: GridSpec) -> int:
    """Default integrability exponent n + 3 (comfortably above n + 2)."""
    return grid.n + 3


@dataclass(frozen=True)
class CylinderSpec:
    """Space-time box [R^2/2, R^2] x B_R(z) with z on the torus."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("cylinder radius must be positive")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    @property
    def window(self) -> tuple[float, float]:
        return (self.radius**2 / 2.0, self.radius**2)


@dataclass
class NormReport:
    p: float
    sup_norm: float
    seminorm: float
    attaining: CylinderSpec | None
    attaining_species: int | None
    cylinders_scanned: int
    cylinders_skipped: int = 0
    grid: GridSpec | None = None

    @property
    def xp_total(self) -> float:
        return self.sup_norm + self.seminorm

    def to_csv(self, path, manifest_hash: str = ""):
        gtxt = f"{self.grid.n}x{self.grid.N}" if self.grid else ""
        with open(path, "w") as fh:
            fh.write(f"# p={self.p} grid={gtxt} manifest={manifest_hash}\n")
            fh.write("sup_norm,seminorm,total,center,radius,scanned,skipped\n")
            z = ";".join(f"{c:.17g}" for c in self.attaining.center) if self.attaining else ""
            r = f"{self.attaining.radius:.17g}" if self.attaining else ""
            fh.write(
                f"{self.sup_norm:.17g},{self.seminorm:.17g},{self.xp_total:.17g},"
                f"{z},{r},{self.cylinders_scanned},{self.cylinders_skipped}\n"
            )


def enumerate_cylinders(
    grid: GridSpec,
    tg: TimeGrid,
    radii_per_octave: int = 2,
    centers_stride: int | None = None,
) -> list[CylinderSpec]:
    """Geometric radius ladder crossed with strided node centers.

    The smallest radius resolves the first positive time (R_min^2 = 2 t_1);
    the ladder is capped at R = 1/2, beyond which the ball wraps the whole
    torus, and at R^2 = t_end.
    """
    if centers_stride is None:
        centers_stride = max(1, grid.N // 16)
    if centers_stride < 1 or centers_stride > grid.N:
        raise ValueError(f"centers_stride must be in [1, N], got {centers_stride}")
    if radii_per_octave < 1:
        raise ValueError("radii_per_octave must be >= 1")
    t1 = float(tg.times[1])
    r_min = math.sqrt(2.0 * t1)
    r_cap = min(0.5, math.sqrt(tg.t_end))
    if r_min > r_cap * (1.0 + 1e-12):
        raise ValueError("empty radius ladder: time grid resolves no cylinder window")
    radii = []
    j = 0
    while True:
        r = r_min * 2.0 ** (j / radii_per_octave)
        if r >= r_cap * (1.0 - 1e-12):
            break
        radii.append(r)
        j += 1
    radii.append(r_cap)
    steps = range(0, grid.N, centers_stride)
    if grid.n == 1:
        centers = [(i / grid.N,) for i in steps]
    else:
        centers = [(i / grid.N, j_ / grid.N) for i, j_ in itertools.product(steps, steps)]
    return [CylinderSpec(center=z, radius=r) for r in radii for z in centers]


def _ball_mask(grid: GridSpec, radius: float) -> np.ndarray:
    idx = np.arange(grid.N)
    dist = np.minimum(idx, grid.N - idx) / grid.N
    r = radius * (1.0 + 1e-12)
    if grid.n == 1:
        return dist <= r
    return dist[:, None] ** 2 + dist[None, :] ** 2 <= r**2


def _trap_weights(times: np.ndarray) -> np.ndarray:
    if times.size == 1:
        return np.array([1.0])
    w = np.empty(times.size)
    dt = np.diff(times)
    w[0] = dt[0] / 2.0
    w[-1] = dt[-1] / 2.0
    w[1:-1] = (times[2:] - times[:-2]) / 2.0
    return w / w.sum()


def _center_index(grid: GridSpec, center: tuple[float, ...]) -> tuple[int, ...]:
    return tuple(int(round(c * grid.N)) % grid.N for c in center)


def _scan_cylinders(
    grid: GridSpec,
    times: np.ndarray,
    mags: np.ndarray,
    p: float,
    cylinders: list[CylinderSpec],
):
    """Max over cylinders and species of R * (cylinder average of mags^p)^(1/p).

    mags has shape (n_times, d, *grid.shape) and must be nonnegative.
    Ties break deterministically toward the smallest radius, then the
    lexicographically smallest center (scan order with strict improvement).
    """
    ordered = sorted(cylinders, key=lambda c: (c.radius, c.center))
    axes = tuple(range(1, 1 + grid.n))
    best, best_cyl, best_sp = 0.0, None, None
    skipped = 0
    for radius, group in itertools.groupby(ordered, key=lambda c: c.radius):
        group = list(group)
        lo, hi = group[0].window
        eps = 1e-12 * hi
        sel = np.nonzero((times >= lo - eps) & (times <= hi + eps))[0]
        if sel.size == 0:
            skipped += len(group)
            continue
        w = _trap_weights(times[sel])
        q = np.tensordot(w, mags[sel] ** p, axes=(0, 0))  # (d, *shape)
        mask = _ball_mask(grid, radius)
        count = int(mask.sum())
        mhat = np.fft.fftn(mask.astype(float))
        qhat = np.fft.fftn(q, axes=axes)
        avg = np.fft.ifftn(qhat * np.conj(mhat), axes=axes).real / count
        np.maximum(avg, 0.0, out=avg)
        vals = radius * avg ** (1.0 / p)
        for cyl in group:
            col = vals[(slice(None),) + _center_index(grid, cyl.center)]
            sp = int(np.argmax(col))
            v = float(col[sp])
            if v > best:
                best, best_cyl, best_sp = v, cyl, sp
    if skipped:
        warnings.warn(f"skipped {skipped} cylinders with no stored time in their window")
        if skipped == len(ordered):
            raise ValueError("no cylinder window contains a stored time")
    return best, best_cyl, best_sp, len(ordered) - skipped, skipped


def gradient_flux(traj: Trajectory) -> FluxTrajectory:
    """Spectral gradients of every species packaged as a flux trajectory."""
    return FluxTrajectory(traj.grid, traj.tg, spectral_gradient(traj.values, traj.grid))


def xp_seminorm(
    traj: Trajectory,
    p: float | None = None,
    cylinders: list[CylinderSpec] | None = None,
) -> NormReport:
    """Scale-invariant cylinder supremum of L^p averages of |grad w|,
    plus the trajectory sup norm (reported alongside)."""
    grid = traj.grid
    if p is None:
        p = default_exponent(grid)
    if not (1.0 < p < math.inf):
        raise ValueError(f"gradient seminorm requires p in (1, inf), got {p}")
    if cylinders is None:
        cylinders = enumerate_cylinders(grid, traj.tg)
    mags = gradient_flux(traj).magnitudes()
    semi, cyl, sp, scanned, skipped = _scan_cylinders(grid, traj.tg.times, mags, p, cylinders)
    return NormReport(
        p=p,
        sup_norm=traj.sup_norm(),
        seminorm=semi,
        attaining=cyl,
        attaining_species=sp,
        cylinders_scanned=scanned,
        cylinders_skipped=skipped,
        grid=grid,
    )


def yp_norm(
    flux: FluxTrajectory,
    p: float | None = None,
    cylinders: list[CylinderSpec] | None = None,
) -> NormReport:
    """Cylinder supremum of L^p averages of |F| (the flux-space norm)."""
    grid = flux.grid
    if p is None:
        p = default_exponent(grid)
    if p < 1.0 or p == math.inf:
        raise ValueError(f"flux norm requires finite p >= 1, got {p}")
    if cylinders is None:
        cylinders = enumerate_cylinders(grid, flux.tg)
    mags = flux.magnitudes()
    semi, cyl, sp, scanned, skipped = _scan_cylinders(grid, flux.tg.times, mags, p, cylinders)
    return NormReport(
        p=p,
        sup_norm=float(np.max(mags)),
        seminorm=semi,
        attaining=cyl,
        attaining_species=sp,
        cylinders_scanned=scanned,
        cylinders_skipped=skipped,
        grid=grid,
    )


def xp_norm(
    traj: Trajectory,
    p: float | None = None,
    cylinders: list[CylinderSpec] | None = None,
) -> float:
    """Full solution-space norm: sup norm plus the gradient seminorm."""
    return xp_seminorm(traj, p, cylinders).xp_total


def maximal_regularity_ratio(
    h: SpeciesVector,
    flux: FluxTrajectory,
    tg: TimeGrid,
    p: float | None = None,
    cylinders: list[CylinderSpec] | None = None,
) -> float:
    """Solve the linear problem with datum h and forcing div F, then return
    ||w||_Xp / (||F||_Yp + ||h||_inf)."""
    w = duhamel_solve(h, flux, tg)
    if cylinders is None:
        cylinders = enumerate_cylinders(h.grid, tg)
    num = xp_seminorm(w, p, cylinders).xp_total
    den = yp_norm(flux, p, cylinders).seminorm + h.sup_norm()
    if den == 0.0:
        raise ValueError("trivial problem: zero forcing and zero datum")
    return num / den


# -- derivative decay --------------------------------------------------------


@dataclass
class DecayProbe:
    k: int
    beta: tuple[int, ...]
    samples: list[tuple[float, float, float]]  # (t, sup, t^(k+|beta|/2) * sup)
    slope: float
    max_scaled: float
    grid: GridSpec | None = None

    def to_csv(self, path, manifest_hash: str = ""):
        gtxt = f"{self.grid.n}x{self.grid.N}" if self.grid else ""
        with open(path, "w") as fh:
            fh.write(
                f"# k={self.k} beta={self.beta} slope={self.slope:.17g} "
                f"grid={gtxt} manifest={manifest_hash}\n"
            )
            fh.write("t,sup,scaled\n")
            for t, sup, scaled in self.samples:
                fh.write(f"{t:.17g},{sup:.17g},{scaled:.17g}\n")


def _time_derivative(arr: np.ndarray, times: np.ndarray) -> np.ndarray:
    """First time derivative on a nonuniform grid: 3-point centered stencil
    in the interior, one-sided at the endpoints."""
    if times.size < 3:
        raise ValueError("insufficient time nodes for the derivative stencil")
    out = np.empty_like(arr)
    shape = (-1,) + (1,) * (arr.ndim - 1)
    hp = (times[1:-1] - times[:-2]).reshape(shape)
    hn = (times[2:] - times[1:-1]).reshape(shape)
    out[0] = (arr[1] - arr[0]) / (times[1] - times[0])
    out[-1] = (arr[-1] - arr[-2]) / (times[-1] - times[-2])
    out[1:-1] = (
        -hn / (hp * (hp + hn)) * arr[:-2]
        + (hn - hp) / (hp * hn) * arr[1:-1]
        + hp / (hn * (hp + hn)) * arr[2:]
    )
    return out


def decay_probe(
    traj: Trajectory,
    k: int = 0,
    beta: tuple[int, ...] | None = None,
    fit_window: tuple[float, float] | None = None,
) -> DecayProbe:
    """Sample t^(k+|beta|/2) * sup_x |d_t^k d_x^beta w| along the trajectory
    and fit the log-log decay slope of the raw sup over fit_window.

    Supported orders: k <= 1, |beta| <= 2, k + |beta| <= 2. Spatial
    derivatives are spectral; the time derivative uses finite differences
    on the stored (dyadic) times. The default fit window is the first two
    decades above the first positive time.
    """
    grid = traj.grid
    if beta is None:
        beta = (0,) * grid.n
    beta = tuple(int(b) for b in beta)
    if len(beta) != grid.n or any(b < 0 for b in beta):
        raise ValueError(f"beta must be {grid.n} nonnegative integers, got {beta}")
    order = k + sum(beta)
    if k not in (0, 1) or sum(beta) > 2 or order > 2:
        raise ValueError(f"unsupported derivative order k={k}, beta={beta}")
    times = traj.tg.times
    chat = to_coeffs(traj.values, grid)
    sym = np.ones(chat.shape[2:], dtype=complex)
    for m, b in enumerate(beta):
        if b:
            sym = sym * derivative_symbol(grid, m) ** b
    deriv = from_coeffs(sym * chat, grid)
    if k == 1:
        deriv = _time_derivative(deriv, times)
    axes = tuple(range(1, deriv.ndim))
    sups = np.max(np.abs(deriv), axis=axes)
    scale = times ** (k + sum(beta) / 2.0)
    samples = [
        (float(t), float(s), float(ts * s))
        for t, s, ts in zip(times, sups, scale)
        if t > 0.0
    ]
    if fit_window is None:
        t1 = float(times[1])
        fit_window = (t1, min(100.0 * t1, traj.tg.t_end))
    lo, hi = fit_window
    pts = [(t, s) for t, s, _ in samples if lo <= t <= hi and s > 0.0]
    if len(pts) < 3:
        raise ValueError("insufficient time nodes in the fit window")
    logt = np.log([t for t, _ in pts])
    logs = np.log([s for _, s in pts])
    slope = float(np.polyfit(logt, logs, 1)[0])
    return DecayProbe(
        k=k,
        beta=beta,
        samples=samples,
        slope=slope,
        max_scaled=max(sc for _, _, sc in samples),
        grid=grid,
    )
