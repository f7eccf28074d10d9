"""Parabolic-cylinder (semi)norms, maximal-regularity ratios, and
derivative-decay probes for sampled trajectories.

The continuum supremum over cylinder centers z and radii R is discretised
by a CylinderLadder: a geometric radius ladder (two radii per octave by
default) crossed with the grid nodes every `stride` nodes along each axis.
Balls wrap periodically; once 2R >= 1 the ball is the whole torus.
Reported values are certified lower bounds of the discrete supremum over
the scanned cylinder set.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fields import (
    GridSpec,
    SpeciesVector,
    _abs_max,
    derivative_symbol,
    from_coeffs,
    gradient_from_coeffs,
    index_blocks,
    spectral_gradient,
    to_coeffs,
)
from .semigroup import _forced_blocks
from .trajectory import FluxTrajectory, TimeGrid, Trajectory, vector_magnitudes

__all__ = [
    "CylinderSpec",
    "CylinderLadder",
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


@dataclass(frozen=True)
class CylinderLadder:
    """The cylinders of every radius in `radii` centered at the nodes whose
    indices are multiples of `stride` along every axis of `grid`."""

    grid: GridSpec
    radii: tuple[float, ...]
    stride: int

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        object.__setattr__(self, "radii", radii)
        if not 1 <= self.stride <= self.grid.N:
            raise ValueError(f"centers_stride must be in [1, N], got {self.stride}")
        if not radii or radii[0] <= 0 or any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError(f"radii must be positive and strictly increasing, got {radii}")

    @property
    def centers_per_radius(self) -> int:
        return len(range(0, self.grid.N, self.stride)) ** self.grid.n

    def __len__(self) -> int:
        return len(self.radii) * self.centers_per_radius


@dataclass
class NormReport:
    p: float
    sup_norm: float
    seminorm: float
    attaining: CylinderSpec | None
    cylinders_scanned: int
    cylinders_skipped: int = 0
    grid: GridSpec | None = None

    @property
    def xp_total(self) -> float:
        return self.sup_norm + self.seminorm

    def to_csv(self, path, manifest_hash: str = "", content_hash: str = ""):
        gtxt = f"{self.grid.n}x{self.grid.N}" if self.grid else ""
        with open(path, "w") as fh:
            fh.write(f"# p={self.p} grid={gtxt} manifest={manifest_hash} content={content_hash}\n")
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
) -> CylinderLadder:
    """Geometric radius ladder crossed with strided node centers.

    The smallest radius resolves the first positive time (R_min^2 = 2 t_1);
    the ladder is capped at R = 1/2, beyond which the ball wraps the whole
    torus, and at R^2 = t_end. Centers default to every N/16-th node.
    """
    if centers_stride is None:
        centers_stride = max(1, grid.N // 16)
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
    return CylinderLadder(grid, tuple(radii), centers_stride)


def _ball_mask(grid: GridSpec, radius: float) -> np.ndarray:
    idx = np.arange(grid.N)
    dist = np.minimum(idx, grid.N - idx) / grid.N
    r = radius * (1.0 + 1e-12)
    if grid.n == 1:
        return dist <= r
    return dist[:, None] ** 2 + dist[None, :] ** 2 <= r**2


@functools.lru_cache(maxsize=16)
def _ball_spectra(grid: GridSpec, radii: tuple[float, ...]) -> tuple[list[int], np.ndarray]:
    """Node count and conjugated spectrum of the ball indicator of each radius.

    Cached per (grid, radius ladder); the returned array is shared, hence
    read-only. It is one block for the whole ladder: one block per radius,
    each first built in the middle of a solve, fragmented the heap and raised
    the peak RSS of a 2-D N=64 Picard solve with save and load by 8 MB in
    half of the runs measured.
    """
    masks = np.array([_ball_mask(grid, r) for r in radii], dtype=float)
    spec = np.conj(np.fft.fftn(masks, axes=tuple(range(1, 1 + grid.n))))
    spec.flags.writeable = False
    return [int(np.count_nonzero(m)) for m in masks], spec


def _trap_weights(times: np.ndarray) -> np.ndarray:
    if times.size == 1:
        return np.array([1.0])
    w = np.empty(times.size)
    dt = np.diff(times)
    w[0] = dt[0] / 2.0
    w[-1] = dt[-1] / 2.0
    w[1:-1] = (times[2:] - times[:-2]) / 2.0
    return w / w.sum()


@functools.lru_cache(maxsize=16)
def _cylinder_windows(times: tuple[float, ...], radii: tuple[float, ...]) -> tuple:
    """Per radius, the stored times in its window [R^2/2, R^2]: a slice of
    node indices and their trapezoid weights as a (1, nodes) row, or None
    when the window holds no stored time. times must be increasing.

    Cached per (times, radii); the weight rows are shared, hence read-only.
    """
    t = np.array(times)
    windows = []
    for radius in radii:
        lo, hi = radius**2 / 2.0, radius**2
        eps = 1e-12 * hi
        sel = np.nonzero((t >= lo - eps) & (t <= hi + eps))[0]
        if sel.size == 0:
            windows.append(None)
            continue
        w = _trap_weights(t[sel])[None]
        w.flags.writeable = False
        windows.append((slice(int(sel[0]), int(sel[-1]) + 1), w))
    return tuple(windows)


class _CylinderScan:
    """The max over cylinders and species of R * (cylinder average of
    mags^p)^(1/p), fed the nonnegative magnitudes mags in consecutive blocks
    of time nodes so that no trajectory of them is held.

    add(block) takes the next nodes, shape (nodes, d, *grid.shape), in time
    order. Each radius holds mags^p only over its own window, in a buffer
    freed once the window's last node has arrived and its time quadrature is
    formed. result() needs every node of times, and its result is the same
    bit for bit however the nodes were blocked.
    """

    def __init__(self, grid: GridSpec, times: np.ndarray, p: float, ladder: CylinderLadder):
        if ladder.grid != grid:
            raise ValueError(f"cylinder ladder is on {ladder.grid}, the trajectory on {grid}")
        self.grid, self.p, self.ladder = grid, p, ladder
        self.n_times = len(times)
        self.windows = _cylinder_windows(tuple(times.tolist()), ladder.radii)
        self.live = [j for j, win in enumerate(self.windows) if win is not None]
        self.fed = 0
        self.first = 0  # the radii before it (in self.live) have their quadrature
        self.buffers: dict[int, np.ndarray] = {}
        self.q = None  # per live radius, the time quadrature of mags^p

    def add(self, block: np.ndarray):
        a, b = self.fed, self.fed + len(block)
        self.fed = b
        if self.q is None:
            self.q = np.empty((len(self.live),) + block.shape[1:])
        # windows start and end in radius order, so the radii done are a
        # prefix and the radii not yet begun a suffix
        for i in range(self.first, len(self.live)):
            nodes, w = self.windows[self.live[i]]
            if nodes.start >= b:
                break
            k = nodes.stop - nodes.start
            buf = self.buffers.get(i)
            if buf is None:
                buf = self.buffers[i] = np.empty((k,) + block.shape[1:])
            lo, hi = max(a, nodes.start), min(b, nodes.stop)
            np.power(block[lo - a:hi - a], self.p, out=buf[lo - nodes.start:hi - nodes.start])
            if hi == nodes.stop:
                # the time quadrature of mags^p: what tensordot(w, x, axes=(0, 0))
                # computes, without its reshaping
                self.q[i] = np.dot(w, buf.reshape(k, -1)).reshape(self.q.shape[1:])
                del self.buffers[i]
                self.first = i + 1

    def result(self):
        """(best value, attaining CylinderSpec, cylinders scanned, cylinders
        skipped).

        Ties break deterministically toward the smallest radius, then the
        first center in C order (scan order with strict improvement). A NaN
        in mags spreads through the transforms to every center of its
        radius, and that radius never attains.
        """
        if self.fed != self.n_times:
            raise ValueError(f"the scan was fed {self.fed} of {self.n_times} time nodes")
        grid, p, ladder, live = self.grid, self.p, self.ladder, self.live
        skipped = (len(self.windows) - len(live)) * ladder.centers_per_radius
        if skipped:
            warnings.warn(f"skipped {skipped} cylinders with no stored time in their window")
            if not live:
                raise ValueError("no cylinder window contains a stored time")
        counts, spectra = _ball_spectra(grid, ladder.radii)
        axes = tuple(range(2, 2 + grid.n))
        centers = (slice(None), slice(None)) + (slice(None, None, ladder.stride),) * grid.n
        scale = (slice(None),) + (None,) * (1 + grid.n)  # one value per radius
        counts, radii = np.array(counts, dtype=float), np.array(ladder.radii)
        best, best_at = 0.0, None
        # live radii in increasing order, in index_blocks of spectra
        for block in index_blocks(len(live), 2 * self.q[0].nbytes):
            js = live[block]
            avg = np.fft.ifftn(np.fft.fftn(self.q[block], axes=axes) * spectra[js][:, None],
                               axes=axes).real
            avg = avg[centers] / counts[js][scale]
            vals = radii[js][scale] * np.maximum(avg, 0.0) ** (1.0 / p)  # (radius, d, *centers)
            top = vals.max(axis=1).reshape(len(js), -1)
            for i, k in enumerate(top.argmax(axis=1)):
                if top[i, k] > best:
                    center = np.unravel_index(int(k), vals.shape[2:])
                    best, best_at = float(top[i, k]), (center, ladder.radii[js[i]])
        cyl = None if best_at is None else CylinderSpec(
            tuple(int(i) * ladder.stride / grid.N for i in best_at[0]), best_at[1])
        return best, cyl, len(ladder) - skipped, skipped

    def report(self, sup_norm: float) -> NormReport:
        """The NormReport of the finished scan, with sup_norm alongside."""
        semi, cyl, scanned, skipped = self.result()
        return NormReport(p=self.p, sup_norm=sup_norm, seminorm=semi, attaining=cyl,
                          cylinders_scanned=scanned, cylinders_skipped=skipped, grid=self.grid)


def gradient_flux(traj: Trajectory) -> FluxTrajectory:
    """Spectral gradients of every species packaged as a flux trajectory."""
    return FluxTrajectory(traj.grid, traj.tg, spectral_gradient(traj.values, traj.grid))


def _gradient_magnitudes(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """|grad w| per (time, species) from the coefficients of w: shape
    (nodes, d, *rfft_shape(grid)) -> (nodes, d, *grid.shape).

    On coefficients from to_coeffs the result is bit for bit
    vector_magnitudes(gradient_flux(traj).values), however the nodes are
    blocked; xp_seminorm calls it on blocks of time nodes, so the gradient
    of a whole trajectory is never held.
    """
    return vector_magnitudes(gradient_from_coeffs(coeffs, grid))


def _gradient_exponent(
    grid: GridSpec, tg: TimeGrid, p: float | None, cylinders: CylinderLadder | None,
) -> tuple[float, CylinderLadder]:
    """p and the cylinder ladder of a gradient (X^p) seminorm, each defaulted
    for grid and tg when None; p must lie in (1, inf)."""
    if p is None:
        p = default_exponent(grid)
    if not (1.0 < p < math.inf):
        raise ValueError(f"gradient seminorm requires p in (1, inf), got {p}")
    if cylinders is None:
        cylinders = enumerate_cylinders(grid, tg)
    return p, cylinders


def xp_seminorm(
    traj: Trajectory,
    p: float | None = None,
    cylinders: CylinderLadder | None = None,
) -> NormReport:
    """Scale-invariant cylinder supremum of L^p averages of |grad w|,
    plus the trajectory sup norm (reported alongside).

    One pass over index_blocks of time nodes transforms the block, forms
    |grad w| from its coefficients and feeds the cylinder scan, so neither
    the coefficients nor the gradient of the whole trajectory is held.
    """
    grid = traj.grid
    p, cylinders = _gradient_exponent(grid, traj.tg, p, cylinders)
    scan = _CylinderScan(grid, traj.tg.times, p, cylinders)
    for b in index_blocks(len(traj.tg), traj.values[0].nbytes):
        scan.add(_gradient_magnitudes(to_coeffs(traj.values[b], grid), grid))
    return scan.report(traj.sup_norm())


def yp_norm(
    flux: FluxTrajectory,
    p: float | None = None,
    cylinders: CylinderLadder | None = None,
) -> NormReport:
    """Cylinder supremum of L^p averages of |F| (the flux-space norm)."""
    grid = flux.grid
    if p is None:
        p = default_exponent(grid)
    if p < 1.0 or p == math.inf:
        raise ValueError(f"flux norm requires finite p >= 1, got {p}")
    if cylinders is None:
        cylinders = enumerate_cylinders(grid, flux.tg)
    scan = _CylinderScan(grid, flux.tg.times, p, cylinders)
    sups = []
    for b in index_blocks(len(flux.tg), flux.values[0].nbytes // grid.n):
        mags = vector_magnitudes(flux.values[b])
        sups.append(mags.max())
        scan.add(mags)
    return scan.report(float(np.max(sups)))


def xp_norm(
    traj: Trajectory,
    p: float | None = None,
    cylinders: CylinderLadder | None = None,
) -> float:
    """Full solution-space norm: sup norm plus the gradient seminorm."""
    return xp_seminorm(traj, p, cylinders).xp_total


def maximal_regularity_ratio(
    h: SpeciesVector,
    flux: FluxTrajectory,
    tg: TimeGrid,
    p: float | None = None,
    cylinders: CylinderLadder | None = None,
) -> float:
    """Solve the linear problem with datum h and forcing div F, then return
    ||w||_Xp / (||F||_Yp + ||h||_inf).

    One pass over the blocks of time nodes of the forced Duhamel recurrence
    (_forced_blocks) feeds |grad w| (from the recurrence's coefficients) and
    |F| to two cylinder scans; the nodal values of w serve only its sup
    norm. Neither w nor any magnitude field is held for the whole trajectory.
    """
    forced = _forced_blocks(h, flux, tg)
    grid = h.grid
    # the Xp seminorm's range of p lies inside the Yp norm's
    p, cylinders = _gradient_exponent(grid, tg, p, cylinders)
    grad_scan = _CylinderScan(grid, tg.times, p, cylinders)  # the Xp seminorm of w
    flux_scan = _CylinderScan(grid, tg.times, p, cylinders)  # the Yp norm of F
    sup = 0.0
    for b, coeffs, values in forced:
        block_sup = _abs_max(values)
        if not math.isfinite(block_sup):
            raise ValueError("trajectory values must be finite")
        sup = max(sup, block_sup)
        grad_scan.add(_gradient_magnitudes(coeffs, grid))
        flux_scan.add(vector_magnitudes(flux.values[b]))
    num = sup + grad_scan.result()[0]
    den = flux_scan.result()[0] + h.sup_norm()
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

    def to_csv(self, path, manifest_hash: str = "", content_hash: str = ""):
        gtxt = f"{self.grid.n}x{self.grid.N}" if self.grid else ""
        with open(path, "w") as fh:
            fh.write(
                f"# k={self.k} beta={self.beta} slope={self.slope:.17g} "
                f"grid={gtxt} manifest={manifest_hash} content={content_hash}\n"
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
