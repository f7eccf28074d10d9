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
    _check_finite,
    derivative_symbol,
    from_coeffs,
    gradient_from_coeffs,
    index_blocks,
    spectral_divergence,
    spectral_gradient,
    to_coeffs,
)
from .semigroup import _duhamel_blocks
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
        if not self.radius > 0:
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
        if not radii or not radii[0] > 0 or any(not b > a for a, b in zip(radii, radii[1:])):
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
    if not 1 <= radii_per_octave < math.inf:
        raise ValueError(f"radii_per_octave must be finite and >= 1, got {radii_per_octave}")
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


def _ifft_at_centers(spec: np.ndarray, n: int, stride: int) -> np.ndarray:
    """ifftn over the trailing n axes at the nodes whose indices are
    multiples of stride along each: ifftn's own one-axis transforms, last
    axis first, each cut to those nodes before the next runs, so the values
    are ifftn's bit for bit and the later axes transform only the kept
    lines."""
    for axis in range(-1, -1 - n, -1):
        cut = (..., slice(None, None, stride)) + (slice(None),) * (-1 - axis)
        spec = np.fft.ifft(spec, axis=axis)[cut]
    return spec


class _CylinderScan:
    """The max over cylinders and species of R * (cylinder average of
    mags^p)^(1/p), fed the nonnegative magnitudes mags in consecutive blocks
    of time nodes so that no trajectory of them is held.

    The scan reads only the time nodes of `nodes`, the run from its first
    live window's first node to its last live window's last node, and is fed
    exactly those: add(block) takes the next of them, shape (nodes, d,
    *grid.shape), in time order, and part(b) names the ones a block b of
    time nodes holds. Each radius holds mags^p only over its own window, in
    a buffer freed once the window's last node has arrived and its time
    quadrature is formed. The live radii go in index_blocks runs of their
    ball spectra, and a run's ball averages are taken, and its quadratures
    freed, as soon as its last window closes: one radius at a time at 2-D
    N=64, the whole ladder at 1-D. So the scan holds the quadratures of one
    run, never those of every radius. result() needs every node of the run,
    and its result is the same bit for bit however the nodes were blocked.
    """

    def __init__(self, grid: GridSpec, times: np.ndarray, p: float, ladder: CylinderLadder):
        if ladder.grid != grid:
            raise ValueError(f"cylinder ladder is on {ladder.grid}, the trajectory on {grid}")
        self.grid, self.p, self.ladder = grid, p, ladder
        self.windows = _cylinder_windows(tuple(times.tolist()), ladder.radii)
        self.live = [j for j, win in enumerate(self.windows) if win is not None]
        # windows start and end in radius order, so the live ones span this run
        spans = [self.windows[j][0] for j in self.live] or [slice(0, 0)]
        self.nodes = slice(spans[0].start, spans[-1].stop)
        self.fed = self.nodes.start
        self.first = 0  # the radii before it (in self.live) have their quadrature
        self.buffers: dict[int, np.ndarray] = {}
        self.runs = None  # the runs of live radii not yet finished, from the first block on
        self.q = None  # the time quadratures of mags^p of the current run's radii
        self.best, self.best_at = 0.0, None
        # taken before the first block: first built between the blocks of a
        # pass, the cached spectra raised the peak RSS of a 2-D N=64 Picard
        # solve with save and load by 1.2 MB, through heap layout
        self.counts, self.spectra = _ball_spectra(grid, ladder.radii)

    def part(self, b: slice) -> slice | None:
        """The nodes of b, a run of time-node indices, that the scan reads,
        as a slice of b's own nodes; None when it reads none of them."""
        start, stop = max(b.start, self.nodes.start), min(b.stop, self.nodes.stop)
        return slice(start - b.start, stop - b.start) if start < stop else None

    def add(self, block: np.ndarray):
        a, b = self.fed, self.fed + len(block)
        self.fed = b
        shape = block.shape[1:]
        if self.runs is None:
            # a radius's widest array is the complex spectrum of its quadrature
            count = len(self.live)
            self.runs = [range(count)[r] for r in index_blocks(count, 16 * math.prod(shape))]
        # windows start and end in radius order, so the radii done are a
        # prefix and the radii not yet begun a suffix
        for i in range(self.first, len(self.live)):
            nodes, w = self.windows[self.live[i]]
            if nodes.start >= b:
                break
            k = nodes.stop - nodes.start
            buf = self.buffers.get(i)
            if buf is None:
                buf = self.buffers[i] = np.empty((k,) + shape)
            lo, hi = max(a, nodes.start), min(b, nodes.stop)
            np.power(block[lo - a:hi - a], self.p, out=buf[lo - nodes.start:hi - nodes.start])
            if hi == nodes.stop:
                run = self.runs[0]
                if self.q is None:
                    self.q = np.empty((len(run),) + shape)
                # the time quadrature of mags^p: what tensordot(w, x, axes=(0, 0))
                # computes, without its reshaping
                self.q[i - run.start] = np.dot(w, buf.reshape(k, -1)).reshape(shape)
                del self.buffers[i]
                self.first = i + 1
                if self.first == run.stop:
                    self._finish(self.runs.pop(0))

    def _finish(self, run: range):
        """Fold the best cylinder of the radii of run, whose quadratures are
        all in self.q, into the best so far, and free their quadratures.

        Runs finish in radius order and ties need strict improvement, so
        ties break deterministically toward the smallest radius, then the
        first center in C order (scan order with strict improvement). A NaN
        in mags spreads through the transforms to every center of its
        radius, and that radius never attains.
        """
        grid, ladder = self.grid, self.ladder
        axes = tuple(range(2, 2 + grid.n))
        scale = (slice(None),) + (None,) * (1 + grid.n)  # one value per radius
        js = self.live[run.start:run.stop]
        avg = np.fft.fftn(self.q, axes=axes) * self.spectra[js][:, None]
        self.q = None
        counts = np.array(self.counts, dtype=float)[js][scale]
        avg = _ifft_at_centers(avg, grid.n, ladder.stride).real / counts
        vals = np.array(ladder.radii)[js][scale] * np.maximum(avg, 0.0) ** (1.0 / self.p)
        top = vals.max(axis=1).reshape(len(js), -1)  # vals: (radius, d, *centers)
        for i, k in enumerate(top.argmax(axis=1)):
            if top[i, k] > self.best:
                center = np.unravel_index(int(k), vals.shape[2:])
                self.best, self.best_at = float(top[i, k]), (center, ladder.radii[js[i]])

    def result(self):
        """(best value, attaining CylinderSpec, cylinders scanned, cylinders
        skipped); the ties and NaNs go as _finish says."""
        start, stop = self.nodes.start, self.nodes.stop
        if self.fed != stop:
            raise ValueError(f"the scan was fed {self.fed - start} of its {stop - start} time nodes")
        grid, ladder = self.grid, self.ladder
        skipped = (len(self.windows) - len(self.live)) * ladder.centers_per_radius
        if skipped:
            warnings.warn(f"skipped {skipped} cylinders with no stored time in their window")
            if not self.live:
                raise ValueError("no cylinder window contains a stored time")
        cyl = None if self.best_at is None else CylinderSpec(
            tuple(int(i) * ladder.stride / grid.N for i in self.best_at[0]), self.best_at[1])
        return self.best, cyl, len(ladder) - skipped, skipped

    def report(self, sup_norm: float) -> NormReport:
        """The NormReport of the finished scan, with sup_norm alongside."""
        semi, cyl, scanned, skipped = self.result()
        return NormReport(p=self.p, sup_norm=sup_norm, seminorm=semi, attaining=cyl,
                          cylinders_scanned=scanned, cylinders_skipped=skipped, grid=self.grid)


def gradient_flux(traj: Trajectory) -> FluxTrajectory:
    """Spectral gradients of every species packaged as a flux trajectory."""
    return FluxTrajectory(traj.grid, traj.tg, spectral_gradient(traj.values, traj.grid))


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

    One pass over index_blocks of the time nodes the cylinders read
    transforms the block, forms |grad w| from its coefficients and feeds the
    cylinder scan, so neither the coefficients nor the gradient of the whole
    trajectory is held. The sup norm is taken over every node, and a
    non-finite one raises.
    """
    grid = traj.grid
    p, cylinders = _gradient_exponent(grid, traj.tg, p, cylinders)
    scan = _CylinderScan(grid, traj.tg.times, p, cylinders)
    sup = traj.sup_norm()
    if not math.isfinite(sup):
        raise ValueError("trajectory values must be finite")
    read = traj.values[scan.nodes]
    for b in index_blocks(len(read), traj.values[0].nbytes):
        scan.add(vector_magnitudes(gradient_from_coeffs(to_coeffs(read[b], grid), grid)))
    return scan.report(sup)


def yp_norm(
    flux: FluxTrajectory,
    p: float | None = None,
    cylinders: CylinderLadder | None = None,
) -> NormReport:
    """Cylinder supremum of L^p averages of |F| (the flux-space norm), and
    the sup of |F| over every node."""
    grid = flux.grid
    if p is None:
        p = default_exponent(grid)
    if not 1.0 <= p < math.inf:
        raise ValueError(f"flux norm requires finite p >= 1, got {p}")
    if cylinders is None:
        cylinders = enumerate_cylinders(grid, flux.tg)
    scan = _CylinderScan(grid, flux.tg.times, p, cylinders)
    sups = []
    for b in index_blocks(len(flux.tg), flux.values[0].nbytes // grid.n):
        mags = vector_magnitudes(flux.values[b])
        sups.append(mags.max())
        read = scan.part(b)
        if read is not None:
            scan.add(mags[read])
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
    flux_blocks,
    tg: TimeGrid,
    p: float | None = None,
    cylinders: CylinderLadder | None = None,
) -> float:
    """Solve the linear problem with datum h and forcing div F, then return
    ||w||_Xp / (||F||_Yp + ||h||_inf). The flux comes as (nodes, nodal flux
    block) pairs, shape (nodes, d, n, *grid.shape), for consecutive slices
    of time nodes from node 0 on, so that no caller need hold it whole; a
    FluxTrajectory gives them as (b, flux.values[b]) over index_blocks.

    One pass reads each flux block once: |F| at the nodes the cylinders
    read goes to the Y^p scan, and its divergence to the forced Duhamel
    recurrence (_duhamel_blocks), whose block's coefficients give |grad w|
    there for the X^p scan; the nodal values of w serve only its sup, over
    every node. Neither w, its divergence nor any magnitude field is held
    for the whole trajectory. A block not of d x n fields of h's grid
    raises, and so do a non-finite flux block and blocks that do not take
    every node once, in order.
    """
    grid = h.grid
    # the Xp seminorm's range of p lies inside the Yp norm's
    p, cylinders = _gradient_exponent(grid, tg, p, cylinders)
    grad_scan = _CylinderScan(grid, tg.times, p, cylinders)  # the Xp seminorm of w
    flux_scan = _CylinderScan(grid, tg.times, p, cylinders)  # the Yp norm of F
    shape = (h.d, grid.n) + grid.shape

    def divergences():
        # _duhamel_blocks checks that the blocks take every node once, in order
        for b, block in flux_blocks:
            if block.shape[1:] != shape:
                raise ValueError(f"flux block of shape {block.shape} is not nodes x {shape}")
            _check_finite(block, "flux")
            read = flux_scan.part(b)
            if read is not None:
                flux_scan.add(vector_magnitudes(block[read]))
            yield b, spectral_divergence(block, grid)

    sup = 0.0
    for b, coeffs, values in _duhamel_blocks(h, divergences(), tg):
        block_sup = _abs_max(values)
        if not math.isfinite(block_sup):
            raise ValueError("trajectory values must be finite")
        sup = max(sup, block_sup)
        read = grad_scan.part(b)
        if read is not None:
            grad_scan.add(vector_magnitudes(gradient_from_coeffs(coeffs[read], grid)))
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


def decay_probe(
    traj: Trajectory,
    k: int = 0,
    beta: tuple[int, ...] | None = None,
    fit_window: tuple[float, float] | None = None,
) -> DecayProbe:
    """Sample t^(k+|beta|/2) * sup_x |d_t^k d_x^beta w| along the trajectory
    and fit the log-log decay slope of the raw sup over fit_window.

    Supported orders: k <= 1, |beta| <= 2, k + |beta| <= 2. Spatial
    derivatives are spectral; the time derivative is np.gradient on the
    stored (dyadic) times. The default fit window is the first two
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
        deriv = np.gradient(deriv, times, axis=0)
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
