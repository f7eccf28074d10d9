"""Exact discrete heat semigroup on the torus, mild-solution (Duhamel)
integrals with divergence-form forcing, and heat-kernel gradient norms.

The linear flow is an integrating factor in spectral space, so it is exact
for the band-limited interpolant; only the Duhamel time quadrature
(trapezoidal, second order) carries discretisation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import (
    GridSpec,
    ScalarField,
    SpeciesVector,
    from_coeffs,
    laplacian_symbol,
    spectral_divergence,
    to_coeffs,
)
from .trajectory import FluxTrajectory, TimeGrid, Trajectory

__all__ = [
    "heat_propagate",
    "heat_flow_trajectory",
    "duhamel_solve",
    "kernel_gradient_lp",
    "kernel_scaling_report",
    "KernelEstimateReport",
]


def heat_multiplier(grid: GridSpec, t: float) -> np.ndarray:
    return np.exp(laplacian_symbol(grid) * t)


def heat_propagate(field: ScalarField, t: float) -> ScalarField:
    """Solve d/dt w = Lap(w) exactly for duration t >= 0."""
    if t < 0:
        raise ValueError(f"propagation time must be nonnegative, got {t}")
    grid = field.grid
    chat = to_coeffs(field.values, grid) * heat_multiplier(grid, t)
    return ScalarField(grid, from_coeffs(chat, grid))


def heat_flow_trajectory(h: SpeciesVector, tg: TimeGrid) -> Trajectory:
    """Pure heat flow of every species, sampled at all time nodes."""
    grid = h.grid
    what = to_coeffs(h.stack(), grid)
    values = np.empty((len(tg), h.d) + grid.shape)
    values[0] = h.stack()
    for k in range(1, len(tg)):
        values[k] = from_coeffs(what * heat_multiplier(grid, float(tg.times[k])), grid)
    return Trajectory(grid, tg, values, metadata={"scheme": "heat-flow"})


def _segment_weights(grid: GridSpec, dt: float):
    """Exact per-mode weights for one Duhamel segment of length dt.

    The forcing is interpolated linearly between the segment endpoints and
    integrated exactly against the heat kernel. With z = lambda*dt this gives
    endpoint weights dt*(phi1 - phi2) and dt*phi2, which reduce to the plain
    trapezoid dt/2, dt/2 as z -> 0 and stay damped like 1/|lambda| in the
    stiff limit (a plain endpoint trapezoid would leave the stiffest modes
    undamped and lets the fixed-point iteration amplify round-off).
    """
    z = laplacian_symbol(grid) * dt
    ez = np.exp(z)
    zs = np.where(z == 0.0, 1.0, z)
    phi1 = np.where(z == 0.0, 1.0, np.expm1(z) / zs)
    # series below 1e-4 avoids the expm1(z) - z cancellation
    phi2 = np.where(
        np.abs(z) < 1e-4,
        0.5 + z / 6.0 + z * z / 24.0,
        (np.expm1(z) - z) / (zs * zs),
    )
    return ez, dt * (phi1 - phi2), dt * phi2


def duhamel_solve(h: SpeciesVector, forcing: FluxTrajectory | None, tg: TimeGrid) -> Trajectory:
    """Mild solution of d/dt w_i = Lap(w_i) + div F_i with datum h.

    The forcing is a FluxTrajectory aligned with tg, or None (homogeneous
    flow). Between consecutive output times the Duhamel convolution uses
    trapezoidal nodes (linear interpolation of the forcing) integrated
    exactly against the heat kernel, accumulated incrementally so the cost
    is linear in the number of steps; the scheme is second order in the
    step size.
    """
    grid, d = h.grid, h.d
    if forcing is None:
        return heat_flow_trajectory(h, tg)
    if forcing.grid != grid or not np.array_equal(forcing.tg.times, tg.times):
        raise ValueError("forcing must be sampled on the solution grid and time grid")
    if forcing.d != d:
        raise ValueError(f"forcing has {forcing.d} species, datum has {d}")

    values = np.empty((len(tg), d) + grid.shape)
    values[0] = h.stack()
    what = to_coeffs(values[0], grid)
    g_prev = spectral_divergence(forcing.values[0], grid)
    last_dt, weights = None, None
    for k in range(1, len(tg)):
        dt = float(tg.times[k] - tg.times[k - 1])
        if dt != last_dt:
            weights = _segment_weights(grid, dt)
            last_dt = dt
        E, w_left, w_right = weights
        g_next = spectral_divergence(forcing.values[k], grid)
        what = E * what + w_left * g_prev + w_right * g_next
        values[k] = from_coeffs(what, grid)
        g_prev = g_next
    return Trajectory(grid, tg, values, metadata={"scheme": "duhamel"})


# -- heat-kernel gradient norms on R^n ---------------------------------------


def kernel_gradient_lp(
    t: float,
    p: float,
    n: int,
    nodes_per_decade: int = 4096,
    decades: int = 8,
    radius_factor: float = 14.0,
) -> float:
    """L^p(R^n) norm of grad Phi(t, .) for the Gaussian heat kernel.

    Finite p uses a log-spaced radial quadrature out to radius_factor*sqrt(t)
    (the Gaussian tail beyond 12 sqrt(t) is below 1e-14); p = inf returns the
    analytic maximum of |grad Phi|.
    """
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    if n not in (1, 2):
        raise ValueError(f"unsupported dimension n={n}")
    if p == math.inf:
        # |grad Phi| = r/(2t) * (4 pi t)^(-n/2) exp(-r^2/4t), maximal at r = sqrt(2t)
        return (4.0 * math.pi * t) ** (-n / 2.0) * math.exp(-0.5) / math.sqrt(2.0 * t)
    p = float(p)
    if p < 1.0:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    r_max = radius_factor * math.sqrt(t)
    r = r_max * np.logspace(-decades, 0.0, nodes_per_decade * decades + 1)
    surface = 2.0 if n == 1 else 2.0 * math.pi
    point = (r / (2.0 * t)) * (4.0 * math.pi * t) ** (-n / 2.0) * np.exp(-(r**2) / (4.0 * t))
    integrand = surface * r ** (n - 1) * point**p
    integral = float(np.sum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(r)))
    return integral ** (1.0 / p)


@dataclass
class KernelEstimateReport:
    """Measured kernel-gradient norms against the t^(-n/2-1/2+n/(2p)) scaling."""

    n: int
    p: float
    samples: list[tuple[float, float, float]]  # (t, norm, ratio)
    passed: bool

    @property
    def ratio_spread(self) -> float:
        ratios = [s[2] for s in self.samples]
        return max(ratios) / min(ratios)

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("t,norm,ratio\n")
            for t, norm, ratio in self.samples:
                fh.write(f"{t:.17g},{norm:.17g},{ratio:.17g}\n")


def scaling_exponent(n: int, p: float) -> float:
    tail = 0.0 if p == math.inf else n / (2.0 * p)
    return -n / 2.0 - 0.5 + tail


def kernel_scaling_report(n: int, p: float, t_list: Sequence[float]) -> KernelEstimateReport:
    """Norms and their ratios to the predicted power of t; flags failure when
    the ratios vary by more than 5% across t_list."""
    t_list = list(t_list)
    if not t_list:
        raise ValueError("no samples: t_list is empty")
    if any(t <= 0 for t in t_list):
        raise ValueError("all sample times must be positive")
    expo = scaling_exponent(n, p)
    samples = []
    for t in t_list:
        norm = kernel_gradient_lp(t, p, n)
        samples.append((float(t), norm, norm / t**expo))
    ratios = [s[2] for s in samples]
    passed = max(ratios) / min(ratios) <= 1.05
    return KernelEstimateReport(n=n, p=p, samples=samples, passed=passed)
