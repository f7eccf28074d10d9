"""Exact discrete heat semigroup on the torus, mild-solution (Duhamel)
integrals with divergence-form forcing, and heat-kernel gradient norms.

The linear flow is an integrating factor in spectral space, so it is exact
for the band-limited interpolant; only the Duhamel time quadrature
(trapezoidal, second order) carries discretisation error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import (
    GridSpec,
    SpeciesVector,
    from_coeffs,
    index_blocks,
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


def heat_propagate(values: np.ndarray, grid: GridSpec, t: float) -> np.ndarray:
    """Solve d/dt w = Lap(w) exactly for duration t >= 0 from nodal values
    (..., *grid.shape); leading axes are a batch."""
    if t < 0:
        raise ValueError(f"propagation time must be nonnegative, got {t}")
    return from_coeffs(to_coeffs(values, grid) * heat_multiplier(grid, t), grid)


def _heat_flow_blocks(h: SpeciesVector, tg: TimeGrid):
    """The pure heat flow of every species over index_blocks of states at
    consecutive time nodes: yields (nodes, coeffs, values), coeffs of shape
    (nodes, d, *rfft_shape(grid)) and values of shape (nodes, d, *grid.shape).

    Each block's coefficients are one exp over its rows of the symbol x
    node-times table, each row the heat_multiplier of its node. Node 0 of
    the values is the datum itself; every later node is one batched inverse
    transform of the block, so nothing of the whole flow is held.
    """
    grid, datum = h.grid, h.values
    what, symbol = to_coeffs(datum, grid), laplacian_symbol(grid)
    for b in index_blocks(len(tg), datum.nbytes):
        coeffs = what * np.exp(np.multiply.outer(tg.times[b], symbol))[:, None]
        values = np.empty((len(coeffs),) + datum.shape)
        first = 0
        if b.start == 0:
            values[0], first = datum, 1
        if len(coeffs) > first:
            from_coeffs(coeffs[first:], grid, out=values[first:])
        yield b, coeffs, values


def heat_flow_trajectory(h: SpeciesVector, tg: TimeGrid) -> Trajectory:
    """Pure heat flow of every species, sampled at all time nodes."""
    values = np.empty((len(tg), h.d) + h.grid.shape)
    for b, _, block in _heat_flow_blocks(h, tg):
        values[b] = block
    return Trajectory(h.grid, tg, values, metadata={"scheme": "heat-flow"})


@functools.lru_cache(maxsize=64)
def _segment_weights(grid: GridSpec, dt: float):
    """Exact per-mode weights for one Duhamel segment of length dt.

    The forcing is interpolated linearly between the segment endpoints and
    integrated exactly against the heat kernel. With z = lambda*dt this gives
    endpoint weights dt*(phi1 - phi2) and dt*phi2, which reduce to the plain
    trapezoid dt/2, dt/2 as z -> 0 and stay damped like 1/|lambda| in the
    stiff limit (a plain endpoint trapezoid would leave the stiffest modes
    undamped and lets the fixed-point iteration amplify round-off).

    Cached per (grid, dt); the returned arrays are shared, hence read-only.
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
    weights = ez, dt * (phi1 - phi2), dt * phi2
    for w in weights:
        w.flags.writeable = False
    return weights


@functools.lru_cache(maxsize=16)
def _step_table(grid: GridSpec, times: tuple[float, ...]) -> tuple:
    """The segment weights of a time grid: per distinct step length the
    _segment_weights triple, as a tuple of the E arrays and stacks of the
    left and right weights, and per segment k (nodes k to k + 1) the index
    of its step. A dyadic grid has one or two distinct steps per level (two
    where its linspace rounds), so the table holds a few triples however
    many nodes there are: 10 for the 89 nodes of the default grid.

    Cached per (grid, times); the arrays are shared, hence read-only.
    """
    steps, segment = np.unique(np.diff(np.array(times)), return_inverse=True)
    weights = [_segment_weights(grid, float(dt)) for dt in steps]
    left, right = (np.stack([w[j] for w in weights]) for j in (1, 2))
    for a in (left, right, segment):
        a.flags.writeable = False
    return tuple(w[0] for w in weights), left, right, segment


def _duhamel_blocks(h: SpeciesVector, div_blocks, tg: TimeGrid):
    """Mild solution of d/dt w_i = Lap(w_i) + g_i with datum h, fed
    (nodes, coefficients of the forcing g_i = div F_i) for consecutive
    slices of time nodes from node 0 on: yields, per block, (nodes, the
    coefficients of the solution at its nodes, their nodal values of shape
    (nodes, d, *grid.shape)). Node 0 of the values is the datum itself;
    every later node is the inverse transform of its coefficients, one
    batched transform per block.

    Between consecutive nodes the Duhamel convolution uses trapezoidal
    nodes (linear interpolation of the forcing) integrated exactly against
    the heat kernel, accumulated incrementally, so the cost is linear in
    the number of steps and the scheme is second order in the step size.

    Each block's forcing terms left*div[k-1] and right*div[k] are two
    batched products; each node then costs one product with E and two
    in-place adds, in the order of E*prev + left*div[k-1] + right*div[k].
    The yielded arrays are the generator's own, and each block of forcing
    is drawn only when its block is due: a caller may overwrite whatever the
    blocks already yielded were computed from.
    """
    grid, datum = h.grid, h.values
    E, left, right, segment = _step_table(grid, tuple(tg.times.tolist()))
    for nodes, div in div_blocks:
        k = nodes.start
        coeffs = np.empty_like(div)
        values = np.empty((len(div),) + datum.shape)
        if k == 0:
            coeffs[0], values[0] = to_coeffs(datum, grid), datum
            prev, first, left_div = coeffs[0], 1, div[:-1]
        else:
            first, left_div = 0, np.concatenate((prev_div[None], div[:-1]))
        seg = segment[k + first - 1:k + len(div) - 1]
        left_terms = left[seg][:, None] * left_div
        right_terms = right[seg][:, None] * div[first:]
        for c, s, lt, rt in zip(coeffs[first:], seg.tolist(), left_terms, right_terms):
            np.multiply(E[s], prev, out=c)
            c += lt
            c += rt
            prev = c
        if len(div) > first:
            from_coeffs(coeffs[first:], grid, out=values[first:])
        prev_div = div[-1]
        yield nodes, coeffs, values


def _forced_blocks(h: SpeciesVector, forcing: FluxTrajectory, tg: TimeGrid):
    """The mild solution of d/dt w_i = Lap(w_i) + div F_i with datum h and a
    nodal FluxTrajectory aligned with tg, over index_blocks of
    flux: the (nodes, coeffs, values) blocks of _duhamel_blocks. The forcing
    is checked here, and each block's divergence is taken only when its
    block of the recurrence is due, so neither the divergence nor the
    solution is held whole.
    """
    if forcing.grid != h.grid or not np.array_equal(forcing.tg.times, tg.times):
        raise ValueError("forcing must be sampled on the solution grid and time grid")
    if forcing.d != h.d:
        raise ValueError(f"forcing has {forcing.d} species, datum has {h.d}")
    blocks = index_blocks(len(tg), forcing.values[0].nbytes)
    return _duhamel_blocks(h, ((b, spectral_divergence(forcing.values[b], h.grid)) for b in blocks), tg)


def duhamel_solve(h: SpeciesVector, forcing: FluxTrajectory, tg: TimeGrid) -> Trajectory:
    """Mild solution of d/dt w_i = Lap(w_i) + div F_i with datum h: the
    Duhamel recurrence on the divergence of a nodal FluxTrajectory aligned
    with tg.
    """
    values = np.empty((len(tg), h.d) + h.grid.shape)
    for b, _, block in _forced_blocks(h, forcing, tg):
        values[b] = block
    return Trajectory(h.grid, tg, values, metadata={"scheme": "duhamel"})


# -- heat-kernel gradient norms on R^n ---------------------------------------


def kernel_gradient_lp(t: float, p: float, n: int) -> float:
    """L^p(R^n) norm of grad Phi(t, .) for the Gaussian heat kernel.

    Finite p uses a log-spaced radial quadrature, 4096 nodes per decade over
    eight decades, out to 14 sqrt(t) (the Gaussian tail beyond 12 sqrt(t) is
    below 1e-14); p = inf returns the analytic maximum of |grad Phi|.
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
    r = 14.0 * math.sqrt(t) * np.logspace(-8.0, 0.0, 4096 * 8 + 1)
    surface = 2.0 if n == 1 else 2.0 * math.pi
    point = (r / (2.0 * t)) * (4.0 * math.pi * t) ** (-n / 2.0) * np.exp(-(r**2) / (4.0 * t))
    integrand = surface * r ** (n - 1) * point**p
    integral = float(np.sum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(r)))
    return integral ** (1.0 / p)


# the heat-kernel scaling law holds when the ratios of the measured norms to
# the predicted power of t vary by at most this fraction (max/min - 1)
KERNEL_SCALING_SPREAD = 0.02


@dataclass
class KernelEstimateReport:
    """Measured kernel-gradient norms against the t^(-n/2-1/2+n/(2p)) scaling."""

    samples: list[tuple[float, float, float]]  # (t, norm, ratio)

    @property
    def ratio_spread(self) -> float:
        ratios = [s[2] for s in self.samples]
        return max(ratios) / min(ratios)

    @property
    def passed(self) -> bool:
        return self.ratio_spread - 1.0 <= KERNEL_SCALING_SPREAD

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("t,norm,ratio\n")
            for t, norm, ratio in self.samples:
                fh.write(f"{t:.17g},{norm:.17g},{ratio:.17g}\n")


def scaling_exponent(n: int, p: float) -> float:
    tail = 0.0 if p == math.inf else n / (2.0 * p)
    return -n / 2.0 - 0.5 + tail


def kernel_scaling_report(n: int, p: float, t_list: Sequence[float]) -> KernelEstimateReport:
    """Norms and their ratios to the predicted power of t; passed when the
    ratios vary by at most KERNEL_SCALING_SPREAD across t_list."""
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
    return KernelEstimateReport(samples=samples)
