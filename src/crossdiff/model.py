"""Coefficient reduction from raw cross-diffusion matrices to the
diffusion-dominant small-data form, the (optionally truncated) flux of
the nonlinearity, and the empirical Lipschitz diagnostic for the flux map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .carleson import CylinderLadder, _CylinderScan, _gradient_exponent
from .fields import (
    GridSpec,
    SpeciesVector,
    _abs_max,
    dealias_keep_mask,
    divergence_from_coeffs,
    from_coeffs,
    index_blocks,
    spectral_gradient,
    to_coeffs,
)
from .semigroup import _heat_flow_blocks
from .trajectory import FluxTrajectory, TimeGrid, Trajectory, vector_magnitudes

__all__ = [
    "RawCoefficients",
    "ReducedModel",
    "LipschitzReport",
    "reduce_coefficients",
    "flux_trajectory",
]


@dataclass(frozen=True, eq=False)
class RawCoefficients:
    """Symmetric positive cross-diffusion coefficients K_ij (diagonal unused)."""

    d: int
    K: np.ndarray

    def __post_init__(self):
        K = np.asarray(self.K, dtype=float)
        if self.d < 2:
            raise ValueError("need at least two species")
        if K.shape != (self.d, self.d):
            raise ValueError(f"coefficient matrix must be {self.d}x{self.d}, got {K.shape}")
        off = ~np.eye(self.d, dtype=bool)
        if np.any(K[off] <= 0):
            raise ValueError("off-diagonal coefficients must be positive")
        if not np.allclose(K, K.T, rtol=1e-12, atol=0.0):
            raise ValueError("coefficients must be symmetric: K_ij = K_ji")
        object.__setattr__(self, "K", K)

    @classmethod
    def from_upper_triangle(cls, d: int, entries) -> "RawCoefficients":
        """Build from the flat row-major list of the d(d-1)/2 upper-triangular entries."""
        entries = list(entries)
        expect = d * (d - 1) // 2
        if len(entries) != expect:
            raise ValueError(f"expected {expect} upper-triangular entries, got {len(entries)}")
        K = np.zeros((d, d))
        pos = 0
        for i in range(d):
            for j in range(i + 1, d):
                K[i, j] = K[j, i] = entries[pos]
                pos += 1
        return cls(d=d, K=K)


@dataclass(eq=False)
class ReducedModel:
    """Reference diffusivity K, coefficient spread delta, and the normalised
    coupling matrix alpha with |alpha_ij| <= 1 and zero diagonal.

    Construction is permissive (test harnesses inject broken couplings on
    purpose); reduce_coefficients produces validated instances.
    """

    K: float
    delta: float
    alpha: np.ndarray

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)

    @property
    def d(self) -> int:
        return self.alpha.shape[0]

    def validate(self):
        if self.K <= 0 or self.delta <= 0:
            raise ValueError("K and delta must be positive")
        if np.any(np.abs(self.alpha) > 1.0 + 1e-12):
            raise ValueError("coupling entries must satisfy |alpha_ij| <= 1")
        if not np.allclose(self.alpha, self.alpha.T, rtol=0.0, atol=1e-12):
            raise ValueError("coupling matrix must be symmetric")
        if np.any(np.diag(self.alpha) != 0.0):
            raise ValueError("coupling diagonal must be zero")

    @classmethod
    def from_alpha(cls, alpha, delta: float) -> "ReducedModel":
        m = cls(K=1.0, delta=delta, alpha=alpha)
        m.validate()
        return m


def reduce_coefficients(raw: RawCoefficients) -> ReducedModel:
    """Extract the dominant linear diffusivity and the normalised coupling.

    K is the midpoint of the off-diagonal coefficient range, delta the
    maximal relative spread |K_ij/K - 1|, and alpha_ij = (K_ij/K - 1)/delta.
    Raises when all coefficients coincide: the spread vanishes and the
    system decouples into independent heat equations.
    """
    off = ~np.eye(raw.d, dtype=bool)
    kmax, kmin = float(raw.K[off].max()), float(raw.K[off].min())
    K = 0.5 * (kmax + kmin)
    rel = raw.K / K - 1.0
    rel[~off] = 0.0
    delta = float(np.max(np.abs(rel)))
    if delta <= 1e-14:
        raise ValueError("degenerate: all cross-diffusion coefficients equal; "
                         "the system decouples into independent heat equations")
    model = ReducedModel(K=K, delta=delta, alpha=rel / delta)
    model.validate()
    return model


def _flux_products(
    values: np.ndarray,
    grid: GridSpec,
    model: ReducedModel,
    truncated: bool,
    grads: np.ndarray,
) -> np.ndarray:
    """Nodal products sum_j alpha_ij (c_j grad w_i - c_i grad w_j), not yet
    dealiased: (..., d, *grid.shape) -> (..., d, n, *grid.shape).

    c = w clamped to [0, delta] when truncated, else c = w; grads is the
    nodal gradient of the unclamped values.
    """
    coef = values.clip(0.0, model.delta) if truncated else values
    x = "xy"[: grid.n]  # the spatial axes
    mixed_c = np.einsum(f"ij,...j{x}->...i{x}", model.alpha, coef)
    mixed_g = np.einsum(f"ij,...jm{x}->...im{x}", model.alpha, grads)
    comp = (..., None) + (slice(None),) * grid.n  # a vector-component axis
    return grads * mixed_c[comp] - coef[comp] * mixed_g


def _dealiased_coeffs(products: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Coefficients of nodal products with the modes the 2/3 rule drops zeroed."""
    fhat = to_coeffs(products, grid)
    # a masked copyto, not a boolean setitem: a third of the cost on the
    # small arrays of the reference's substeps, and the same bits
    np.copyto(fhat, 0.0, where=~dealias_keep_mask(grid))
    return fhat


def flux_trajectory(traj: Trajectory, model: ReducedModel, truncated: bool = True) -> FluxTrajectory:
    """Nodal fluxes F_i = sum_j alpha_ij (c_j grad w_i - c_i grad w_j) along
    every stored state, over index_blocks of output.

    c = w clamped to [0, delta] when truncated, else c = w; gradients are
    always taken from the unclamped state. Products are formed nodally and
    dealiased by the 2/3 rule.
    """
    grid = traj.grid
    blocks = []
    for b in index_blocks(len(traj.tg), traj.values[0].nbytes * grid.n):
        values = traj.values[b]
        products = _flux_products(values, grid, model, truncated, spectral_gradient(values, grid))
        blocks.append(from_coeffs(_dealiased_coeffs(products, grid), grid))
    return FluxTrajectory(grid, traj.tg, np.concatenate(blocks))


def _divergence_coeffs(
    values: np.ndarray,
    grads: np.ndarray,
    grid: GridSpec,
    model: ReducedModel,
    truncated: bool,
) -> np.ndarray:
    """Spectral coefficients of div F_i of nodal states (..., d, *grid.shape)
    given with their nodal gradients (..., d, n, *grid.shape); leading axes
    are a batch. The one route from states to the transport term of both
    solvers: the flux never returns to the nodes.
    """
    products = _flux_products(values, grid, model, truncated, grads)
    return divergence_from_coeffs(_dealiased_coeffs(products, grid), grid)


@dataclass
class LipschitzReport:
    """Empirical constant in the flux-map Lipschitz bound."""

    left: float
    bound: float
    ratio: float
    x_v: float
    x_w: float
    x_diff: float


class _LipschitzPass:
    """The flux-map Lipschitz probe of trajectories v and w, fed in
    consecutive blocks of time nodes so that neither is held whole: it
    compares ||F(v) - F(w)||_Yp against d * max{||v||, ||w||, ||v||^2,
    ||w||^2} * ||v - w||_Xp (the growth and difference exponents mu = nu = 1
    of the untruncated quadratic flux).

    add(v, w, gv, gw) takes the next nodes of v and w, shape (nodes, d,
    *grid.shape), and their nodal gradients. F(v) - F(w) is one dealiased
    transform of the difference of the nodal products, and grad(v - w) is
    the difference of the gradients. The magnitudes of those four vector
    fields go to four cylinder scans, and sup|v|, sup|w| and sup|v - w| are
    taken per block; a non-finite magnitude raises in the block where it
    appears. With against_zero a fifth scan takes |F(v)|, one more dealiased
    transform of v's products, for the probe of v against w = 0, whose
    other terms are v's own.

    result() needs every node and returns the LipschitzReport of v against
    w, and of v against 0 (else None). A zero ||v - w||_Xp reports ratio 0.
    """

    def __init__(self, grid: GridSpec, tg: TimeGrid, model: ReducedModel,
                 p: float | None, cylinders: CylinderLadder | None, against_zero: bool):
        p, cylinders = _gradient_exponent(grid, tg, p, cylinders)
        self.grid, self.model = grid, model
        # cylinder scans of |F(v) - F(w)|, |grad v|, |grad w|, |grad v - grad w|
        # and, against zero, |F(v)|
        self.scans = [_CylinderScan(grid, tg.times, p, cylinders) for _ in range(4 + against_zero)]
        self.sup_v = self.sup_w = self.sup_diff = 0.0

    def add(self, v: np.ndarray, w: np.ndarray, gv: np.ndarray, gw: np.ndarray):
        grid, model = self.grid, self.model
        mags = np.empty((len(self.scans),) + v.shape)
        prod = _flux_products(v, grid, model, False, gv)
        if len(self.scans) == 5:
            vector_magnitudes(from_coeffs(_dealiased_coeffs(prod, grid), grid), out=mags[4])
        prod -= _flux_products(w, grid, model, False, gw)
        vector_magnitudes(from_coeffs(_dealiased_coeffs(prod, grid), grid), out=mags[0])
        vector_magnitudes(gv, out=mags[1])
        vector_magnitudes(gw, out=mags[2])
        vector_magnitudes(gv - gw, out=mags[3])
        # magnitudes are >= 0, so the maximum shows any NaN or infinity
        if not np.isfinite(mags.max()):
            raise ValueError("gradient and flux values must be finite")
        for scan, m in zip(self.scans, mags):
            scan.add(m)
        self.sup_v = max(self.sup_v, _abs_max(v))
        self.sup_w = max(self.sup_w, _abs_max(w))
        self.sup_diff = max(self.sup_diff, _abs_max(v - w))

    def result(self) -> tuple[LipschitzReport, LipschitzReport | None]:
        left, semi_v, semi_w, semi_diff, *zero = (scan.result()[0] for scan in self.scans)
        x_v = self.sup_v + semi_v
        pair = self._report(left, x_v, self.sup_w + semi_w, self.sup_diff + semi_diff)
        return pair, self._report(zero[0], x_v, 0.0, x_v) if zero else None

    def _report(self, left: float, x_v: float, x_w: float, x_diff: float) -> LipschitzReport:
        bound = self.model.d * max(x_v, x_w, x_v**2, x_w**2) * x_diff
        ratio = left / bound if bound > 0.0 else 0.0
        return LipschitzReport(left=left, bound=bound, ratio=ratio, x_v=x_v, x_w=x_w, x_diff=x_diff)


def _heat_flow_probes(
    v0: SpeciesVector,
    w0: SpeciesVector,
    tg: TimeGrid,
    model: ReducedModel,
    p: float | None,
    cylinders: CylinderLadder | None,
    against_zero: bool = False,
) -> tuple[LipschitzReport, LipschitzReport | None]:
    """The Lipschitz probe (_LipschitzPass) of the heat flows v and w of the
    data v0 and w0, and with against_zero also of v against w = 0 (else
    None), holding neither flow whole: their blocks of time nodes go from
    the heat-flow generator straight into one pass, each flow's gradients
    from one forward transform of its block.
    """
    grid = v0.grid
    probe = _LipschitzPass(grid, tg, model, p, cylinders, against_zero)
    for (_, _, v), (_, _, w) in zip(_heat_flow_blocks(v0, tg), _heat_flow_blocks(w0, tg)):
        probe.add(v, w, spectral_gradient(v, grid), spectral_gradient(w, grid))
    return probe.result()
