"""Coefficient reduction from raw cross-diffusion coefficients to the
normalised coupling of the diffusion-dominant small-data form, the
(optionally truncated) flux of the nonlinearity, and the empirical
Lipschitz diagnostic for the flux map.
"""

from __future__ import annotations

import math
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
    gradient_from_coeffs,
    index_blocks,
    spectral_gradient,
    to_coeffs,
)
from .semigroup import _heat_flow_blocks
from .trajectory import FluxTrajectory, TimeGrid, Trajectory, vector_magnitudes

__all__ = [
    "ReducedModel",
    "LipschitzReport",
    "reduce_coefficients",
    "flux_trajectory",
]


@dataclass(eq=False)
class ReducedModel:
    """The normalised system, with unit diffusion: the spread delta and the
    coupling alpha, |alpha_ij| <= 1 with zero diagonal. Construction is
    permissive (the negative controls inject broken couplings on purpose);
    from_alpha checks what it builds."""

    delta: float
    alpha: np.ndarray

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)

    @property
    def d(self) -> int:
        return self.alpha.shape[0]

    @classmethod
    def from_alpha(cls, alpha, delta: float) -> "ReducedModel":
        if not 0 < delta < math.inf:
            raise ValueError(f"delta must be positive and finite, got {delta}")
        m = cls(delta=delta, alpha=alpha)
        if not np.all(np.abs(m.alpha) <= 1.0 + 1e-12):
            raise ValueError("coupling entries must satisfy |alpha_ij| <= 1")
        if not np.allclose(m.alpha, m.alpha.T, rtol=0.0, atol=1e-12):
            raise ValueError("coupling matrix must be symmetric")
        if np.any(np.diag(m.alpha) != 0.0):
            raise ValueError("coupling diagonal must be zero")
        return m


def reduce_coefficients(d: int, entries) -> np.ndarray:
    """The normalised coupling alpha of the raw cross-diffusion coefficients
    K_ij = K (1 + delta alpha_ij), given as the flat row-major list of the
    d(d-1)/2 upper-triangular entries.

    K is the midpoint of the entries' range and alpha_ij = (K_ij/K - 1)/s
    with s the largest |K_ij/K - 1|; the spread delta is the model's own.
    Raises when all coefficients coincide: the spread vanishes and the
    system decouples into independent heat equations.
    """
    if d < 2:
        raise ValueError("need at least two species")
    entries = np.asarray(entries, dtype=float)
    expect = d * (d - 1) // 2
    if entries.shape != (expect,):
        raise ValueError(f"expected {expect} upper-triangular entries, got {entries.size}")
    if not np.all((0 < entries) & (entries < math.inf)):  # NaN fails both
        raise ValueError(f"coefficients must be positive and finite, got {entries.tolist()}")
    rel = entries / (0.5 * (entries.max() + entries.min())) - 1.0
    spread = float(np.max(np.abs(rel)))
    if spread <= 1e-14:
        raise ValueError("degenerate: all cross-diffusion coefficients equal; "
                         "the system decouples into independent heat equations")
    alpha = np.zeros((d, d))
    alpha[np.triu_indices(d, 1)] = rel / spread
    return alpha + alpha.T


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

    add(b, v, w, cv, cw) takes the next block b of time nodes: the nodal
    values of v and w there, shape (nodes, d, *grid.shape), and their
    coefficients as to_coeffs lays them out. sup|v|, sup|w| and sup|v - w|
    are taken over every node; the rest only at the nodes the cylinders
    read. There the gradients come from the coefficients, F(v) - F(w) is
    one dealiased transform of the difference of the nodal products, and
    grad(v - w) is the difference of the gradients. The magnitudes of those
    four vector fields go to four cylinder scans. With against_zero a fifth
    scan takes |F(v)|, one more dealiased transform of v's products, for
    the probe of v against w = 0, whose other terms are v's own. A
    non-finite sup or magnitude raises in the block where it appears.

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

    def add(self, b: slice, v: np.ndarray, w: np.ndarray, cv: np.ndarray, cw: np.ndarray):
        sup_v, sup_w, sup_diff = _abs_max(v), _abs_max(w), _abs_max(v - w)
        # max(0.0, nan) is 0.0: a NaN at a node no scan reads shows only here
        if not all(math.isfinite(s) for s in (sup_v, sup_w, sup_diff)):
            raise ValueError("trajectory values must be finite")
        self.sup_v = max(self.sup_v, sup_v)
        self.sup_w = max(self.sup_w, sup_w)
        self.sup_diff = max(self.sup_diff, sup_diff)
        read = self.scans[0].part(b)
        if read is None:
            return
        grid, model = self.grid, self.model
        v, w = v[read], w[read]
        gv, gw = gradient_from_coeffs(cv[read], grid), gradient_from_coeffs(cw[read], grid)
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
    the heat-flow generator straight into one pass with the coefficients
    the generator computed them from, so neither flow is transformed
    forward again.
    """
    probe = _LipschitzPass(v0.grid, tg, model, p, cylinders, against_zero)
    for (b, cv, v), (_, cw, w) in zip(_heat_flow_blocks(v0, tg), _heat_flow_blocks(w0, tg)):
        probe.add(b, v, w, cv, cw)
    return probe.result()
