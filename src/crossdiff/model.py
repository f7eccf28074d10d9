"""Coefficient reduction from raw cross-diffusion matrices to the
diffusion-dominant small-data form, the (optionally truncated) flux of
the nonlinearity, and the empirical Lipschitz diagnostic for the flux map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .carleson import CylinderSpec, default_exponent, enumerate_cylinders, xp_norm, yp_norm
from .fields import GridSpec, dealias_keep_mask, from_coeffs, spectral_gradient, to_coeffs
from .trajectory import FluxTrajectory, Trajectory, trajectory_difference

__all__ = [
    "RawCoefficients",
    "ReducedModel",
    "NonlinearitySpec",
    "LipschitzReport",
    "reduce_coefficients",
    "flux",
    "flux_trajectory",
    "lipschitz_probe",
]


@dataclass(frozen=True)
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

    def upper_triangle(self) -> list[float]:
        return [float(self.K[i, j]) for i in range(self.d) for j in range(i + 1, self.d)]


@dataclass
class ReducedModel:
    """Reference diffusivity K, coefficient spread delta, and the normalised
    coupling matrix alpha with |alpha_ij| <= 1 and zero diagonal.

    Construction is permissive (test harnesses inject broken couplings on
    purpose); reduce_coefficients produces validated instances.
    """

    K: float
    delta: float
    alpha: np.ndarray
    closeness_margin: float = math.nan
    closeness_ok: bool = True

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        if math.isnan(self.closeness_margin):
            self.closeness_margin = self.delta * self.d

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
    def from_alpha(cls, alpha, delta: float, K: float = 1.0, threshold: float = 0.1) -> "ReducedModel":
        alpha = np.asarray(alpha, dtype=float)
        m = cls(K=K, delta=delta, alpha=alpha, closeness_margin=delta * alpha.shape[0],
                closeness_ok=delta * alpha.shape[0] <= threshold)
        m.validate()
        return m

    def raw(self) -> RawCoefficients:
        """Raw coefficient matrix K*(1 + delta*alpha) realising this reduction."""
        d = self.d
        K = self.K * (1.0 + self.delta * self.alpha)
        np.fill_diagonal(K, 0.0)
        return RawCoefficients(d=d, K=K)


def reduce_coefficients(raw: RawCoefficients, closeness_threshold: float = 0.1) -> ReducedModel:
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
    alpha = rel / delta
    margin = delta * raw.d
    model = ReducedModel(
        K=K,
        delta=delta,
        alpha=alpha,
        closeness_margin=margin,
        closeness_ok=margin <= closeness_threshold,
    )
    model.validate()
    return model


@dataclass(frozen=True)
class NonlinearitySpec:
    """Growth and difference exponents of the coupling matrix (both 1 for the
    concrete quadratic model)."""

    mu: float = 1.0
    nu: float = 1.0

    def __post_init__(self):
        if self.mu <= 0 or self.nu <= 0:
            raise ValueError("exponents must be positive")


# flux_trajectory evaluates at most this many bytes of flux output per call
# (at least one node). One call over a whole trajectory would hold several
# trajectory-sized temporaries at once; with this budget a 2-D trajectory at
# N=64 still goes one node per call, while a 1-D one needs one or two calls.
FLUX_BLOCK_BYTES = 1 << 18


def flux(
    values: np.ndarray,
    grid: GridSpec,
    model: ReducedModel,
    truncated: bool = True,
) -> np.ndarray:
    """Fluxes F_i = sum_j alpha_ij (c_j grad w_i - c_i grad w_j) of nodal states.

    c = w clamped to [0, delta] when truncated, else c = w; gradients are
    always taken from the unclamped state. Products are formed nodally and
    dealiased by the 2/3 rule. Shapes: (..., d, *grid.shape) ->
    (..., d, n, *grid.shape); leading axes are a batch.
    """
    grads = spectral_gradient(values, grid)
    coef = np.clip(values, 0.0, model.delta) if truncated else values
    x = "xy"[: grid.n]  # the spatial axes
    mixed_c = np.einsum(f"ij,...j{x}->...i{x}", model.alpha, coef)
    mixed_g = np.einsum(f"ij,...jm{x}->...im{x}", model.alpha, grads)
    comp = -1 - grid.n  # the vector-component axis of a flux
    out = grads * np.expand_dims(mixed_c, comp) - np.expand_dims(coef, comp) * mixed_g
    fhat = to_coeffs(out, grid)
    fhat[..., ~dealias_keep_mask(grid)] = 0.0
    return from_coeffs(fhat, grid)


def flux_trajectory(traj: Trajectory, model: ReducedModel, truncated: bool = True) -> FluxTrajectory:
    """Evaluate the flux along every stored state, FLUX_BLOCK_BYTES of output at a time."""
    node_bytes = traj.values[0].nbytes * traj.grid.n
    step = max(1, FLUX_BLOCK_BYTES // node_bytes)
    blocks = [flux(traj.values[k:k + step], traj.grid, model, truncated)
              for k in range(0, len(traj.tg), step)]
    return FluxTrajectory(traj.grid, traj.tg, np.concatenate(blocks))


@dataclass
class LipschitzReport:
    """Empirical constant in the flux-map Lipschitz bound."""

    left: float
    bound: float
    ratio: float
    x_v: float
    x_w: float
    x_diff: float


def lipschitz_probe(
    v: Trajectory,
    w: Trajectory,
    model: ReducedModel,
    p: float | None = None,
    cylinders: list[CylinderSpec] | None = None,
    spec: NonlinearitySpec = NonlinearitySpec(),
    truncated: bool = False,
) -> LipschitzReport:
    """Compare ||F(v) - F(w)||_Yp against d * max{||v||^mu, ||w||^mu,
    ||v||^(nu+1), ||w||^(nu+1)} * ||v - w||_Xp and report left/right.

    Identical trajectories report ratio 0 by convention.
    """
    if v.grid != w.grid or not np.array_equal(v.tg.times, w.tg.times):
        raise ValueError("trajectories must share grid and time grid")
    if p is None:
        p = default_exponent(v.grid)
    if cylinders is None:
        cylinders = enumerate_cylinders(v.grid, v.tg)
    fv = flux_trajectory(v, model, truncated)
    fw = flux_trajectory(w, model, truncated)
    diff_flux = FluxTrajectory(v.grid, v.tg, fv.values - fw.values)
    left = yp_norm(diff_flux, p, cylinders).seminorm
    x_v = xp_norm(v, p, cylinders)
    x_w = xp_norm(w, p, cylinders)
    x_diff = xp_norm(trajectory_difference(v, w), p, cylinders)
    if x_diff == 0.0:
        return LipschitzReport(left=left, bound=0.0, ratio=0.0, x_v=x_v, x_w=x_w, x_diff=0.0)
    factor = max(x_v**spec.mu, x_w**spec.mu, x_v ** (spec.nu + 1), x_w ** (spec.nu + 1))
    bound = model.d * factor * x_diff
    ratio = left / bound if bound > 0.0 else 0.0
    return LipschitzReport(left=left, bound=bound, ratio=ratio, x_v=x_v, x_w=x_w, x_diff=x_diff)
