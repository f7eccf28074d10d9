"""Two solution paths for the cross-diffusion system: a second-order
integrating-factor Heun reference stepper (exact linear part, explicit
divergence-form transport) and the mild-solution fixed-point iteration.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .carleson import CylinderSpec, default_exponent, enumerate_cylinders, xp_norm
from .fields import (
    SpeciesVector,
    dealias_keep_mask,
    derivative_symbol,
    from_coeffs,
    to_coeffs,
)
from .model import ReducedModel, flux_trajectory
from .semigroup import duhamel_solve, heat_flow_trajectory, heat_multiplier
from .trajectory import TimeGrid, Trajectory, trajectory_difference

__all__ = [
    "DivergedError",
    "ContractionReport",
    "imex_solve",
    "apply_fixed_point_map",
    "picard_solve",
]


# a state whose sup exceeds this multiple of the datum's sup has diverged
BLOWUP_FACTOR = 10.0


class DivergedError(RuntimeError):
    """Raised when a solve exceeds the blow-up guard threshold."""

    def __init__(self, time: float, sup: float, cap: float):
        super().__init__(f"solution diverged at t={time:.6g}: sup {sup:.3g} exceeds guard {cap:.3g}")
        self.time = time


def _check_bounded(traj: Trajectory, cap: float) -> None:
    """Raise DivergedError at the first node whose sup exceeds cap or is not finite."""
    sups = np.max(np.abs(traj.values.reshape(len(traj.tg), -1)), axis=1)
    bad = ~(sups <= cap)
    if bad.any():
        k = int(np.argmax(bad))
        raise DivergedError(float(traj.tg.times[k]), float(sups[k]), cap)


def imex_solve(
    h: SpeciesVector,
    model: ReducedModel,
    tg: TimeGrid,
    truncated: bool = True,
    dt: float | None = None,
    blowup_factor: float = BLOWUP_FACTOR,
) -> Trajectory:
    """Integrating-factor Heun (IF-RK2) with exact diffusion. With
    E = exp(sub * Lap) and N(w) = div F(w), one step of length sub is
        w* = E (w + sub N(w)),   w+ = E (w + sub/2 N(w)) + sub/2 N(w*).
    Every segment of tg is split into ceil(segment / dt) equal steps, so every
    output time is hit exactly; the default dt is the longest segment (one
    step per segment). Each species' spatial mean is conserved to round-off
    (the mean mode of a spectral divergence is identically zero).
    """
    grid = h.grid
    if dt is None:
        dt = float(np.max(np.diff(tg.times)))
    if dt <= 0:
        raise ValueError("dt must be positive")
    alpha = model.alpha
    delta = model.delta
    derivs = np.stack([derivative_symbol(grid, m) for m in range(grid.n)])[:, None]
    ddiv = derivs * dealias_keep_mask(grid)  # divergence of the dealiased flux

    values = np.empty((len(tg), h.d) + grid.shape)
    values[0] = h.stack()
    cap = blowup_factor * max(float(np.max(np.abs(values[0]))), 1e-300)

    def transport(what: np.ndarray, t: float) -> np.ndarray:
        # one batched inverse transform of (w, d_1 w, ..., d_n w)
        nodal = from_coeffs(np.concatenate([what[None], derivs * what]), grid)
        wv, g = nodal[0], nodal[1:]
        sup = float(np.max(np.abs(wv)))
        if not sup <= cap:
            raise DivergedError(t, sup, cap)
        coef = np.clip(wv, 0.0, delta) if truncated else wv
        mixed_c = np.einsum("ij,j...->i...", alpha, coef)
        mixed_g = np.einsum("ij,mj...->mi...", alpha, g)
        fhat = to_coeffs(g * mixed_c - coef * mixed_g, grid)
        return np.sum(ddiv * fhat, axis=0)

    what = to_coeffs(values[0], grid)
    for k in range(1, len(tg)):
        t0 = float(tg.times[k - 1])
        seg = float(tg.times[k]) - t0
        nsub = max(1, math.ceil(seg / dt - 1e-12))
        sub = seg / nsub
        E = heat_multiplier(grid, sub)
        for j in range(nsub):
            t = t0 + j * sub
            n1 = transport(what, t)
            n2 = transport(E * (what + sub * n1), t + sub)
            what = E * (what + 0.5 * sub * n1) + 0.5 * sub * n2
        values[k] = from_coeffs(what, grid)
    meta = {"scheme": "imex", "dt": dt, "truncated": truncated,
            "delta": delta, "K": model.K, "alpha": model.alpha.tolist()}
    traj = Trajectory(grid, tg, values, metadata=meta)
    _check_bounded(traj, cap)
    return traj


def apply_fixed_point_map(
    h: SpeciesVector,
    w: Trajectory,
    model: ReducedModel,
    truncated: bool = True,
) -> Trajectory:
    """One application of the solution map: evaluate the nonlinear fluxes
    along w, then solve the linear problem with datum h."""
    flux = flux_trajectory(w, model, truncated)
    out = duhamel_solve(h, flux, w.tg)
    out.metadata.update({"scheme": "fixed-point-map", "truncated": truncated})
    return out


@dataclass
class ContractionReport:
    """Successive iterate distances and the empirical contraction factor
    (geometric mean of the successive-distance ratios)."""

    iterates: int
    distances: list[float] = field(default_factory=list)
    theta_hat: float = 0.0
    converged: bool = False

    @property
    def final_distance(self) -> float:
        return self.distances[-1] if self.distances else 0.0


def _theta_hat(distances: list[float]) -> float:
    floor = 1e-15 * max(distances[0], 1e-300) if distances else 0.0
    ratios = [
        b / a
        for a, b in zip(distances[:-1], distances[1:])
        if a > floor and b > floor
    ]
    if not ratios:
        return 0.0
    return float(np.exp(np.mean(np.log(ratios))))


def picard_solve(
    h: SpeciesVector,
    model: ReducedModel,
    tg: TimeGrid,
    tol: float = 1e-12,
    max_iter: int = 30,
    truncated: bool = True,
    metric: str = "xp",
    p: float | None = None,
    cylinders: list[CylinderSpec] | None = None,
) -> tuple[Trajectory, ContractionReport]:
    """Iterate the solution map from the homogeneous heat flow of h until
    successive iterates are closer than tol.

    metric "xp" compares iterates in the full solution-space norm
    (sup + gradient seminorm, the contraction metric); "sup" is a cheaper
    sup-norm-only mode for quick runs. An iterate whose sup exceeds
    BLOWUP_FACTOR * sup(h), or is not finite, raises DivergedError.
    """
    if metric not in ("xp", "sup"):
        raise ValueError(f"unknown metric {metric!r}")
    if h.sup_norm() > model.delta * (1.0 + 1e-12):
        warnings.warn(
            f"initial datum sup {h.sup_norm():.3g} exceeds delta={model.delta:.3g}; "
            "the smallness hypothesis is violated and the iteration may not contract"
        )
    if metric == "xp":
        if p is None:
            p = default_exponent(h.grid)
        if cylinders is None:
            cylinders = enumerate_cylinders(h.grid, tg)
        dist = lambda a, b: xp_norm(trajectory_difference(a, b), p, cylinders)
    else:
        dist = lambda a, b: float(np.max(np.abs(a.values - b.values)))

    cap = BLOWUP_FACTOR * max(h.sup_norm(), 1e-300)
    w = heat_flow_trajectory(h, tg)
    distances: list[float] = []
    converged = False
    for _ in range(max_iter):
        w_next = apply_fixed_point_map(h, w, model, truncated)
        _check_bounded(w_next, cap)
        dmn = dist(w_next, w)
        distances.append(dmn)
        w = w_next
        if dmn < tol:
            converged = True
            break
    report = ContractionReport(
        iterates=len(distances),
        distances=distances,
        theta_hat=_theta_hat(distances),
        converged=converged,
    )
    w.metadata.update({
        "scheme": "picard", "truncated": truncated, "delta": model.delta,
        "K": model.K, "alpha": model.alpha.tolist(),
        "iterates": report.iterates, "converged": converged,
    })
    return w, report
