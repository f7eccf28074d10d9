"""Two solution paths for the cross-diffusion system: a second-order
integrating-factor Heun reference stepper (exact linear part, explicit
divergence-form transport) and the mild-solution fixed-point iteration.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .carleson import CylinderLadder, _CylinderScan, _gradient_exponent
from .fields import (
    SpeciesVector,
    _abs_max,
    derivative_symbol,
    from_coeffs,
    gradient_from_coeffs,
    index_blocks,
    rfft_shape,
    to_coeffs,
)
from .model import ReducedModel, _divergence_coeffs
from .semigroup import _duhamel_blocks, _heat_flow_blocks, heat_multiplier
from .trajectory import TimeGrid, Trajectory, vector_magnitudes

__all__ = [
    "DivergedError",
    "ContractionReport",
    "imex_solve",
    "picard_solve",
]


# a state whose sup exceeds this multiple of the datum's sup has diverged
BLOWUP_FACTOR = 10.0


class DivergedError(RuntimeError):
    """Raised when a solve exceeds the blow-up guard threshold."""

    def __init__(self, time: float, sup: float, cap: float):
        super().__init__(f"solution diverged at t={time:.6g}: sup {sup:.3g} exceeds guard {cap:.3g}")
        self.time = time


def _check_bounded(values: np.ndarray, times: np.ndarray, cap: float) -> None:
    """Raise DivergedError at the first node of values (len(times), ...),
    the states at times, whose sup exceeds cap or is not finite.

    Called before the values become a Trajectory, whose own finiteness check
    would raise a ValueError first.
    """
    flat = values.reshape(len(times), -1)
    # max and -min propagate NaN, and allocate no temporary of |values|
    sups = np.maximum(flat.max(axis=1), -flat.min(axis=1))
    bad = ~(sups <= cap)
    if bad.any():
        k = int(np.argmax(bad))
        raise DivergedError(float(times[k]), float(sups[k]), cap)


def imex_solve(
    h: SpeciesVector,
    model: ReducedModel,
    tg: TimeGrid,
    truncated: bool = True,
    dt: float | None = None,
) -> Trajectory:
    """Integrating-factor Heun (IF-RK2) with exact diffusion. With
    E = exp(sub * Lap) and N(w) = div F(w), one step of length sub is
        w* = E (w + sub N(w)),   w+ = E (w + sub/2 N(w)) + sub/2 N(w*).
    Every segment of tg is split into ceil(segment / dt) equal steps, so every
    output time is hit exactly; the default dt is the longest segment (one
    step per segment). Each species' spatial mean is conserved to round-off
    (the mean mode of a spectral divergence is identically zero). A state
    whose sup exceeds BLOWUP_FACTOR * sup(h), or is not finite, raises
    DivergedError.
    """
    grid = h.grid
    if dt is None:
        dt = float(np.max(np.diff(tg.times)))
    if dt <= 0:
        raise ValueError("dt must be positive")
    derivs = np.stack([derivative_symbol(grid, m) for m in range(grid.n)])
    # per species (w, d_1 w, ..., d_n w), the one batched inverse transform
    # of a transport term; its rows 1.. are the gradient as the flux takes it
    spec = np.empty((h.d, 1 + grid.n) + rfft_shape(grid), dtype=complex)

    values = np.empty((len(tg), h.d) + grid.shape)
    values[0] = h.values
    cap = BLOWUP_FACTOR * max(h.sup_norm(), 1e-300)

    def transport(what: np.ndarray, t: float) -> np.ndarray:
        spec[:, 0] = what
        np.multiply(derivs, what[:, None], out=spec[:, 1:])
        nodal = from_coeffs(spec, grid)
        sup = float(np.abs(nodal[:, 0]).max())
        if not sup <= cap:
            raise DivergedError(t, sup, cap)
        return _divergence_coeffs(nodal[:, 0], nodal[:, 1:], grid, model, truncated)

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
            "delta": model.delta, "alpha": model.alpha.tolist()}
    _check_bounded(values, tg.times, cap)
    return Trajectory(grid, tg, values, metadata=meta)


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


def _distance_ratios(distances: list[float]) -> list[float]:
    """Ratios of successive iterate distances, both above 1e-15 x the first
    distance: below it a distance is round-off, and so is its ratio."""
    floor = 1e-15 * max(distances[0], 1e-300) if distances else 0.0
    return [b / a for a, b in zip(distances[:-1], distances[1:]) if a > floor and b > floor]


def _theta_hat(distances: list[float]) -> float:
    ratios = _distance_ratios(distances)
    if not ratios:
        return 0.0
    return float(np.exp(np.mean(np.log(ratios))))


def _map_blocks(h: SpeciesVector, values: np.ndarray, coeffs: np.ndarray, model: ReducedModel,
                tg: TimeGrid, truncated: bool):
    """One application of the solution map to the iterate held as nodal
    values (n_times, d, *grid.shape) and their coefficients, over index_blocks
    of flux: an iterator of (nodes, coefficients, values) of the next iterate
    per block of time nodes, node 0 being the datum.

    Per block, the divergence of the flux along the iterate is formed from
    its values and coefficients and fed to the Duhamel recurrence. A block
    of the iterate is read only when its block of the map is due, so the
    caller may overwrite each block of the iterate once it is yielded.
    """
    grid = h.grid
    blocks = index_blocks(len(tg), values[0].nbytes * grid.n)
    divs = ((b, _divergence_coeffs(values[b], gradient_from_coeffs(coeffs[b], grid), grid, model,
                                   truncated)) for b in blocks)
    return _duhamel_blocks(h, divs, tg)


def picard_solve(
    h: SpeciesVector,
    model: ReducedModel,
    tg: TimeGrid,
    tol: float = 1e-12,
    max_iter: int = 30,
    truncated: bool = True,
    metric: str = "xp",
    p: float | None = None,
    cylinders: CylinderLadder | None = None,
) -> tuple[Trajectory, ContractionReport]:
    """Iterate the solution map from the homogeneous heat flow of h until
    successive iterates are closer than tol.

    One application of the map evaluates the nonlinear fluxes along the
    iterate and solves the linear problem with datum h. One iterate is held,
    as nodal values and their coefficients: gradients come from the
    coefficients, and the flux reaches Duhamel as the coefficients of its
    divergence, so only the products go through the nodes. Each iteration
    is one pass over blocks of time nodes (_map_blocks) that overwrites the
    iterate block by block once the block's distance terms are taken.

    metric "xp" compares iterates in the full solution-space norm
    (sup + gradient seminorm, the contraction metric), the seminorm taken
    from the difference of their coefficients at the nodes the cylinders
    read, the sup over every node; "sup" is a cheaper
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
        p, cylinders = _gradient_exponent(h.grid, tg, p, cylinders)

    grid = h.grid
    cap = BLOWUP_FACTOR * max(h.sup_norm(), 1e-300)
    # the first iterate: the heat flow's values and coefficients, one pass
    values = np.empty((len(tg), h.d) + grid.shape)
    coeffs = np.empty((len(tg), h.d) + rfft_shape(grid), dtype=complex)
    for b, block_coeffs, block_values in _heat_flow_blocks(h, tg):
        coeffs[b], values[b] = block_coeffs, block_values
    distances: list[float] = []
    converged = False
    for _ in range(max_iter):
        scan = _CylinderScan(grid, tg.times, p, cylinders) if metric == "xp" else None
        sup = 0.0
        for b, next_coeffs, next_values in _map_blocks(h, values, coeffs, model, tg, truncated):
            _check_bounded(next_values, tg.times[b], cap)
            # the differences overwrite the block of the previous iterate,
            # which the next block of the map does not read
            sup = max(sup, _abs_max(np.subtract(next_values, values[b], out=values[b])))
            read = None if scan is None else scan.part(b)
            if read is not None:
                prev = coeffs[b][read]
                diff_hat = np.subtract(next_coeffs[read], prev, out=prev)
                scan.add(vector_magnitudes(gradient_from_coeffs(diff_hat, grid)))
            values[b], coeffs[b] = next_values, next_coeffs
        dmn = sup if scan is None else sup + scan.result()[0]
        distances.append(dmn)
        if dmn < tol:
            converged = True
            break
    report = ContractionReport(
        iterates=len(distances),
        distances=distances,
        theta_hat=_theta_hat(distances),
        converged=converged,
    )
    meta = {"scheme": "picard", "truncated": truncated, "delta": model.delta,
            "alpha": model.alpha.tolist(), "iterates": report.iterates, "converged": converged}
    return Trajectory(grid, tg, values, metadata=meta), report
