"""Two solution paths for the cross-diffusion system: a second-order
integrating-factor Heun reference stepper (exact linear part, explicit
divergence-form transport) and the mild-solution fixed-point iteration.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import signal
import threading
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


# Work of at least this many bytes is split with one forked child: a sample
# map (harness._map_samples) at count x one sample's trajectory, a Picard
# solve at one iterate's values (times x species x nodes of float64).
# Threads overlapped little: numpy's many small calls hold the GIL. Around a
# sample map a fork costs about 11 ms; on 2 cores (1-D, 89 time nodes, d=3)
# every sample check gained from 1 MiB on (0.55-0.88 of serial time) and
# lost below 668 KiB (1.19-2.63). 10 stability pairs of 134 KiB split.
SPLIT_BYTES = 1 << 20

_forked = False  # a crossdiff child is live, or this process is one


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


def _may_fork(nbytes: int) -> bool:
    """Whether work of nbytes may be split with one forked child: from
    SPLIT_BYTES on, on two or more usable cores, with no other thread alive
    (a lock it holds would stay held in the child), where the platform can
    fork, and with no crossdiff child live, so that no fork is nested."""
    return (nbytes >= SPLIT_BYTES and _usable_cores() >= 2 and threading.active_count() == 1
            and hasattr(os, "fork") and not _forked)


def _fork_child(work) -> int:
    """The pid of a forked child that runs work() and ends in os._exit, 0 if
    work returned, with no traceback nor flush of inherited stdio buffers;
    -1 when no process is to be had. It counts as live until _reap."""
    global _forked
    try:
        pid = os.fork()
    except OSError:
        return -1
    _forked = True
    if pid == 0:
        status = 1
        try:
            work()
            status = 0
        finally:
            os._exit(status)
    return pid


def _reap(pid: int, kill: bool = False) -> bool:
    """Wait for the child pid, killed first when kill: True when it exited 0."""
    global _forked
    if kill:
        os.kill(pid, signal.SIGKILL)
    _forked = False
    return os.waitpid(pid, 0)[1] == 0


def _shared(shape: tuple, dtype=float) -> np.ndarray:
    """An array in an anonymous shared mapping, which a later fork shares."""
    return np.frombuffer(mmap.mmap(-1, math.prod(shape) * np.dtype(dtype).itemsize), dtype).reshape(shape)


def _nothing(b: slice | None = None) -> None:
    pass


def _picard_pass(h: SpeciesVector, vin: np.ndarray, vout: np.ndarray, coeffs: np.ndarray,
                 model: ReducedModel, tg: TimeGrid, truncated: bool, cap: float, p: float | None,
                 cylinders: CylinderLadder | None, wait=_nothing, post=_nothing) -> float:
    """One application of the solution map to the iterate held as nodal
    values vin (n_times, d, *grid.shape) and their coefficients coeffs, over
    index_blocks of time nodes: writes the next iterate's values into vout
    and its coefficients over coeffs, and returns the distance of the two
    iterates (the X^p distance with cylinders, else the sup).

    Per block, the divergence of the flux along the iterate is formed from
    its values and coefficients and fed to the Duhamel recurrence. wait(b)
    comes before block b of the iterate is read, and post(b) after block b
    of the next one is written, after which the pass touches neither; so
    vout may be vin.
    """
    grid = h.grid
    scan = None if cylinders is None else _CylinderScan(grid, tg.times, p, cylinders)

    def divs():
        for b in index_blocks(len(tg), vin[0].nbytes * grid.n):
            wait(b)
            yield b, _divergence_coeffs(vin[b], gradient_from_coeffs(coeffs[b], grid), grid, model,
                                        truncated)

    sup = 0.0
    for b, next_coeffs, next_values in _duhamel_blocks(h, divs(), tg):
        _check_bounded(next_values, tg.times[b], cap)
        # the difference is a temporary: vin may hold the result
        sup = max(sup, _abs_max(next_values - vin[b]))
        read = None if scan is None else scan.part(b)
        if read is not None:
            # the differences overwrite the block of the iterate's
            # coefficients, which the next block of the map does not read
            prev = coeffs[b][read]
            diff_hat = np.subtract(next_coeffs[read], prev, out=prev)
            scan.add(vector_magnitudes(gradient_from_coeffs(diff_hat, grid)))
        vout[b], coeffs[b] = next_values, next_coeffs
        post(b)
    return sup if scan is None else sup + scan.result()[0]


def _wavefront(run, max_iter: int, tol: float) -> list[float]:
    """The distances of iterations 0, 1, ... of run(j, wait, post), as
    _picard_pass, through max_iter or one past the first below tol: the even
    ones here, the odd ones in a forked child a block behind or ahead. Each
    side posts a byte on a pipe per block it writes and per distance it puts
    in a shared array, and reads one of the other side's only after its
    post. Raises when no process is to be had or either side fails; the
    child prints nothing, and is killed and reaped however this returns."""
    dist = _shared((max_iter,))
    to_child, to_here = os.pipe(), os.pipe()

    def side(first: int, rfd: int, wfd: int) -> int:
        # iterations first, first + 2, ...; returns how many distances it knows
        def wait(b=None) -> bytes:
            token = os.read(rfd, 1)
            if not token:
                raise EOFError("the other side of a Picard wavefront has ended")
            return token

        def post(b=None):  # block b written, or with no block, a distance
            with contextlib.suppress(BrokenPipeError):  # the other side has ended
                os.write(wfd, b"d" if b is None else b"b")

        for j in range(first, max_iter + 1, 2):
            if (dist[:max(j - 1, 0)] < tol).any():
                return j - 1
            if j < max_iter:
                dist[j] = run(j, wait if j else _nothing, post)
                post()
            while j and wait() != b"d":  # past any blocks, the other side's distance j - 1
                pass
        return max_iter

    def child():
        warnings.simplefilter("ignore")
        for fd in (to_child[1], to_here[0]):  # so that either side sees the other end
            os.close(fd)
        side(1, to_child[0], to_here[1])

    pid = _fork_child(child)
    os.close(to_here[1])
    try:
        if pid < 0:
            raise OSError("no process to be had for a Picard wavefront")
        return dist[:side(0, to_here[0], to_child[1])].tolist()
    finally:
        for fd in (*to_child, to_here[0]):
            os.close(fd)
        if pid > 0:
            _reap(pid, kill=True)


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
    iterate and solves the linear problem with datum h. An iterate is held
    as nodal values and their coefficients: gradients come from the
    coefficients, and the flux reaches Duhamel as the coefficients of its
    divergence, so only the products go through the nodes. Each iteration
    is one pass over blocks of time nodes (_picard_pass) that writes the
    next iterate block by block once the block's distance terms are taken.

    Where one iterate's values reach SPLIT_BYTES and _may_fork allows a
    child, consecutive iterations run a block apart in two processes
    (_wavefront) on shared buffers, one of coefficients and two of values:
    iteration j reads values[j % 2] and writes the other, so the one
    iteration run past convergence spares the result. That holds one
    iterate's values more; the result is copied into private memory. A
    refused fork, or a wavefront that fails on either side, reruns the
    solve serially from the heat flow: every result and every error is the
    serial loop's, bit for bit.

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
    else:
        cylinders = None

    grid = h.grid
    cap = BLOWUP_FACTOR * max(h.sup_norm(), 1e-300)
    shape = (len(tg), h.d) + grid.shape

    def solve(wide: bool) -> tuple[np.ndarray, list[float]]:
        # the first iterate: the heat flow's values and coefficients, one pass
        new = _shared if wide else np.empty
        values = [new(shape) for _ in range(1 + wide)]
        coeffs = new((len(tg), h.d) + rfft_shape(grid), complex)
        for b, block_coeffs, block_values in _heat_flow_blocks(h, tg):
            coeffs[b], values[0][b] = block_coeffs, block_values

        def run(j, wait=_nothing, post=_nothing) -> float:
            return _picard_pass(h, values[j % len(values)], values[(j + 1) % len(values)], coeffs, model,
                                tg, truncated, cap, p, cylinders, wait, post)

        distances = []
        for d in _wavefront(run, max_iter, tol) if wide else map(run, range(max_iter)):
            distances.append(d)
            if d < tol:
                break
        result = values.pop(len(distances) % len(values))
        # a shared mapping stays shared with any later fork (a sample map's),
        # so the result is copied out, after the other buffers are freed
        del values[:], coeffs
        return (np.array(result) if wide else result), distances

    result = None
    if max_iter > 1 and _may_fork(8 * math.prod(shape)):
        with contextlib.suppress(Exception):  # rerun below, so that the error is the serial loop's
            result = solve(True)
    values, distances = result or solve(False)
    converged = bool(distances) and distances[-1] < tol
    report = ContractionReport(
        iterates=len(distances),
        distances=distances,
        theta_hat=_theta_hat(distances),
        converged=converged,
    )
    meta = {"scheme": "picard", "truncated": truncated, "delta": model.delta,
            "alpha": model.alpha.tolist(), "iterates": report.iterates, "converged": converged}
    return Trajectory(grid, tg, values, metadata=meta), report
