"""Periodic grids on the unit torus, spectral transforms and differentiation.

All fields live on uniform grids over [0,1)^n with n in {1,2}. Spectral
coefficients are stored in the numpy ``rfftn`` half-complex layout,
normalised so that ``coeffs[0,...,0]`` is the spatial mean; the field is
``f(x) = sum_k c_k exp(2*pi*i k.x)`` with ``c_{-k} = conj(c_k)`` implied.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "SpeciesVector",
    "make_grid",
    "gradient_from_coeffs",
    "divergence_from_coeffs",
    "spectral_gradient",
    "spectral_divergence",
    "check_kmax",
    "random_band_limited",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform N^n grid on the unit torus; nodes at x_j = j/N."""

    n: int
    N: int

    def __post_init__(self):
        if not all(isinstance(v, (int, np.integer)) for v in (self.n, self.N)):
            raise ValueError(f"grid sizes n and N must be integers, got n={self.n!r}, N={self.N!r}")
        if self.n not in (1, 2):
            raise ValueError(f"unsupported dimension n={self.n}; expected 1 or 2")
        if self.N < 8 or (self.N & (self.N - 1)) != 0:
            raise ValueError(f"N must be a power of two >= 8, got {self.N}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.n

    @property
    def num_nodes(self) -> int:
        return self.N**self.n

    def axes(self) -> tuple[np.ndarray, ...]:
        x = np.arange(self.N) / self.N
        return (x,) * self.n

    def meshgrid(self) -> list[np.ndarray]:
        return np.meshgrid(*self.axes(), indexing="ij")


def make_grid(n: int, N: int) -> GridSpec:
    return GridSpec(n=n, N=N)


@dataclass(frozen=True, eq=False)
class SpeciesVector:
    """The d species of a datum on one grid: values of shape (d, *grid.shape),
    d >= 1, checked once, copied and read-only. Equality and hash are by
    identity: nothing compares data by value."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 1 + self.grid.n or v.shape[1:] != self.grid.shape or not len(v):
            raise ValueError(f"values shape {v.shape} is not species x grid {self.grid.shape}")
        _check_finite(v, "species")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def d(self) -> int:
        return len(self.values)

    def sup_norm(self) -> float:
        return _abs_max(self.values)


def _abs_max(values: np.ndarray) -> float:
    # max |v| without the temporary np.abs(values) would allocate
    return float(np.maximum(values.max(), -values.min()))


def _check_finite(values: np.ndarray, kind: str):
    # min and max propagate NaN and show any infinity, and unlike
    # isfinite().all() they allocate no temporary the size of the values
    if values.size and not (np.isfinite(values.min()) and np.isfinite(values.max())):
        raise ValueError(f"{kind} values must be finite")


# -- spectral plumbing shared by the solver modules -------------------------


def rfft_shape(grid: GridSpec) -> tuple[int, ...]:
    return grid.shape[:-1] + (grid.N // 2 + 1,)


# numpy.fft takes out= from numpy 2.0 on
_FFT_OUT = np.lib.NumpyVersion(np.__version__) >= "2.0.0"


def to_coeffs(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Normalised rfftn over the trailing n axes (leading axes pass through).

    N is a power of two, so the 1/N^n of norm="forward" is exact: the result
    is bit for bit rfftn(values) / N^n, without its temporary. The transform
    is rfftn's own sequence of one-axis transforms (rfft on the last axis,
    then fft on the others), without the n-D wrapper's argument handling.
    """
    coeffs = np.fft.rfft(values, grid.N, axis=-1, norm="forward")
    for axis in range(-2, -1 - grid.n, -1):
        coeffs = np.fft.fft(coeffs, grid.N, axis=axis, norm="forward")
    return coeffs


def from_coeffs(coeffs: np.ndarray, grid: GridSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of to_coeffs, written into out (shape (..., *grid.shape)) when given.

    irfftn's sequence of one-axis transforms: ifft on the leading spatial
    axes, then irfft on the last.
    """
    for axis in range(-grid.n, -1):
        coeffs = np.fft.ifft(coeffs, grid.N, axis=axis, norm="forward")
    if out is None:
        return np.fft.irfft(coeffs, grid.N, axis=-1, norm="forward")
    if _FFT_OUT:
        return np.fft.irfft(coeffs, grid.N, axis=-1, norm="forward", out=out)
    out[...] = np.fft.irfft(coeffs, grid.N, axis=-1, norm="forward")
    return out


# Every streamed pass over time nodes (or over cylinder radii) takes at most
# this many bytes of its widest per-item array at a time, and at least one
# item. One call over a whole trajectory would hold several trajectory-sized
# temporaries at once; with this budget a 2-D flux trajectory at N=64 still
# goes one node per call, while a 1-D one needs one or two calls.
BLOCK_BYTES = 1 << 18


def index_blocks(count: int, item_bytes: int) -> list[slice]:
    """Runs of consecutive indices from 0 up to count, each holding at most
    BLOCK_BYTES (read at the call) at item_bytes per item, and at least one
    item per run."""
    step = max(1, BLOCK_BYTES // item_bytes)
    return [slice(k, k + step) for k in range(0, count, step)]


def frequencies(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Integer wavenumber array per axis, broadcastable over rfft_shape."""
    N, n = grid.N, grid.n
    full = np.fft.fftfreq(N, d=1.0 / N)
    half = np.arange(N // 2 + 1, dtype=float)
    if n == 1:
        return (half,)
    return (full[:, None], half[None, :])


@functools.lru_cache(maxsize=8)
def laplacian_symbol(grid: GridSpec) -> np.ndarray:
    """Multiplier -4*pi^2*|k|^2 of the Laplacian.

    Cached per grid; the returned array is shared, hence read-only.
    """
    ks = frequencies(grid)
    sym = -4.0 * math.pi**2 * sum(k**2 for k in ks)
    sym.flags.writeable = False
    return sym


@functools.lru_cache(maxsize=8)
def derivative_symbol(grid: GridSpec, axis: int) -> np.ndarray:
    """Multiplier 2*pi*i*k_axis with the Nyquist mode zeroed (keeps fields real).

    Cached per (grid, axis); the returned array is shared, hence read-only.
    """
    N = grid.N
    k = frequencies(grid)[axis].copy()
    k[np.abs(k) == N // 2] = 0.0
    sym = np.broadcast_to(2.0j * math.pi * k, rfft_shape(grid)).copy()
    sym.flags.writeable = False
    return sym


@functools.lru_cache(maxsize=8)
def dealias_keep_mask(grid: GridSpec) -> np.ndarray:
    """2/3-rule keep mask: True where |k_m| <= N//3 for every axis.

    Cached per grid; the returned array is shared, hence read-only.
    """
    cutoff = grid.N // 3
    keep = np.ones(rfft_shape(grid), dtype=bool)
    for k in frequencies(grid):
        keep &= np.broadcast_to(np.abs(k) <= cutoff, keep.shape)
    keep.flags.writeable = False
    return keep


def gradient_from_coeffs(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Nodal gradient of fields given by their to_coeffs coefficients.

    Shapes: (..., *rfft_shape(grid)) -> (..., n, *grid.shape); leading axes are
    a batch. Each component is transformed straight into one preallocated
    output, so no stacked copy of the gradient is made.
    """
    out = np.empty(coeffs.shape[: coeffs.ndim - grid.n] + (grid.n,) + grid.shape)
    spatial = (slice(None),) * grid.n
    for m in range(grid.n):
        from_coeffs(derivative_symbol(grid, m) * coeffs, grid, out=out[(..., m) + spatial])
    return out


def spectral_gradient(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Exact gradient of the band-limited interpolant of nodal fields.

    Shapes: (..., *grid.shape) -> (..., n, *grid.shape); leading axes are a batch.
    """
    return gradient_from_coeffs(to_coeffs(values, grid), grid)


def divergence_from_coeffs(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Spectral coefficients of the divergence of vector fields given by theirs.

    Shapes: (..., n, *rfft_shape(grid)) -> (..., *rfft_shape(grid)); leading
    axes are a batch. The mean mode is identically zero.
    """
    spatial = (slice(None),) * grid.n
    div = derivative_symbol(grid, 0) * coeffs[(..., 0) + spatial]
    for m in range(1, grid.n):
        div += derivative_symbol(grid, m) * coeffs[(..., m) + spatial]
    return div


def spectral_divergence(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Spectral coefficients of the divergence of nodal vector fields.

    Shapes: (..., n, *grid.shape) -> (..., *rfft_shape(grid)); leading axes are
    a batch. The mean mode is identically zero.
    """
    if values.shape[-1 - grid.n] != grid.n:
        raise ValueError(f"expected {grid.n} components, got {values.shape[-1 - grid.n]}")
    return divergence_from_coeffs(to_coeffs(values, grid), grid)


def check_kmax(grid: GridSpec, kmax: int) -> None:
    """Raise unless random_band_limited can draw the modes up to kmax on grid."""
    if kmax < 1 or kmax > grid.N // 2 - 1:
        raise ValueError(f"kmax must be in [1, N/2-1], got {kmax}")


def random_band_limited(
    grid: GridSpec,
    rng: np.random.Generator,
    kmax: int,
    amplitude: float = 1.0,
    mean: float = 0.0,
) -> np.ndarray:
    """Nodal values of a random real field supported on modes 0 < max|k_m| <= kmax.

    The draw order is fixed and independent of N, so the same (seed, kmax)
    yields the same continuum field on every grid resolution.
    """
    check_kmax(grid, kmax)
    coeffs = np.zeros(rfft_shape(grid), dtype=complex)
    scale = amplitude / (2.0 * math.sqrt(kmax))
    if grid.n == 1:
        z = rng.standard_normal((kmax, 2))
        coeffs[1:kmax + 1] = scale * (z[:, 0] + 1j * z[:, 1])
    else:
        N = grid.N
        # half-plane k2 > 0, plus the k2 = 0 column with k1 > 0, drawn in
        # C order of (k1, k2); that column needs its explicit axis-0
        # conjugate partner (the rfft layout only implies symmetry along the
        # last axis)
        k1, k2 = np.meshgrid(np.arange(-kmax, kmax + 1), np.arange(kmax + 1), indexing="ij")
        drawn = (k2 > 0) | (k1 > 0)
        k1, k2 = k1[drawn], k2[drawn]
        z = rng.standard_normal((k1.size, 2))
        c = scale * (z[:, 0] + 1j * z[:, 1]) / math.sqrt(2.0 * kmax)
        coeffs[k1 % N, k2] = c
        column = k2 == 0
        coeffs[-k1[column] % N, 0] = np.conj(c[column])
    coeffs[(0,) * grid.n] = mean
    return from_coeffs(coeffs, grid)
