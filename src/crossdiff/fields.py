"""Periodic grids on the unit torus, spectral transforms and differentiation.

All fields live on uniform grids over [0,1)^n with n in {1,2}. Spectral
coefficients are stored in the numpy ``rfftn`` half-complex layout,
normalised so that ``coeffs[0,...,0]`` is the spatial mean; the field is
``f(x) = sum_k c_k exp(2*pi*i k.x)`` with ``c_{-k} = conj(c_k)`` implied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "ScalarField",
    "SpeciesVector",
    "make_grid",
    "spectral_gradient",
    "spectral_divergence",
    "random_band_limited",
    "write_snapshot",
    "read_snapshot",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform N^n grid on the unit torus; nodes at x_j = j/N."""

    n: int
    N: int

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"unsupported dimension n={self.n}; expected 1 or 2")
        if self.N < 8 or (self.N & (self.N - 1)) != 0:
            raise ValueError(f"N must be a power of two >= 8, got {self.N}")

    @property
    def spacing(self) -> float:
        return 1.0 / self.N

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


@dataclass(frozen=True)
class ScalarField:
    """One real scalar quantity sampled at the grid nodes."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, grid: GridSpec, c: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(c)))

    @classmethod
    def from_function(cls, grid: GridSpec, fn) -> "ScalarField":
        return cls(grid, np.asarray(fn(*grid.meshgrid()), dtype=float))

    def mean(self) -> float:
        return float(np.mean(self.values))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass(frozen=True)
class SpeciesVector:
    """Tuple of d scalar fields on one common grid."""

    fields: tuple[ScalarField, ...]

    def __post_init__(self):
        fields = tuple(self.fields)
        if not fields:
            raise ValueError("species vector must contain at least one field")
        grid = fields[0].grid
        if any(f.grid != grid for f in fields):
            raise ValueError("all species must share one grid")
        object.__setattr__(self, "fields", fields)

    @property
    def d(self) -> int:
        return len(self.fields)

    @property
    def grid(self) -> GridSpec:
        return self.fields[0].grid

    @classmethod
    def from_array(cls, grid: GridSpec, values: np.ndarray) -> "SpeciesVector":
        values = np.asarray(values, dtype=float)
        return cls(tuple(ScalarField(grid, values[i]) for i in range(values.shape[0])))

    def stack(self) -> np.ndarray:
        return np.stack([f.values for f in self.fields])

    def sup_norm(self) -> float:
        return max(f.sup_norm() for f in self.fields)

    def total(self) -> ScalarField:
        return ScalarField(self.grid, self.stack().sum(axis=0))


# -- spectral plumbing shared by the solver modules -------------------------


def rfft_shape(grid: GridSpec) -> tuple[int, ...]:
    return grid.shape[:-1] + (grid.N // 2 + 1,)


def to_coeffs(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Normalised rfftn over the trailing n axes (leading axes pass through)."""
    axes = tuple(range(values.ndim - grid.n, values.ndim))
    return np.fft.rfftn(values, axes=axes) / grid.num_nodes


def from_coeffs(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    axes = tuple(range(coeffs.ndim - grid.n, coeffs.ndim))
    return np.fft.irfftn(coeffs * grid.num_nodes, s=grid.shape, axes=axes)


def frequencies(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Integer wavenumber array per axis, broadcastable over rfft_shape."""
    N, n = grid.N, grid.n
    full = np.fft.fftfreq(N, d=1.0 / N)
    half = np.arange(N // 2 + 1, dtype=float)
    if n == 1:
        return (half,)
    return (full[:, None], half[None, :])


def laplacian_symbol(grid: GridSpec) -> np.ndarray:
    ks = frequencies(grid)
    k2 = sum(k**2 for k in ks)
    return -4.0 * math.pi**2 * k2


def derivative_symbol(grid: GridSpec, axis: int) -> np.ndarray:
    """Multiplier 2*pi*i*k_axis with the Nyquist mode zeroed (keeps fields real)."""
    N = grid.N
    k = frequencies(grid)[axis].copy()
    k[np.abs(k) == N // 2] = 0.0
    return np.broadcast_to(2.0j * math.pi * k, rfft_shape(grid)).copy()


def dealias_keep_mask(grid: GridSpec) -> np.ndarray:
    """2/3-rule keep mask: True where |k_m| <= N//3 for every axis."""
    cutoff = grid.N // 3
    keep = np.ones(rfft_shape(grid), dtype=bool)
    for k in frequencies(grid):
        keep &= np.broadcast_to(np.abs(k) <= cutoff, keep.shape)
    return keep


def spectral_gradient(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Exact gradient of the band-limited interpolant of nodal fields.

    Shapes: (..., *grid.shape) -> (..., n, *grid.shape); leading axes are a batch.
    """
    chat = to_coeffs(values, grid)
    comps = [from_coeffs(derivative_symbol(grid, m) * chat, grid) for m in range(grid.n)]
    return np.stack(comps, axis=-1 - grid.n)


def spectral_divergence(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Spectral coefficients of the divergence of nodal vector fields.

    Shapes: (..., n, *grid.shape) -> (..., *rfft_shape(grid)); leading axes are
    a batch. The mean mode is identically zero.
    """
    if values.shape[-1 - grid.n] != grid.n:
        raise ValueError(f"expected {grid.n} components, got {values.shape[-1 - grid.n]}")
    fhat = to_coeffs(values, grid)
    spatial = (slice(None),) * grid.n
    return sum(derivative_symbol(grid, m) * fhat[(..., m) + spatial] for m in range(grid.n))


def random_band_limited(
    grid: GridSpec,
    rng: np.random.Generator,
    kmax: int,
    amplitude: float = 1.0,
    mean: float = 0.0,
) -> ScalarField:
    """Random real field supported on modes 0 < max|k_m| <= kmax.

    The draw order is fixed and independent of N, so the same (seed, kmax)
    yields the same continuum field on every grid resolution.
    """
    if kmax < 1 or kmax > grid.N // 2 - 1:
        raise ValueError(f"kmax must be in [1, N/2-1], got {kmax}")
    coeffs = np.zeros(rfft_shape(grid), dtype=complex)
    scale = amplitude / (2.0 * math.sqrt(kmax))
    if grid.n == 1:
        for k in range(1, kmax + 1):
            a, b = rng.standard_normal(2)
            coeffs[k] = scale * (a + 1j * b)
    else:
        N = grid.N
        # half-plane k2 > 0, plus the k2 = 0 column with k1 > 0; that column
        # needs its explicit axis-0 conjugate partner (the rfft layout only
        # implies symmetry along the last axis)
        for k1 in range(-kmax, kmax + 1):
            for k2 in range(0, kmax + 1):
                if k2 == 0 and k1 <= 0:
                    continue
                a, b = rng.standard_normal(2)
                c = scale * (a + 1j * b) / math.sqrt(2.0 * kmax)
                coeffs[k1 % N, k2] = c
                if k2 == 0:
                    coeffs[(-k1) % N, 0] = np.conj(c)
    coeffs[(0,) * grid.n] = mean
    return ScalarField(grid, from_coeffs(coeffs, grid))


# -- snapshot text format ----------------------------------------------------


def write_snapshot(field: ScalarField, t: float, path):
    """Columnar text snapshot: header '# n N t', one row 'x_1 .. x_n value' per node."""
    grid = field.grid
    coords = grid.meshgrid()
    flat = [c.ravel() for c in coords] + [field.values.ravel()]
    with open(path, "w") as fh:
        fh.write(f"# {grid.n} {grid.N} {t:.17g}\n")
        for row in zip(*flat):
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def read_snapshot(path) -> tuple[ScalarField, float]:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != "#":
            raise ValueError(f"bad snapshot header in {path}")
        n, N, t = int(header[1]), int(header[2]), float(header[3])
        data = np.loadtxt(fh, ndmin=2)
    grid = GridSpec(n=n, N=N)
    values = data[:, -1].reshape(grid.shape)
    return ScalarField(grid, values), t
