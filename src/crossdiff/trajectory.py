"""Time grids with dyadic refinement near t=0, and time-indexed states.

A Trajectory stores one species tuple per time node as a dense array of
shape (n_times, d, *grid.shape); a FluxTrajectory stores one vector field
per species per time node, shape (n_times, d, n, *grid.shape).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fields import GridSpec, _abs_max, _check_finite

__all__ = ["TimeGrid", "Trajectory", "FluxTrajectory", "trajectory_difference"]


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing output times, times[0] = 0, times[-1] = t_end."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("time grid needs at least two nodes")
        if t[0] != 0.0:
            raise ValueError("time grid must start at 0")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def __len__(self) -> int:
        return self.times.size

    @classmethod
    def dyadic(cls, t_end: float, levels: int = 10, steps_per_level: int = 8) -> "TimeGrid":
        """Dyadic clustering near t = 0: m uniform steps inside every window
        [2^-(j+1) t_end, 2^-j t_end], plus m steps on the initial [0, 2^-L t_end]."""
        if t_end <= 0:
            raise ValueError("t_end must be positive")
        if levels < 1 or steps_per_level < 1:
            raise ValueError("levels and steps_per_level must be >= 1")
        bounds = [0.0] + [t_end * 2.0 ** (-j) for j in range(levels, -1, -1)]
        pieces = [np.array([0.0])]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            pieces.append(np.linspace(lo, hi, steps_per_level + 1)[1:])
        return cls(np.concatenate(pieces))


@dataclass(eq=False)
class Trajectory:
    """Species states aligned one-to-one with tg.times."""

    grid: GridSpec
    tg: TimeGrid
    values: np.ndarray  # (n_times, d, *grid.shape)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if (
            v.ndim != 2 + self.grid.n
            or v.shape[0] != len(self.tg)
            or v.shape[2:] != self.grid.shape
        ):
            raise ValueError(f"values shape {v.shape} does not match times x species x grid")
        _check_finite(v, "trajectory")
        self.values = v

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def sup_norm(self) -> float:
        return _abs_max(self.values)

    def species_means(self) -> np.ndarray:
        """Per-time, per-species spatial mean, shape (n_times, d)."""
        axes = tuple(range(2, 2 + self.grid.n))
        return self.values.mean(axis=axes)

    # -- persistence ---------------------------------------------------------

    def manifest_dict(self) -> dict:
        return {
            "n": self.grid.n,
            "N": self.grid.N,
            "d": self.d,
            "times": [float(t) for t in self.tg.times],
            "metadata": _jsonable(self.metadata),
        }

    def manifest_text(self) -> str:
        return json.dumps(self.manifest_dict(), indent=2, sort_keys=True)

    def manifest_hash(self) -> str:
        return hashlib.sha256(self.manifest_text().encode()).hexdigest()[:12]

    def content_hash(self) -> str:
        """Hash of the manifest and the values: it names the data, not only
        the times and metadata."""
        h = hashlib.sha256(self.manifest_text().encode())
        h.update(np.ascontiguousarray(self.values))
        return h.hexdigest()[:12]

    def save(self, directory) -> Path:
        """Write manifest.json and the values, C order, as values.npy."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "manifest.json").write_text(self.manifest_text())
        np.save(directory / "values.npy", self.values, allow_pickle=False)
        return directory

    @classmethod
    def load(cls, directory) -> "Trajectory":
        """Read a saved trajectory. values.npy must hold finite float64 of
        shape (times, d, *grid.shape) from the manifest; any other array, or
        a manifest without one of those keys, raises a ValueError naming the
        file."""
        directory = Path(directory)
        path = directory / "manifest.json"
        manifest = json.loads(path.read_text())
        try:
            grid = GridSpec(n=manifest["n"], N=manifest["N"])
            tg = TimeGrid(np.asarray(manifest["times"]))
            shape = (len(tg), manifest["d"]) + grid.shape
        except KeyError as exc:
            raise ValueError(f"{path} lacks the key {exc}") from None
        path = directory / "values.npy"
        try:
            values = np.load(path, allow_pickle=False)
        except (ValueError, EOFError) as exc:  # not an npy file, or a cut one
            raise ValueError(f"{path}: {exc}") from None
        if values.dtype != np.float64 or values.shape != shape:
            raise ValueError(f"{path} holds {values.dtype} of shape {values.shape}; "
                             f"the manifest gives float64 of shape {shape}")
        _check_finite(values, str(path))
        return cls(grid, tg, values, metadata=manifest.get("metadata", {}))


@dataclass(eq=False)
class FluxTrajectory:
    """Divergence-form fluxes F_i(t, .) per species, aligned with tg.times."""

    grid: GridSpec
    tg: TimeGrid
    values: np.ndarray  # (n_times, d, n, *grid.shape)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 3 + self.grid.n or v.shape[0] != len(self.tg) or v.shape[2] != self.grid.n:
            raise ValueError(f"flux shape {v.shape} does not match times x species x n x grid")
        if v.shape[3:] != self.grid.shape:
            raise ValueError(f"flux shape {v.shape} does not match grid {self.grid.shape}")
        _check_finite(v, "flux")
        self.values = v

    @property
    def d(self) -> int:
        return self.values.shape[1]


def vector_magnitudes(vectors: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Euclidean norm over axis 2 of (n_times, d, n, *shape) vector fields,
    written into out (shape (n_times, d, *shape)) when given.

    The squares are summed in place, one component at a time, so no
    temporary the size of the vectors is made; for n <= 2 the result is bit
    for bit np.sqrt((vectors**2).sum(axis=2)).
    """
    out = np.square(vectors[:, :, 0], out=out)
    for m in range(1, vectors.shape[2]):
        out += np.square(vectors[:, :, m])
    return np.sqrt(out, out=out)


def trajectory_difference(a: Trajectory, b: Trajectory) -> Trajectory:
    if a.grid != b.grid or len(a.tg) != len(b.tg) or not np.array_equal(a.tg.times, b.tg.times):
        raise ValueError("trajectories must share grid and time grid")
    return Trajectory(a.grid, a.tg, a.values - b.values, metadata={"kind": "difference"})


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj
