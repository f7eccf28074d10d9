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

from .fields import GridSpec, ScalarField, SpeciesVector, read_snapshot, write_snapshot

__all__ = ["TimeGrid", "Trajectory", "FluxTrajectory", "trajectory_difference"]


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing output times, times[0] = 0, times[-1] = t_end."""

    times: np.ndarray
    levels: int | None = None
    steps_per_level: int | None = None

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
        return cls(np.concatenate(pieces), levels=levels, steps_per_level=steps_per_level)

    @classmethod
    def uniform(cls, t_end: float, steps: int) -> "TimeGrid":
        if t_end <= 0 or steps < 1:
            raise ValueError("need t_end > 0 and steps >= 1")
        return cls(np.linspace(0.0, t_end, steps + 1))


@dataclass
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
        self.values = v

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def state(self, k: int) -> SpeciesVector:
        return SpeciesVector.from_array(self.grid, self.values[k])

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

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
            "levels": self.tg.levels,
            "steps_per_level": self.tg.steps_per_level,
            "metadata": _jsonable(self.metadata),
        }

    def manifest_text(self) -> str:
        return json.dumps(self.manifest_dict(), indent=2, sort_keys=True)

    def manifest_hash(self) -> str:
        return hashlib.sha256(self.manifest_text().encode()).hexdigest()[:12]

    def save(self, directory) -> Path:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "manifest.json").write_text(self.manifest_text())
        for k, t in enumerate(self.tg.times):
            for i in range(self.d):
                f = ScalarField(self.grid, self.values[k, i])
                write_snapshot(f, float(t), directory / f"state_t{k:05d}_s{i}.txt")
        return directory

    @classmethod
    def load(cls, directory) -> "Trajectory":
        directory = Path(directory)
        manifest = json.loads((directory / "manifest.json").read_text())
        grid = GridSpec(n=manifest["n"], N=manifest["N"])
        tg = TimeGrid(
            np.asarray(manifest["times"]),
            levels=manifest.get("levels"),
            steps_per_level=manifest.get("steps_per_level"),
        )
        d = manifest["d"]
        values = np.empty((len(tg), d) + grid.shape)
        for k in range(len(tg)):
            for i in range(d):
                f, _ = read_snapshot(directory / f"state_t{k:05d}_s{i}.txt")
                values[k, i] = f.values
        return cls(grid, tg, values, metadata=manifest.get("metadata", {}))


@dataclass
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
        self.values = v

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def magnitudes(self) -> np.ndarray:
        """Euclidean |F| per (time, species), shape (n_times, d, *grid.shape)."""
        return np.sqrt((self.values**2).sum(axis=2))


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
