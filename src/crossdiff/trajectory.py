"""Time grids with dyadic refinement near t=0, and time-indexed states.

A Trajectory stores one species tuple per time node as a dense array of
shape (n_times, d, *grid.shape); a FluxTrajectory stores one vector field
per species per time node, shape (n_times, d, n, *grid.shape).
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fields import GridSpec, _abs_max, _check_finite, read_snapshot, write_snapshot

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
        h.update(self.values.tobytes())
        return h.hexdigest()[:12]

    def save(self, directory) -> Path:
        """Write manifest.json and one snapshot per node and species; from
        SPLIT_BYTES of values on, a forked child writes the second half of the
        nodes (_in_halves). The files are the same on either path."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "manifest.json").write_text(self.manifest_text())
        _in_halves(lambda nodes, _: _write_nodes(self, directory, nodes), len(self.tg),
                   self.values.nbytes)
        return directory

    @classmethod
    def load(cls, directory) -> "Trajectory":
        """Read a saved trajectory; every snapshot's header must give the
        manifest's n, N and time. From SPLIT_BYTES of values on, a forked
        child parses the second half of the nodes (_in_halves)."""
        directory = Path(directory)
        manifest = json.loads((directory / "manifest.json").read_text())
        grid = GridSpec(n=manifest["n"], N=manifest["N"])
        tg = TimeGrid(np.asarray(manifest["times"]))
        values = np.empty((len(tg), manifest["d"]) + grid.shape)
        _in_halves(lambda nodes, out: _read_nodes(directory, grid, tg, nodes, out), len(tg),
                   values.nbytes, values)
        return cls(grid, tg, values, metadata=manifest.get("metadata", {}))


# Work of at least this many bytes is split between this process and one
# forked child (_in_halves): trajectory save and load (the values' bytes) and
# a check's seeded samples (count x one sample's trajectory: times x species
# x nodes of float64). Formatting and parsing text, and the dozens of small
# numpy calls each sample makes per node, hold the GIL, so threads overlapped
# little (none on the 1-D suite); a fork, its wait and the copy-on-write
# faults after it cost milliseconds (about 11 ms around a sample map).
# Measured on 2 cores, medians of interleaved rounds:
# - save and load, serial -> split ms (7-9 rounds, 89 time nodes, d=3): 1-D
#   N=64 (0.13 MiB) save 46 -> 59, load 25 -> 37; 1-D N=128 (0.26 MiB) save
#   64 -> 71, load 36 -> 48; at 0.52 MiB mixed (2-D N=16 save 139 -> 143,
#   load 74 -> 62); from 1 MiB a clear gain: 1-D N=512 save 221 -> 170, load
#   129 -> 107, 2-D N=32 (2.1 MiB) save 388 -> 262, load 259 -> 157, 2-D
#   N=64 (8.3 MiB) save 1069 -> 580, load 784 -> 485.
# - whole checks, split over serial time (two runs of 9 interleaved pairs,
#   1-D, 89 time nodes, d=3): 20 maximal-regularity samples at 334 and 668
#   KiB 1.25-1.31, at 1.3 MiB 0.69-0.72, at 2.6 MiB 0.63-0.67; 20 Lipschitz
#   samples at 334 KiB-2.6 MiB 0.65-0.88; 10 stability pairs at 334 KiB-1.3
#   MiB 0.55-0.72; 2-4 samples of 33-534 KiB 1.19-2.63. From 1 MiB on every
#   check gains, and the 1-D suite's smallest map, 10 stability pairs of 134
#   KiB at N=64, splits.
SPLIT_BYTES = 1 << 20


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


def _in_halves(fill, count: int, nbytes: int, out: np.ndarray | None = None):
    """fill(range(count), out), where fill(items, rows) writes item items[j]
    into rows[j] (rows is None when out is). Items count//2.. run in a forked
    child once the count items take nbytes >= SPLIT_BYTES between them, on
    two or more usable cores, with no other thread alive (a fork copies only
    the calling thread, and any lock another thread holds stays held in the
    child) and where the platform can fork. The child writes its rows into an
    anonymous shared mapping, so nothing is pickled. A child that fails, or
    a fork that fails, has its half run again here, which raises what the
    serial path raises."""
    if (count < 2 or nbytes < SPLIT_BYTES or _usable_cores() < 2
            or threading.active_count() != 1 or not hasattr(os, "fork")):
        fill(range(count), out)
        return
    mid = count // 2
    head = tail = shared = None
    if out is not None:
        head, tail = out[:mid], out[mid:]
        shared = np.frombuffer(mmap.mmap(-1, tail.nbytes), out.dtype).reshape(tail.shape)
    try:
        pid = os.fork()
    except OSError:  # no process to be had: both halves run here
        pid = -1
    if pid == 0:
        # the parent redoes a failed half and raises its error itself, so
        # the child prints nothing; os._exit skips flushing the stdio
        # buffers it inherited, which the parent still holds
        status = 1
        try:
            fill(range(mid, count), shared)
            status = 0
        finally:
            os._exit(status)
    try:
        fill(range(mid), head)
    finally:
        done = pid > 0 and os.waitpid(pid, 0)[1] == 0
    if not done:
        fill(range(mid, count), tail)
    elif out is not None:
        tail[...] = shared


def _snapshot_path(directory: Path, k: int, i: int) -> Path:
    return directory / f"state_t{k:05d}_s{i}.txt"


def _write_nodes(traj: Trajectory, directory: Path, nodes: range):
    for k in nodes:
        t = float(traj.tg.times[k])
        for i in range(traj.d):
            write_snapshot(traj.values[k, i], traj.grid, t, _snapshot_path(directory, k, i))


def _read_nodes(directory: Path, grid: GridSpec, tg: TimeGrid, nodes: range, out: np.ndarray):
    """Read the snapshots of nodes into out, node nodes[j] into out[j]. A
    header whose n, N or time (bit for bit) differs from the manifest's
    raises a ValueError naming the file."""
    for j, k in enumerate(nodes):
        t_want = float(tg.times[k])
        for i in range(out.shape[1]):
            path = _snapshot_path(directory, k, i)
            values, got, t = read_snapshot(path)
            if got != grid or t.hex() != t_want.hex():
                raise ValueError(
                    f"snapshot {path} holds n={got.n} N={got.N} t={t!r}; "
                    f"the manifest gives n={grid.n} N={grid.N} t={t_want!r}"
                )
            out[j, i] = values


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
