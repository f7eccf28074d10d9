"""In-memory span tracer for the crossdiff benchmark.

Spans come from wrapping crossdiff's public functions at every module
attribute their callers look up (``from .fields import to_coeffs`` binds a
separate name in each importing module), so no code under ``src/`` changes.
Counts come from return values and from the run directory. A wrapped name
that a later refactor removes is reported as missing instead of failing.
"""

from __future__ import annotations

import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def imex_substeps(times, dt: float) -> int:
    """Substeps ``imex_solve`` takes over a time grid: ceil(segment/dt) per segment."""
    return sum(max(1, math.ceil(float(seg) / dt - 1e-12)) for seg in np.diff(times))


def _dir_stats(directory) -> tuple[int, int]:
    files = [f for f in Path(directory).iterdir() if f.is_file()]
    return len(files), sum(f.stat().st_size for f in files)


def _count_substeps(tracer, args, result):
    dt = result.metadata.get("dt")
    if dt is None:
        tracer.missing.add("solver.imex.substeps (Trajectory.metadata['dt'])")
    else:
        tracer.count("solver.imex.substeps", imex_substeps(result.tg.times, dt))


def _count_iterations(tracer, args, result):
    tracer.count("solver.picard.iterations", result[1].iterates)


def _count_nodes(tracer, args, result):
    tracer.count("model.flux.nodes", len(result.tg))


def _count_cylinders(tracer, args, result):
    tracer.count("carleson.cylinders_scanned", result.cylinders_scanned)
    tracer.count("carleson.cylinders_skipped", result.cylinders_skipped)


def _count_transform_bytes(tracer, args, result):
    tracer.count("fields.transform_bytes", args[0].nbytes + result.nbytes)


def _count_saved(tracer, args, result):
    files, size = _dir_stats(result)
    tracer.count("trajectory.save.files", files)
    tracer.count("trajectory.save.bytes", size)


def _count_loaded(tracer, args, result):
    tracer.count("trajectory.load.bytes", _dir_stats(args[1])[1])


# (span name, defining module, attribute or Class.method, count hook, keep spans)
# Transforms run hundreds of thousands of times per pass, so they are
# aggregated into counts and times instead of being kept as single spans.
TARGETS = (
    ("solver.imex", "crossdiff.solver", "imex_solve", _count_substeps, True),
    ("solver.picard", "crossdiff.solver", "picard_solve", _count_iterations, True),
    ("model.flux", "crossdiff.model", "flux_trajectory", _count_nodes, True),
    ("semigroup.duhamel", "crossdiff.semigroup", "duhamel_solve", None, True),
    ("semigroup.heat_flow", "crossdiff.semigroup", "heat_flow_trajectory", None, True),
    ("carleson.scan", "crossdiff.carleson", "xp_seminorm", _count_cylinders, True),
    ("carleson.scan", "crossdiff.carleson", "yp_norm", _count_cylinders, True),
    ("trajectory.save", "crossdiff.trajectory", "Trajectory.save", _count_saved, True),
    ("trajectory.load", "crossdiff.trajectory", "Trajectory.load", _count_loaded, True),
    ("harness.verify", "crossdiff.harness", "verify_partition", None, True),
    ("harness.verify", "crossdiff.harness", "verify_nonnegativity", None, True),
    ("harness.verify", "crossdiff.harness", "verify_mass_conservation", None, True),
    ("harness.verify", "crossdiff.harness", "energy_identity_probe", None, True),
    ("fields.transform", "crossdiff.fields", "to_coeffs", _count_transform_bytes, False),
    ("fields.transform", "crossdiff.fields", "from_coeffs", _count_transform_bytes, False),
)


class Tracer:
    """Records spans (name, start, end, parent, workload) in memory and keeps,
    per span name, the call count, inclusive time and self time. Self time is
    a span's duration minus the durations of its direct children."""

    def __init__(self, workload: str, clock=time.perf_counter):
        self.workload = workload
        self.clock = clock
        self.active = False
        self.spans: list[tuple] = []
        self.missing: set[str] = set()
        self.reset()

    def reset(self):
        """Start a new pass: clear the per-name statistics and counters."""
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # open spans: [span id, seconds of children]

    def count(self, name: str, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _push(self, keep: bool) -> tuple[list, int | None, float]:
        parent = self._stack[-1][0] if self._stack else None
        frame = [len(self.spans) if keep else None, 0.0]
        if keep:
            self.spans.append(None)  # reserve the id; filled in by _pop
        self._stack.append(frame)
        return frame, parent, self.clock()

    def _pop(self, name: str, frame: list, parent, start: float):
        end = self.clock()
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += duration
        st[2] += duration - frame[1]
        if frame[0] is not None:
            self.spans[frame[0]] = (frame[0], name, start, end, parent, self.workload)

    def call(self, name: str, fn, args, kwargs, keep: bool = True):
        if not self.active:
            return fn(*args, **kwargs)
        frame, parent, start = self._push(keep)
        try:
            return fn(*args, **kwargs)
        finally:
            self._pop(name, frame, parent, start)

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        frame, parent, start = self._push(True)
        try:
            yield
        finally:
            self._pop(name, frame, parent, start)

    @contextmanager
    def paused(self):
        """Run benchmark-only work (output checks) without recording it."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def span_records(self) -> list[dict]:
        keys = ("id", "name", "start", "end", "parent", "workload")
        return [dict(zip(keys, s)) for s in self.spans if s is not None]


def _wrapper(tracer: Tracer, name: str, fn, hook, keep: bool):
    def traced(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs, keep)
        if hook is not None and tracer.active:
            hook(tracer, args, result)
        return result

    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every target at each crossdiff module attribute bound to it.
    Returns the patches for ``uninstall``; absent targets go to tracer.missing."""
    patches = []
    modules = [m for k, m in sys.modules.items() if k == "crossdiff" or k.startswith("crossdiff.")]
    for name, modname, attr, hook, keep in TARGETS:
        owner = sys.modules.get(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            raw = vars(cls).get(meth) if cls is not None else None
            if raw is None:
                tracer.missing.add(f"{name} ({modname}.{attr})")
                continue
            is_cm = isinstance(raw, classmethod)
            wrapped = _wrapper(tracer, name, raw.__func__ if is_cm else raw, hook, keep)
            setattr(cls, meth, classmethod(wrapped) if is_cm else wrapped)
            patches.append((cls, meth, raw))
            continue
        original = getattr(owner, attr, None)
        if original is None:
            tracer.missing.add(f"{name} ({modname}.{attr})")
            continue
        wrapped = _wrapper(tracer, name, original, hook, keep)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    patches.append((mod, key, original))
    return patches


def uninstall(patches: list[tuple]):
    for owner, key, original in reversed(patches):
        setattr(owner, key, original)
