"""Measurement loop and report of the crossdiff benchmark; see README.md
beside this file. ``run.py`` pins the thread counts and calls ``main``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import crossdiff
import tracer as tr
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "checks_total": "count"}
TIMED_SPANS = (
    "solver.imex", "solver.picard", "model.flux", "semigroup.duhamel", "semigroup.heat_flow",
    "carleson.scan", "trajectory.save", "trajectory.load",
)
COUNTERS = (
    ("solver.imex.substeps", "count"), ("solver.picard.iterations", "count"),
    ("model.flux.nodes", "count"), ("carleson.cylinders_scanned", "count"),
    ("carleson.cylinders_skipped", "count"), ("trajectory.save.bytes", "B"),
    ("trajectory.save.files", "count"), ("trajectory.load.bytes", "B"),
    ("fields.transform_bytes", "B_computed"),
)


@dataclasses.dataclass
class PassResult:
    traced: bool
    phases: dict[str, float]  # seconds per phase
    checks: list[wl.Check]
    key_outputs: dict

    @property
    def wall(self) -> float:
        return sum(self.phases.values())


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return scale * total / count if count else 0.0


def layer_metrics(stats: dict, counters: dict, phases: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass as name -> (value, unit). Layers
    a workload does not reach report 0."""
    m = {}
    for group, _ in wl.BATTERY_GROUPS:
        m[f"harness.group.{group}_s"] = (phases.get(f"harness.group.{group}", 0.0), "s")
    m["harness.verify_s"] = (stats.get("harness.verify", (0, 0.0, 0.0))[1], "s")
    m["pipeline.solve_cmd_s"] = (phases.get("pipeline.solve_cmd", 0.0), "s")
    m["pipeline.inspect_cmd_s"] = (phases.get("pipeline.inspect_cmd", 0.0), "s")
    for span in TIMED_SPANS:
        calls, incl, self_s = stats.get(span, (0, 0.0, 0.0))
        m[f"{span}.calls"] = (calls, "count")
        m[f"{span}.s"] = (incl, "s")
        m[f"{span}.self_s"] = (self_s, "s")
    calls, incl, _ = stats.get("fields.transform", (0, 0.0, 0.0))
    m["fields.transforms"] = (calls, "count")
    m["fields.transform.s"] = (incl, "s")
    for name, unit in COUNTERS:
        m[name] = (counters.get(name, 0), unit)
    m["solver.imex.us_per_substep"] = (
        _per(m["solver.imex.s"][0], m["solver.imex.substeps"][0], 1e6), "us")
    m["solver.picard.s_per_iter"] = (
        _per(m["solver.picard.s"][0], m["solver.picard.iterations"][0]), "s")
    m["model.flux.us_per_node"] = (_per(m["model.flux.s"][0], m["model.flux.nodes"][0], 1e6), "us")
    return m


def fingerprint(result: PassResult) -> str:
    """Hash of every check value and key output, exact to the last bit."""
    items = [(name, float(v).hex()) for name, v, _ in result.checks]
    items += [(k, float(v).hex()) for k, v in sorted(result.key_outputs.items())]
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()[:16]


def _import_seconds() -> float:
    """Time to import crossdiff in a fresh interpreter, as a user pays it."""
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); t = time.perf_counter(); "
            "import crossdiff; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    return float(out.stdout)


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "thread_pins": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(),
        "crossdiff": crossdiff.__version__,
        "seed": seed,
    }


def run(workload: wl.Workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Run passes of one workload until `seconds` have elapsed. Untraced runs
    give the end-to-end metrics. A traced run alternates untraced and traced
    passes and gives the per-layer metrics and the tracing overhead."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = workload.config(seed)
    import_s = [_import_seconds() for _ in range(SETUP_REPEATS)]
    tracer = tr.Tracer(workload.name)
    prepare_s, passes, layers = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        setup = wl.prepare(cfg)
        prepare_s.append(time.perf_counter() - t0)
        traced = trace and len(passes) % 2 == 1
        patches = []
        if traced:
            tracer.reset()
            patches = tr.install(tracer)
            tracer.active = True
        timer = wl.PhaseTimer(tracer)
        try:
            checks, keys = workload.run_pass(setup, timer, out_dir)
        finally:
            tracer.active = False
            tr.uninstall(patches)
        del setup
        passes.append(PassResult(traced, timer.phases, checks, keys))
        if traced:
            layers.append(layer_metrics(tracer.stats, tracer.counters, timer.phases))
        if time.perf_counter() - start >= seconds and (not trace or len(passes) >= 2):
            break
    while len(prepare_s) < SETUP_REPEATS:
        t0 = time.perf_counter()
        wl.prepare(cfg)
        prepare_s.append(time.perf_counter() - t0)

    def median_wall(traced: bool) -> float:
        return statistics.median(p.wall for p in passes if p.traced == traced)

    if trace:
        metrics = {name: (statistics.median(s[name][0] for s in layers), unit)
                   for name, (_, unit) in layers[0].items()}
        metrics["trace.overhead_s"] = (median_wall(True) - median_wall(False), "s")
    else:
        metrics = {
            "setup_s": statistics.median(import_s) + statistics.median(prepare_s),
            "wall_s": median_wall(False),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "checks_total": len(passes[0].checks),
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    prints = [fingerprint(p) for p in passes]
    all_checks = [c for p in passes for c in p.checks]
    failed = sum(not ok for _, _, ok in all_checks)
    record = {
        "workload": workload.name,
        "trace": int(trace),
        "environment": environment(seed),
        "config": cfg.to_text(),
        "import_s": import_s,
        "prepare_s": prepare_s,
        "passes": [{**dataclasses.asdict(p), "wall_s": p.wall, "fingerprint": fp}
                   for p, fp in zip(passes, prints)],
        "fingerprint": prints[0],
        "repeats_bit_identical": len(set(prints)) == 1,
        "missing": sorted(tracer.missing),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "spans": tracer.span_records(),
        "result": {"correct": failed == 0, "attempted": len(all_checks), "failed": failed},
    }
    path = out_dir / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1))
    record["path"] = str(path)
    return record


def _report(record: dict):
    for p in record["passes"]:
        for name, value, ok in p["checks"]:
            if not ok:
                print(f"FAILED check: {name} = {value!r}")
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fingerprint {record['fingerprint']} "
          f"repeats_bit_identical={record['repeats_bit_identical']} "
          f"passes={len(record['passes'])}")
    if record["missing"]:
        print("missing: " + ", ".join(record["missing"]))
    print(f"record written to {record['path']}")
    print(json.dumps({**record["result"], "metrics": record["metrics"]}))


def run_all(args) -> int:
    """Run every workload, each in a fresh process, and print a table."""
    status = 0
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"{name:12s} exited with code {proc.returncode}")
            status = 1
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        for metric, m in res["metrics"].items():
            print(f"{name:12s} {metric:34s} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:12s} {'checks_failed':34s} {res['failed']:>14d} count "
              f"(of {res['attempted']} attempted)")
        status |= 0 if res["correct"] else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="crossdiff benchmark")
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(args)
    record = run(wl.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), OUT)
    _report(record)
    return 0
