"""Entry point of the crossdiff benchmark.

    python3 perfbench/run.py --workload {battery-1d,pipeline-2d,sweeps-2d,all} \
        [--seed 2024] [--seconds 20] [--trace 0|1]

It benchmarks the crossdiff sources in ``src/`` next to this directory and
exits with code 2 when they are not there. BLAS and OpenMP thread counts are
pinned to 1 before numpy is loaded.
"""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "crossdiff" / "__init__.py").is_file():
        print(f"crossdiff sources not found in {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import bench

    sys.exit(bench.main(sys.argv[1:]))
