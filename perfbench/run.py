"""Run one tfps benchmark workload and print its result as the last line of
standard output.

    python3 perfbench/run.py --workload train-reduced --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics. ``--size tiny`` shrinks every workload for the smoke
test. The program is imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train-paper", "train-reduced", "infer-analyze")
# OpenBLAS sizes its pool once, when NumPy loads it, so these must be set first.
# One thread: on a 2-vCPU machine a d_model=128 train step ran ~15% faster with
# two, but its run-to-run spread rose from 3% to 13-18% of the median.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "tfps" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no tfps sources under src/ or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    env, result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), args.size,
                                ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    measured = result["metrics"]
    if sorted(measured) != sorted(m["name"] for m in wanted):
        print(f"error: measured metrics {sorted(measured)} do not match BENCHMARK.json", file=sys.stderr)
        return 3
    result["metrics"] = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
