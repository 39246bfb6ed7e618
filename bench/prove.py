"""Run the benchmark repeatedly and report how steady each metric is.

    python3 bench/prove.py [--runs 10] [--seed0 1] [--workloads a,b] [--trace]
                           [--out FILE]

For each workload this runs ``bench/run.py`` once per seed (seed0, seed0+1,
...) with the ``run_seconds`` of BENCHMARK.json, and prints for every
end-to-end metric the median, the quartiles and the spread (interquartile
distance over the median) next to the metric's bound.  With ``--trace`` it
adds one traced run per workload for the per-layer figures.  ``--out``
writes everything, with the machine facts, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import spans  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - t0
    return result


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"machine": machine(), "run_seconds": bench["run_seconds"],
              "layer_moves": {name: spans.moves(name) for name in spans.LAYER_UNITS},
              "layer_unmoved": spans.UNMOVED, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, args.seed0 + i, bench["run_seconds"], 0)
                for i in range(args.runs)]
        entry = {"seeds": [args.seed0 + i for i in range(args.runs)],
                 "elapsed_s": [r["elapsed_s"] for r in runs],
                 "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs], "metrics": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            entry["metrics"][name] = dict(spread(values), values=values, bound=bound)
            s = entry["metrics"][name]
            flag = "" if s["spread"] <= bound / 3 else "  > bound/3"
            print(f"{workload:<13} {name:<14} median {s['median']:<10.4g} "
                  f"q1 {s['q1']:<10.4g} q3 {s['q3']:<10.4g} spread {s['spread']:.3f} "
                  f"(bound {bound}){flag}", flush=True)
        if args.trace:
            traced = run_once(workload, args.seed0, bench["run_seconds"], 1)
            entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
