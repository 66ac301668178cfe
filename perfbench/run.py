"""Run the flowstyle benchmark.

    python3 perfbench/run.py --workload stylize-adain-256 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

One workload runs in this process; ``--workload all`` runs each workload
in its own process, one after another. Output: the environment, one
line per metric (name, value, unit), and as the last line a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Trace 0
reports the end-to-end metrics, trace 1 the per-layer metrics. See
perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("stylize-adain-256", "leak-64", "train-32", "train-tiny")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0, help="summed op time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def use_repo_sources() -> None:
    """Pin BLAS threads and put the checkout's ``src`` first on the path.

    BLAS reads the thread variables when numpy loads, so this runs before
    any import of numpy: no more BLAS threads than usable cores.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(ROOT / "src"))


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def run_one(args) -> int:
    import harness
    import tracing
    import workloads

    workload = workloads.paper_workloads()[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    result = harness.measure(workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    print(f"env {json.dumps(environment(args.seed))}")
    specs = tracing.PER_LAYER if args.trace else harness.END_TO_END
    for name, unit, better in specs:
        value, _ = result.metrics[name]
        print(f"{args.workload}  {name:34s} {value:14.6g} {unit:8s} ({better} is better)")
    print(f"{args.workload}  ops {result.attempted}  ops_failed {result.failed}")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()
                },
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; the last line merges their results
    with metrics named ``<workload>.<metric>``."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "flowstyle" / "__init__.py").is_file():
        print(f"error: no flowstyle sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    use_repo_sources()
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
