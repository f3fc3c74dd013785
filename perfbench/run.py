"""Benchmark entry point: one run of one workload, as one JSON line.

    python3 perfbench/run.py --workload train_full --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Starts bench.py in a fresh child process
with a fixed BLAS thread count, relays its report lines and prints, as the
last line, {"correct", "attempted", "failed", "metrics"}.  Exits non-zero
without a result if the child fails (for example when src/finegrain is
missing).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"

# One BLAS thread: every matrix here is at most a few hundred rows, and the
# same setting must hold on both sides of a comparison.
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs as its seed slot's reference")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "finegrain").is_dir():
        print(f"no finegrain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)
    result_path = RUNS / f"{args.workload}.result.json"
    result_path.unlink(missing_ok=True)
    command = [sys.executable, str(HERE / "bench.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--result", str(result_path)]
    if args.write_reference:
        command.append("--write-reference")
    try:
        proc = subprocess.run(command, env=child_env(), cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"benchmark child exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    if proc.returncode != 0 or not result_path.exists():
        print(f"benchmark child failed with exit code {proc.returncode}", file=sys.stderr)
        return proc.returncode or 3
    result = json.loads(result_path.read_text(encoding="utf-8"))
    for line in result.pop("info"):
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
