"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads train_full dynamics_sweep --seeds 1-10

For every workload and end-to-end metric it prints the median, the first and
third quartiles (statistics.quantiles(values, n=4)) and the quartile distance
as a share of the median, next to the metric's bound from BENCHMARK.json.
With --out it also writes those figures as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else float("inf"), "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    report = {}
    for workload in workloads:
        runs = []
        for seed in seed_list(args.seeds):
            result, wall = one_run(workload, seed, spec["run_seconds"])
            runs.append(result)
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={result['correct']}, "
                  f"failed {result['failed']} of {result['attempted']}", flush=True)
        names = sorted(runs[0]["metrics"])
        report[workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {n: summarize([r["metrics"][n]["value"] for r in runs]) for n in names},
        }
        for name in names:
            s = report[workload]["metrics"][name]
            bound = bounds.get(name)
            flag = "" if bound is None else f" bound {bound:g}" + (
                "  OVER" if s["spread"] > bound else "  over 1/3" if s["spread"] > bound / 3
                else "")
            print(f"  {name:34s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.4f}{flag}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
