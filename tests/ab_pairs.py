"""Paired benchmark runs of two checkouts, alternating which side runs first.

    python tests/ab_pairs.py --parent DIR --change DIR --label L [--seeds 1-10]
                             [--workloads train_full ...]

For each workload and seed it runs `perfbench/run.py` once in each checkout,
each from its own root, the parent first in even-numbered pairs and the
change first in odd ones, so a drift in the host's speed loads both sides
alike.  It writes BENCH_<L>_parent.json and BENCH_<L>_change.json to the
current directory, in the layout of `perfbench/spread.py --out`, with each
metric summarised by this checkout's `spread.summarize` and its `values`, one
per seed, in `--seeds` order.  Then it prints, for each workload and
end-to-end metric of this checkout's BENCHMARK.json, the pairs in which the
change is better, the median of the change / parent ratios, the parent's
quartile distance as a share of its median and the `verdict` on the two
sides' runs.  The workloads default to all of BENCHMARK.json's, at its
`run_seconds`.  It exits 1, after naming each case, when a verdict reads
`worse`, or when a run of the change reads `correct: false` or has failed
operations.  It is run by hand: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from spread import seed_list, summarize  # noqa: E402

SIDES = ("parent", "change")


def one_run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """The result line of one untraced run in `checkout`."""
    command = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed ({proc.returncode}):\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def wins(parent: list[float], change: list[float], better: str) -> int:
    """The pairs, by index, in which the change is better; a tie counts for neither."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """How one end-to-end metric moved, from the runs of each side, paired by index.

    `gain`: the change is better in at least 9 of 10 pairs, and its median is
    better than the parent's by more than the parent's quartile distance.
    `worse`: the change's median is worse than the parent's by more than
    `bound`, a share of the parent's median.  `unresolved`: the parent's
    quartile distance, as a share of its median, is wider than `bound`, and not
    every change run is better than every parent run.  `within bound`: any
    other case.  `better` is "higher" or "lower", as in BENCHMARK.json.
    """
    sign = 1 if better == "higher" else -1
    base = summarize(parent)
    gap = sign * (statistics.median(change) - base["median"])
    if 10 * wins(parent, change, better) >= 9 * len(parent) and gap > base["q3"] - base["q1"]:
        return "gain"
    if -gap > bound * abs(base["median"]):
        return "worse"
    if base["spread"] > bound and not all(sign * (c - p) > 0 for p in parent for c in change):
        return "unresolved"
    return "within bound"


def report(runs: list[dict]) -> dict:
    """One side's runs of a workload; each metric is `summarize`d, with its run values in order."""
    metrics = {}
    for name in sorted(runs[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in runs]
        metrics[name] = {**summarize(values), "values": values}
    return {"correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", nargs="+")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    runs = {side: {w: [] for w in workloads} for side in SIDES}
    faults = []
    pair = 0
    for workload in workloads:
        for seed in seed_list(args.seeds):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                result = one_run(checkouts[side], workload, seed, spec["run_seconds"])
                runs[side][workload].append(result)
                print(f"{workload} seed {seed} {side}: correct={result['correct']}, "
                      f"failed {result['failed']} of {result['attempted']}", flush=True)
                if side == "change" and (not result["correct"] or result["failed"]):
                    faults.append(f"{workload} seed {seed}: the change's run reads "
                                  f"correct={result['correct']}, failed {result['failed']}")
            pair += 1
    for side in SIDES:
        out = Path(f"BENCH_{args.label}_{side}.json")
        out.write_text(json.dumps({w: report(runs[side][w]) for w in workloads}, indent=1,
                                  sort_keys=True) + "\n", encoding="utf-8")
    for workload in workloads:
        print(f"{workload}: wins of the change, median change/parent, "
              "parent quartile distance, verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent, change = ([r["metrics"][name]["value"] for r in runs[side][workload]]
                              for side in SIDES)
            won = wins(parent, change, metric["better"])
            ratio = statistics.median(c / p for p, c in zip(parent, change) if p)
            spread = summarize(parent)["spread"]
            moved = verdict(parent, change, metric["better"], metric["bound"])
            print(f"  {name:20s} {won:2d}/{len(parent)}  {ratio:.4f}  {spread:.4f}  {moved}",
                  flush=True)
            if moved == "worse":
                faults.append(f"{workload} {name}: worse")
    for fault in faults:
        print(f"FAIL {fault}", flush=True)
    return 1 if faults else 0


if __name__ == "__main__":
    raise SystemExit(main())
