"""Paired benchmark runs of two checkouts, alternating which side runs first.

    python tests/ab_pairs.py --parent DIR --change DIR --label L [--seeds 1-10]
                             [--workloads train_full ... study_eval]

For each workload and seed it runs the workload once in each checkout, in a
fresh process on the checkout's src/ at one BLAS thread: the parent first in
each workload's even-numbered pairs and the change first in odd ones, so a
drift in the host's speed loads both sides alike.  The workloads default to
BENCHMARK.json's, each a `perfbench/run.py` run at its `run_seconds`.
`study_eval`, run when named, times one `runner.run_eval` at study size (200
items per subtask, a 64-scene retrieval table) of one checkpoint, trained
once per invocation by the first study run, a parent's: the default config
at seed 100, data seed 200 and eval seed 9000 after 12 steps.  It reports
`eval_pairs_per_s`, the cells scored over those seconds, its `peak_rss_mb`
and a digest of the report files it wrote; its pair judges its correctness.

It writes BENCH_<L>_parent.json and BENCH_<L>_change.json to the current
directory, in the layout of `perfbench/spread.py --out`, each metric
`summarize`d with its `values`, one per seed, in `--seeds` order.  Then, for
each workload and each end-to-end metric of BENCHMARK.json that it reports,
it prints the pairs in which the change is better, the median of the change
/ parent ratios, the parent's quartile distance as a share of its median and
the `verdict`.  It exits 1, after naming each case, when a verdict reads
`worse`, when a run of the change reads `correct: false` or has failed
operations, or when the two runs of a pair give different digests.  It is
run by hand: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from spread import seed_list, summarize  # noqa: E402

SIDES = ("parent", "change")
STUDY = "study_eval"
STUDY_CODE = """
import hashlib, json, resource, sys, tempfile, time
from pathlib import Path
from finegrain import runner
from finegrain.config import RunConfig
from finegrain.evalharness import default_manifest
config = RunConfig(seed=100, data_seed=200, eval_seed=9000, steps=12, cadence=3)
if sys.argv[1] == "train":
    runner.run_training(config, Path(sys.argv[2]))
    sys.exit()
manifest = default_manifest(eval_seed=config.eval_seed, per_subtask=200,
                            grid_size=config.patch_grid, retrieval_count=64)
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "eval"
    start = time.perf_counter()
    report = runner.run_eval(config, runner.checkpoint_path(Path(sys.argv[2]), config.steps),
                             out, manifest=manifest)
    seconds = time.perf_counter() - start
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(out)).encode() + b"\\0" + path.read_bytes())
cells = sum(rows.size for rows in report.cells.values()) + report.retrieval.size
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
print(json.dumps({"correct": True, "failed": 0, "attempted": cells, "digest": digest.hexdigest(),
                  "metrics": {"eval_pairs_per_s": {"value": cells / seconds},
                              "peak_rss_mb": {"value": rss_mb}}}))
"""
scratch = functools.cache(tempfile.TemporaryDirectory)  # holds the study's checkpoint


def child(checkout: Path, what: str, *args: str) -> str:
    """The stdout of `python args`, `what` for short, in a fresh process on `checkout`."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, *args], cwd=checkout, env=env,
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {what} failed ({proc.returncode}):\n{proc.stderr}")
    return proc.stdout


def one_run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """The result line of one run of `workload` in `checkout`; `seconds` is perfbench's."""
    args = [str(checkout / "perfbench" / "run.py"), "--workload", workload, "--seed",
            str(seed), "--seconds", str(seconds), "--trace", "0"]
    if workload == STUDY:
        args = ["-c", STUDY_CODE, "eval", str(Path(scratch().name) / "run")]
        if not os.path.exists(args[-1]):
            child(checkout, "the study's training", "-c", STUDY_CODE, "train", args[-1])
    return json.loads(child(checkout, f"{workload} seed {seed}", *args).splitlines()[-1])


def wins(parent: list[float], change: list[float], better: str) -> int:
    """The pairs, by index, in which the change is better; a tie counts for neither."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """How one end-to-end metric moved, from the runs of each side, paired by index.

    `gain`: there are at least 10 pairs, the change is better in at least 9 of
    10 of them, and its median is better than the parent's by more than the
    parent's quartile distance; fewer pairs are no claim, however they read.
    `worse`: the change's median is worse than the parent's by more than
    `bound`, a share of the parent's median.  `unresolved`: the parent's
    quartile distance, as a share of its median, is wider than `bound`, and not
    every change run is better than every parent run.  `within bound`: any
    other case.  `better` is "higher" or "lower", as in BENCHMARK.json.
    """
    sign = 1 if better == "higher" else -1
    base = summarize(parent)
    gap = sign * (statistics.median(change) - base["median"])
    if (len(parent) >= 10 and 10 * wins(parent, change, better) >= 9 * len(parent)
            and gap > base["q3"] - base["q1"]):
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
    seeds = seed_list(args.seeds)
    if len(seeds) < 2:
        parser.error(f"--seeds {args.seeds} needs at least two seeds, for quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    runs = {side: {w: [] for w in workloads} for side in SIDES}
    faults = []
    for workload in workloads:
        for pair, seed in enumerate(seeds):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                result = one_run(checkouts[side], workload, seed, spec["run_seconds"])
                runs[side][workload].append(result)
                print(f"{workload} seed {seed} {side}: correct={result['correct']}, "
                      f"failed {result['failed']} of {result['attempted']}", flush=True)
            parent, change = (runs[side][workload][-1] for side in SIDES)
            if not change["correct"] or change["failed"]:
                faults.append(f"{workload} seed {seed}: the change's run reads "
                              f"correct={change['correct']}, failed {change['failed']}")
            if change.get("digest") != parent.get("digest"):
                faults.append(f"{workload} seed {seed}: the two runs' report digests differ")
    if STUDY in workloads:
        scratch().cleanup()
    for side in SIDES:
        out = Path(f"BENCH_{args.label}_{side}.json")
        out.write_text(json.dumps({w: report(runs[side][w]) for w in workloads}, indent=1,
                                  sort_keys=True) + "\n", encoding="utf-8")
    for workload in workloads:
        print(f"{workload}: wins of the change, median change/parent, "
              "parent quartile distance, verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in runs["parent"][workload][0]["metrics"]:
                continue
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
