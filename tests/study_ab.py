"""Study-size scoring of one checkpoint in two checkouts, alternating which side runs first.

    python tests/study_ab.py --parent DIR --change DIR [--pairs 10]

It trains the default config at seed 100, data seed 200 and eval seed 9000
for 12 steps with the parent's sources, once.  Then, in each of `--pairs`
pairs, it runs `runner.run_eval` of the last checkpoint at study size (200
items per subtask and a 64-scene retrieval table) in a fresh process of each
checkout, from its own src/, at one BLAS thread: the parent first in
even-numbered pairs and the change first in odd ones, so a drift in the
host's speed loads both sides alike.  Each child times its `run_eval` and
reports its own peak resident set size.  It prints each run, then each
side's median seconds per checkpoint and median peak RSS, and the pairs in
which the change is faster.  The two sides' eval reports must be equal
byte for byte; it exits 1 if they are not.  It is run by hand: pytest does
not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
CONFIG = "RunConfig(seed=100, data_seed=200, eval_seed=9000, steps=12, cadence=3)"
STUDY = ("default_manifest(eval_seed=config.eval_seed, per_subtask=200, "
         "grid_size=config.patch_grid, retrieval_count=64)")

TRAIN = f"""
import sys
from pathlib import Path
from finegrain import runner
from finegrain.config import RunConfig
config = {CONFIG}
runner.run_training(config, Path(sys.argv[1]))
"""

EVAL = f"""
import json, resource, sys, time
from pathlib import Path
from finegrain import runner
from finegrain.config import RunConfig
from finegrain.evalharness import default_manifest
config = {CONFIG}
manifest = {STUDY}
checkpoint = runner.checkpoint_path(Path(sys.argv[1]), config.steps)
start = time.perf_counter()
runner.run_eval(config, checkpoint, Path(sys.argv[2]), manifest=manifest)
seconds = time.perf_counter() - start
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
print(json.dumps({{"seconds": seconds, "rss_mb": rss_mb}}))
"""


def child(checkout: Path, code: str, *args: Path) -> str:
    """The stdout of `code` run in a fresh interpreter on `checkout`'s sources."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], cwd=checkout,
                          env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: child failed ({proc.returncode}):\n{proc.stderr}")
    return proc.stdout


def reports(out: Path) -> dict[str, bytes]:
    """Every file an eval wrote under `out`, by relative path."""
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp) / "run"
        child(checkouts["parent"], TRAIN, run_dir)
        outputs = {}
        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                out = Path(tmp) / f"{side}_{pair}"
                result = json.loads(child(checkouts[side], EVAL, run_dir, out).splitlines()[-1])
                runs[side].append(result)
                outputs.setdefault(side, reports(out))
                print(f"pair {pair} {side}: {result['seconds']:.3f} s, "
                      f"peak RSS {result['rss_mb']:.1f} MB", flush=True)
    seconds = {side: [r["seconds"] for r in runs[side]] for side in SIDES}
    for side in SIDES:
        print(f"{side}: median {statistics.median(seconds[side]):.3f} s per checkpoint, "
              f"median peak RSS {statistics.median(r['rss_mb'] for r in runs[side]):.1f} MB")
    wins = sum(c < p for p, c in zip(seconds["parent"], seconds["change"]))
    ratio = statistics.median(seconds["change"]) / statistics.median(seconds["parent"])
    print(f"change faster in {wins} of {args.pairs} pairs; median change/parent {ratio:.4f}")
    if outputs["parent"] != outputs["change"]:
        print("FAIL the two sides' eval reports differ")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
