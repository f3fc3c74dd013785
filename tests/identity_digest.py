"""Digests of the run outputs of the ten benchmark seed slots, for a byte-identity check.

    python tests/identity_digest.py NEW_DIR > digests.txt

Imports finegrain from src/ of this checkout.  For each slot k of 0..9 it
trains the default config at seed 100+k, data seed 200+k and eval seed
9000+k for 12 steps at cadence 3 into NEW_DIR/slot_k, runs `run_eval` at
each checkpoint and then `run_dynamics` there, and runs a retrieval-only
24 x 24 `run_eval` of the last checkpoint into NEW_DIR/slot_k/dense.  Slot 0
also scores its last checkpoint at study size (200 items per subtask and a
64-scene retrieval table, eval seed 9000) into NEW_DIR/slot_0/study.  Every
file written is deterministic; it prints one `sha256  path` line per file,
with paths relative to NEW_DIR.  Run it in two checkouts and diff the
printed lines.  It is run by hand: pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from finegrain import runner  # noqa: E402
from finegrain.config import RunConfig  # noqa: E402
from finegrain.evalharness import default_manifest  # noqa: E402

SLOTS = 10
DENSE_RETRIEVAL = 24


def write_slot(k: int, run_dir: Path) -> None:
    config = RunConfig(seed=100 + k, data_seed=200 + k, eval_seed=9000 + k, steps=12, cadence=3)
    for step in runner.run_training(config, run_dir).checkpoint_steps:
        runner.run_eval(config, runner.checkpoint_path(run_dir, step), run_dir)
    runner.run_dynamics(config, run_dir)
    dense = {"grid_size": config.patch_grid, "subtasks": [],
             "retrieval": {"seed": config.eval_seed, "count": DENSE_RETRIEVAL}}
    last = runner.checkpoint_path(run_dir, config.steps)
    runner.run_eval(config, last, run_dir / "dense", manifest=dense)
    if k == 0:
        study = default_manifest(eval_seed=config.eval_seed, per_subtask=200,
                                 grid_size=config.patch_grid, retrieval_count=64)
        runner.run_eval(config, last, run_dir / "study", manifest=study)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    for k in range(SLOTS):
        write_slot(k, out / f"slot_{k}")
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
