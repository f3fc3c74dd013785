"""Digests of the run outputs of the ten benchmark seed slots, for a byte-identity check.

    python tests/identity_digest.py NEW_DIR > digests.txt
    python tests/identity_digest.py --compare

Imports finegrain from src/ of this checkout.  For each slot k of 0..9 it
trains the default config at seed 100+k, data seed 200+k and eval seed
9000+k for 12 steps at cadence 3 into NEW_DIR/slot_k, runs `run_eval` at
each checkpoint and then `run_dynamics` there, and runs a retrieval-only
24 x 24 `run_eval` of the last checkpoint into NEW_DIR/slot_k/dense.  Slot 0
also scores its last checkpoint at study size (200 items per subtask and a
64-scene retrieval table, eval seed 9000) into NEW_DIR/slot_0/study.  Last,
it loads the last checkpoint into a fresh model and saves it again as
NEW_DIR/slot_k/roundtrip/step_000012.ckpt, whose digest must equal the
checkpoint's own: that covers the loader bit for bit, heads that scoring
never reads included.  Every file written is deterministic; it prints one
`sha256  path` line per file, with paths relative to NEW_DIR.  Run it in two
checkouts and diff the printed lines.  It is run by hand: pytest does not
collect it.

The first line, `blas-kernel  NAME`, names the kernel family that numpy's
bundled OpenBLAS picked at run time (`unknown` if the library does not say),
since the bytes can differ between kernels; `OPENBLAS_CORETYPE` forces one.

The record of these lines is committed as tests/identity/NAME.txt, one file
per kernel.  `--compare` writes the slots into a temporary directory and
compares their digests with the record for the runtime kernel: it prints
each path whose digest differs or that only one side lists, and exits 1 on
any difference, or if no record names the kernel.  A change that keeps
every output leaves the record as it is; one that moves outputs rewrites it,
and the record's diff lists what moved.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from finegrain import runner  # noqa: E402
from finegrain.config import RunConfig  # noqa: E402
from finegrain.evalharness import default_manifest  # noqa: E402
from finegrain.model import VLModel, load_checkpoint, save_checkpoint  # noqa: E402
from support import blas_kernel  # noqa: E402

SLOTS = 10
DENSE_RETRIEVAL = 24
RECORDS = Path(__file__).resolve().parent / "identity"


def write_slot(k: int, run_dir: Path, study: bool) -> None:
    """Slot k's run, evals, dynamics, dense table, study-size eval if `study`, and round trip."""
    config = RunConfig(seed=100 + k, data_seed=200 + k, eval_seed=9000 + k, steps=12, cadence=3)
    for step in runner.run_training(config, run_dir).checkpoint_steps:
        runner.run_eval(config, runner.checkpoint_path(run_dir, step), run_dir)
    runner.run_dynamics(config, run_dir)
    dense = {"grid_size": config.patch_grid, "subtasks": [],
             "retrieval": {"seed": config.eval_seed, "count": DENSE_RETRIEVAL}}
    last = runner.checkpoint_path(run_dir, config.steps)
    runner.run_eval(config, last, run_dir / "dense", manifest=dense)
    if study:
        manifest = default_manifest(eval_seed=config.eval_seed, per_subtask=200,
                                    grid_size=config.patch_grid, retrieval_count=64)
        runner.run_eval(config, last, run_dir / "study", manifest=manifest)
    reloaded = VLModel(config)
    load_checkpoint(reloaded, last, expect_hash=config.config_hash())
    (run_dir / "roundtrip").mkdir()
    save_checkpoint(reloaded, run_dir / "roundtrip" / last.name, config.config_hash())


def write_slots(out: Path) -> list[str]:
    """Write every slot under `out`; one `sha256  path` line per file, by path."""
    for k in range(SLOTS):
        write_slot(k, out / f"slot_{k}", study=k == 0)
    return digests(out)


def digests(out: Path) -> list[str]:
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out).as_posix()}"
            for path in sorted(p for p in out.rglob("*") if p.is_file())]


def by_path(lines: list[str]) -> dict[str, str]:
    """The digest of each path in `sha256  path` lines."""
    return {path: digest for digest, path in (line.split("  ", 1) for line in lines)}


def record(kernel: str) -> dict[str, str] | None:
    """The committed digests for `kernel`, by path; None if no record names the kernel."""
    path = RECORDS / f"{kernel}.txt"
    if not path.is_file():
        return None
    return by_path(path.read_text(encoding="utf-8").splitlines()[1:])


def differing(expected: dict[str, str], got: dict[str, str]) -> list[str]:
    """The paths whose digests differ, or that only one side lists, in order."""
    return sorted(p for p in expected.keys() | got.keys() if expected.get(p) != got.get(p))


def compare() -> int:
    kernel = blas_kernel()
    expected = record(kernel)
    if expected is None:
        print(f"no identity record for BLAS kernel {kernel} in {RECORDS}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        moved = differing(expected, by_path(write_slots(Path(tmp))))
    for path in moved:
        print(path)
    print(f"{len(moved)} paths differ from the {kernel} record", file=sys.stderr)
    return 1 if moved else 0


def main(argv: list[str]) -> int:
    if argv == ["--compare"]:
        return compare()
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    print(f"blas-kernel  {blas_kernel()}", flush=True)
    print("\n".join(write_slots(Path(argv[0]))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
