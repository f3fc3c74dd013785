"""One run of one benchmark workload, in the process that run.py starts.

    python3 perfbench/bench.py --workload NAME --seed N --seconds S --trace 0|1 --result PATH

Imports finegrain from src/ of this checkout, runs the workload's training
and eval phases through the public runner functions, scores the eval's pairs
once more to check each score, checks every output and writes the metrics
to PATH.  With --trace 1 it then repeats one training run and the eval phase
under the tracer and reports per-layer metrics instead.  README.md explains
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import inspect
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
REFERENCE_DIR = HERE / "reference"

WORKLOADS = ("train_full", "dynamics_sweep", "retrieval_dense")
# inputs come from seed % SEED_SLOTS; the reference holds every slot
SEED_SLOTS = 10

LOSS_RTOL = 1e-6  # per-step total loss, relative to max(1, |reference|)
METRIC_ATOL = 1e-9  # accuracies are hits/count, so any flip moves them >= 1/count
CORR_ATOL = 1e-6  # Pearson and Spearman over the trajectory
SCORE_ATOL = 1e-6  # per checkpoint, the sum and the sum of squares of the pair scores

# sha256 of src/finegrain/*.py (see sources_sha256) at commit 01452e4, the last
# before any performance work; the reference holds that code's outputs
SEED_SOURCES_SHA256 = "2f1e065a439bc59094ea9793390616b3f57a74f50592abadc4506fe0a63d9ff1"

IO_SAMPLES = 18  # checkpoint loads and saves per run, at least
TAIL_STEPS = 16  # train_loss_tail averages the last steps of the last training run

# pairs one manifest item costs, by subtask protocol
PAIRS_PER_ITEM = {"foil": 2, "pairwise": 2, "threshold": 2, "quad": 4}


def import_finegrain():
    sys.path.insert(0, str(SRC))
    try:
        import finegrain
    except ImportError as exc:
        raise SystemExit(f"cannot import finegrain from {SRC}: {exc}")
    if Path(finegrain.__file__).resolve().parent != SRC / "finegrain":
        raise SystemExit(f"finegrain was imported from {finegrain.__file__}, not {SRC}")
    return finegrain


import_finegrain()
from finegrain import evalharness, runner  # noqa: E402
from finegrain import model as fmodel  # noqa: E402
from finegrain.config import RunConfig  # noqa: E402

from observer import LoopObserver, lines_calling  # noqa: E402
import tracer as tr  # noqa: E402
from hostspeed import REFERENCE_KERNEL_S, HostSpeed  # noqa: E402


# -- workload specs --------------------------------------------------------------


@dataclass(frozen=True)
class Spec:
    """Everything that decides a run's work; equal specs do equal work."""

    workload: str
    slot: int
    steps: int
    cadence: int
    eval_per_subtask: int
    retrieval_count: int
    dense_retrieval: int  # 0: score the config's manifest; n: only an n x n table
    repeats: int  # eval calls per run
    training_runs: int  # run_training calls per run, each in a fresh run dir

    def work(self) -> dict:
        """The fields that decide the program's outputs; the reference is keyed on them."""
        return {"steps": self.steps, "cadence": self.cadence,
                "eval_per_subtask": self.eval_per_subtask,
                "retrieval_count": self.retrieval_count,
                "dense_retrieval": self.dense_retrieval}

    def config(self) -> RunConfig:
        # model, data sizes, batches and optimizer stay at the defaults
        return RunConfig(
            seed=100 + self.slot, data_seed=200 + self.slot, eval_seed=9000 + self.slot,
            steps=self.steps, cadence=self.cadence,
            eval_per_subtask=self.eval_per_subtask, retrieval_count=self.retrieval_count,
        )

    def manifest(self) -> dict:
        cfg = self.config()
        if self.dense_retrieval:
            return {"version": 1, "grid_size": cfg.patch_grid, "subtasks": [],
                    "retrieval": {"seed": cfg.eval_seed, "count": self.dense_retrieval}}
        return evalharness.default_manifest(cfg.eval_seed, cfg.eval_per_subtask,
                                            cfg.patch_grid, cfg.retrieval_count)

    def pairs_per_checkpoint(self) -> int:
        return manifest_pairs(self.manifest())

    def eval_steps(self) -> list[int]:
        """The checkpoints one eval call scores."""
        if self.dense_retrieval:
            return [self.steps]
        return list(range(self.cadence, self.steps + 1, self.cadence))


def manifest_pairs(manifest: dict) -> int:
    total = 0
    for row in manifest["subtasks"]:
        tag = row["tag"]
        if tag in evalharness.FOIL_GROUP_SUBTASKS:
            kind = "foil"
        elif tag in evalharness.PAIRWISE_SUBTASKS:
            kind = "pairwise"
        elif tag == evalharness.THRESHOLD_SUBTASK:
            kind = "threshold"
        else:
            kind = "quad"
        total += PAIRS_PER_ITEM[kind] * int(row["count"])
    retrieval = manifest.get("retrieval")
    if retrieval:
        total += int(retrieval["count"]) ** 2
    return total


def make_spec(workload: str, seed: int, seconds: int) -> Spec:
    """Work sized so the measured phase takes about `seconds` on a 2-core x86 host.

    train_full measures its training runs; the eval workloads' training runs
    are set-up that writes the checkpoints their eval calls read.
    """
    slot = seed % SEED_SLOTS
    if workload == "train_full":
        # ~8 steps/s; checkpoints every 16 steps, at least 3 for the correlations
        n = max(3, round(seconds / 15))
        return Spec(workload, slot, steps=16 * n, cadence=16, eval_per_subtask=4,
                    retrieval_count=4, dense_retrieval=0, repeats=3, training_runs=3)
    if workload == "dynamics_sweep":
        # ~8 s per sweep of 4 checkpoints x 464 pairs, plus ~7 s of set-up
        return Spec(workload, slot, steps=12, cadence=3, eval_per_subtask=20,
                    retrieval_count=8, dense_retrieval=0,
                    repeats=max(1, round(seconds / 15)), training_runs=3)
    if workload == "retrieval_dense":
        # ~2.5 s per 24 x 24 table, plus ~6 s of set-up
        return Spec(workload, slot, steps=12, cadence=12, eval_per_subtask=20,
                    retrieval_count=8, dense_retrieval=24,
                    repeats=max(1, round(seconds / 7)), training_runs=3)
    raise SystemExit(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


# -- correctness -----------------------------------------------------------------


@dataclass
class Checker:
    """Counts operations attempted and failed; keeps the first few failure notes."""

    reference: dict | None
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def op(self, ok: bool, note: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.notes) < 20:
                self.notes.append(note)

    def ref(self, key: str):
        return None if self.reference is None else self.reference.get(key)


def close(value: float, ref: float, atol: float = 0.0, rtol: float = 0.0) -> bool:
    if ref is None or (isinstance(ref, float) and math.isnan(ref)):
        return value is None or math.isnan(value)
    return value is not None and abs(value - ref) <= atol + rtol * max(1.0, abs(ref))


def read_tsv(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [ln.split("\t") for ln in lines if ln and not ln.startswith("#")]


def read_losses(run_dir: Path) -> list[tuple[int, str, float]]:
    rows = read_tsv(run_dir / "logs" / "losses.tsv")
    col = rows[0].index("total")
    return [(int(r[0]), r[1], float(r[col])) for r in rows[1:]]


def check_training(check: Checker, spec: Spec, run_dir: Path, trained) -> list:
    """One operation per step and per checkpoint written."""
    losses = read_losses(run_dir)
    reference = check.ref("losses") or {}
    for step, kind, total in losses:
        ref = reference.get(str(step))
        ok = math.isfinite(total)
        if ok and ref is not None:
            ok = kind == ref[0] and close(total, ref[1], rtol=LOSS_RTOL)
        elif ok and check.reference is not None:
            ok = False  # the reference covers every step this spec runs
        check.op(ok, f"step {step} ({kind}) total loss {total!r}, reference {ref}")
    chash = spec.config().config_hash()
    header = f"{fmodel.CHECKPOINT_MAGIC} {fmodel.CHECKPOINT_VERSION} {chash}\n"
    params = len(fmodel.param_shapes(spec.config().model_config()))
    for step in range(spec.cadence, spec.steps + 1, spec.cadence):
        path = runner.checkpoint_path(run_dir, step)
        ok = step in trained.checkpoint_steps and path.exists()
        if ok:
            with open(path, encoding="utf-8") as fh:
                ok = fh.readline() == header and sum(1 for _ in fh) == params
        check.op(ok, f"checkpoint {path.name} is missing or malformed")
    return losses


def check_trajectory(check: Checker, spec: Spec, run_dir: Path) -> None:
    """One operation per scored pair and checkpoint read, one for the correlations."""
    rows = read_tsv(run_dir / "reports" / "trajectory.tsv")
    header, body = rows[0], rows[1:]
    reference = check.ref("trajectory") or {}
    pairs = spec.pairs_per_checkpoint()
    for row in body:
        step = row[0]
        values = {name: float(v) for name, v in zip(header[1:], row[1:])}
        ok = all(0.0 <= v <= 1.0 for v in values.values())
        ref = reference.get(step)
        if check.reference is not None:
            ok = ok and ref is not None and set(ref) == set(values) and all(
                close(values[k], ref[k], atol=METRIC_ATOL) for k in values)
        check.op(ok, f"trajectory at step {step} departs from the reference", pairs + 1)
    corr = [(r[0], r[1], float(r[2]), float(r[3])) for r in
            read_tsv(run_dir / "reports" / "correlations.tsv")[1:]]
    ok = all(-1.0 - 1e-9 <= v <= 1.0 + 1e-9 for _, _, p, s in corr for v in (p, s)
             if not math.isnan(v))
    ref = (check.ref("correlations") or {}).get(str(len(body)))
    if ref is not None:
        ok = ok and len(ref) == len(corr) and all(
            a == ra and b == rb and close(p, rp, atol=CORR_ATOL) and close(s, rs, atol=CORR_ATOL)
            for (a, b, p, s), (ra, rb, rp, rs) in zip(corr, ref))
    check.op(ok, "correlations depart from the reference")


def check_report(check: Checker, run_dir: Path, step: int, pairs: int) -> None:
    """The eval report's metrics stand for its pairs and the checkpoint read."""
    report = json.loads((run_dir / "reports" / f"eval_step_{step:06d}.json")
                        .read_text(encoding="utf-8"))
    values = report["metrics"]
    ok = bool(values) and all(0.0 <= v <= 1.0 for v in values.values())
    ref = check.ref("report")
    if check.reference is not None:
        ok = ok and ref is not None and set(ref) == set(values) and all(
            close(values[k], ref[k], atol=METRIC_ATOL) for k in values)
    check.op(ok, f"eval report {values} departs from the reference {ref}", pairs + 1)


def recording(score, into: list):
    """`score`, appending each value it returns to `into`."""
    def recorded(scene, text):
        value = score(scene, text)
        into.append(value)
        return value

    return recorded


def audit_scores(spec: Spec, run_dir: Path, check: Checker) -> dict:
    """Score the eval calls' pairs again with the program's public scorer.

    It runs outside every timed interval and outside the tracer.  Each score
    is one operation and must be finite and in [0, 1].  Per checkpoint, the
    count, sum and sum of squares of the scores must match the reference: one
    more operation.  Returns those digests by checkpoint step.
    """
    config = spec.config()
    manifest = spec.manifest()
    reference = check.ref("scores") or {}
    digests = {}
    for step in spec.eval_steps():
        model = fmodel.VLModel(config.model_config(), seed=config.seed)
        fmodel.load_checkpoint(model, runner.checkpoint_path(run_dir, step),
                               expect_hash=config.config_hash())
        scores: list[float] = []
        evalharness.run_benchmark(recording(evalharness.model_scorer(model), scores),
                                  manifest, checkpoint_step=step)
        for i, value in enumerate(scores):
            check.op(math.isfinite(value) and 0.0 <= value <= 1.0,
                     f"checkpoint {step}, pair {i}: score {value!r} is not in [0, 1]")
        digest = [len(scores), math.fsum(scores), math.fsum(v * v for v in scores)]
        ok = digest[0] == spec.pairs_per_checkpoint()
        ref = reference.get(str(step))
        if check.reference is not None:
            ok = ok and ref is not None and digest[0] == ref[0] and all(
                close(v, r, atol=SCORE_ATOL) for v, r in zip(digest[1:], ref[1:]))
        check.op(ok, f"checkpoint {step}: scores (count, sum, sum of squares) {digest} "
                     f"depart from the reference {ref}")
        digests[str(step)] = digest
    return digests


# -- phases ----------------------------------------------------------------------


Interval = tuple[float, float]  # perf_counter start and end


@dataclass
class Training:
    wall: Interval
    prologue: Interval  # call entry to the first sample of step 1: the program's set-up
    losses: list
    steps: dict  # batch kind -> step intervals, checkpoint writes excluded


def observed_training(spec: Spec, run_dir: Path, check: Checker) -> Training:
    """runner.run_training with each step timed by the loop observer."""
    code = inspect.unwrap(runner.run_training).__code__
    marks = lines_calling(code, "save_checkpoint")
    with LoopObserver(code, "step", marks) as obs:
        start = time.perf_counter()
        trained = runner.run_training(spec.config(), run_dir)
        wall = (start, time.perf_counter())
    losses = check_training(check, spec, run_dir, trained)
    kinds = {step: kind for step, kind, _ in losses}
    steps: dict[str, list[Interval]] = {"caption": [], "detection": []}
    iterations = obs.iterations()
    for it, nxt in zip(iterations, iterations[1:] + [None]):
        # a value the sampler never saw merges two steps: drop that sample
        if nxt is not None and nxt.value != it.value + 1 and it.end == nxt.start:
            continue
        steps[kinds[it.value]].append((it.start, it.end))
    seen = {it.value for it in iterations}
    if len(seen) < 0.9 * len(losses):
        check.op(False, f"observer saw {len(seen)} of {len(losses)} steps")
    if not iterations or iterations[0].value != 1:
        check.op(False, "observer missed step 1, so the set-up time is unknown")
    prologue = (start, iterations[0].start if iterations else wall[1])
    return Training(wall, prologue, losses, steps)


def eval_once(spec: Spec, run_dir: Path, check: Checker) -> Interval:
    """One measured eval call."""
    config = spec.config()
    start = time.perf_counter()
    if spec.dense_retrieval:
        runner.run_eval(config, runner.checkpoint_path(run_dir, spec.steps), run_dir,
                        manifest=spec.manifest())
        wall = (start, time.perf_counter())
        check_report(check, run_dir, spec.steps, spec.pairs_per_checkpoint())
    else:
        runner.run_dynamics(config, run_dir)
        wall = (start, time.perf_counter())
        check_trajectory(check, spec, run_dir)
    return wall


@dataclass
class Phases:
    training: list[Training] = field(default_factory=list)
    evals: list[Interval] = field(default_factory=list)
    loads: list[Interval] = field(default_factory=list)
    saves: list[Interval] = field(default_factory=list)
    ckpt_bytes: int = 0


def run_phases(spec: Spec, base: Path, check: Checker,
               training_runs: int) -> tuple[Phases, Path]:
    """Train `training_runs` times in fresh run dirs, then run the eval calls in the last.

    Checkpoint I/O samples follow every training run and eval call, so they
    spread over the run.
    """
    phases = Phases()
    run_dir = base
    io_times = -(-IO_SAMPLES // (training_runs + spec.repeats))
    for i in range(training_runs):
        run_dir = base / f"train{i}"
        gc.collect()  # each run starts from the same heap, not the last one's garbage
        phases.training.append(observed_training(spec, run_dir, check))
        checkpoint_io(spec, run_dir, check, phases, io_times)
    for _ in range(spec.repeats):
        phases.evals.append(eval_once(spec, run_dir, check))
        checkpoint_io(spec, run_dir, check, phases, io_times)
    return phases, run_dir


def checkpoint_io(spec: Spec, run_dir: Path, check: Checker, phases: Phases,
                  times: int) -> None:
    """Load and re-save the last checkpoint; every copy must be byte-identical."""
    config = spec.config()
    chash = config.config_hash()
    source = runner.checkpoint_path(run_dir, spec.steps)
    original = source.read_bytes()
    phases.ckpt_bytes = len(original)
    for i in range(times):
        model = fmodel.VLModel(config.model_config(), seed=config.seed + 1)
        gc.collect()  # as for set-up: time the I/O, not collecting the eval's garbage
        start = time.perf_counter()
        fmodel.load_checkpoint(model, source, expect_hash=chash)
        phases.loads.append((start, time.perf_counter()))
        check.op(all(np.isfinite(t.array).all() for t in model.params.values()),
                 f"checkpoint load {i} is not finite")
        copy = run_dir / "checkpoints" / f"resave_{i}.ckpt"
        gc.collect()
        start = time.perf_counter()
        fmodel.save_checkpoint(model, copy, chash)
        phases.saves.append((start, time.perf_counter()))
        check.op(copy.read_bytes() == original, f"checkpoint save {i} is not byte-identical")
        copy.unlink()


# -- metrics ---------------------------------------------------------------------


def tail_percentile(values: list[float]) -> tuple[str, float]:
    """Highest of p50..p99.9 with at least ten samples beyond it."""
    best = ("p50", statistics.median(values))
    ordered = sorted(values)
    for p in (75, 90, 95, 99, 99.9):
        if len(values) * (1 - p / 100) >= 10:
            index = min(len(ordered) - 1, math.ceil(p / 100 * len(ordered)) - 1)
            best = (f"p{p:g}", ordered[index])
    return best


def end_to_end(spec: Spec, phases: Phases, host: HostSpeed, scaled: bool = True):
    """Metric name -> (value, unit), and the step-time samples in ms.

    Times are in reference seconds (see hostspeed.py) unless not `scaled`.
    """
    def sec(interval: Interval) -> float:
        return host.seconds(*interval, scaled=scaled)

    steps = {kind: [sec(i) * 1e3 for t in phases.training for i in t.steps[kind]]
             for kind in ("caption", "detection")}
    # train_full's set-up is run_training's own, before its first step; the eval
    # workloads' set-up is the training run that writes their checkpoints
    setups = [t.prologue if spec.workload == "train_full" else t.wall
              for t in phases.training]
    metrics = {"setup_s": (statistics.median(sec(i) for i in setups), "s")}
    metrics["train_steps_per_s"] = (statistics.median(
        len(t.losses) / sec(t.wall) for t in phases.training), "1/s")
    for kind, values in steps.items():
        metrics[f"{kind}_step_ms"] = (statistics.median(values), "ms")
    window = [total for _, _, total in phases.training[-1].losses[-TAIL_STEPS:]]
    metrics["train_loss_tail"] = (sum(window) / len(window), "nat")
    metrics["ckpt_save_ms"] = (statistics.median(sec(i) for i in phases.saves) * 1e3, "ms")
    metrics["ckpt_bytes"] = (float(phases.ckpt_bytes), "B")
    checkpoints = 1 if spec.dense_retrieval else spec.steps // spec.cadence
    per_call = spec.pairs_per_checkpoint() * checkpoints
    metrics["dynamics_s_per_ckpt"] = (statistics.median(
        sec(i) / checkpoints for i in phases.evals), "s")
    metrics["ckpt_load_ms"] = (statistics.median(sec(i) for i in phases.loads) * 1e3, "ms")
    metrics["eval_pairs_per_s"] = (statistics.median(
        per_call / sec(i) for i in phases.evals), "1/s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                              "MB")
    return metrics, steps


def measured_seconds(phases: Phases, host: HostSpeed) -> float:
    """Reference seconds of one training run plus the eval calls."""
    training = statistics.median(host.seconds(*t.wall) for t in phases.training)
    return training + sum(host.seconds(*i) for i in phases.evals)


def per_layer(spans: list[tr.Span], overhead: float) -> dict:
    self_ns = tr.self_times(spans)
    calls: dict[str, int] = {}
    ms: dict[str, float] = {}
    for span, own in zip(spans, self_ns):
        calls[span.name] = calls.get(span.name, 0) + 1
        ms[span.name] = ms.get(span.name, 0.0) + own / 1e6
    steps = [s for s in spans if s.name == "objectives.training_step"]
    scores = [s for s in spans if s.name == "evalharness.score"]

    def nodes_per(kind):
        chosen = [s.nodes for s in steps if s.tag == kind]
        return sum(chosen) / len(chosen) if chosen else 0.0

    out = {
        "tensor.nodes_per_caption_step": (nodes_per("caption"), "count"),
        "tensor.nodes_per_detection_step": (nodes_per("detection"), "count"),
        "tensor.backward_ms": (ms.get("tensor.backward", 0.0) / max(1, len(steps)), "ms"),
        "tensor.nodes_per_pair": (sum(s.nodes for s in scores) / max(1, len(scores)),
                                  "count"),
    }
    for name in ("ops.masked_attention", "ops.layer_norm", "ops.gelu", "ops.embed",
                 "ops.softmax_cross_entropy", "ops.l2_normalize",
                 "model.encode_image", "model.encode_text", "model.fuse",
                 "synthdata.generate_scene"):
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.ms"] = (ms.get(name, 0.0), "ms")
    for name in ("model.encode_image", "model.encode_text"):
        out[f"{name}.distinct_share"] = (tr.distinct_share(spans, name), "ratio")
    for name in ("model.save_checkpoint", "model.load_checkpoint",
                 "objectives.contrastive_loss", "objectives.itm_loss", "objectives.mlm_loss",
                 "objectives.vma_losses", "objectives.bbox_loss_terms",
                 "objectives.optimizer_step", "synthdata.sampler_for_sources",
                 "evalharness.score", "evalharness.subtask_items",
                 "evalharness.retrieval_table", "evalharness.retrieval_recall",
                 "dynamics.correlate_tasks"):
        out[f"{name}.ms"] = (ms.get(name, 0.0), "ms")
    out["evalharness.scored_pairs"] = (len(scores), "count")
    out["trace.overhead_share"] = (overhead, "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def write_spans(path: Path, spans: list[tr.Span]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index\tparent\tname\tstart_ns\tend_ns\tnodes\tself_ns\n")
        for i, (span, own) in enumerate(zip(spans, tr.self_times(spans))):
            fh.write(f"{i}\t{span.parent}\t{span.name}\t{span.start}\t{span.end}"
                     f"\t{span.nodes}\t{own}\n")


# -- environment and entry point -------------------------------------------------


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def sources_sha256() -> str:
    """sha256 over the names and bytes of src/finegrain/*.py, in name order."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "finegrain").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def load_reference(spec: Spec) -> dict | None:
    """The reference for the spec's workload and seed slot, if it covers the spec's work."""
    path = REFERENCE_DIR / f"{spec.workload}.json"
    if not path.exists():
        return None
    entry = json.loads(path.read_text(encoding="utf-8")).get(str(spec.slot))
    if entry is None or entry.get("work") != spec.work():
        return None
    return entry


def record_reference(spec: Spec, run_dir: Path, losses, scores: dict) -> None:
    """Store this run's outputs as the reference for its workload and seed slot."""
    path = REFERENCE_DIR / f"{spec.workload}.json"
    table = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    # config_hash is for information only; the entry applies to runs of the same work
    entry: dict = {"work": spec.work(), "config_hash": spec.config().config_hash(),
                   "losses": {str(s): [k, t] for s, k, t in losses}, "scores": scores}
    if spec.dense_retrieval:
        report = run_dir / "reports" / f"eval_step_{spec.steps:06d}.json"
        entry["report"] = json.loads(report.read_text(encoding="utf-8"))["metrics"]
    else:
        rows = read_tsv(run_dir / "reports" / "trajectory.tsv")
        entry["trajectory"] = {r[0]: {n: float(v) for n, v in zip(rows[0][1:], r[1:])}
                               for r in rows[1:]}
        corr = read_tsv(run_dir / "reports" / "correlations.tsv")[1:]
        entry["correlations"] = {str(len(rows) - 1): [
            [r[0], r[1], float(r[2]), float(r[3])] for r in corr]}
    table[str(spec.slot)] = entry
    REFERENCE_DIR.mkdir(exist_ok=True)
    path.write_text(dump_reference(table), encoding="utf-8")


def dump_reference(table: dict) -> str:
    """One seed slot per line."""
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
             for k, v in sorted(table.items(), key=lambda kv: int(kv[0]))]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run(spec: Spec, trace: bool, base: Path, write_reference: bool = False) -> dict:
    info = [f"env: {json.dumps(environment(), sort_keys=True)}",
            f"spec: {json.dumps(asdict(spec), sort_keys=True)}"]
    reference = None if write_reference else load_reference(spec)
    if reference is None and not write_reference:
        info.append("reference: none covers this run's work; outputs are range-checked only")
    check = Checker(reference)
    if tr.wrapped_bindings():
        raise RuntimeError(f"tracing wrappers present: {tr.wrapped_bindings()}")
    with HostSpeed() as host:
        phases, run_dir = run_phases(spec, fresh_dir(base / "plain"), check,
                                     spec.training_runs)
        if trace:
            tracer = tr.Tracer()
            traced_base = fresh_dir(base / "traced")
            with tracer:
                traced, _ = run_phases(spec, traced_base, check, 1)
    scores = audit_scores(spec, run_dir, check)
    if write_reference:
        record_reference(spec, run_dir, phases.training[-1].losses, scores)
    if trace:
        untraced = measured_seconds(phases, host)
        traced_s = measured_seconds(traced, host)
        metrics = per_layer(tracer.spans, traced_s / untraced - 1.0)
        write_spans(traced_base / "spans.tsv", tracer.spans)
        info.append(f"trace: {len(tracer.spans)} spans, traced {traced_s:.2f} s, "
                    f"untraced {untraced:.2f} s")
    else:
        scaled, steps = end_to_end(spec, phases, host)
        raw, _ = end_to_end(spec, phases, host, scaled=False)
        for kind, values in steps.items():
            label, tail = tail_percentile(values)
            info.append(f"{kind}_step_ms: median {statistics.median(values):.3f} ms, "
                        f"{label} {tail:.3f} ms, n={len(values)}")
        info.append("unscaled: " + ", ".join(f"{n}={v:.6g}" for n, (v, _) in raw.items()))
        ms = [(e - s) * 1e3 for s, e in zip(host.starts, host.ends)]
        info.append(f"host kernel: median {statistics.median(ms):.3f} ms, "
                    f"min {min(ms):.3f}, max {max(ms):.3f}, n={len(ms)} "
                    f"(reference {REFERENCE_KERNEL_S * 1e3:.3f})")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in scaled.items()}
    info += [f"failure: {note}" for note in check.notes]
    return {
        "correct": check.failed == 0 and reference is not None,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
        "info": info,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs as the reference for its seed slot")
    args = parser.parse_args(argv)
    if args.write_reference and sources_sha256() != SEED_SOURCES_SHA256:
        raise SystemExit("refusing to write a reference: src/finegrain differs from "
                         "commit 01452e4; write references from a checkout of that commit")
    spec = make_spec(args.workload, args.seed, args.seconds)
    result = run(spec, bool(args.trace), RUNS / args.workload, args.write_reference)
    args.result.write_text(json.dumps(result, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
