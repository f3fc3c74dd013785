"""Run orchestration: training, evaluation, dynamics, ablation.

Every command is deterministic given (config, seed): rerunning into a
fresh directory reproduces the output tree byte for byte.  Run directory
layout is fixed: config.ini copy, checkpoints/, logs/, reports/.

An ablation grid is {arm directory name: RunConfig} in grid order; every
arm's config, schedule and directory is checked before the first arm trains.
`train`, `eval` and `dynamics` claim their run directory only after their
inputs pass; `eval` and `dynamics` reject a run directory of another config
before they load a checkpoint, and claim it only after scoring.

`eval`, `dynamics` and `ablate` score a checkpoint through one function,
`_score_checkpoint`: its model is frozen and built from the checkpoint file
alone, with no random init drawn for it, and its scorer is given the
manifest, so that it scores every pair before `run_benchmark` reads them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import dynamics as dyn
from . import evalharness as ev
from . import synthdata as sd
from .config import RunConfig, load_config, save_config
from .errors import DependencyError, NumericError, SequenceLengthError, ValidationError
from .fileio import write_table
from .model import VLModel, load_checkpoint, param_shapes, save_checkpoint
from .objectives import LOSS_COMPONENTS, SgdOptimizer, step_ids, training_step
from .seeding import rng_for

LOSS_LOG_HEADER = ("step", "batch_kind", *LOSS_COMPONENTS, "total", "active")


def check_run_dir(config: RunConfig, out_dir: Path) -> None:
    """Reject a file, or a run directory whose config.ini names another config; writes nothing."""
    out_dir = Path(out_dir)
    if out_dir.is_file():
        raise ValidationError(f"cannot use {out_dir} as a run directory: it is a file")
    config_copy = out_dir / "config.ini"
    if config_copy.exists():
        existing = load_config(config_copy)
        if existing.config_hash() != config.config_hash():
            raise DependencyError(
                f"run directory {out_dir} belongs to config {existing.config_hash()}, "
                f"not {config.config_hash()}"
            )


def prepare_run_dir(config: RunConfig, out_dir: Path) -> Path:
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file of that name on the path, or no permission
        raise ValidationError(f"cannot use {out_dir} as a run directory: {exc}") from exc
    check_run_dir(config, out_dir)
    if not (out_dir / "config.ini").exists():
        save_config(config, out_dir / "config.ini")
    for sub in ("checkpoints", "logs", "reports"):
        (out_dir / sub).mkdir(exist_ok=True)
    return out_dir


def checkpoint_path(out_dir: Path, step: int) -> Path:
    return Path(out_dir) / "checkpoints" / f"step_{step:06d}.ckpt"


def checkpoint_step(ckpt: Path) -> int:
    """The step in a step_NNNNNN.ckpt name; a checkpoint named otherwise is step 0."""
    name = Path(ckpt).stem
    if not name.startswith("step_"):
        return 0
    match = re.fullmatch(r"step_(\d+)", name)
    if match is None:
        raise DependencyError(f"checkpoint name {Path(ckpt).name!r} has no step number")
    return int(match.group(1))


# -- train -------------------------------------------------------------------------


@dataclass
class TrainResult:
    checkpoint_steps: list[int]
    loss_log: Path


def training_batches(config: RunConfig) -> list[sd.Batch]:
    """The config's batch schedule; one the losses cannot train on is rejected.

    So is one with a sample the step would encode to more than `max_len` tokens.
    """
    batches = sd.sampler_for_sources(
        config.data_seed, sorted(config.source_set()), config.steps, config.caption_count,
        config.detection_scene_count, config.caption_batch, config.detection_batch,
        config.patch_grid)
    by_kind: dict[str, list] = {}  # batch kind -> its distinct samples
    for kind, sample in {id(s): (b.kind, s) for b in batches for s in b.samples}.values():
        by_kind.setdefault(kind, []).append(sample)
    longest = max(len(ids) for kind, samples in by_kind.items()
                  for ids in step_ids(config, sd.Batch(kind, tuple(samples))))
    if longest > config.max_len:
        raise SequenceLengthError(f"{longest} tokens exceed max_len {config.max_len}")
    return batches


def run_training(config: RunConfig, out_dir: Path) -> TrainResult:
    batches = training_batches(config)  # before the run directory is claimed
    out_dir = prepare_run_dir(config, out_dir)
    chash = config.config_hash()
    model = VLModel(config, seed=config.seed)
    optimizer = SgdOptimizer(model.parameters(), lr=config.learning_rate,
                             clip_norm=config.clip_norm)
    log_path = out_dir / "logs" / "losses.tsv"
    steps_saved = []
    with open(log_path, "w", encoding="utf-8", newline="\n") as log:
        log.write(f"# config_hash={chash}\n")
        log.write("\t".join(LOSS_LOG_HEADER) + "\n")
        for index, batch in enumerate(batches):
            step = index + 1
            values, total = training_step(model, batch, optimizer,
                                          rng_for(config.seed, "step", step))
            if not np.isfinite(total):
                raise NumericError(f"non-finite loss at step {step}")
            fields = [str(step), batch.kind]
            fields += [f"{values.get(name, 0.0):.17g}" for name in LOSS_COMPONENTS]
            fields += [f"{total:.17g}", ",".join(sorted(values))]
            log.write("\t".join(fields) + "\n")
            if step % config.cadence == 0:
                save_checkpoint(model, checkpoint_path(out_dir, step), chash)
                steps_saved.append(step)
    return TrainResult(checkpoint_steps=steps_saved, loss_log=log_path)


# -- eval --------------------------------------------------------------------------


def _score_checkpoint(config: RunConfig, ckpt: Path, manifest: dict) -> ev.EvalReport:
    """`manifest` scored by the frozen model in `ckpt`, built from the file alone.

    Its parameters start as unfilled arrays of `param_shapes`' shapes, and
    `load_checkpoint` replaces every one of them or raises, so no random
    init is drawn only to be overwritten.
    """
    model = VLModel._frozen_over(config, {name: np.empty(shape)
                                          for name, shape, _ in param_shapes(config)})
    load_checkpoint(model, ckpt, expect_hash=config.config_hash())
    step = checkpoint_step(ckpt)
    return ev.run_benchmark(ev.model_scorer(model, manifest), manifest, checkpoint_step=step)


def run_eval(config: RunConfig, ckpt: Path, out_dir: Path,
             manifest: dict | None = None) -> ev.EvalReport:
    check_run_dir(config, out_dir)  # before the checkpoint is read
    if manifest is None:
        manifest = ev.default_manifest(config.eval_seed, config.eval_per_subtask,
                                       config.patch_grid, config.retrieval_count)
    report = _score_checkpoint(config, ckpt, manifest)  # before the run directory is claimed
    out_dir = prepare_run_dir(config, out_dir)
    chash = config.config_hash()
    step = report.checkpoint_step
    ev.write_report(out_dir / "reports" / f"eval_step_{step:06d}.tsv", report, chash)
    ev.write_report_json(out_dir / "reports" / f"eval_step_{step:06d}.json", report, chash)
    ev.write_scores(out_dir / "reports" / f"scores_step_{step:06d}.tsv", report)
    return report


# -- dynamics ------------------------------------------------------------------------


def run_dynamics(config: RunConfig, run_dir: Path) -> tuple[Path, Path]:
    run_dir = Path(run_dir)
    ckpt_dir = run_dir / "checkpoints"
    if not ckpt_dir.is_dir():
        raise DependencyError(f"no checkpoints directory under {run_dir}")
    checkpoints = sorted(ckpt_dir.glob("step_*.ckpt"), key=checkpoint_step)
    if not checkpoints:
        raise DependencyError(f"no checkpoints found under {ckpt_dir}")
    manifest = ev.default_manifest(config.eval_seed, config.eval_per_subtask,
                                   config.patch_grid, config.retrieval_count)

    def evaluate(step: int) -> dict[str, float]:
        return _score_checkpoint(config, checkpoint_path(run_dir, step), manifest).metrics

    steps = [checkpoint_step(p) for p in checkpoints]
    if steps != list(range(config.cadence, config.steps + 1, config.cadence)):
        raise DependencyError(f"checkpoints at steps {steps} do not match cadence "
                              f"{config.cadence} over {config.steps} steps")
    check_run_dir(config, run_dir)  # before the costly scoring
    trajectory = dyn.track(steps, evaluate)  # before the run directory is claimed
    prepare_run_dir(config, run_dir)
    chash = config.config_hash()
    trajectory_path = run_dir / "reports" / "trajectory.tsv"
    correlation_path = run_dir / "reports" / "correlations.tsv"
    dyn.write_trajectory(trajectory_path, trajectory, chash)
    # correlation needs at least 3 checkpoints; below that correlations.tsv holds only its
    # hash line and header
    entries = dyn.correlate_tasks(trajectory) if len(trajectory) >= 3 else []
    dyn.write_correlations(correlation_path, entries, chash)
    return trajectory_path, correlation_path


# -- ablation grid --------------------------------------------------------------------


# the grid that checks the paper's two findings (see `finegrain ablate --help`)
CALIBRATION_GRID = ("A:captions; full:all; full:captions+object_labels; "
                    "full:captions+region_descriptions")


def parse_grid_spec(base: RunConfig, spec: str) -> dict[str, RunConfig]:
    """Arms like "full:all; A:captions; A+VMA:captions+region_descriptions", by directory name."""
    arms = {}
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ValidationError(f"grid arm {chunk!r} is missing ':' separator")
        loss_tag, source_field = (part.strip() for part in chunk.split(":", 1))
        sources = (set(sd.DATA_SOURCES) if source_field == "all"
                   else {s.strip() for s in source_field.split("+") if s.strip()})
        config = replace(base, sources=",".join(sources), losses=loss_tag)
        tags = "-".join(sd.DATA_SOURCES[s].tag for s in sorted(sources))
        name = f"{loss_tag.replace('+', '_').lower()}__{tags}"
        if name in arms:
            raise ValidationError(f"grid names arm {name} twice")
        arms[name] = config
    if not arms:
        raise ValidationError("grid spec contains no arms")
    return arms


SUMMARY_METRICS = (
    "svo_avg", "foil_avg", "relation_statement",
    "relation_swap_text", "relation_swap_image", "relation_swap_group",
    "retrieval_tr@1", "retrieval_ir@1",
)


def run_ablation(base: RunConfig, grid_spec: str, out_dir: Path) -> Path:
    arms = parse_grid_spec(base, grid_spec)
    out_dir = Path(out_dir)
    for config in arms.values():
        training_batches(config)
    for name, config in arms.items():
        prepare_run_dir(config, out_dir / name)
    rows = []
    for name, config in arms.items():
        arm_dir = out_dir / name
        final = run_training(config, arm_dir).checkpoint_steps[-1]
        metrics = run_eval(config, checkpoint_path(arm_dir, final), arm_dir).metrics
        metrics["svo_avg"] = float(np.mean([metrics[t] for t in ev.PAIRWISE_SUBTASKS]))
        if config.retrieval_count == 0:  # no retrieval table: its columns read nan
            metrics.update(dict.fromkeys(("retrieval_tr@1", "retrieval_ir@1"), np.nan))
        marks = [s in config.source_set() for s in sd.DATA_SOURCES]
        marks += [True, config.arm.vma, config.arm.bbox, config.arm.pevl]
        rows.append([name, *("x" if on else "-" for on in marks),
                     *(f"{metrics[m]:.4f}" for m in SUMMARY_METRICS)])
    summary = out_dir / "summary.tsv"
    header = ["arm", *sd.DATA_SOURCES, "loss_A", "loss_VMA", "loss_bbox", "loss_pevl",
              *SUMMARY_METRICS]
    write_table(summary, base.config_hash(), header, rows)
    return summary
