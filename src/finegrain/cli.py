"""Command-line entry point.

Commands: train, eval, dynamics, ablate, report, init-config.
Exit codes: 0 success, 2 validation error, 3 dependency error,
4 numeric error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import runner
from .config import LOSS_ARMS, RunConfig, load_config
from .errors import DependencyError, NumericError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEPENDENCY = 3
EXIT_NUMERIC = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finegrain",
        description="Desk-scale vision-language pretraining and fine-grained evaluation.",
        epilog="Exit codes: 0 ok, 2 validation error, 3 dependency error, 4 numeric error.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, needs_config=True):
        cmd = sub.add_parser(name, help=help_text)
        if needs_config:
            cmd.add_argument("--config", type=Path, required=True,
                             help="path to the key=value run config")
        return cmd

    train = add("train", "train a model, logging losses and saving checkpoints")
    train.add_argument("--out", type=Path, required=True, help="run directory")

    ev_cmd = add("eval", "evaluate one checkpoint on the benchmark suite")
    ev_cmd.add_argument("--checkpoint", type=Path, required=True)
    ev_cmd.add_argument("--out", type=Path, required=True, help="run directory")

    dyn_cmd = add("dynamics", "evaluate all cadence checkpoints; write trajectory + correlations")
    dyn_cmd.add_argument("--out", type=Path, required=True,
                         help="run directory containing checkpoints/")

    arms = "; ".join(" + ".join([f"{name} = base", *(f for f, on in zip(arm._fields, arm) if on)])
                     for name, arm in LOSS_ARMS.items())
    ablate = add("ablate", "train and evaluate one run per grid arm")
    ablate.add_argument("--grid", required=True,
                        help='arms like "full:all; A:captions; A+VMA:captions+region_descriptions". '
                             f'Loss arms: {arms}. base is contrastive, matching and masked LM; vma '
                             'repeats them on box-masked images; bbox regresses boxes; pevl adds '
                             'position tokens to detection texts. '
                             f'The calibration grid "{runner.CALIBRATION_GRID}" '
                             'checks the paper\'s two findings (full >= A on relation_statement, '
                             'region descriptions >= object labels on foil_avg); run it over '
                             'three seeds and compare medians.')
    ablate.add_argument("--out", type=Path, required=True, help="parent output directory")

    report = add("report", "print a summary of a finished run directory", needs_config=False)
    report.add_argument("--out", type=Path, required=True, help="run directory")

    init = add("init-config", "print a default config to stdout", needs_config=False)
    init.add_argument("--seed", type=int, default=7)
    return parser


def cmd_report(out_dir: Path) -> None:
    out_dir = Path(out_dir)
    if not out_dir.is_dir():
        raise DependencyError(f"run directory not found: {out_dir}")
    reports = sorted(out_dir.glob("reports/eval_step_*.tsv"))
    summary = out_dir / "summary.tsv"
    losses = out_dir / "logs" / "losses.tsv"
    if not reports and not summary.exists() and not losses.exists():
        raise DependencyError(f"nothing to report under {out_dir}")
    if losses.exists():
        # a killed run leaves the log empty or its last line cut off: count complete lines only
        complete = losses.read_text().split("\n")[:-1]
        steps = [ln for ln in complete if not ln.startswith("#")][1:]  # after the header
        print(f"loss log: {len(steps)} steps")
        if steps:
            print("last step: " + steps[-1])
    for path in reports:
        print(f"\n== {path.name}")
        print(path.read_text().strip())
    if summary.exists():
        print(f"\n== {summary.name}")
        print(summary.read_text().strip())


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "init-config":
            sys.stdout.write(RunConfig(seed=args.seed).render())
            return EXIT_OK
        if args.command == "report":
            cmd_report(args.out)
            return EXIT_OK
        config = load_config(args.config)
        if args.command == "train":
            result = runner.run_training(config, args.out)
            print(f"trained {config.steps} steps; checkpoints at {result.checkpoint_steps}")
            print(f"loss log: {result.loss_log}")
        elif args.command == "eval":
            report = runner.run_eval(config, args.checkpoint, args.out)
            for name, value, count in report.rows():
                print(f"{name}\t{value:.4f}\t(n={count})")
        elif args.command == "dynamics":
            trajectory, correlations = runner.run_dynamics(config, args.out)
            print(f"trajectory: {trajectory}")
            print(f"correlations: {correlations}")
        elif args.command == "ablate":
            summary = runner.run_ablation(config, args.grid, args.out)
            print(summary.read_text().strip())
            print(f"summary: {summary}")
        return EXIT_OK
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DependencyError as exc:
        print(f"dependency error: {exc}", file=sys.stderr)
        return EXIT_DEPENDENCY
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
