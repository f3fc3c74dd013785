"""Checkpoint-cadence trajectories and cross-task correlation.

Correlation analysis runs on the raw, unsmoothed trajectories.
Zero-variance pairs are reported as explicit 'undefined' records rather
than dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import UndefinedCorrelationError, ValidationError
from .fileio import atomic_open


def _validated(x, y) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(x, dtype=np.float64).reshape(-1)
    b = np.asarray(y, dtype=np.float64).reshape(-1)
    if a.size != b.size:
        raise ValidationError(f"series lengths differ: {a.size} vs {b.size}")
    if a.size < 3:
        raise ValidationError(f"correlation needs at least 3 points, got {a.size}")
    return a, b


def pearson(x, y) -> float:
    a, b = _validated(x, y)
    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt((a * a).sum() * (b * b).sum())
    if denom == 0.0:
        raise UndefinedCorrelationError("zero variance series")
    return float((a * b).sum() / denom)


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their positions."""
    _, inverse, counts = np.unique(a, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]


def spearman(x, y) -> float:
    a, b = _validated(x, y)
    return pearson(_average_ranks(a), _average_ranks(b))


@dataclass
class TrajectoryTable:
    steps: list[int] = field(default_factory=list)
    columns: dict[str, list[float]] = field(default_factory=dict)

    def append_row(self, step: int, metrics: dict[str, float]) -> None:
        if self.steps and step <= self.steps[-1]:
            raise ValidationError(f"steps must strictly increase, got {step}")
        if self.columns and set(metrics) != set(self.columns):
            raise ValidationError("row metric names do not match existing columns")
        self.steps.append(int(step))
        for name, value in metrics.items():
            self.columns.setdefault(name, []).append(float(value))

    def metric_names(self) -> list[str]:
        return sorted(self.columns)


@dataclass(frozen=True)
class CorrelationEntry:
    metric_a: str
    metric_b: str
    pearson_r: float | None
    spearman_rho: float | None
    count: int

    @property
    def defined(self) -> bool:
        return self.pearson_r is not None


def correlate_tasks(table: TrajectoryTable) -> list[CorrelationEntry]:
    """Pearson and Spearman over raw trajectories for every pair of metrics, self-pairs included."""
    names = table.metric_names()
    entries = []
    for a, b in ((a, b) for i, a in enumerate(names) for b in names[i:]):
        xs, ys = table.columns[a], table.columns[b]
        if len(xs) < 3:
            raise ValidationError(f"pair ({a}, {b}) has fewer than 3 shared steps")
        try:
            entry = CorrelationEntry(a, b, pearson(xs, ys), spearman(xs, ys), len(xs))
        except UndefinedCorrelationError:
            entry = CorrelationEntry(a, b, None, None, len(xs))
        entries.append(entry)
    return entries


def track(total_steps: int, cadence: int,
          evaluate: Callable[[int], dict[str, float]]) -> TrajectoryTable:
    """Evaluate at each cadence point and assemble the trajectory table."""
    if cadence <= 0 or total_steps % cadence != 0:
        raise ValidationError(f"cadence {cadence} must divide total steps {total_steps}")
    table = TrajectoryTable()
    for step in range(cadence, total_steps + 1, cadence):
        table.append_row(step, evaluate(step))
    return table


# -- files -----------------------------------------------------------------------


def write_trajectory(path: Path, table: TrajectoryTable, config_hash: str) -> None:
    names = table.metric_names()
    lines = [f"# config_hash={config_hash}", "\t".join(["step"] + names)]
    for i, step in enumerate(table.steps):
        lines.append("\t".join([str(step)] + [f"{table.columns[n][i]:.17g}" for n in names]))
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def write_correlations(path: Path, entries: list[CorrelationEntry], config_hash: str) -> None:
    lines = [f"# config_hash={config_hash}",
             "metric_a\tmetric_b\tpearson\tspearman\tn\tstatus"]
    for e in entries:
        if e.defined:
            lines.append(f"{e.metric_a}\t{e.metric_b}\t{e.pearson_r:.17g}"
                         f"\t{e.spearman_rho:.17g}\t{e.count}\tok")
        else:
            lines.append(f"{e.metric_a}\t{e.metric_b}\tnan\tnan\t{e.count}\tundefined")
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")
