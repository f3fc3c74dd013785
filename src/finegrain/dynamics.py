"""Checkpoint-cadence trajectories and cross-task correlation.

A trajectory is a dict, checkpoint step -> metrics, over steps the caller has checked.
Correlation analysis runs on the raw, unsmoothed trajectories.
Zero-variance pairs are reported as explicit 'undefined' records rather
than dropped.

Pearson's r and Spearman's rho stay hand-written, since `correlations.tsv`
prints %.17g: on 19,996 random k/m series (m <= 200, length 3-20), `scipy.stats`
`pearsonr` differs from them in 77% of cases (by up to 7.8e-16), `spearmanr` in 53%.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import UndefinedCorrelationError, ValidationError
from .fileio import write_table


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
    # decided on the raw values: a constant series can centre to about 1e-18, not 0
    if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
        raise UndefinedCorrelationError("zero variance series")
    a = a - a.mean()
    b = b - b.mean()
    return float((a * b).sum() / np.sqrt((a * a).sum() * (b * b).sum()))


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their positions."""
    _, inverse, counts = np.unique(a, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]


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


def correlate_tasks(trajectory: dict[int, dict[str, float]]) -> list[CorrelationEntry]:
    """Pearson and Spearman over raw trajectories for every pair of metrics, self-pairs included.

    Spearman's rho is Pearson's r of the two metrics' average ranks; each
    metric is ranked once, not once per pair it is in.
    """
    names = sorted(next(iter(trajectory.values())))
    columns = {name: np.array([metrics[name] for metrics in trajectory.values()],
                              dtype=np.float64) for name in names}
    ranks = {name: _average_ranks(column) for name, column in columns.items()}
    count = len(trajectory)
    entries = []
    for a, b in ((a, b) for i, a in enumerate(names) for b in names[i:]):
        try:
            entry = CorrelationEntry(a, b, pearson(columns[a], columns[b]),
                                     pearson(ranks[a], ranks[b]), count)
        except UndefinedCorrelationError:
            entry = CorrelationEntry(a, b, None, None, count)
        entries.append(entry)
    return entries


def track(steps: list[int],
          evaluate: Callable[[int], dict[str, float]]) -> dict[int, dict[str, float]]:
    """Evaluate each checkpoint step in order: the trajectory, step -> metrics."""
    return {step: evaluate(step) for step in steps}


# -- files -----------------------------------------------------------------------


def write_trajectory(path: Path, trajectory: dict[int, dict[str, float]],
                     config_hash: str) -> None:
    names = sorted(next(iter(trajectory.values())))
    write_table(path, config_hash, ["step", *names],
                ([str(step), *(f"{metrics[n]:.17g}" for n in names)]
                 for step, metrics in trajectory.items()))


def write_correlations(path: Path, entries: list[CorrelationEntry], config_hash: str) -> None:
    rows = [[e.metric_a, e.metric_b,
             *(f"{r:.17g}" if e.defined else "nan" for r in (e.pearson_r, e.spearman_rho)),
             str(e.count), "ok" if e.defined else "undefined"] for e in entries]
    write_table(path, config_hash,
                ("metric_a", "metric_b", "pearson", "spearman", "n", "status"), rows)
