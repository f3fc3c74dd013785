"""Control runs for the host-speed scaling (hostspeed.py).

    OPENBLAS_NUM_THREADS=1 python3 perfbench/control.py

Runs train_full's 48-step run_training three ways, alternating in each of
ROUNDS rounds, and prints the scaled median step times and the median
host-kernel time of each:

- plain: the program as it is;
- busy: a wrapper placed where runner looks up training_step first runs a
  fixed amount of pure-Python work (BUSY_ITERATIONS) on every step;
- heap: the program as it is, with HEAP_OBJECTS extra tuples (about 50 MB)
  kept alive, which the garbage collector has to scan.

It also times the busy work alone, scaled.  If the scaling passes a real
change through, busy's step times exceed plain's by about that time; if the
program's heap does not move the divisor, heap's kernel time matches plain's.
Run it from the root of a checkout; it takes two to three minutes.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import replace
from pathlib import Path

import bench
from bench import runner
from hostspeed import HostSpeed

ROUNDS = 5
BUSY_ITERATIONS = 150_000
BUSY_SAMPLES = 40
HEAP_OBJECTS = 450_000


def busy() -> int:
    return sum(i * i for i in range(BUSY_ITERATIONS))


def with_busy(fn):
    def stepped(*args, **kwargs):
        busy()
        return fn(*args, **kwargs)

    return stepped


def one_training(spec: bench.Spec, run_dir: Path, condition: str) -> dict:
    original = runner.training_step
    heap = [(i, float(i)) for i in range(HEAP_OBJECTS)] if condition == "heap" else []
    if condition == "busy":
        runner.training_step = with_busy(original)
    try:
        gc.collect()
        with HostSpeed() as host:
            training = bench.observed_training(spec, bench.fresh_dir(run_dir),
                                               bench.Checker(None))
    finally:
        runner.training_step = original
    del heap
    out = {kind: statistics.median(host.seconds(*i) * 1e3 for i in intervals)
           for kind, intervals in training.steps.items()}
    out["kernel"] = statistics.median(e - s for s, e in zip(host.starts, host.ends)) * 1e3
    return out


def busy_alone() -> float:
    with HostSpeed() as host:
        times = []
        for _ in range(BUSY_SAMPLES):
            start = time.perf_counter()
            busy()
            times.append(host.seconds(start, time.perf_counter()) * 1e3)
    return statistics.median(times)


def main() -> int:
    spec = replace(bench.make_spec("train_full", seed=1, seconds=15), training_runs=1)
    base = bench.RUNS / "control"
    results: dict[str, list[dict]] = {"plain": [], "busy": [], "heap": []}
    alone = []
    for r in range(ROUNDS):
        for condition in results:
            results[condition].append(one_training(spec, base / condition, condition))
        alone.append(busy_alone())
        print(f"round {r + 1}: " + ", ".join(
            f"{c} caption {v[-1]['caption']:.2f} ms, kernel {v[-1]['kernel']:.3f} ms"
            for c, v in results.items()), flush=True)
    print(f"busy work alone: {statistics.median(alone):.3f} ms (scaled)")
    print("condition  caption_ms  detection_ms  kernel_ms")
    for condition, runs in results.items():
        row = [statistics.median(run[k] for run in runs)
               for k in ("caption", "detection", "kernel")]
        print(f"{condition:9s}  {row[0]:10.2f}  {row[1]:12.2f}  {row[2]:9.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
