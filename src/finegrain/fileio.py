"""Atomic text-file writes: a reader finds the old file or the new one, never a part."""

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path: Path):
    """Yield a text file at `<name>.tmp` beside `path`, renamed over it if the body completes.

    The suffix keeps the temporary name out of the step_*.ckpt and *_step_*.tsv globs.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
