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


def write_table(path: Path, config_hash: str, header, rows) -> None:
    """The one writer of `# config_hash=` report tables: the hash line, then tab-joined rows."""
    lines = [f"# config_hash={config_hash}", "\t".join(header)]
    lines += ["\t".join(row) for row in rows]
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")
