"""Atomic file writes: a reader finds the old file or the new one, never a part.

Files are written as bytes, so a file has the same bytes on every OS: a text-mode
write would turn each "\n" into "\r\n" on Windows.  A caller that writes text
encodes it as UTF-8 itself.
"""

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path: Path):
    """Yield a binary file at `<name>.tmp` beside `path`, renamed over it if the body completes.

    The suffix keeps the temporary name out of the step_*.ckpt and *_step_*.tsv globs.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_table(path: Path, config_hash: str, header, rows) -> None:
    """The one writer of `# config_hash=` report tables: the hash line, then tab-joined rows."""
    lines = [f"# config_hash={config_hash}", "\t".join(header)]
    lines += ["\t".join(row) for row in rows]
    with atomic_open(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))
