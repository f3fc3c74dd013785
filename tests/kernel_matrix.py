"""Every check that a byte-identical change needs, under each BLAS kernel family.

    python tests/kernel_matrix.py

For the kernel that numpy's bundled OpenBLAS picks, then for Haswell,
Sandybridge and Nehalem forced by `OPENBLAS_CORETYPE` in the child's
environment alone, it runs three checks, each in a fresh process on src/ of
this checkout, one at a time:

- kernel: the child's `support.blas_kernel()`, which must name the forced
  family; if it does not, the kernel's other checks are not run
- tier-1: `python -m pytest -q --continue-on-collection-errors`, which
  must pass with nothing skipped
- identity: `tests/identity_digest.py --compare`, which must find no path
  that differs from the kernel's record

It prints one line per kernel and check, `ok` or `FAIL` with the check's
last line of output, and under a failed tier-1 the lines that name each
failing test.  It exits 1 when any check fails.  The four kernels take
about four minutes on 2 cores.  It is run by hand: pytest does not collect
it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FORCED = ("Haswell", "Sandybridge", "Nehalem")
KERNEL_CODE = ("import sys; sys.path.insert(0, 'tests'); from support import blas_kernel; "
               "print(blas_kernel())")


def child(forced: str | None, *args: str) -> subprocess.CompletedProcess:
    """`python args` in a fresh process at the checkout's root, under the `forced` kernel."""
    env = dict(os.environ)
    env.pop("OPENBLAS_CORETYPE", None)
    if forced:
        env["OPENBLAS_CORETYPE"] = forced
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True)


def last_line(text: str) -> str:
    return (text.strip().splitlines() or ["(no output)"])[-1]


def checks(forced: str | None):
    """(check, passed, detail) of each check under `forced`, None being the picked kernel."""
    kernel = child(forced, "-c", KERNEL_CODE)
    ran = last_line(kernel.stdout) if kernel.returncode == 0 else last_line(kernel.stderr)
    if kernel.returncode or (forced and ran != forced):
        yield "kernel", False, ran
        return
    yield "kernel", True, ran
    tier1 = child(forced, "-m", "pytest", "-q", "--continue-on-collection-errors")
    summary = last_line(tier1.stdout)
    failing = [line for line in tier1.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    yield "tier-1", tier1.returncode == 0 and "skipped" not in summary, \
        "\n".join([summary, *("    " + line for line in failing)])
    identity = child(forced, "tests/identity_digest.py", "--compare")
    yield "identity", identity.returncode == 0, last_line(identity.stderr)


def main() -> int:
    failed = False
    for forced in (None, *FORCED):
        for check, passed, detail in checks(forced):
            print(f"{forced or 'native':<12} {check:<9} {'ok' if passed else 'FAIL':<5} {detail}",
                  flush=True)
            failed |= not passed
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
