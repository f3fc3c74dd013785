"""Slot 0 of the byte-identity record, rerun in tier-1.

`tests/identity_digest.py --compare` checks all ten slots against the
committed record for the runtime BLAS kernel.  This test reruns slot 0
alone: its training, the eval at each checkpoint, the dynamics, the dense
retrieval table, the study-size scoring of its last checkpoint (about a
second more) and the checkpoint round trip, and compares their digests with
the record's lines.
"""

import pytest

from identity_digest import by_path, differing, digests, record, write_slot
from support import blas_kernel


def test_slot_0_keeps_the_recorded_bytes(tmp_path):
    kernel = blas_kernel()
    recorded = record(kernel)
    if recorded is None:
        pytest.skip(f"no identity record for BLAS kernel {kernel}")
    expected = {path: digest for path, digest in recorded.items() if path.startswith("slot_0/")}
    assert any(path.startswith("slot_0/study/") for path in expected)
    write_slot(0, tmp_path / "slot_0", study=True)
    assert differing(expected, by_path(digests(tmp_path))) == []
