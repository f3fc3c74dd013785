"""Slot 0 and the depth slots of the byte-identity record, rerun in tier-1.

`tests/identity_digest.py --compare` checks every slot against the
committed record for the runtime BLAS kernel.  These tests rerun slot 0:
its training, the eval at each checkpoint, the dynamics, the dense
retrieval table, the study-size scoring of its last checkpoint (about a
second more) and the checkpoint round trip; and each depth slot, the tiny
config at one and at three cross layers (about 0.1 s each).  Each compares
its digests with the record's lines.
"""

import pytest

from identity_digest import (DEPTHS, by_path, differing, digests, record, write_depth_slot,
                             write_slot)
from support import blas_kernel


def recorded(slot: str) -> dict[str, str]:
    """The record's digests of the runtime kernel for the paths under `slot`/."""
    kernel = blas_kernel()
    lines = record(kernel)
    if lines is None:
        pytest.skip(f"no identity record for BLAS kernel {kernel}")
    expected = {path: digest for path, digest in lines.items() if path.startswith(f"{slot}/")}
    assert expected, f"the {kernel} record has no {slot} lines"
    return expected


def test_slot_0_keeps_the_recorded_bytes(tmp_path):
    expected = recorded("slot_0")
    assert any(path.startswith("slot_0/study/") for path in expected)
    write_slot(0, tmp_path / "slot_0", study=True)
    assert differing(expected, by_path(digests(tmp_path))) == []


@pytest.mark.parametrize("cross_layers", DEPTHS)
def test_depth_slot_keeps_the_recorded_bytes(tmp_path, cross_layers):
    slot = f"depth_{cross_layers}"
    expected = recorded(slot)
    write_depth_slot(cross_layers, tmp_path / slot)
    assert differing(expected, by_path(digests(tmp_path))) == []
