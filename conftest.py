"""Suite-wide guard: no test may leave a shared-memory block linked.

Every block the program creates is named under its process tree's
prefix (``repro.storage.shm.block_prefix``), so the check sees exactly
this run's blocks — never another run's leftovers in the host-wide
``/dev/shm`` — and names the test that leaked instead of failing a
later, innocent one.
"""

from __future__ import annotations

import pytest

from repro.storage.shm import block_prefix, linked_blocks, unlink_block


@pytest.fixture(autouse=True)
def no_stranded_shm_blocks():
    before = set(linked_blocks(block_prefix()))
    yield
    stranded = sorted(set(linked_blocks(block_prefix())) - before)
    for name in stranded:
        unlink_block(name)  # so the next test starts clean
    if stranded:
        pytest.fail(f"test left shared-memory blocks linked: {stranded}")
