"""The cheap groups of the bit-identity table (``tests/golden.py``).

Each group rebuilds its outputs and compares their sha256 with the row of
``golden.json`` for this numpy, BLAS and machine. An environment with no
row fails and names itself: the table then needs ``python
tests/golden.py --update`` on that environment, from a commit whose bits
are trusted.
"""

import pytest

import golden

CHEAP = [name for name, (_, cheap) in golden.GROUPS.items() if cheap]


@pytest.mark.parametrize("group", CHEAP)
def test_group_keeps_its_bits(group):
    key = golden.env_key()
    row = golden.load().get(key)
    assert row is not None, f"golden.json has no row for env {key!r}"
    moved = golden.moved(row, golden.GROUPS[group][0]())
    assert not moved, f"outputs moved on env {key!r}: {moved}"
