"""Every acceptance criterion (the paper's invariants) as a tier-1 test."""

import pytest

from flowstyle.acceptance import ALL_CRITERIA


@pytest.mark.parametrize("criterion", ALL_CRITERIA, ids=lambda fn: fn.__name__)
def test_criterion_passes(criterion):
    result = criterion()
    assert result.passed, result.line()
