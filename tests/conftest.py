import pytest

from peelkit import peeling


@pytest.fixture(autouse=True)
def empty_engine_slot():
    """Every test starts without the chain engines an earlier test left in
    this thread's slot, so what it builds and times does not depend on order."""
    peeling._slot.held.clear()
