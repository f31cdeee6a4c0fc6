import pytest

from peelkit import _native, peeling


def pytest_addoption(parser):
    parser.addoption(
        "--reference-loops", action="store_true",
        help="run every compiled loop's reference (the Python h recurrence "
             "and series pass, the numpy lattice sums and row fill, the "
             "Python lockstep loop of finite runs and the numpy block "
             "rounds of infinite-map runs; compiled draws run only inside "
             "the last two) for the "
             "whole session, as where the compiled library does not load")


def pytest_configure(config):
    if config.getoption("--reference-loops"):
        _native._state = (None, ("python", "--reference-loops"))


@pytest.fixture(autouse=True)
def empty_engine_slot():
    """Every test starts without the chain engines an earlier test left in
    this thread's slot, depth parts and window parts alike, so what it
    builds and times does not depend on order."""
    peeling._slot.clear()
