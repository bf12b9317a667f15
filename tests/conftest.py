"""Shared test plumbing: the acceptance verdict block printed after a run,
and numpy's OpenBLAS held at a known thread count."""

import pytest

from ska import linalg

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def two_blas_threads():
    """numpy's OpenBLAS at 2 threads for the test, then back at the count it
    had; yields the thread count getter."""
    switch = linalg._openblas()
    if switch is None:
        pytest.skip("numpy's BLAS has no OpenBLAS thread switch")
    get, put = switch
    before = get()
    put(2)
    yield get
    put(before)
