import time

import pytest

from subapprox.enumeration import _decide, enumerate_subspaces


@pytest.fixture(scope="session")
def enum_4_2_25():
    """Planes of R^4 up to height 25; shared by the heavyweight criteria."""
    t0 = time.time()
    enum = enumerate_subspaces(4, 2, 25)
    enum.build_seconds = time.time() - t0
    return enum


@pytest.fixture(scope="session")
def enum_5_2_10():
    t0 = time.time()
    enum = enumerate_subspaces(5, 2, 10)
    enum.build_seconds = time.time() - t0
    return enum


@pytest.fixture
def screened():
    """The rows :func:`_decide` refines for the float bounds [lo, hi]: those
    it calls ``exact`` on, with exact values that never end the run."""
    def rows(lo, hi, starts):
        called = []
        _decide([(lo, hi, starts)], lambda i: (called.append(i) or 1, i))
        return called
    return rows
