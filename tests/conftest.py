from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from rignac.catalog import enumerate_minimally_rigid, minimally_rigid_graph6
from rignac.constructions import fixtures


@pytest.fixture(scope="session")
def fix():
    return fixtures()


@pytest.fixture(scope="session")
def catalog6():
    return enumerate_minimally_rigid(6)


@pytest.fixture(scope="session")
def catalog7():
    return enumerate_minimally_rigid(7)


@pytest.fixture(scope="session")
def laman_keys():
    """graph6 keys of minimally rigid classes for n = 3..7."""
    return {n: minimally_rigid_graph6(n) for n in range(3, 8)}


@pytest.fixture(scope="session")
def laman8_keys():
    """graph6 keys of the 608 minimally rigid classes for n = 8."""
    return minimally_rigid_graph6(8)
