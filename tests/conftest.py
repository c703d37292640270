import pytest

from upb import SolverConfig


@pytest.fixture
def solver():
    return SolverConfig()
