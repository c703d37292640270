import pytest

@pytest.fixture
def solver():
    """The default root_tol."""
    return 1e-6
