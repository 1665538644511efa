import pytest

from recurra.sequences import OrbitOracleSequence


@pytest.fixture(scope="session")
def oracle():
    """One orbit-enumeration oracle for the session, every term read once.

    The oracle keeps all of its terms (fewer than ``WINDOW``), so tests that
    share it read the enumerated counts without enumerating again.
    """
    source = OrbitOracleSequence()
    source.terms(source.min_index, source.max_index)
    return source
