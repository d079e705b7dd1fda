import pytest


@pytest.fixture(scope="session")
def corpus():
    from skeinscan.verify import load_corpus

    return load_corpus()


@pytest.fixture
def fresh_cuttings():
    """An empty cutting cache, so every search in the test runs (patched or
    not); emptied again afterwards."""
    from skeinscan import engine

    engine._CUTTINGS.clear()
    yield engine._CUTTINGS
    engine._CUTTINGS.clear()
