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


@pytest.fixture
def fresh_runs():
    """Empty run-weight memos (``skein._RUNS``, one per loop sign), so the
    test composes every weight itself; emptied again afterwards, so nothing
    it planted outlives it."""
    from skeinscan import skein

    for memo in skein._RUNS.values():
        memo.clear()
    yield skein._RUNS
    for memo in skein._RUNS.values():
        memo.clear()
