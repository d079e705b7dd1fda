from pathlib import Path

import pytest

PKG_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return PKG_ROOT / "corpus"


@pytest.fixture(scope="session")
def corpus(corpus_dir):
    from skeinscan.verify import load_corpus

    return load_corpus(corpus_dir)


@pytest.fixture(scope="session")
def corpus_expected(corpus_dir):
    from skeinscan.verify import load_expected

    return load_expected(corpus_dir)


@pytest.fixture
def fresh_cuttings():
    """An empty cutting cache, so every search in the test runs (patched or
    not); emptied again afterwards."""
    from skeinscan import engine

    engine._CUTTINGS.clear()
    yield engine._CUTTINGS
    engine._CUTTINGS.clear()
