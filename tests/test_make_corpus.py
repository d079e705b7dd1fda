import subprocess
import sys
from pathlib import Path

PKG = Path(__file__).resolve().parents[1]


def test_make_corpus_reproduces_the_corpus(tmp_path):
    # every diagram builder in construct validates its output, so a change
    # to arc-incidence checking or to a builder shows here
    subprocess.run([sys.executable, str(PKG / "tools" / "make_corpus.py"), str(tmp_path)],
                   check=True, capture_output=True)
    made = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    committed = {p.name: p.read_bytes() for p in (PKG / "corpus").iterdir()}
    assert sorted(made) == sorted(committed)
    assert [name for name in sorted(made) if made[name] != committed[name]] == []
