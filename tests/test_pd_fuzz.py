"""Mutated PD text either computes with every check ok or raises one of the
command line's input errors (exit 1), never anything else."""

from hypothesis import given, settings, strategies as st

from skeinscan.cli import INPUT_ERRORS
from skeinscan.engine import compute_bracket, expand_tangle, failed_checks
from skeinscan.planar import parse_pd, render_pd
from skeinscan.verify import CORPUS, tangle_fixtures

# the corpus files as written (comments included) and the tangle fixtures
TEXTS = [path.read_text() for path in sorted(CORPUS.glob("*.pd"))]
TEXTS += [render_pd(fixtures[name]) for fixtures in map(tangle_fixtures, range(4)) for name in sorted(fixtures)]

# PD syntax, a superscript digit and an Arabic-Indic one (int() reads the
# latter, the grammar takes ASCII digits only), and a label past int()'s
# 4300-digit limit
INSERTS = [*"X[],0123456789oOB# \n\t-", "²", "٣", "9" * 5000]

_place = st.integers(0, 10**4)
MUTATION = st.one_of(
    st.tuples(st.just("insert"), _place, st.sampled_from(INSERTS)),
    st.tuples(st.just("delete"), _place, st.just(0)),
    st.tuples(st.just("swap"), _place, _place),
)


def _mutated(text: str, mutations) -> str:
    for kind, i, x in mutations:
        i %= len(text) + 1
        if kind == "insert":
            text = text[:i] + x + text[i:]
        elif kind == "delete":
            text = text[:i] + text[i + 1:]
        elif text:
            i, j = sorted((i % len(text), x % len(text)))
            if i < j:
                text = text[:i] + text[j] + text[i + 1:j] + text[i] + text[j + 1:]
    return text


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(text=st.sampled_from(TEXTS), mutations=st.lists(MUTATION, min_size=1, max_size=4))
def test_mutated_pd_text_computes_or_is_an_input_error(text, mutations):
    text = _mutated(text, mutations)
    try:
        d = parse_pd(text)
        result = compute_bracket(d) if d.is_closed else expand_tangle(d)
    except INPUT_ERRORS:
        return
    assert failed_checks(result.diagnostics) == {}, text
