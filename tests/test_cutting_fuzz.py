"""Mutated cutting files either compute with every check ok (and the answer
of the diagram's own cutting) or raise one of the command line's input
errors (exit 1), never anything else."""

import copy

from hypothesis import given, settings, strategies as st

from skeinscan.cli import INPUT_ERRORS
from skeinscan.cutorder import Cutting, exact_min_girth, greedy_cutting
from skeinscan.engine import compute_bracket, expand_tangle, failed_checks
from skeinscan.verify import load_corpus, tangle_fixtures

DIAGRAMS = [d for _, d in sorted(load_corpus().items()) if d.n <= 12]
DIAGRAMS += [d for _, d in sorted(tangle_fixtures(0).items())]
# (diagram, the greedy or the exact cutting's JSON)
BASES = [(d, search(d).to_json()) for d in DIAGRAMS for search in (greedy_cutting, exact_min_girth)]

EVENT_FIELDS = ["type", "at", "absorb", "over_first", "crossing", "rot"]
HEADER_FIELDS = ["girth", "source_order", "final_rotation", "events"]
ODD_VALUES = [0, -1, 10**30, True, None, "0", 1.0, []]

_index = st.integers(0, 10**4)
_value = st.one_of(st.sampled_from(ODD_VALUES), st.integers(-2, 6), st.sampled_from(["birth", "cap", "cross"]))
MUTATION = st.one_of(
    st.tuples(st.just("set"), _index, st.sampled_from(EVENT_FIELDS), _value),
    st.tuples(st.just("drop"), _index, st.sampled_from(EVENT_FIELDS), st.none()),
    st.tuples(st.just("nudge"), _index, st.sampled_from(EVENT_FIELDS[1:]), st.sampled_from([-1, 1])),
    st.tuples(st.sampled_from(["delete", "duplicate", "append"]), _index, st.none(), st.none()),
    st.tuples(st.just("swap"), _index, st.none(), _index),
    st.tuples(st.just("header"), _index, st.sampled_from(HEADER_FIELDS), _value),
    st.tuples(st.just("unheader"), _index, st.sampled_from(HEADER_FIELDS), st.none()),
)


def _mutated(data: dict, mutations) -> dict:
    data = copy.deepcopy(data)
    for kind, i, name, x in mutations:
        events = data.get("events")
        if kind == "header":
            data[name] = x
        elif kind == "unheader":
            data.pop(name, None)
        elif type(events) is not list or not events:
            continue
        elif kind == "swap":
            i, j = i % len(events), x % len(events)
            events[i], events[j] = events[j], events[i]
        elif kind == "delete":
            del events[i % len(events)]
        elif kind in ("duplicate", "append"):
            ev = copy.deepcopy(events[i % len(events)])
            events.insert(i % len(events) if kind == "duplicate" else len(events), ev)
        elif type(ev := events[i % len(events)]) is dict:
            if kind == "set":
                ev[name] = x
            elif kind == "drop":
                ev.pop(name, None)
            elif type(ev.get(name)) is int:  # nudge
                ev[name] += x
            elif type(ev.get(name)) is bool:
                ev[name] = not ev[name]
    return data


def _answer(d, order):
    return compute_bracket(d, order=order).polynomial if d.is_closed else expand_tangle(d, order=order).coeffs


ANSWERS = [_answer(d, "greedy") for d, _ in BASES]


@settings(max_examples=1200, deadline=None, derandomize=True)
@given(base=st.integers(0, len(BASES) - 1), mutations=st.lists(MUTATION, min_size=1, max_size=3))
def test_mutated_cutting_computes_or_is_an_input_error(base, mutations):
    d, data = BASES[base]
    data = _mutated(data, mutations)
    try:
        cutting = Cutting.from_json(data)
        result = compute_bracket(d, order=cutting) if d.is_closed else expand_tangle(d, order=cutting)
    except INPUT_ERRORS:
        return
    assert failed_checks(result.diagnostics) == {}, data
    assert (result.polynomial if d.is_closed else result.coeffs) == ANSWERS[base], data
