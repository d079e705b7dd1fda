"""Orders by name for parametrized tests: "anneal" stands for
``improve_cutting``'s seeded local search started from the greedy cutting,
which reaches the engine only as an explicit cutting; any other name is a
strategy that ``make_cutting`` takes, passed through."""

from skeinscan.cutorder import Cutting, greedy_cutting, improve_cutting
from skeinscan.planar import Diagram


def named_order(d: Diagram, order: str, seed: int = 0) -> str | Cutting:
    return improve_cutting(d, greedy_cutting(d), seed=seed) if order == "anneal" else order
