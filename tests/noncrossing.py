"""Every noncrossing perfect matching on g points, enumerated, as the
reference the tests compare the fold's interned matchings against; the
package itself never enumerates a frontier."""

from functools import lru_cache

Matching = tuple[int, ...]


class OddBoundary(ValueError):
    """Raised when matchings are requested on an odd number of points."""


@lru_cache(maxsize=None)
def noncrossing_matchings(g: int) -> tuple[Matching, ...]:
    """All noncrossing perfect matchings on g points, as pair_of arrays in
    lexicographic order, which is the canonical order of listings."""
    if g % 2:
        raise OddBoundary(f"no perfect matching on {g} points")
    if g == 0:
        return ((),)

    def build(points: tuple[int, ...]):
        if not points:
            yield {}
            return
        first = points[0]
        for idx in range(1, len(points), 2):
            partner = points[idx]
            for left in build(points[1:idx]):
                for right in build(points[idx + 1:]):
                    yield {first: partner, partner: first, **left, **right}

    return tuple(sorted(tuple(pairing[i] for i in range(g)) for pairing in build(tuple(range(g)))))
