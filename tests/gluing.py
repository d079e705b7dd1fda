"""The loop count of closing one noncrossing matching against the mirror of
another: the pairing a tangle-gluing check would weight by powers of the
loop value.  The package has no caller for it yet."""

Matching = tuple[int, ...]


class SizeMismatch(ValueError):
    """Raised when two matchings on different point counts are combined."""


def glue_loop_count(b: Matching, b2: Matching) -> int:
    """Number of closed loops formed by closing b against the mirror of b2.

    Follow the two involutions alternately from every point; each cycle is
    one loop.  Equal matchings give g/2 loops, the maximum; g = 0 gives 0.
    """
    if len(b) != len(b2):
        raise SizeMismatch(f"matchings on {len(b)} and {len(b2)} points")
    g = len(b)
    seen = [False] * g
    loops = 0
    for start in range(g):
        if seen[start]:
            continue
        loops += 1
        p = start
        while not seen[p]:
            seen[p] = True
            q = b[p]
            seen[q] = True
            p = b2[q]
    return loops
