"""Workload inputs and the independent answers each output is checked
against.

Every input is a braid closure, given as (word, strands); the worker turns
it into PD text with ``construct.braid_closure``.  The (2, k) torus knot is
``braid_closure([1] * k, 2)``, which is what ``construct.torus_link(k)``
builds.
"""

from __future__ import annotations

import random
import sys

# braid_batch composition: every (length, strands) cell once
SHAPE_SEED = 1303
BATCH_STRANDS = (4, 5, 6, 7)
BATCH_LENGTHS = (6, 8, 10, 12, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60)
ORACLE_MAX_N = 16
SECOND_CUTTING_ITERATIONS = 30


def torus_spec(p: int, q: int) -> tuple[list[int], int]:
    """The (p, q) torus link as the closure of (sigma_1 ... sigma_{p-1})^q."""
    return list(range(1, p)) * q, p


def scaling_specs() -> list[tuple[list[int], int]]:
    """The fold-scaling family: growing girth, then growing n at girth 4."""
    return [torus_spec(s, s + 1) for s in range(4, 9)] + [torus_spec(2, k) for k in (100, 400, 1000)]


def braid_batch(seed: int) -> list[tuple[list[int], int]]:
    """Braid words on 4-7 strands with 6-60 crossings, made of twist regions:
    runs of 1-3 equal letters, as in braids of real knots.

    The shapes (strand count, generator sequence, run lengths) are fixed;
    the seed picks the sign of every twist region.  Signs change every
    polynomial but not the diagram's graph, so the cutting, the girth and
    the state sizes, and with them the work asked for, are the same for
    every seed."""
    shapes = random.Random(SHAPE_SEED)
    signs = random.Random(seed)
    specs = []
    for length in BATCH_LENGTHS:
        for strands in BATCH_STRANDS:
            word: list[int] = []
            while len(word) < length:
                letter = shapes.randint(1, strands - 1) * signs.choice((1, -1))
                word += [letter] * shapes.randint(1, 3)
            specs.append((word[:length], strands))
    return specs


def _as_json(terms: dict[int, int]) -> dict[str, str]:
    """The polynomial format of ``LaurentPoly.to_json``."""
    return {str(e): str(terms[e]) for e in sorted(terms, reverse=True) if terms[e]}


def torus_jones(p: int, q: int) -> dict[str, str]:
    """Jones polynomial of the (p, q) torus knot in the variable A, from

        V(t) = t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2)

    with t = A^-4.  Plain integer arithmetic, nothing from skeinscan."""
    num: dict[int, int] = {}
    for e, c in ((0, 1), (p + 1, -1), (q + 1, -1), (p + q, 1)):
        num[e] = num.get(e, 0) + c
    top = p + q
    # quotient c of num / (1 - t^2): num_k = c_k - c_(k-2)
    quot: dict[int, int] = {}
    for k in range(top - 1):
        quot[k] = num.get(k, 0) + quot.get(k - 2, 0)
    for k in (top - 1, top):
        if num.get(k, 0) != -quot.get(k - 2, 0):
            raise ArithmeticError(f"closed form not divisible for T({p},{q})")
    shift = (p - 1) * (q - 1) // 2
    return _as_json({-4 * (k + shift): c for k, c in quot.items()})


def _checked(result) -> dict | None:
    return result.polynomial.to_json() if result.ok else None


def batch_references(specs, seed: int) -> list[dict[str, list[tuple[str, dict | None]]] | None]:
    """Reference answers per diagram and mode, none taken from the fold of
    the diagram's own greedy cutting:

    * the brute-force state sum, for diagrams of at most 16 crossings;
    * bracket: the closure of a cyclically conjugated word, which is the
      same diagram with its crossings numbered differently;
    * pkbp: the fold under a second cutting, found by ``improve_cutting``'s
      seeded local search started from the reversed greedy order (pkbp is a
      diagram state sum, not a link invariant, so the diagram must stay the
      same).  When the search finds no valid order, the conjugated closure's
      cutting serves instead.

    A reference that raises or fails its own runtime checks is recorded as
    None, and the calls it was meant to check count as failed.
    """
    from skeinscan import construct, cutorder, engine, oracle
    from skeinscan.skein import BRACKET, PKBP

    rng = random.Random(seed)
    refs = []
    for word, strands in specs:
        d = construct.braid_closure(word, strands)
        r = rng.randrange(1, len(word))
        conj = construct.braid_closure(word[r:] + word[:r], strands)
        out: dict[str, list] = {BRACKET: [], PKBP: []}
        try:
            out[BRACKET].append(("conjugate", _checked(engine.compute_bracket(conj))))
            greedy = cutorder.greedy_cutting(d)
            start = cutorder.Cutting([], sys.maxsize, list(reversed(greedy.source_order)))
            second = cutorder.improve_cutting(d, start, seed=rng.randrange(1 << 30),
                                              iterations=SECOND_CUTTING_ITERATIONS)
            if second is start or second.events == greedy.events:
                out[PKBP].append(("conjugate", _checked(engine.compute_pkbp(conj))))
            else:
                out[PKBP].append(("second_cutting", _checked(engine.compute_pkbp(d, order=second))))
            if d.n <= ORACLE_MAX_N:
                for mode in (BRACKET, PKBP):
                    out[mode].append(("oracle", oracle.brute_force_bracket(d, mode).to_json()))
        except Exception as exc:  # reported; the calls it covers count as failed
            print(f"# reference failed for {word} on {strands} strands: {exc!r}")
            out = None
        refs.append(out)
    return refs
