"""Top-level computations: bracket, positive variant, tangle expansion, and
the writhe-normalized Jones polynomial.

The fold replays a cutting's events through the skein state machine.  After
every fold step (``step_end``) the structural invariants are checked against
the partial tangle's crossing count n, component count c and frontier size
g, and any violation is recorded in the diagnostics (they all encode
theorems, so a violation means an engine bug or a deliberately mutated
build):

* no merge met two contributions whose exponents differ mod 4 (the state
  leaves such a contribution out and counts it, ``SkeinState.mixed``);
* every coefficient's span is at most 4(n + c) - 2g;
* the total spread of exponents is at most 4(n + c) (positive mode, where
  no cancellation can hide a violation);
* the state holds at most Catalan(g/2) matchings, and each coefficient has
  at most n + c - g/2 + 1 terms;
* in positive mode every integer coefficient is strictly positive.

Every coefficient is A^r times a polynomial in A^4, so its span is a
multiple of 4 and it has at most span/4 + 1 terms; span <= 4(n + c) - 2g
gives span/4 + 1 <= n + c - g/2 + 1, so the term bound follows from the
span bound.  ``SkeinState.span_bound`` bounds every span by w, four times
the widest coefficient's top slot, and every exponent by the lowest offset
r and the highest r plus w.  Most states pass on that alone, or on the
highest exponents against the lowest r.  The rest, such as states whose
cancellation left zero low slots that make w overstate a span, go to the
exact pass: it reads every coefficient's lowest and highest exponent,
counts terms only where the span allows more, and writes the reports.

n counts the Cross events so far.  c is the number of pieces of the diagram
(connected sets of crossings, ``crossing_pieces``) that some Cross event so
far belongs to, plus the births so far.  This holds because every cutting
starts a piece fresh (absorbing nothing) only while none of its crossings is
processed -- the searches offer fresh starts of unstarted pieces only, and
``compile_order`` and ``verify_cutting`` reject the rest -- and from then on
every crossing of the piece absorbs ends of that piece's one partial
component, so components never merge: each started piece is one component,
and so is each birth (a free loop; crossingless boundary chords are not
scanned, ``expand_tangle`` adds them after the fold).  A
cutting that broke the rule would make c too small, which only tightens the
bounds: it can raise a false alarm, never hide a violation.

The raw fold closes every loop with the loop value, so a closed diagram
yields the loop value times the result; one exact division restores the
normalization in which the unknot maps to 1 and a k-component unlink to
(loop value)^(k-1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .cutorder import Cutting, exact_min_girth, greedy_cutting, sqrt_bound_check, verify_cutting
from .laurent import LaurentPoly
from .matchings import Matching, catalan
from .planar import LIGHT, Diagram, FaceTrace, checkerboard, crossing_pieces, trace_faces, writhe
from .skein import BRACKET, LOOP_VALUES, PKBP, Birth, Cross, Event, InvariantViolation, SkeinState, glued_at


class NotClosed(ValueError):
    """Raised when a closed-diagram computation receives a tangle."""


class EmptyDiagram(ValueError):
    """Raised on a diagram with no components at all."""


@dataclass
class BracketResult:
    polynomial: LaurentPoly
    raw_polynomial: LaurentPoly
    mode: str
    girth_used: int
    peak_state_size: int
    diagnostics: dict
    cutting: Cutting = field(repr=False, default=None)

    @property
    def ok(self) -> bool:
        return not failed_checks(self.diagnostics)

    def to_json(self) -> dict:
        return {
            "polynomial": self.polynomial.to_json(),
            "polynomial_text": str(self.polynomial),
            "mode": self.mode,
            "girth": self.girth_used,
            "peak_state_size": self.peak_state_size,
            "checks": {k: v for k, v in self.diagnostics.items() if k != "timings"},
            "timings": self.diagnostics.get("timings", {}),
        }


def failed_checks(diagnostics: dict) -> dict:
    """The checks of a diagnostics report that failed: every dict entry
    whose ``ok`` is false."""
    return {key: check for key, check in diagnostics.items()
            if isinstance(check, dict) and not check.get("ok", True)}


@dataclass
class TangleExpansion:
    coeffs: dict[Matching, LaurentPoly]
    girth_used: int
    peak_state_size: int
    diagnostics: dict
    mode: str = BRACKET


def _check_state(state: SkeinState, n: int, c: int, report: dict) -> None:
    g = state.g
    span_bound, total_bound = 4 * (n + c) - 2 * g, 4 * (n + c)
    cat = catalan(g // 2)
    if state.size() > cat:
        report["storage"]["violations"].append(
            f"{state.size()} matchings exceed Catalan({g // 2}) = {cat}"
        )
    if state.mixed:
        report["mod4"]["violations"].append(
            f"{state.mixed} contributions with mixed exponent residues left out at n={n}, g={g}"
        )
    if state.mode == PKBP and (bad := state.nonpositive()):
        report["positivity"]["violations"] += [f"nonpositive coefficient at n={n}, g={g}"] * bad
    # the state-wide bound clears most states (see the module docstring);
    # the exact pass below decides the rest
    width, lo, hi = state.span_bound()
    if width <= span_bound and (hi + width - lo <= total_bound or state.top_exponent() - lo <= total_bound):
        return
    term_bound = n + c - g // 2 + 1
    ranges = state.exponent_ranges()
    for idx, mn, mx in ranges:
        if mx - mn > span_bound:
            report["span"]["violations"].append(
                f"span {mx - mn} > 4(n+c)-2g = {span_bound} at n={n}, c={c}, g={g}"
            )
            # more than term_bound terms need a span of 4 * term_bound = span_bound + 4
            if (terms := state.term_count(idx)) > term_bound:
                report["storage"]["violations"].append(
                    f"{terms} terms > n+c-g/2+1 = {term_bound} at n={n}, c={c}, g={g}"
                )
    if not ranges:
        return
    _, lows, highs = zip(*ranges)
    lo, hi = min(lows), max(highs)
    if hi - lo > total_bound:
        report["total_span"]["violations"].append(
            f"total span {hi - lo} > 4(n+c) = {total_bound} at n={n}, c={c}, g={g}"
        )


def _new_report() -> dict:
    return {key: {"violations": []} for key in ("mod4", "span", "total_span", "storage", "positivity")}


def step_end(state: SkeinState, events: list[Event], i: int) -> int:
    """The end of the fold step from events[i] on state: a maximal run of Cross
    events that each absorb 2 points where the first is glued (they keep g)."""
    j, ev = i + 1, events[i]
    if isinstance(ev, Cross) and ev.absorb == 2 and state.g >= 2:
        at = glued_at(ev.at, 2, state.g)
        while j < len(events) and isinstance(e := events[j], Cross) and e.absorb == 2 and e.at % state.g == at:
            j += 1
    return j


def fold_cutting(d: Diagram, cutting: Cutting, mode: str, trace_fn=None) -> tuple[SkeinState, dict, int]:
    """Replay a cutting's events by fold steps (``step_end``), checking
    invariants after every step, then the peak state against Catalan(girth/2)
    and, for a closed diagram, the girth against its sqrt bound.  Returns the
    final state, the diagnostics report, and the peak number of matchings
    held after a step (a run's inner states are never built)."""
    piece = crossing_pieces(d)
    state = SkeinState.initial(mode)
    report = _new_report()
    peak = state.size()
    n = births = i = 0
    started: set[int] = set()  # pieces some crossing so far belongs to
    events = cutting.events
    while i < len(events):
        j = step_end(state, events, i)
        step = events[i] if j == i + 1 else tuple(events[i:j])
        state = state.apply(step)
        for ev in events[i:j]:
            if isinstance(ev, Cross):
                n += 1
                started.add(piece[ev.crossing])
            elif isinstance(ev, Birth):
                births += 1
        peak = max(peak, state.size())
        _check_state(state, n, len(started) + births, report)
        if trace_fn is not None:
            trace_fn(step, state)
        i = j
    if cutting.final_rotation:
        state = state.rotated(cutting.final_rotation)
        if trace_fn is not None:
            trace_fn(f"rotate {cutting.final_rotation}", state)
    cap = catalan(cutting.girth // 2)
    report["storage"].update(peak_matchings=peak, catalan_cap=cap)
    if peak > cap:
        report["storage"]["violations"].append(f"peak state {peak} exceeds Catalan(girth/2) = {cap}")
    for key in list(report):
        report[key]["ok"] = not report[key]["violations"]
    # the sqrt bound is about closed diagrams: a tangle's fold ends with every
    # boundary end that meets a crossing on its frontier, up to 4n of them
    if d.is_closed:
        report["sqrt_bound"] = sqrt_bound_check(d, cutting)
    return state, report, peak


# The last search's cutting, shared by every mode and every call in the
# process: a cutting depends on the diagram alone, never on the loop value.
# Keyed by the strategy and the diagram's value (crossings with their over
# flags, free loops, boundary), so equal diagrams share one however they were
# built.  One entry: callers compute the modes of a diagram back to back.
_CUTTINGS: dict[tuple, Cutting] = {}


def make_cutting(d: Diagram, order="greedy") -> Cutting:
    """Verify an explicit cutting, or run the named search ("greedy" or
    "exact") unless the last search was of an equal diagram; each caller gets
    its own Cutting.  A search that raises is not kept, so it raises again."""
    if isinstance(order, Cutting):
        verify_cutting(d, order)
        return order
    if order not in ("greedy", "exact"):
        raise ValueError(f"unknown order strategy {order!r}")
    key = (order, d.free_loops, tuple(d.boundary_arcs), *((tuple(c.arcs), c.over) for c in d.crossings))
    cutting = _CUTTINGS.get(key)
    if cutting is None:
        cutting = greedy_cutting(d) if order == "greedy" else exact_min_girth(d)
        _CUTTINGS.clear()
        _CUTTINGS[key] = cutting
    return Cutting(list(cutting.events), cutting.girth, list(cutting.source_order), cutting.final_rotation)


def _compute(d: Diagram, mode: str, order, trace_fn) -> BracketResult:
    faces = trace_faces(d)  # rejects a nonplanar diagram, closed or not, before it is cut
    if not d.is_closed:
        raise NotClosed("bracket computation needs a closed diagram; use expand_tangle")
    if d.n == 0 and d.free_loops == 0:
        raise EmptyDiagram("the empty diagram has no components")
    t0 = time.perf_counter()
    cutting = make_cutting(d, order)
    t1 = time.perf_counter()
    state, report, peak = fold_cutting(d, cutting, mode, trace_fn)
    t2 = time.perf_counter()
    raw = state.coeffs.get(0, LaurentPoly.zero())
    polynomial = raw.exact_div(LOOP_VALUES[mode])
    if mode == BRACKET:
        report["mod4_link"] = check_mod4_link(d, raw, faces)
    report["timings"] = {
        "cutting_s": t1 - t0,
        "fold_s": t2 - t1,
    }
    return BracketResult(polynomial, raw, mode, cutting.girth, peak, report, cutting)


def compute_bracket(d: Diagram, order="greedy", trace_fn=None) -> BracketResult:
    """The bracket of a closed diagram, normalized so the unknot maps to 1.
    ``trace_fn(step, state)``, if given, sees the state after every fold
    step: an event, or the tuple of a run's events (``step_end``)."""
    return _compute(d, BRACKET, order, trace_fn)


def compute_pkbp(d: Diagram, order="greedy", trace_fn=None) -> BracketResult:
    """The positive variant: same fold with loop value A^2 + A^-2; not a link
    invariant, but cancellation-free, which makes the span bounds sharp."""
    return _compute(d, PKBP, order, trace_fn)


def _with_chords(d: Diagram, state: SkeinState) -> dict[Matching, LaurentPoly]:
    """Map each matching of the folded frontier, whose position i is the
    i-th boundary point that meets a crossing, onto the whole boundary, and
    pair the two points of every crossingless chord."""
    n4 = 4 * d.n
    ends = [i for i, k in enumerate(d.other[n4:]) if k < n4]
    if state.g != len(ends):
        raise InvariantViolation(f"fold ended with frontier {state.g}, expected {len(ends)}")
    # chord points paired, the rest filled per matching
    base = [k - n4 if k >= n4 else i for i, k in enumerate(d.other[n4:])]
    out = {}
    for m, poly in state.items():
        full = list(base)
        for i, j in enumerate(m):
            full[ends[i]] = ends[j]
        out[tuple(full)] = poly
    return out


def expand_tangle(d: Diagram, order="greedy", mode: str = BRACKET,
                  trace_fn=None) -> TangleExpansion:
    """Full skein expansion of a tangle over the matchings of its boundary,
    indexed so position i is boundary_arcs[i].  The fold (and ``trace_fn``)
    covers the crossing pieces only; the crossingless chords are added after
    it, and face tracing rejects a nonplanar chord layout up front."""
    if d.is_closed:
        raise ValueError("expand_tangle needs declared boundary arcs")
    trace_faces(d)
    cutting = make_cutting(d, order)
    state, report, peak = fold_cutting(d, cutting, mode, trace_fn)
    return TangleExpansion(_with_chords(d, state), cutting.girth, peak, report, mode)


def compute_jones(d: Diagram, orientation=None, order="greedy", trace_fn=None) -> BracketResult:
    """Writhe-normalized bracket (-A)^(-3w) * <L>, reported in the variable A.
    The usual single-variable form substitutes t = A^-4."""
    result = compute_bracket(d, order, trace_fn)
    w = writhe(d, orientation)
    factor = LaurentPoly.monomial(-1 if w % 2 else 1, -3 * w)
    jones = result.polynomial * factor
    result.diagnostics["writhe"] = w
    return BracketResult(jones, result.raw_polynomial, "jones", result.girth_used,
                         result.peak_state_size, result.diagnostics, result.cutting)


def check_mod4_link(d: Diagram, raw: LaurentPoly, trace: FaceTrace | None = None) -> dict:
    """Verify every exponent of the raw (pre-division) bracket against the
    checkerboard residue w + 2e mod 4 of the light-outer coloring.  The
    dark-outer residue, -w - 2n - 2e, is the same, since w = n mod 2.
    ``trace`` is the diagram's face trace, if already made."""
    out = {"violations": [], "ok": True}
    if raw.is_zero():
        out["violations"].append("raw bracket is zero")
        out["ok"] = False
        return out
    residues = {e % 4 for e, _ in raw}
    cb = checkerboard(d, trace=trace)
    expected = (cb.w + 2 * cb.e) % 4
    out[LIGHT] = {"w": cb.w, "e": cb.e, "expected_residue": expected}
    if residues != {expected}:
        out["violations"].append(
            f"raw exponents have residues {sorted(residues)} mod 4, expected "
            f"{expected} from w={cb.w}, e={cb.e}"
        )
    out["ok"] = not out["violations"]
    return out
