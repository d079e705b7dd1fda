"""Span tracer for the benchmark's traced run.

The tracer replaces the public functions of each skeinscan layer with
wrappers that time them, at the name the caller looks up (a module global
such as ``skeinscan.engine.make_cutting``, or a class attribute such as
``SkeinState.cross``).  Spans nest; a span's self time is its duration minus
the durations of the spans opened inside it, so the self times of all spans
add up to the duration of the root spans.

Counters that need a look at a layer's output (state sizes, term counts,
coefficient sizes) run in "after" hooks.  Their time is excluded from every
enclosing span, so collecting them does not inflate the traced wall time.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

ROOT_SPAN = "call"


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        # one [child seconds, excluded seconds] pair per open span; the
        # bottom entry collects the root spans
        self._stack: list[list[float]] = [[0.0, 0.0]]

    def wrap(self, name: str, fn, after=None):
        """Return fn wrapped in a span called name.  ``after(args, result)``
        runs once the span is closed, with its time excluded."""
        stack, self_s, total_s, calls = self._stack, self.self_s, self.total_s, self.calls

        def traced(*args, **kwargs):
            frame = [0.0, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0 - frame[1]
                self_s[name] = self_s.get(name, 0.0) + dur - frame[0]
                total_s[name] = total_s.get(name, 0.0) + dur
                calls[name] = calls.get(name, 0) + 1
                parent = stack[-1]
                parent[0] += dur
                parent[1] += frame[1]
            if after is not None:
                t2 = perf_counter()
                after(args, out)
                stack[-1][1] += perf_counter() - t2
            return out

        traced.__wrapped__ = fn
        return traced

    def timed(self, fn, *args):
        """Run fn(*args) as a root span; return (result, traced seconds).
        When fn raises, the span is still closed and the exception
        propagates."""
        before = self._stack[0][0]
        out = self.wrap(ROOT_SPAN, fn)(*args)
        return out, self._stack[0][0] - before

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def high(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            # the root spans' total: the traced counterpart of wall time
            "wall_s": self._stack[0][0],
        }


def _after_cutting(tracer):
    def after(args, cutting):
        tracer.count("cutorder.cuttings", 1)
        tracer.count("cutorder.girth_sum", cutting.girth)
        tracer.count("cutorder.events", len(cutting.events))
    return after


def _after_fold(tracer):
    def after(args, out):
        tracer.count("engine.folds", 1)
        tracer.count("skein.peak_sum", out[2])
    return after


def _after_apply(tracer, cross_type):
    def after(args, out):
        state, ev = args
        n_in = state.size()
        tracer.count("skein.entries_in", n_in)
        tracer.count("skein.keys_out", out.size())
        # a crossing expands every entry into two smoothings; births and caps
        # map each entry to one
        tracer.count("skein.surgery_out", 2 * n_in if isinstance(ev, cross_type) else n_in)
        for poly in out.coeffs.values():
            tracer.high("laurent.max_terms", len(poly))
            if poly:
                tracer.high("laurent.max_coeff_bits", max(abs(c) for _, c in poly).bit_length())
    return after


def layer_patches(tracer: Tracer) -> list[tuple]:
    """(owner, attribute, span name, after hook) for every layer boundary
    the traced run measures.  Each owner is where the caller looks the name
    up, so a module global is patched in the importing module."""
    from skeinscan import engine, laurent, matchings, planar, skein

    state, poly, basis = skein.SkeinState, laurent.LaurentPoly, matchings.Basis
    return [
        (planar, "parse_pd", "planar.parse", None),
        (engine, "trace_faces", "planar.faces", None),
        (engine, "checkerboard", "planar.checkerboard", None),
        (engine, "writhe", "planar.writhe", None),
        (engine, "make_cutting", "cutorder.cutting", _after_cutting(tracer)),
        (engine, "fold_cutting", "engine.fold", _after_fold(tracer)),
        (engine, "check_mod4_link", "engine.mod4_link", None),
        (engine, "compute_bracket", "engine.compute", None),
        (engine, "compute_pkbp", "engine.compute", None),
        (engine, "compute_jones", "engine.compute", None),
        (state, "apply", "skein.apply", _after_apply(tracer, skein.Cross)),
        (state, "cross", "skein.cross", None),
        (state, "cap", "skein.cap", None),
        (state, "birth", "skein.birth", None),
        (state, "rotated", "skein.rotate", None),
        (skein, "is_noncrossing", "matchings.noncrossing", None),
        (skein, "basis", "matchings.basis", None),
        (basis, "index_of", "matchings.basis", None),
        (basis, "matching", "matchings.basis", None),
        (poly, "__mul__", "laurent.mul", None),
        (poly, "__add__", "laurent.add", None),
        (poly, "exact_div", "laurent.div", None),
    ]


def fold_patches(tracer: Tracer) -> list[tuple]:
    """Only the fold, for the scaling fit: no inner spans to slow it down."""
    from skeinscan import engine

    return [(engine, "fold_cutting", "engine.fold", None)]


@contextmanager
def patched(tracer: Tracer, patches: list[tuple]):
    """Install the wrappers for the duration of the block, then restore the
    original attributes."""
    saved = []
    try:
        for owner, attr, name, after in patches:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
