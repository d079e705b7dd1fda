"""Build cuttings: orderings of elementary events that keep the scanned
region a disk while minimizing the peak frontier size (girth).

A cutting processes the diagram one crossing at a time.  Gluing a crossing
absorbs a contiguous run of frontier tokens (the arcs joining it to the
scanned region) and emits its remaining arcs as new tokens; completed arcs
whose two stubs become adjacent are capped immediately; crossingless circles
are a birth/cap pair.  Only the crossing pieces and the free loops are
scanned: a crossingless boundary chord is left out, and
``engine.expand_tangle`` adds it to the folded expansion.  The searches
cover exactly the disk gluings that absorb one contiguous token run per step
(a crossing whose frontier arcs sit in several separated runs can be glued
along one run, leaving the other arcs as stubs to cap later).

A piece of the diagram (a connected set of crossings) that has no frontier
tokens yet is a pocket piece: it starts by absorbing nothing, in the face it
shares with the frontier.  Its gap and its starting corners come from one
walk of that face (``_Scan.fresh_starts``), which steps over the diagram's
half-edges with the face successor of ``planar`` (along an arc to its other
end ``Diagram.other``, then one slot back): forwards to list its corners,
and backwards from the piece to the frontier token before it.  The backward
walk skips crossingless chords, which the scan leaves out.

The frontier is a circular list of distinct tokens, each the half-edge at
the unscanned end of its arc; neighbours h, k are the two stubs of one
completed arc, to be capped, when ``Diagram.other[h] == k``.  ``_Scan`` is
the one simulation of the frontier: the cutting loader checks only types,
and ``verify_cutting`` replays a loaded cutting on a scan.  Events that would
wrap the seam between positions g-1 and 0 first rotate the labelling so
their run starts at 0, by ``skein.glued_at``, the rule the state machine
and ``engine.step_end`` apply too, keeping every side aligned.

Greedy scans a twist region end to end: once it commits ci, a bigon partner
cj whose only frontier tokens are two neighbouring stubs of arcs from ci is
committed at once (``_Scan.twist_move``), unranked.  It absorbs 2 points and
emits 2, so it never grows the frontier.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import random
from dataclasses import dataclass
from operator import itemgetter

from .planar import Diagram, crossing_pieces
from .skein import Birth, Cap, Cross, Event, InvariantViolation, glued_at

# Cutwidth of a 4-valent planar graph is at most this constant times sqrt(n).
SQRT_BOUND_CONST = 6 * math.sqrt(2) + 5 * math.sqrt(3)

DEFAULT_EXACT_CAP = 20
_absorbed = itemgetter(1)  # of an (at, k, rot) move
LOOKAHEAD = 2  # greedy tie-break depth
# the type of each event field a cutting file may carry
_FIELD_TYPES = {"at": int, "absorb": int, "crossing": int, "rot": int, "over_first": bool}


class TooLarge(ValueError):
    """Raised when the exact search is asked for more crossings than its cap."""


class InvalidOrder(ValueError):
    """Raised when a crossing order cannot be realized as a disk scan."""


class InvalidCutting(ValueError):
    """Raised when an explicit cutting does not replay to the diagram."""


@dataclass
class Cutting:
    events: list[Event]
    girth: int
    source_order: list[int]
    final_rotation: int = 0

    def to_json(self) -> dict:
        evs = [{"type": "cross", "at": ev.at, "absorb": ev.absorb, "over_first": ev.over_first,
                "crossing": ev.crossing, "rot": ev.rot} if isinstance(ev, Cross)
               else {"type": "birth" if isinstance(ev, Birth) else "cap", "at": ev.at} for ev in self.events]
        return {"girth": self.girth, "source_order": list(self.source_order),
                "final_rotation": self.final_rotation, "events": evs}

    @classmethod
    def from_json(cls, data: dict) -> "Cutting":
        """Load a cutting, rejecting a malformed one and fields of the wrong
        type; ``verify_cutting`` replays what it holds."""
        events: list[Event] = []
        try:
            for ev in data["events"]:
                if ev["type"] == "birth":
                    events.append(Birth(ev["at"]))
                elif ev["type"] == "cap":
                    events.append(Cap(ev["at"]))
                elif ev["type"] == "cross":
                    events.append(Cross(ev["at"], ev["absorb"], ev["over_first"], ev.get("crossing"), ev.get("rot")))
                else:
                    raise InvalidCutting(f"unknown event type {ev['type']!r}")
                for name, kind in _FIELD_TYPES.items():
                    if name in ev and type(ev[name]) is not kind:
                        raise InvalidCutting(f"event field {name!r} must be {kind.__name__}, got {ev[name]!r}")
            girth, order, rot = data["girth"], data["source_order"], data.get("final_rotation", 0)
            if not (type(girth) is type(rot) is int and type(order) is list and all(type(ci) is int for ci in order)):
                raise InvalidCutting(f"girth {girth!r} and final_rotation {rot!r} must be ints, "
                                     f"source_order {order!r} a list of ints")
            return cls(events, girth, order, rot)
        except (KeyError, TypeError) as exc:
            raise InvalidCutting(f"malformed cutting: {exc!r}") from exc


# ---------------------------------------------------------------------------
# Scan simulation
# ---------------------------------------------------------------------------


class _Scan:
    """Frontier-token simulation shared by the compiler and the searches.

    Errors name its half-edge tokens by arc label.  It scans the crossing
    pieces and the free loops only, and opens with a birth/cap pair at 0
    per free loop (girth 2, the frontier left empty).  A crossingless
    boundary chord pairs the same two boundary points in every term, so the
    scan leaves it out and ``engine.expand_tangle`` adds it to the folded
    expansion."""

    def __init__(self, d: Diagram):
        self.d = d
        self.frontier: list[int] = []  # per position, the unscanned end of its arc
        self.events: list[Event] = [Birth(0), Cap(0)] * d.free_loops
        self.processed: set[int] = set()
        self.girth = 2 if d.free_loops else 0
        self.piece = crossing_pieces(d)
        self.piece_members: dict[int, list[int]] = {}
        for ci, p in enumerate(self.piece):
            self.piece_members.setdefault(p, []).append(ci)
        self.started_pieces: frozenset[int] = frozenset()

    # -- bookkeeping --------------------------------------------------------

    def clone(self) -> "_Scan":
        """A copy that shares what no step changes in place."""
        other = _Scan.__new__(_Scan)
        other.__dict__.update(self.__dict__, events=list(self.events), processed=set(self.processed))
        return other

    def mark(self) -> tuple:
        """A snapshot for ``undo``, in O(1): the frontier list and the
        started pieces are replaced, never changed in place."""
        return self.frontier, len(self.events), self.girth, self.started_pieces

    def undo(self, mark: tuple) -> None:
        """Go back to ``mark``, unprocessing the crossings applied since."""
        self.frontier, n_events, self.girth, self.started_pieces = mark
        self.processed.difference_update(ev.crossing for ev in self.events[n_events:] if isinstance(ev, Cross))
        del self.events[n_events:]

    def state_key(self) -> tuple:
        """Canonical (processed, frontier up to rotation) key for memoization:
        the frontier read from its least token."""
        f = self.frontier
        i = f.index(min(f)) if f else 0
        return frozenset(self.processed), tuple(f[i:] + f[:i])

    # -- elementary steps ----------------------------------------------------

    def _splice(self, at: int, k: int, tokens: list[int]) -> int:
        """Replace the k tokens from position `at` on by `tokens`; return
        where they start, ``glued_at``: a run that wraps the seam is first
        rotated to start at 0, as the state machine rotates its matchings."""
        f = self.frontier
        if k and glued_at(at, k, len(f)) != at:
            self.frontier, at = tokens + f[at + k - len(f):at], 0
        else:
            self.frontier = f[:at] + tokens + f[at + k:]
        self.girth = max(self.girth, len(self.frontier))
        return at

    def cascade_caps(self, joins: range | list[int]) -> None:
        """Cap every adjacent pair of stubs of the same completed interior
        arc (each stub is the other's half-edge), each time the first pair
        from position 0 on.  Between moves no such pair is left, so one can
        only form at ``joins``, where a splice made new neighbours (join i
        lies between positions i and i + 1, mod g), and at each cap's join."""
        other = self.d.other
        while len(f := self.frontier) > 1:
            g = len(f)
            pairs = [j % g for j in joins if other[f[j]] == f[(j + 1) % g]]  # joins run from -1 to g - 1
            if not pairs:
                return
            i = min(pairs)
            self.events.append(Cap(i))
            at = self._splice(i, 2, [])  # i, or 0 for the pair across the seam
            # no pair lies before i: only later joins and the cap's own can pair
            joins = [j % g - 2 for j in joins if j % g > i + 1] + [at - 1]

    # -- crossing moves ------------------------------------------------------

    def chains(self) -> dict[int, list[tuple[int, int, int]]]:
        """Per unprocessed crossing with frontier tokens, in id order, its
        chains as (at, k, rot) absorptions, from one pass over the frontier.
        A chain is a run of k neighbours whose slots decrease by one from
        the slot rot glued at position ``at`` (the gluing reverses
        orientation), so each of its sub-runs is an absorption too.  Chains
        come in position order, those of the run from position 0 last, its
        first chain joined to one ending at the seam if the slots go on."""
        f, n4, processed = self.frontier, 4 * self.d.n, self.processed
        found: dict[int, list[list[int]]] = {}  # per crossing, its chains as [at, k], ending before at + k
        for i, h in enumerate(f):
            if h < n4 and h >> 2 not in processed:
                if (cs := found.get(h >> 2)) is None:
                    found[h >> 2] = [[i, 1]]
                elif sum(c := cs[-1]) == i and (f[i - 1] - h) & 3 == 1:
                    c[1] += 1
                else:
                    cs.append([i, 1])
        chains = {}
        for ci in sorted(found):
            # the first m chains, which run on from position 0, go last
            if len(cs := found[ci]) > 1 and cs[0][0] == 0:
                m = next((j for j in range(1, len(cs)) if cs[j][0] != sum(cs[j - 1])), len(cs))
                if sum(cs[-1]) == len(f) and (f[-1] - f[0]) & 3 == 1:
                    cs[-1][1] += cs.pop(0)[1]
                    m -= 1
                cs = cs[m:] + cs[:m]
            chains[ci] = [(at, k, f[at] & 3) for at, k in cs]
        return chains

    def frontier_moves(self) -> dict[int, list[tuple[int, int, int]]]:
        """Per crossing of ``chains``, every sub-run of its chains: chain by
        chain, start by start, shortest first."""
        g = len(self.frontier)
        return {ci: [((at + s) % g, j, (rot - s) & 3) for at, k, rot in cs for s in range(k) for j in range(1, k - s + 1)]
                for ci, cs in self.chains().items()}

    def twist_move(self, ci: int) -> tuple[int, tuple[int, int, int]] | None:
        """The lowest bigon partner of ci and its move, or None: an
        unprocessed cj joined to ci by two arcs, whose stubs are its only
        frontier tokens, neighbours as one chain (``chains``) that cj absorbs."""
        other, n, processed, f = self.d.other, self.d.n, self.processed, self.frontier
        ends = [t >> 2 for t in other[4 * ci:4 * ci + 4]]
        for cj in sorted({c for c in ends if c < n and ends.count(c) == 2} - processed):
            # a half-edge of cj is a frontier token when its arc comes from a processed crossing
            tokens = [h for h in range(4 * cj, 4 * cj + 4) if other[h] < 4 * n and other[h] >> 2 in processed]
            if len(tokens) != 2 or tokens[1] - tokens[0] == 2:
                continue
            a = tokens[1] if tokens[1] - tokens[0] == 1 else tokens[0]  # slot s, the chain's first
            i, g = f.index(a), len(f)
            if f[(i + 1) % g] == a & ~3 | (a - 1) & 3:  # the next token holds slot s - 1
                return cj, (i, 2, a & 3)
        return None

    def _frontier_token_before(self, i: int, p: int) -> int | None:
        """Walk the face before boundary point i backwards (the face
        successor inverted), around the unprocessed crossings on it (in at
        slot r, out at slot r + 1), to the first frontier token; None when
        the walk comes back to piece p (the face is not the one p shares
        with the frontier)."""
        other, n4, g = self.d.other, 4 * self.d.n, self.d.g
        while True:
            i = (i - 1) % g
            k = other[n4 + i]
            if k >= n4:
                continue  # a chord, not scanned
            if self.piece[k >> 2] == p:
                return None
            while k >> 2 not in self.processed:
                k = other[k & ~3 | (k + 1) & 3]
                if k >= n4:
                    i = k - n4
                    break
            else:
                return other[k]  # it enters a processed crossing: a frontier token

    def fresh_starts(self, p: int) -> tuple[int, list[tuple[int, int]]]:
        """The gap and the (crossing, rot) starts of piece p, which has no
        frontier tokens yet.

        p goes into the face it shares with the frontier.  From each of p's
        boundary points in turn, walk the face before it backwards; the
        first walk that meets a frontier token z puts p right after z.
        Walking the same face forwards from that boundary point (the face
        successor: in at slot s, out at slot s - 1) lists p's corners on it:
        corner k lies between slots k and k + 1, and a start at rot = k
        emits slot k + 1 first.  When no walk meets the frontier, p starts
        at the seam, at any of its crossings, with rot 3, unless p and a
        started piece both touch the boundary: then an unstarted piece walls
        p off, and p gets no start yet."""
        other, n4 = self.d.other, 4 * self.d.n
        for i in range(self.d.g):
            h = other[n4 + i]
            if h >= n4 or self.piece[h >> 2] != p:
                continue
            z = self._frontier_token_before(i, p)
            if z is None:
                continue
            starts: list[tuple[int, int]] = []
            while h < n4:
                h = h & ~3 | (h - 1) & 3
                starts.append((h >> 2, h & 3))
                h = other[h]
            return self.frontier.index(z) + 1, starts
        reaching = {self.piece[k >> 2] for k in other[n4:] if k < n4}
        walled = p in reaching and not reaching.isdisjoint(self.started_pieces)
        return len(self.frontier), [] if walled else [(ci, 3) for ci in self.piece_members[p]]

    def size_after(self, ci: int, at: int, k: int, rot: int) -> int:
        """The frontier length ``apply_cross(ci, at, k, rot)`` leaves after
        its caps, without applying it, in O(cancellations).  Between moves
        no neighbours pair (``cascade_caps`` capped them all), and
        cancelling pairs of a circular word leaves the same length in any
        order: the kept tokens, then the emitted word, cancel as a stack,
        then the ends of what is left cancel, the word's into the kept
        tokens, or either side's into itself once the other is used up."""
        other, f, g = self.d.other, self.frontier, len(self.frontier)
        lo, hi = at + k, at + g - 1  # the kept tokens f[lo % g] to f[hi % g], then the word
        word: list[int] = []
        for s in range(rot + 1, rot + 5 - k):  # the tokens apply_cross emits
            tok = other[4 * ci + (s & 3)]
            if word and other[word[-1]] == tok:
                word.pop()
            elif not word and lo <= hi and other[f[hi % g]] == tok:
                hi -= 1
            else:
                word.append(tok)
        while lo <= hi and word and other[word[-1]] == f[lo % g]:
            word.pop()
            lo += 1
        while not word and lo < hi and other[f[hi % g]] == f[lo % g]:
            lo, hi = lo + 1, hi - 1
        while lo > hi and len(word) > 1 and other[word[-1]] == word[0]:
            del word[0], word[-1]
        return len(word) + hi - lo + 1

    def apply_cross(self, ci: int, at: int, k: int, rot: int) -> None:
        if ci in self.processed:
            raise InvariantViolation(f"crossing {ci} is already processed")
        over_first = (rot if k else rot + 1) % 2 == self.d.crossings[ci].over
        self.events.append(Cross(at, k, over_first, ci, rot))
        # after absorbing k tokens at slot rot, ci emits its next 4 - k slots' arcs
        tokens = [self.d.other[4 * ci + (s & 3)] for s in range(rot + 1, rot + 5 - k)]
        at = self._splice(at, k, tokens)
        self.processed.add(ci)
        self.started_pieces |= {self.piece[ci]}
        self.cascade_caps(range(at - 1, at + len(tokens)))

    # -- final phase ----------------------------------------------------------

    def finish(self) -> int:
        """Verify the frontier holds the boundary points that meet a
        crossing, in declared order, and return the rotation aligning
        position i with the i-th of them."""
        if len(self.processed) != self.d.n:
            raise InvalidOrder("not every crossing was processed")
        d, f, n4 = self.d, self.frontier, 4 * self.d.n
        target = [n4 + i for i, k in enumerate(d.other[n4:]) if k < n4]
        if not target:
            if f:
                raise InvalidOrder(f"leftover frontier tokens {list(map(d.label, f))}")
            return 0
        if len(f) != len(target):
            raise InvalidOrder(f"frontier has {len(f)} points, boundary declares {len(target)} crossing ends")
        r = f.index(target[0]) if target[0] in f else 0
        if f[r:] + f[:r] != target:
            raise InvalidOrder(f"frontier {list(map(d.label, f))} is no rotation of the boundary "
                               f"{list(map(d.label, target))}")
        return r


# ---------------------------------------------------------------------------
# Compilation and searches
# ---------------------------------------------------------------------------

def _fresh_moves(scan: _Scan, first_only: bool) -> list[tuple[int, tuple[int, int, int]]]:
    """Starts of the unstarted pieces, in the order of their first crossing:
    every start of each piece, or only its first."""
    moves: list[tuple[int, tuple[int, int, int]]] = []
    for p in scan.piece_members:
        if p not in scan.started_pieces:
            at, starts = scan.fresh_starts(p)
            moves.extend((ci, (at, 0, rot)) for ci, rot in (starts[:1] if first_only else starts))
    return moves


def compile_order(d: Diagram, order: list[int]) -> Cutting:
    """Compile an explicit crossing order into events, absorbing maximally.
    Raises InvalidOrder when a crossing is not glueable at its turn."""
    if sorted(order) != list(range(d.n)):
        raise InvalidOrder(f"order must be a permutation of 0..{d.n - 1}")
    scan = _Scan(d)
    for ci in order:
        if chains := scan.chains().get(ci):
            if len(chains) > 1:
                raise InvalidOrder(f"crossing {ci} is not glueable (tokens not one run)")
            scan.apply_cross(ci, *chains[0])
            continue
        if scan.piece[ci] in scan.started_pieces:
            raise InvalidOrder(f"crossing {ci} is unreachable from the frontier")
        at, starts = scan.fresh_starts(scan.piece[ci])
        rot = next((r for cj, r in starts if cj == ci), None)
        if rot is None:
            raise InvalidOrder(f"crossing {ci} has no corner on the face its piece shares with the frontier")
        scan.apply_cross(ci, at, 0, rot)
    rot = scan.finish()
    return Cutting(scan.events, scan.girth, list(order), rot)


def greedy_cutting(d: Diagram) -> Cutting:
    """Deterministic greedy scan: every step applies ``_greedy_move`` with a
    lookahead of LOOKAHEAD steps (unless its rollout kept it), on one scan.
    Committing ci keeps the sized candidates reached through ci.  Its bigon
    partner (``_Scan.twist_move``) goes next, unranked and without rollouts:
    it absorbs 2 points and emits 2, so the frontier never grows."""
    scan = _Scan(d)
    order: list[int] = []
    sized: dict = {}
    while (done := len(scan.processed)) < d.n:
        step = order and scan.twist_move(order[-1]) or _greedy_move(scan, sized)
        if step is None:
            raise InvariantViolation("greedy scan has no glueable crossing (unexpected)")
        ci, mv = step
        if len(scan.processed) == done:
            scan.apply_cross(ci, *mv)
        order.append(ci)
        sized = sized.get(ci, {})
    rot = scan.finish()
    return Cutting(scan.events, scan.girth, order, rot)


def _ranked(scan: _Scan, sized: dict) -> list[tuple[int, int, tuple[int, int, int]]]:
    """Greedy's candidates, each (frontier size after it, crossing, move):
    each glueable crossing's first longest chain (the first of its
    ``frontier_moves`` that absorbs the most), and each unstarted piece's
    first start, sized by ``_Scan.size_after``.  ``sized`` caches them under
    None, and under each crossing the dict of the state its move leads to."""
    if (ranked := sized.get(None)) is None:
        candidates = [(ci, max(cs, key=_absorbed)) for ci, cs in scan.chains().items()]
        candidates += _fresh_moves(scan, first_only=True)
        ranked = sized[None] = [(scan.size_after(ci, *mv), ci, mv) for ci, mv in candidates]
    return ranked


def _greedy_move(scan: _Scan, sized: dict) -> tuple[int, tuple[int, int, int]] | None:
    """The greedy rule: among the ``_ranked`` candidates, take the one
    leaving the smallest frontier, then the lowest crossing id.  Candidates
    tied at the smallest frontier are ranked first by the peak girth after
    LOOKAHEAD further greedy steps without lookahead (fewer when the scan
    runs out of candidates).  None when there is no candidate.

    Tied candidates roll out in id order on ``scan``, applying their moves
    but sizing the last.  No peak is below the floor, the larger of the
    girth and the least frontier, and ties go to the lower id: so the
    rollouts stop at one that reaches the floor, and a rollout stops once
    its girth reaches the best peak.  A winner that ran last keeps its
    first move applied (the caller sees ``scan.processed`` grow); other
    rollouts are undone."""
    if not (ranked := _ranked(scan, sized)):
        return None
    least = min(ranked)[0]
    tied = sorted(t for t in ranked if t[0] == least)  # crossing ids are unique, so no move is compared
    if len(tied) == 1:
        return tied[0][1:]
    mark, floor, best = scan.mark(), max(scan.girth, least), (1 << 30,)
    for i, (_, ci, mv) in enumerate(tied):
        step, node = (ci, mv), sized
        for depth in range(LOOKAHEAD):
            scan.apply_cross(step[0], *step[1])
            first = scan.mark() if not depth else first
            node = node.setdefault(step[0], {})
            if scan.girth >= best[0] or not (ranked := _ranked(scan, node)):
                peak = scan.girth  # the end of the scan, or an aborted rollout, which loses
                break
            step = min(ranked)[1:]
        else:  # the last step's peak is its spliced frontier, before its caps
            peak = max(scan.girth, len(scan.frontier) + 4 - 2 * step[1][1])
        if peak < best[0]:
            best = (peak, ci, mv)
            if peak == floor or i == len(tied) - 1:
                scan.undo(first)  # the winner keeps its first move
                return ci, mv
        scan.undo(mark)
    return best[1:]


def exact_min_girth(d: Diagram) -> Cutting:
    """Provably minimal girth over the covered disk-cutting space, by a
    bottleneck shortest-path search over (processed set, frontier) states:
    the cost of a path is the maximum frontier size along it, and states are
    expanded in increasing cost, so the first completed state is optimal."""
    if d.n > DEFAULT_EXACT_CAP:
        raise TooLarge(f"{d.n} crossings exceeds the exact-search cap {DEFAULT_EXACT_CAP}")
    base = _Scan(d)
    tick = itertools.count()  # unique, so entries never compare their scans
    # (peak, tick, scan, final rotation once the scan is complete)
    heap: list[tuple] = [(base.girth, next(tick), base, None)]
    settled: dict[tuple, int] = {}
    while heap:
        peak, _, scan, rot = heapq.heappop(heap)
        if rot is not None:
            order = [ev.crossing for ev in scan.events if isinstance(ev, Cross)]
            return Cutting(scan.events, scan.girth, order, rot)
        key = scan.state_key()
        if settled.get(key, 1 << 30) <= peak:
            continue
        settled[key] = peak
        if len(scan.processed) == d.n:
            try:
                rot = scan.finish()
            except InvalidOrder:
                continue  # complete, but not onto the declared boundary
            # queued rather than returned, so entries of equal peak pushed
            # earlier keep their turn
            heapq.heappush(heap, (peak, next(tick), scan, rot))
            continue
        moves = [(ci, mv) for ci, mvs in scan.frontier_moves().items() for mv in mvs]
        for ci, mv in moves + _fresh_moves(scan, first_only=False):
            child = scan.clone()
            child.apply_cross(ci, *mv)
            child_peak = max(peak, child.girth)
            ckey = child.state_key()
            if settled.get(ckey, 1 << 30) <= child_peak:
                continue
            heapq.heappush(heap, (child_peak, next(tick), child, None))
    raise InvalidOrder("search exhausted without completing the scan")


def improve_cutting(d: Diagram, start: Cutting, seed: int, iterations: int = 400) -> Cutting:
    """Seeded local search over crossing orders.  Proposes transpositions and
    single-element relocations of the source order, keeping the best valid
    compilation; never returns a cutting worse than ``start``."""
    rng = random.Random(seed)
    best = start
    try:
        current = compile_order(d, list(start.source_order))
        if current.girth < best.girth:
            best = current
    except InvalidOrder:
        current = None
    order = list(start.source_order)
    cur_girth = current.girth if current else 1 << 30
    n = d.n
    if n < 2:
        return best
    for _ in range(iterations):
        cand, swap = list(order), rng.random() < 0.5
        i, j = rng.randrange(n), rng.randrange(n)
        if swap:
            cand[i], cand[j] = cand[j], cand[i]
        else:
            cand.insert(j, cand.pop(i))
        try:
            compiled = compile_order(d, cand)
        except InvalidOrder:
            continue
        if compiled.girth <= cur_girth:
            order, cur_girth = cand, compiled.girth
            if compiled.girth < best.girth:
                best = compiled
    return best


def sqrt_bound_check(d: Diagram, cutting: Cutting) -> dict:
    """The cutwidth bound of a closed diagram: girth should not exceed
    (6*sqrt2 + 5*sqrt3)*sqrt(n).
    Crossingless diagrams are exempt (their girth 2 comes from loop births)."""
    bound = SQRT_BOUND_CONST * math.sqrt(d.n)
    return {"bound": bound, "ok": d.n == 0 or cutting.girth <= bound}


def verify_cutting(d: Diagram, cutting: Cutting) -> None:
    """Replay an explicit cutting against the diagram, applying each
    recorded move as recorded: an event must fit the frontier it meets (it
    absorbs at most what the frontier holds, and an insertion lands in a
    gap 0..g), and a crossing event is legal when its rot is a slot 0..3
    and, if it absorbs tokens, ``_Scan.frontier_moves`` offers its (at,
    absorb, rot).  The replay must then reproduce every recorded event
    (over_first included), the final rotation and the girth exactly, and
    ``source_order`` must list the crossings of the Cross events in order.
    Like the searches, it starts each piece of the diagram (a connected
    set of crossings) fresh only once; the fold's component count relies
    on that."""
    scan = _Scan(d)
    events = cutting.events
    pos = len(scan.events)
    if events[:pos] != scan.events:
        raise InvalidCutting(
            "cutting must open with the canonical free-loop events")
    while pos < len(events):
        ev, g = events[pos], len(scan.frontier)
        k = ev.absorb if isinstance(ev, Cross) else 2 if isinstance(ev, Cap) else 0
        if not 0 <= k <= min(4, g) or not k and not 0 <= ev.at <= g:
            raise InvalidCutting(f"{ev} does not fit a frontier of {g} points")
        if not isinstance(ev, Cross):
            raise InvalidCutting(f"replay emits no {ev} here: births and caps follow from the free loops and crossings")
        ci = ev.crossing
        if ci is None or not 0 <= ci < d.n or ci in scan.processed:
            raise InvalidCutting(f"bad crossing reference in {ev}")
        if ev.rot not in range(4):
            raise InvalidCutting(f"{ev} glues no crossing slot 0..3")
        moves = scan.frontier_moves().get(ci, [])
        if not k:
            if moves:
                raise InvalidCutting(f"{ev} ignores frontier arcs of crossing {ci}")
            if scan.piece[ci] in scan.started_pieces:
                raise InvalidCutting(f"{ev} starts crossing {ci}'s piece a second time")
        elif (ev.at, ev.absorb, ev.rot) not in moves:
            raise InvalidCutting(f"{ev} is not a legal gluing here")
        scan.apply_cross(ci, ev.at, ev.absorb, ev.rot)
        # events[:start] already matched, so a finished loop has matched them all
        start, pos = pos, len(scan.events)
        if events[start:pos] != scan.events[start:pos]:
            raise InvalidCutting("recorded events diverge from the replay")
    try:
        rot = scan.finish()
    except InvalidOrder as exc:
        raise InvalidCutting(str(exc)) from exc
    if rot != cutting.final_rotation:
        raise InvalidCutting("final rotation does not match")
    if scan.girth != cutting.girth:
        raise InvalidCutting(f"replayed girth {scan.girth} != recorded {cutting.girth}")
    if cutting.source_order != [ev.crossing for ev in events if isinstance(ev, Cross)]:
        raise InvalidCutting(f"source_order {cutting.source_order} is not the order of the cross events")
