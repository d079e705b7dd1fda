import collections
import dataclasses
import hashlib
import itertools
import json
import math
import random

import pytest
from cuttings import named_order

from skeinscan import cutorder
from skeinscan.construct import braid_closure, braid_tangle, pretzel, torus_link
from skeinscan.cutorder import (
    SQRT_BOUND_CONST, Cutting, InvalidCutting, InvalidOrder, TooLarge, compile_order,
    exact_min_girth, greedy_cutting, improve_cutting, sqrt_bound_check,
    verify_cutting,
)
from skeinscan.engine import compute_bracket, expand_tangle, make_cutting
from skeinscan.oracle import brute_force_tangle_expansion
from skeinscan.planar import crossing_pieces, parse_pd
from skeinscan.skein import Birth, Cap, Cross, InvariantViolation
from skeinscan.verify import tangle_fixtures

TREFOIL = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
FIG8 = parse_pd("X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]")
HOPF = parse_pd("X[1,3,2,4] X[3,1,4,2]")


def test_unknot_cutting():
    c = greedy_cutting(parse_pd("O"))
    assert c.events == [Birth(0), Cap(0)]
    assert c.girth == 2


def test_figure_eight_exact_girth_four():
    assert exact_min_girth(FIG8).girth == 4


def test_figure_eight_greedy_reasonable():
    g = greedy_cutting(FIG8).girth
    assert 4 <= g <= 6


def test_trefoil_and_hopf_exact_girth():
    assert exact_min_girth(TREFOIL).girth == 4
    assert exact_min_girth(HOPF).girth == 4


@pytest.mark.parametrize("k", [2, 3, 5, 10, 30])
def test_torus_family_scans_at_girth_four(k):
    c = greedy_cutting(torus_link(k))
    assert c.girth == 4
    verify_cutting(torus_link(k), c)


def test_exact_cap():
    with pytest.raises(TooLarge):
        exact_min_girth(torus_link(21))


def test_exact_never_worse_than_greedy(corpus):
    for name, d in corpus.items():
        if not 0 < d.n <= 8:
            continue
        ex = exact_min_girth(d).girth
        gr = greedy_cutting(d).girth
        assert ex <= gr, name


def test_improve_never_worsens_and_is_seeded():
    start = greedy_cutting(FIG8)
    better = improve_cutting(FIG8, start, seed=3, iterations=200)
    assert better.girth <= start.girth
    again = improve_cutting(FIG8, start, seed=3, iterations=200)
    assert again.girth == better.girth
    assert again.source_order == better.source_order


def test_improve_reaches_exact_girth_on_figure_eight():
    start = greedy_cutting(FIG8)
    best = min(
        improve_cutting(FIG8, start, seed=s, iterations=300).girth for s in range(4)
    )
    assert best == exact_min_girth(FIG8).girth == 4


def test_sqrt_bound_values():
    c = greedy_cutting(FIG8)
    chk = sqrt_bound_check(FIG8, c)
    assert chk["ok"]
    assert chk["bound"] == pytest.approx(SQRT_BOUND_CONST * 2.0)
    assert SQRT_BOUND_CONST * math.sqrt(1) == pytest.approx(17.146, abs=1e-3)
    one = braid_closure([1], 2)
    assert sqrt_bound_check(one, greedy_cutting(one))["bound"] == pytest.approx(17.146, abs=1e-3)


def test_sqrt_bound_crossingless_exempt():
    d = parse_pd("O")
    chk = sqrt_bound_check(d, greedy_cutting(d))
    assert chk["ok"] and chk["bound"] == 0.0


def test_sqrt_bound_on_corpus(corpus):
    for name, d in corpus.items():
        c = greedy_cutting(d)
        assert sqrt_bound_check(d, c)["ok"], name


def test_cutting_json_roundtrip_and_replay(corpus):
    for name, d in list(corpus.items())[:20]:
        c = greedy_cutting(d)
        verify_cutting(d, c)
        back = Cutting.from_json(c.to_json())
        assert back == c
        verify_cutting(d, back)


@pytest.mark.parametrize("data", [
    [],
    {"events": [{"type": "cross", "at": 0}], "girth": 4, "source_order": [0]},
    {"events": [{"type": "birth", "at": "0"}], "girth": 2, "source_order": []},
    {"events": [], "source_order": []},
])
def test_from_json_rejects_malformed_cuttings(data):
    with pytest.raises(InvalidCutting):
        Cutting.from_json(data)


def test_replay_rejects_wrong_diagram():
    c = greedy_cutting(TREFOIL)
    with pytest.raises(InvalidCutting):
        verify_cutting(TREFOIL.mirrored(), c)


def test_explicit_cutting_of_another_diagram_is_rejected():
    # the cutting is checked against the diagram it is folded over, not
    # only by the mod-4 check after the fold
    with pytest.raises(InvalidCutting):
        compute_bracket(TREFOIL.mirrored(), order=greedy_cutting(TREFOIL))


def test_exact_search_skips_scans_that_miss_the_boundary():
    # the first completed scan this search pops ends on a frontier that is
    # no rotation of the declared boundary; it is a dead end, not an error
    d = parse_pd("X[2,3,6,5]o1 X[6,4,8,7]o0 X[5,7,10,9]o1 B[1,2,3,4,8,10,9,1]")
    exact = exact_min_girth(d)
    verify_cutting(d, exact)
    assert exact.girth <= greedy_cutting(d).girth
    assert expand_tangle(d, order=exact).coeffs == brute_force_tangle_expansion(d)


# braid_tangle([5, -1, 3], 6): three one-crossing pieces on the boundary.
# Once crossing 0 is started, crossing 2 walls crossing 1 off from the
# frontier until it is started itself; a seam start for crossing 1 cannot
# finish on the declared boundary
WALLED = "X[5,6,8,7]o0 X[1,2,10,9]o1 X[3,4,12,11]o0 B[1,2,3,4,5,6,8,7,12,11,10,9]"


@pytest.mark.parametrize("order", ["greedy", "anneal"])
def test_a_walled_boundary_piece_waits_for_its_face(order):
    d = parse_pd(WALLED)
    assert expand_tangle(d, order=named_order(d, order)).coeffs == brute_force_tangle_expansion(d)


def test_braid_tangles_of_three_pieces_cut_like_exact():
    rng = random.Random(7)
    checked = 0
    for _ in range(1500):
        strands = rng.randint(2, 7)
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1) for _ in range(rng.randint(0, 14))]
        d = braid_tangle(word, strands)
        if len(set(crossing_pieces(d))) >= 3:
            assert expand_tangle(d).coeffs == expand_tangle(d, order="exact").coeffs, (word, strands)
            checked += 1
    assert checked >= 20


def test_replay_errors_name_arcs_by_label():
    d = parse_pd(WALLED)
    c = greedy_cutting(d)
    assert c.events[2] == Cross(6, 0, False, 1, 1)
    events = list(c.events)
    events[2] = dataclasses.replace(events[2], at=0)  # the wrong gap
    with pytest.raises(InvalidCutting) as err:
        verify_cutting(d, dataclasses.replace(c, events=events))
    assert str(err.value) == ("frontier [10, 9, 1, 2, 5, 6, 8, 7, 12, 11, 3, 4] is no rotation "
                              "of the boundary [1, 2, 3, 4, 5, 6, 8, 7, 12, 11, 10, 9]")


def test_replay_rejects_tampered_girth():
    c = greedy_cutting(TREFOIL)
    tampered = Cutting(c.events, c.girth + 2, c.source_order, c.final_rotation)
    with pytest.raises(InvalidCutting):
        verify_cutting(TREFOIL, tampered)


def test_replay_rejects_a_dropped_cap():
    d = parse_pd("X[2,3,6,5]o1 X[5,6,8,7]o0 X[1,7,2,1]o0 X[8,4,4,3]o1")
    c = greedy_cutting(d)
    i = c.events.index(Cap(4))  # emitted between two crossings
    assert 0 < i < len(c.events) - 2
    dropped = Cutting(c.events[:i] + c.events[i + 1:], c.girth, c.source_order, c.final_rotation)
    with pytest.raises(InvalidCutting, match="diverge"):
        verify_cutting(d, dropped)


@pytest.mark.parametrize("d", [TREFOIL, braid_tangle([-3, 1], 4)], ids=["trefoil", "split_tangle"])
def test_replay_rejects_a_flipped_over_first_or_an_out_of_range_rot(d):
    c = greedy_cutting(d)
    verify_cutting(d, c)
    crosses = [i for i, ev in enumerate(c.events) if isinstance(ev, Cross)]
    fresh = [i for i in crosses if c.events[i].absorb == 0]
    assert fresh
    tampered = [(i, dataclasses.replace(c.events[i], over_first=not c.events[i].over_first)) for i in crosses]
    tampered += [(i, dataclasses.replace(c.events[i], rot=rot)) for i in fresh for rot in (c.events[i].rot + 4, None)]
    for i, ev in tampered:
        events = c.events[:i] + [ev] + c.events[i + 1:]
        with pytest.raises(InvalidCutting):
            verify_cutting(d, Cutting(events, c.girth, c.source_order, c.final_rotation))


def test_replay_rejects_a_chord_birth():
    # crossingless chords are not scanned, so a cutting that births one
    # does not replay
    d = parse_pd("X[1,2,5,4]o0 B[1,2,3,3,5,4]")
    chord_first = Cutting([Birth(0), Cross(2, 0, True, 0, 1)], 6, [0], 4)
    with pytest.raises(InvalidCutting, match="Birth"):
        verify_cutting(d, chord_first)


def test_compile_explicit_orders():
    by_id = compile_order(TREFOIL, [0, 1, 2])
    assert by_id.girth >= 4
    verify_cutting(TREFOIL, by_id)


def test_exact_deterministic(corpus):
    sample = [d for d in corpus.values() if 0 < d.n <= 6][:5]
    for d in sample:
        a = exact_min_girth(d)
        b = exact_min_girth(d)
        assert a.events == b.events and a.girth == b.girth


@pytest.fixture
def scan_count(monkeypatch):
    """Count _Scan constructions."""
    count = [0]
    init = cutorder._Scan.__init__

    def counting(self, d):
        count[0] += 1
        init(self, d)

    monkeypatch.setattr(cutorder._Scan, "__init__", counting)
    return count


def test_greedy_starts_a_pocket_piece_in_one_scan(scan_count):
    d = braid_tangle([-3, 1], 4)
    c = greedy_cutting(d)
    assert scan_count[0] == 1
    assert expand_tangle(d, order=c).coeffs == brute_force_tangle_expansion(d)


def test_compile_order_starts_pieces_in_their_face(scan_count):
    d = parse_pd("X[3,4,8,7]o1 X[5,6,10,9]o1 X[7,8,12,11]o0 X[1,2,14,13]o1 "
                 "B[1,2,3,4,5,6,10,9,12,11,14,13]")
    c = compile_order(d, [0, 1, 3, 2])
    assert scan_count[0] == 1
    assert c.girth == 12
    assert expand_tangle(d, order=c).coeffs == brute_force_tangle_expansion(d)


def test_anneal_on_a_tangle_builds_one_scan_per_order(scan_count):
    # 400 proposed orders, the start order and the greedy scan
    d = braid_tangle([2, -5, -2, -5, -5, 3, -5, -3], 6)
    improve_cutting(d, greedy_cutting(d), seed=0)
    assert scan_count[0] <= 402


# the gap of a pocket piece must come from the face walk too: a gap
# between two adjacent boundary tokens with the walk's starts compiles only
# 4 of the first tangle's 6 orders and 16 of the second's 24
@pytest.mark.parametrize("pd", [
    "X[1,2,6,5]o0 X[3,4,8,7]o1 X[5,6,10,9]o0 B[1,2,3,4,8,7,10,9]",
    "X[1,2,6,5]o1 X[3,4,8,7]o1 X[5,6,10,9]o0 X[7,8,12,11]o0 B[1,2,3,4,12,11,10,9]",
])
def test_every_order_of_a_split_tangle_compiles(pd, scan_count):
    d = parse_pd(pd)
    oracle = brute_force_tangle_expansion(d)
    for order in itertools.permutations(range(d.n)):
        scan_count[0] = 0
        c = compile_order(d, list(order))
        assert scan_count[0] == 1, order
        assert expand_tangle(d, order=c).coeffs == oracle, order


# SHA-256 over the sorted corpus of each order's cutting JSON: a change to
# the searches that alters any corpus cutting fails here
CORPUS_CUTTING_DIGESTS = {
    "greedy": "f6ca283355f45ce5e00d7bf0a5594140b8502d19c8cc46254de976fc1737e048",
    "anneal": "8298b3dc4714176a3d9f22faa85812667f74341c096a5e648444c96d2cb49710",
    "exact": "372a6cfc08c718c579acbc554ec2100d626cc83bbbd7cdb1b0610432df1aa116",
}


@pytest.mark.parametrize("order", sorted(CORPUS_CUTTING_DIGESTS))
def test_corpus_cuttings_are_unchanged(corpus, order):
    digest = hashlib.sha256()
    for name in sorted(corpus):
        cutting = make_cutting(corpus[name], named_order(corpus[name], order))
        digest.update(json.dumps(cutting.to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == CORPUS_CUTTING_DIGESTS[order]


# the greedy cuttings of two benchmark inputs, T(2,1001) and T(8,9)
BENCH_GREEDY_DIGESTS = {
    "T(2,1001)": (lambda: torus_link(1001),
                  "11926ed5ddd331816250771956559a22c5ed56da9271fa3b86300fffb6f7c34e"),
    "T(8,9)": (lambda: braid_closure(list(range(1, 8)) * 9, 8),
               "ec5a07aa04fa0bd757b0a40bd829dc4da42ac78ea69fd66e980cdd5361ed7145"),
}


@pytest.mark.parametrize("name", sorted(BENCH_GREEDY_DIGESTS))
def test_benchmark_greedy_cuttings_are_unchanged(name):
    make, digest = BENCH_GREEDY_DIGESTS[name]
    data = json.dumps(greedy_cutting(make()).to_json(), sort_keys=True)
    assert hashlib.sha256(data.encode()).hexdigest() == digest


def _braid_closures(count, seed=13):
    """Seeded random braid closures on 4-7 strands with 6-60 crossings."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        strands = rng.randint(4, 7)
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1) for _ in range(rng.randint(6, 60))]
        out.append(braid_closure(word, strands))
    return out


def _pretzels(count, seed=27):
    """Seeded pretzel links of 2-5 twist regions with 1-5 crossings each."""
    rng = random.Random(seed)
    return [pretzel([rng.choice([1, -1]) * rng.randint(1, 5) for _ in range(rng.randint(2, 5))])
            for _ in range(count)]


def _pinned_sets(corpus):
    tangles = [d for seed in range(4) for _, d in sorted(tangle_fixtures(seed).items())]
    return {"corpus": [corpus[name] for name in sorted(corpus)], "closures": _braid_closures(60),
            "tangles": tangles, "pretzels": _pretzels(40)}


# greedy's girth per diagram of each pinned set, in set order
GREEDY_GIRTHS = {
    "corpus": [4, 4, 4, 4, 6, 6, 4, 6, 6, 6, 4, 6, 6, 6, 4, 4, 4, 4, 4, 4, 4, 4, 6, 6, 6, 6, 6,
               6, 6, 6, 6, 6, 6, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 6, 6, 4, 6, 4, 4, 2, 2, 2],
    "closures": [10, 8, 8, 6, 6, 8, 4, 6, 6, 8, 10, 6, 8, 8, 10, 10, 6, 10, 10, 8, 4, 8, 4, 8, 8, 12, 6, 6, 10, 12,
                 8, 8, 6, 8, 10, 8, 10, 6, 6, 10, 8, 8, 10, 8, 8, 12, 4, 12, 10, 6, 4, 8, 10, 10, 6, 8, 10, 6, 10, 10],
    "tangles": [4, 4, 6, 6, 6, 8, 8, 8, 0, 0, 0, 4, 4, 6, 6, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 6, 6, 6, 6, 6,
                0, 0, 0, 4, 4, 6, 6, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 6, 6, 6, 8, 0, 0, 0, 4, 4, 6, 6,
                4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 6, 6, 6, 8, 6, 0, 0, 0, 4, 4, 6, 6, 4, 4, 4, 4, 4, 4, 4, 4],
    "pretzels": [6, 4, 6, 6, 4, 4, 6, 6, 6, 6, 6, 4, 4, 6, 4, 4, 6, 6, 6, 4,
                 6, 4, 6, 4, 6, 4, 6, 6, 4, 6, 6, 4, 6, 6, 6, 6, 6, 6, 6, 4],
}


def test_greedy_girths_are_pinned(corpus):
    girths = {name: [greedy_cutting(d).girth for d in ds] for name, ds in _pinned_sets(corpus).items()}
    assert girths == GREEDY_GIRTHS


def test_twist_moves_are_legal_and_cuttings_replay(corpus, monkeypatch):
    # every twist move greedy commits is one frontier_moves offers, and
    # every greedy cutting of the pinned sets replays
    real, twists = cutorder._Scan.twist_move, []

    def checked(self, ci):
        if (step := real(self, ci)) is not None:
            assert step[1] in self.frontier_moves()[step[0]], (self.frontier, ci, step)
            twists.append(step)
        return step

    monkeypatch.setattr(cutorder._Scan, "twist_move", checked)
    for d in [d for ds in _pinned_sets(corpus).values() for d in ds] + [torus_link(60)]:
        verify_cutting(d, greedy_cutting(d))
    assert len(twists) > 500, len(twists)


def test_greedy_scans_a_twist_region_without_ranking(monkeypatch):
    counts = collections.Counter()
    real_chains, real_ranked = cutorder._Scan.chains, cutorder._ranked

    def chains(self):
        counts["chains"] += 1
        return real_chains(self)

    def ranked(scan, sized):
        counts["ranked"] += 1
        return real_ranked(scan, sized)

    monkeypatch.setattr(cutorder._Scan, "chains", chains)
    monkeypatch.setattr(cutorder, "_ranked", ranked)
    d = torus_link(1001)
    cutting = greedy_cutting(d)
    assert counts["chains"] <= 10 and counts["ranked"] <= 10, counts
    verify_cutting(d, cutting)


def test_a_crossing_filling_the_frontier_chains_across_the_seam(corpus):
    # braid_4s_11 after crossings 0-2: the frontier [15, 12] is slots 3 and
    # 0 of crossing 3, one chain from position 1 on across the seam
    scan = cutorder._Scan(corpus["braid_4s_11"])
    for ci, mv in [(0, (0, 0, 3)), (1, (2, 2, 1)), (2, (3, 1, 1))]:
        scan.apply_cross(ci, *mv)
    assert scan.frontier == [15, 12]
    assert scan.chains() == {3: [(1, 2, 0)]}
    assert (1, 2, 0) in scan.frontier_moves()[3]


def test_braid_and_tangle_fixture_greedy_cuttings_are_unchanged():
    # SHA-256 over the greedy cutting JSON of 60 braid closures and of
    # tangle_fixtures(0..3), taken with greedy's twist moves
    digest = hashlib.sha256()
    tangles = [d for seed in range(4) for _, d in sorted(tangle_fixtures(seed).items())]
    for d in _braid_closures(60) + tangles:
        digest.update(json.dumps(greedy_cutting(d).to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == "51279b4dc458c112089cded3ab444162e1612544ffaf66a5681eae589d9e1465"


def test_greedy_runs_on_one_scan_without_clones(corpus, monkeypatch):
    def refuse(self):
        raise AssertionError("greedy_cutting cloned its scan")

    monkeypatch.setattr(cutorder._Scan, "clone", refuse)
    for d in [*corpus.values(), torus_link(60)]:
        greedy_cutting(d)


def _legal_moves(scan):
    """Every run move of every frontier crossing and every fresh start."""
    moves = [(ci, mv) for ci, mvs in scan.frontier_moves().items() for mv in mvs]
    return moves + cutorder._fresh_moves(scan, first_only=False)


def reference_token_runs(scan, ci):
    """Maximal circular runs of frontier positions holding arcs of ci,
    read by a full scan of the frontier per crossing."""
    f = scan.frontier
    g = len(f)
    flags = [h >> 2 == ci for h in f]
    if not any(flags):
        return []
    # a run starts just after the first gap or, on a frontier of ci's tokens
    # alone, just after a break in their slots (at 0 if they all run on)
    gaps = [i + 1 for i, flag in enumerate(flags) if not flag]
    breaks = [i for i in range(g) if (f[i - 1] - f[i]) & 3 != 1]
    start = (gaps or breaks or [0])[0]
    runs = []
    for i in (j % g for j in range(start, start + g)):
        if flags[i] and flags[i - 1] and runs:
            runs[-1].append(i)
        elif flags[i]:
            runs.append([i])
    return runs


def reference_run_moves(scan, ci):
    """All (at, k, rot) sub-run absorptions of crossing ci, run by run."""
    moves = []
    f = scan.frontier
    for run in reference_token_runs(scan, ci):
        for start in range(len(run)):
            r0 = f[run[start]] & 3
            for j, pos in enumerate(run[start:start + 4]):
                if f[pos] & 3 != (r0 - j) % 4:
                    break
                moves.append((run[start], j + 1, r0))
    return moves


def reference_frontier_moves(scan):
    """The unprocessed crossings with frontier tokens, in id order, each
    with its moves from its own scan of the frontier."""
    n4 = 4 * scan.d.n
    crossings = sorted({h >> 2 for h in scan.frontier if h < n4 and h >> 2 not in scan.processed})
    return [(ci, reference_run_moves(scan, ci)) for ci in crossings]


def reference_cascade_caps(scan):
    """Cap the first pair from position 0 on, rescanning the whole frontier
    after every cap; a pair across the seam leaves f[1:-1]."""
    other = scan.d.other
    while len(f := scan.frontier) > 1:
        i = next((i for i in range(len(f)) if other[f[i]] == f[(i + 1) % len(f)]), None)
        if i is None:
            return
        scan.events.append(Cap(i))
        scan.frontier = f[1:-1] if i == len(f) - 1 else f[:i] + f[i + 2:]


def _walk_diagrams(corpus):
    return [*corpus.values(), *tangle_fixtures(0).values()]


def test_size_after_is_the_applied_frontier_length(corpus):
    rng = random.Random(3)
    checked = 0
    for d in _walk_diagrams(corpus):
        for _ in range(20):
            scan = cutorder._Scan(d)
            while moves := _legal_moves(scan):
                for ci, mv in moves:
                    probe = scan.clone()
                    probe.apply_cross(ci, *mv)
                    assert scan.size_after(ci, *mv) == len(probe.frontier), (ci, mv, scan.frontier)
                    checked += 1
                ci, mv = rng.choice(moves)
                scan.apply_cross(ci, *mv)
                assert len(set(scan.frontier)) == len(scan.frontier), scan.frontier
    assert checked > 10000


def test_undo_restores_the_marked_scan(corpus):
    def fields(scan):
        return scan.frontier, scan.events, scan.processed, scan.started_pieces, scan.girth

    rng = random.Random(4)
    for d in _walk_diagrams(corpus) * 5:
        scan = cutorder._Scan(d)
        while moves := _legal_moves(scan):
            mark, before = scan.mark(), scan.clone()
            for _ in range(2):  # the lookahead undoes to one mark many times
                for _ in range(rng.randint(1, 3)):
                    if not (ahead := _legal_moves(scan)):
                        break
                    ci, mv = rng.choice(ahead)
                    scan.apply_cross(ci, *mv)
                scan.undo(mark)
                assert fields(scan) == fields(before)
            ci, mv = rng.choice(moves)
            scan.apply_cross(ci, *mv)


def test_a_kept_move_replays_to_the_state_it_left(corpus):
    # undo(mark, keep=True) saves the one move undone: applying it next
    # restores its saved result (the very events it made), and any other
    # move is applied afresh
    def fields(scan):
        return scan.frontier, scan.events, scan.processed, scan.started_pieces, scan.girth

    rng = random.Random(8)
    replays = fresh = 0
    for d in _walk_diagrams(corpus) * 3:
        scan = cutorder._Scan(d)
        while moves := _legal_moves(scan):
            mark, n_events = scan.mark(), len(scan.events)
            ci, mv = rng.choice(moves)
            scan.apply_cross(ci, *mv)
            applied = scan.clone()
            scan.undo(mark, keep=True)
            others = [m for m in moves if m != (ci, mv)]
            again = rng.random() < 0.5 or not others
            ci, mv = (ci, mv) if again else rng.choice(others)
            expected = scan.clone()
            expected.apply_cross(ci, *mv)
            scan.apply_cross(ci, *mv)
            assert fields(scan) == fields(applied if again else expected)
            assert (scan.events[n_events] is applied.events[n_events]) == again
            replays, fresh = replays + again, fresh + (not again)
    assert replays > 300 and fresh > 300, (replays, fresh)


def _stub_walk(corpus, rng):
    """Random walks over the corpus, the tangle fixtures and 12 braid
    closures, six times each, yielding every state with its legal moves.
    Half the steps prefer a one-token absorption, which leaves stubs of the
    crossing on the frontier."""
    tangles = [d for seed in range(4) for d in tangle_fixtures(seed).values()]
    for d in [*corpus.values(), *tangles, *_braid_closures(12)] * 6:
        scan = cutorder._Scan(d)
        while moves := _legal_moves(scan):
            yield scan, moves
            ones = [m for m in moves if m[1][1] == 1]
            ci, mv = rng.choice(ones if ones and rng.random() < 0.5 else moves)
            scan.apply_cross(ci, *mv)


def test_frontier_moves_and_caps_match_the_full_scans(corpus):
    rng = random.Random(5)
    states = stubbed = caps = 0
    for scan, moves in _stub_walk(corpus, rng):
        assert list(scan.frontier_moves().items()) == reference_frontier_moves(scan), scan.frontier
        states += 1
        stubbed += any(h < 4 * scan.d.n and h >> 2 in scan.processed for h in scan.frontier)
        for ci, mv in rng.sample(moves, min(4, len(moves))):
            probe, ref = scan.clone(), scan.clone()
            probe.apply_cross(ci, *mv)
            ref.cascade_caps = lambda joins, ref=ref: reference_cascade_caps(ref)
            ref.apply_cross(ci, *mv)
            assert (probe.frontier, probe.events) == (ref.frontier, ref.events), (ci, mv, scan.frontier)
            assert scan.size_after(ci, *mv) == len(ref.frontier)
            caps += len(ref.events) - len(scan.events) - 1
    # the walks pass states holding stubs of processed crossings (which
    # frontier_moves must not offer) and moves that cap
    assert states > 5000 and stubbed > 100 and caps > 10000, (states, stubbed, caps)


def test_greedy_candidates_are_the_first_longest_moves(corpus):
    # greedy's candidate for each frontier crossing, read off one
    # ``chains`` pass, is the first of its moves that absorbs the most
    # tokens; the walk also passes crossings with two or more such moves,
    # where the first must win
    states = ties = 0
    for scan, _ in _stub_walk(corpus, random.Random(5)):
        reference = dict(reference_frontier_moves(scan))
        expected = {ci: max(moves, key=lambda m: m[1]) for ci, moves in reference.items()}
        assert {ci: mv for _, ci, mv in cutorder._ranked(scan, {}) if mv[1]} == expected, scan.frontier
        states += 1
        ties += sum(sum(m[1] == mv[1] for m in reference[ci]) > 1 for ci, mv in expected.items())
    assert states > 5000 and ties > 200, (states, ties)


def test_apply_cross_refuses_a_processed_crossing():
    scan = cutorder._Scan(TREFOIL)
    ci, mv = _legal_moves(scan)[0]
    scan.apply_cross(ci, *mv)
    before = scan.clone()
    with pytest.raises(InvariantViolation, match=f"crossing {ci} is already processed"):
        scan.apply_cross(ci, *mv)
    assert (scan.frontier, scan.events, scan.processed) == (before.frontier, before.events, before.processed)


# greedy's whole-frontier passes (``chains``) and applied moves, bounded
# at the counts of the cut rollouts and the twist moves: 2 and 60 on
# T(2,60), 41 and 64 on the closure (61 and 118, 43 and 69 with every
# crossing ranked, per committed crossing 1.02 and 1.97 on T(2,60), 1.19
# and 1.92 on the closure).  Rolling out every tied
# candidate in full, and applying the winner again, took 2.95 and 4.9, and
# 3.8 and 5.2; scanning the frontier per crossing took 5.75 and 23.9
# ``token_runs`` scans (plus as many ``run_moves`` scans)
GREEDY_CALLS = [
    (lambda: torus_link(60), 2, 60),
    (lambda: braid_closure([1, -2, 3, 3, -1, 2, 4, -3, 2, 2, -1, 4, 3, -2, 1, 1, -4, 3] * 2, 5), 41, 64),
]


@pytest.mark.parametrize("make, passes, applies", GREEDY_CALLS, ids=["T(2,60)", "braid"])
def test_greedy_reads_each_state_once(monkeypatch, make, passes, applies):
    counts = collections.Counter()
    for name in ("chains", "apply_cross"):
        def counted(self, *args, real=getattr(cutorder._Scan, name), name=name):
            counts[name] += 1
            return real(self, *args)
        monkeypatch.setattr(cutorder._Scan, name, counted)
    greedy_cutting(make())
    assert counts["chains"] <= passes and counts["apply_cross"] <= applies, counts


def _tied(scan):
    """Greedy's candidates that leave the smallest frontier, each as
    (frontier size after it, crossing, move)."""
    candidates = [(ci, max(mvs, key=lambda m: m[1])) for ci, mvs in scan.frontier_moves().items()]
    candidates += cutorder._fresh_moves(scan, first_only=True)
    ranked = [(scan.size_after(ci, *mv), ci, mv) for ci, mv in candidates]
    return [t for t in ranked if t[0] == min(ranked)[0]]


def reference_greedy_move(scan, lookahead=cutorder.LOOKAHEAD):
    """The greedy rule with full rollouts: every tied candidate rolls out on
    a clone, applying lookahead greedy steps and the step after them, and
    the least (peak girth, crossing, move) wins."""
    if not (tied := _tied(scan)):
        return None
    if not lookahead or len(tied) == 1:
        return min(tied)[1:]
    peaks = []
    for _, ci, mv in tied:
        probe, step = scan.clone(), (ci, mv)
        for _ in range(lookahead):
            probe.apply_cross(step[0], *step[1])
            if (step := reference_greedy_move(probe, 0)) is None:
                break
        else:
            probe.apply_cross(step[0], *step[1])  # its splice, before its caps, counts
        peaks.append((probe.girth, ci, mv))
    return min(peaks)[1:]


def test_cut_rollouts_choose_what_full_rollouts_choose(corpus, monkeypatch):
    def fields(scan):
        return scan.frontier, scan.events, scan.processed, scan.started_pieces, scan.girth

    calls, base, root = collections.Counter(), [0], {}
    real_ranked, real_apply = cutorder._ranked, cutorder._Scan.apply_cross

    def counted_ranked(scan, sized):
        calls["sized"] += sized is not root  # a state the rollouts reached
        return real_ranked(scan, sized)

    def counted_apply(self, ci, *mv):
        calls["first" if len(self.processed) == base[0] else "later"] += 1
        real_apply(self, ci, *mv)

    monkeypatch.setattr(cutorder, "_ranked", counted_ranked)
    monkeypatch.setattr(cutorder._Scan, "apply_cross", counted_apply)
    rng = random.Random(6)
    tangles = [d for seed in range(4) for d in tangle_fixtures(seed).values()]
    states = floor_stops = aborts = kept = 0
    for d in [*corpus.values(), *tangles, *_braid_closures(60)] * 4:
        scan = cutorder._Scan(d)
        while moves := _legal_moves(scan):
            expected, tied = reference_greedy_move(scan), _tied(scan)
            mark, before, base[0] = scan.mark(), scan.clone(), len(scan.processed)
            calls.clear()
            root.clear()
            step = cutorder._greedy_move(scan, root)
            assert step == expected, (scan.frontier, step, expected)
            states += 1
            if len(tied) > 1:
                floor_stops += calls["first"] < len(tied)  # whole rollouts skipped
                # every apply is sized, but an aborted rollout's last
                aborts += calls["first"] + calls["later"] - calls["sized"]
            if len(scan.processed) > base[0]:  # the winner kept its first move
                before.apply_cross(step[0], *step[1])
                assert fields(scan) == fields(before)
                kept += 1
            scan.undo(mark)
            ci, mv = rng.choice(moves)
            scan.apply_cross(ci, *mv)
    # an abort needs a first rollout above the floor and a later one that
    # climbs to its peak early: 59 rollouts in 43 of the 9780 states
    assert states > 9000 and floor_stops > 4000 and aborts > 40 and kept > 4000, (states, floor_stops, aborts, kept)
