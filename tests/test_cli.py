import json
import subprocess
import sys
from pathlib import Path

import pytest

import skeinscan.cli as cli
import skeinscan.cutorder as cutorder
import skeinscan.engine as engine
from skeinscan.cutorder import Cutting, greedy_cutting
from skeinscan.matchings import catalan
from skeinscan.planar import parse_pd
from skeinscan.skein import Cap

PKG = Path(__file__).resolve().parents[1]
HOPF = "X[1,3,2,4] X[3,1,4,2]"
TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"


def run_cli(*args, expect: int = 0):
    proc = subprocess.run(
        [sys.executable, "-m", "skeinscan.cli", *args],
        capture_output=True, text=True, cwd=PKG,
    )
    assert proc.returncode == expect, (proc.returncode, proc.stdout, proc.stderr)
    return proc


def strip_timings(obj):
    if isinstance(obj, dict):
        return {k: strip_timings(v) for k, v in obj.items()
                if k != "timings" and not k.endswith("_s")}
    if isinstance(obj, list):
        return [strip_timings(x) for x in obj]
    return obj


def test_compute_unknot():
    proc = run_cli("compute", "--pd", "O", "--mode", "bracket")
    assert proc.stdout.strip() == "1"


def test_compute_hopf_json():
    proc = run_cli("compute", "--pd", HOPF, "--json")
    payload = json.loads(proc.stdout)
    assert payload["polynomial"] == {"4": "-1", "-4": "-1"}
    assert payload["girth"] == 4
    assert payload["checks"]["mod4"]["ok"]
    assert payload["checks"]["mod4_link"]["ok"]


def test_compute_bad_pd_exits_one():
    proc = run_cli("compute", "--pd", "X[1,2,3]", expect=1)
    assert "4 arc labels" in proc.stderr


def test_compute_multiplicity_error():
    proc = run_cli("compute", "--pd", "X[1,2,3,4] X[1,2,3,4] X[1,5,6,7]", expect=1)
    assert "arc 1" in proc.stderr


def test_compute_pkbp_and_jones():
    # positive mode: A^2*(A^2+A^-2) + 1 + 1 + A^-2*(A^2+A^-2), nothing cancels
    proc = run_cli("compute", "--pd", HOPF, "--mode", "pkbp")
    assert proc.stdout.strip() == "A^4 + 4 + A^-4"
    proc = run_cli("compute", "--pd", HOPF, "--mode", "jones", "--oriented", "++")
    assert proc.stdout.strip() == "-A^10 - A^2"
    proc = run_cli("compute", "--pd", HOPF, "--mode", "jones", "--oriented", "+-")
    assert proc.stdout.strip() == "-A^-2 - A^-10"


def test_jones_link_without_orientation_fails():
    run_cli("compute", "--pd", HOPF, "--mode", "jones", expect=1)


def test_jones_of_a_tangle_exits_one():
    proc = run_cli("compute", "--pd", "X[1,2,3,4]o0 B[1,2,3,4]", "--mode", "jones", expect=1)
    assert "needs a closed diagram" in proc.stderr


# a usage error is an input error: exit 2 means failed checks, with no
# flag asking for it
@pytest.mark.parametrize("args", [
    ["compute", "--pd", "O", "--bogus"],
    ["compute", "--pd", "O", "--mode", "foo"],
    ["compute", "--pd", "O", "--seed", "1"],
    ["girth", "--pd", "O", "--seed", "1"],
    ["compute", "--pd", "O", "--order", "anneal"],
    ["compute", "--pd", "O", "--strict"],
    ["verify", "--corpus", "corpus"],
])
def test_usage_errors_exit_one(args):
    proc = run_cli(*args, expect=1)
    assert "Traceback" not in proc.stderr


def test_help_exits_zero():
    assert "--order" in run_cli("compute", "--help").stdout


def test_compute_tangle_expansion():
    proc = run_cli("compute", "--pd", "X[1,2,3,4]o1 B[1,2,3,4]")
    lines = proc.stdout.strip().splitlines()
    assert lines == ["(0 1)(2 3) : A", "(0 3)(1 2) : A^-1"]


def test_tangle_json_carries_the_fold_end_checks():
    payload = json.loads(run_cli("compute", "--pd", "X[1,2,3,4]o1 B[1,2,3,4]", "--json").stdout)
    checks = payload["checks"]
    assert "sqrt_bound" not in checks  # a closed-diagram bound
    assert checks["storage"]["peak_matchings"] == payload["peak_state_size"]
    assert checks["storage"]["catalan_cap"] == 2  # Catalan(girth/2) at girth 4
    assert all(check["ok"] for check in checks.values())


@pytest.mark.parametrize("fault,pd", [
    ("state cap", TREFOIL),
    ("state cap", "X[1,2,3,4]o0 B[1,2,3,4]"),
    ("sqrt bound", TREFOIL),
])
@pytest.mark.parametrize("as_json", [False, True])
def test_failed_check_exits_two(monkeypatch, capsys, fault, pd, as_json):
    # closed diagrams and tangles share one verdict: the answer is printed,
    # and any failed check fails the run
    if fault == "state cap":
        monkeypatch.setattr(engine, "catalan", lambda m: 0 if m else 1)
        check, detail = "storage", "exceeds Catalan"
    else:
        monkeypatch.setattr(cutorder, "SQRT_BOUND_CONST", 0.5)
        check, detail = "sqrt_bound", "'bound': 0.86"
    assert cli.main(["compute", "--pd", pd] + ["--json"] * as_json) == cli.EXIT_CHECKS
    out, err = capsys.readouterr()
    if as_json:
        assert json.loads(out)["checks"][check]["ok"] is False
        assert err == ""
    else:
        assert out.strip()
        assert "failed checks:" in err and f"  {check}: " in err and detail in err


# 19 separate crossings with all 76 ends on the boundary: a valid tangle
# whose fold must end at girth 76, above the bound 17.146*sqrt(19) = 74.7
MANY_CROSSINGS = " ".join(f"X[{4 * i + 1},{4 * i + 2},{4 * i + 3},{4 * i + 4}]" for i in range(19)) \
    + f" B[{','.join(map(str, range(1, 77)))}]"


def test_tangle_is_not_held_to_the_sqrt_bound(monkeypatch, capsys):
    many = parse_pd(MANY_CROSSINGS)
    assert greedy_cutting(many).girth == 76 > cutorder.sqrt_bound_check(many, greedy_cutting(many))["bound"]
    # folding it holds 2^19 matchings, so shrink the bound below a one-crossing tangle's girth 4
    monkeypatch.setattr(cutorder, "SQRT_BOUND_CONST", 0.5)
    assert cli.main(["compute", "--pd", "X[1,2,3,4]o0 B[1,2,3,4]"]) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert out.strip() and err == ""


def test_trace_dumps_states():
    proc = run_cli("compute", "--pd", "O", "--trace")
    assert "Birth" in proc.stderr and "Cap" in proc.stderr


def test_girth_command():
    proc = run_cli("girth", "--pd", HOPF, "--order", "exact", "--json")
    payload = json.loads(proc.stdout)
    assert payload["girth"] == 4
    assert payload["within_bound"] is True
    assert payload["state_cap"] == "2"


def test_girth_reports_the_sqrt_bound_for_closed_diagrams_only(capsys):
    assert cli.main(["girth", "--pd", MANY_CROSSINGS, "--json"]) == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["girth"] == 76 and "sqrt_bound" not in payload and "within_bound" not in payload
    assert cli.main(["girth", "--pd", MANY_CROSSINGS]) == cli.EXIT_OK
    assert capsys.readouterr().out.strip() == f"n=19 girth=76 state_cap=Catalan(38)={catalan(38)}"
    assert cli.main(["girth", "--pd", HOPF]) == cli.EXIT_OK
    assert capsys.readouterr().out.strip() == "n=2 girth=4 bound=24.25 ok=True state_cap=Catalan(2)=2"


def test_explicit_cutting_roundtrip(tmp_path):
    proc = run_cli("girth", "--pd", HOPF, "--json")
    cutting = json.loads(proc.stdout)["cutting"]
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(cutting))
    proc = run_cli("compute", "--pd", HOPF, "--order", f"@{path}")
    assert proc.stdout.strip() == "-A^4 - A^-4"


@pytest.mark.parametrize("events", [
    [{"type": "cross", "at": 0, "absorb": 5, "over_first": True}],
    [{"type": "cross", "at": 0, "absorb": 2, "over_first": True}],
    [{"type": "cap", "at": 0}],
    [{"type": "birth", "at": 1}],
])
def test_cutting_that_does_not_fit_the_frontier_exits_one(tmp_path, events):
    path = tmp_path / "cut.json"
    path.write_text(json.dumps({"girth": 4, "source_order": [0, 1], "events": events}))
    proc = run_cli("compute", "--pd", HOPF, "--order", f"@{path}", expect=1)
    assert "frontier" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("field", ["rot", "at", "crossing"])
def test_cutting_field_of_the_wrong_type_exits_one(tmp_path, field):
    trefoil = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
    cutting = json.loads(run_cli("girth", "--pd", trefoil, "--json").stdout)["cutting"]
    first = cutting["events"][0]
    assert first["type"] == "cross" and first["absorb"] == 0
    first[field] = str(first[field])
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(cutting))
    proc = run_cli("compute", "--pd", trefoil, "--order", f"@{path}", expect=1)
    assert "Traceback" not in proc.stderr


# a float equal to the recorded int, or a source order that is no list of
# ints: before, the floats ended in a TypeError traceback and "abc" loaded
@pytest.mark.parametrize("pd, field, value", [
    ("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]", "girth", 4.0),
    ("X[3,4,6,5]o1 X[1,2,8,7]o0 B[1,2,3,4,6,5,8,7]", "final_rotation", 6.0),
    ("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]", "source_order", "abc"),
    ("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]", "source_order", [0, 1.0, 2]),
])
@pytest.mark.parametrize("command", [["compute"], ["compute", "--mode", "pkbp"], ["girth"]])
def test_cutting_header_of_the_wrong_type_exits_one(tmp_path, pd, field, value, command):
    cutting = greedy_cutting(parse_pd(pd)).to_json()
    if isinstance(value, float):
        assert cutting[field] == value
    cutting[field] = value
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(cutting))
    proc = run_cli(*command, "--pd", pd, "--order", f"@{path}", expect=1)
    assert field in proc.stderr
    assert "Traceback" not in proc.stderr


# a source order that is not the crossing order of the cross events: before,
# both loaded, and girth printed the wrong order back
@pytest.mark.parametrize("reorder", [lambda order: [7, 7, -3], lambda order: order[1:] + order[:1]],
                         ids=["not_a_permutation", "another_permutation"])
@pytest.mark.parametrize("command", [["compute"], ["girth", "--json"]])
def test_cutting_source_order_must_match_the_events(tmp_path, reorder, command):
    cutting = json.loads(run_cli("girth", "--pd", TREFOIL, "--json").stdout)["cutting"]
    assert cutting["source_order"] == [ev["crossing"] for ev in cutting["events"] if ev["type"] == "cross"]
    cutting["source_order"] = reorder(cutting["source_order"])
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(cutting))
    proc = run_cli(*command, "--pd", TREFOIL, "--order", f"@{path}", expect=1)
    assert "source_order" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cutting_restarting_a_started_piece_exits_one(tmp_path):
    # T(2,5) is one piece; its second fresh start (crossing 2) would split
    # one component into two partial ones
    crosses = [(0, 0, False, 0, 0), (1, 0, True, 2, 1), (3, 4, False, 1, 3),
               (1, 2, False, 3, 1), (0, 4, True, 4, 2)]
    events = [{"type": "cross", "at": at, "absorb": k, "over_first": f, "crossing": ci, "rot": rot}
              for at, k, f, ci, rot in crosses]
    path = tmp_path / "cut.json"
    path.write_text(json.dumps({"girth": 8, "source_order": [0, 2, 1, 3, 4], "events": events}))
    t25 = "X[1,2,4,3]o0 X[3,4,6,5]o0 X[5,6,8,7]o0 X[7,8,10,9]o0 X[9,10,2,1]o0"
    proc = run_cli("compute", "--pd", t25, "--order", f"@{path}", expect=1)
    assert "second time" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_engine_frontier_fault_exits_three(monkeypatch, capsys):
    # an engine-made cutting skips load-time validation, so a cap on an
    # empty frontier is an engine fault, not an input error
    monkeypatch.setattr(engine, "make_cutting", lambda *args: Cutting([Cap(0)], 2, []))
    assert cli.main(["compute", "--pd", HOPF]) == cli.EXIT_INTERNAL
    assert "internal invariant violation" in capsys.readouterr().err


@pytest.mark.parametrize("fault", ["processed crossing", "no crossing"])
def test_greedy_fault_exits_three(monkeypatch, capsys, fresh_cuttings, fault):
    # greedy offering a processed crossing, or none while some are left, is
    # an engine fault, not an input error
    greedy_move, first = cutorder._greedy_move, []

    def faulty_move(scan, sized):
        if fault == "no crossing":
            return None
        if not first:  # offered again at every step
            first.append(greedy_move(scan, sized))
        return first[0]

    monkeypatch.setattr(cutorder, "_greedy_move", faulty_move)
    assert cli.main(["compute", "--pd", HOPF]) == cli.EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "internal invariant violation: InvariantViolation" in err
    assert ("is already processed" if fault == "processed crossing" else "no glueable crossing") in err


def test_tangle_frontier_fault_exits_three(monkeypatch, capsys):
    # a fold that ends on the wrong frontier size is an engine fault
    fold = engine.fold_cutting

    def bad_fold(*args):
        state, report, peak = fold(*args)
        return state.birth(0), report, peak

    monkeypatch.setattr(engine, "fold_cutting", bad_fold)
    assert cli.main(["compute", "--pd", "X[1,2,3,4]o1 B[1,2,3,4]"]) == cli.EXIT_INTERNAL
    assert "internal invariant violation" in capsys.readouterr().err


def test_trace_cuts_and_folds_once(monkeypatch, capsys):
    calls = {"make_cutting": 0, "fold_cutting": 0}
    for name in calls:
        original = getattr(engine, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        # counted wherever it is called from, the CLI included
        monkeypatch.setattr(engine, name, counted)
        monkeypatch.setattr(cli, name, counted, raising=False)
    assert cli.main(["compute", "--pd", "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]", "--trace"]) == cli.EXIT_OK
    assert calls == {"make_cutting": 1, "fold_cutting": 1}
    assert "Cross" in capsys.readouterr().err


def test_chord_tangle_cutting_roundtrip(tmp_path):
    # the chord (5 5) sits between two boundary points of the crossing
    pd = "X[1,2,4,3]o0 B[1,2,5,5,4,3,6,6]"
    cutting = json.loads(run_cli("girth", "--pd", pd, "--json").stdout)["cutting"]
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(cutting))
    proc = run_cli("compute", "--pd", pd, "--order", f"@{path}")
    assert proc.stdout.strip().splitlines() == ["(0 1)(2 3)(4 5)(6 7) : A^-1", "(0 5)(1 4)(2 3)(6 7) : A"]


# X[1,2,1,2] is closed: compute used to cut it before any face trace and
# fail on "leftover frontier tokens [1, 2, 1, 2]"
@pytest.mark.parametrize("pd", ["B[1,2,1,2]", "X[1,2,4,3]o0 B[1,5,2,4,5,3]", "X[1,2,1,2]"])
def test_nonplanar_chord_layout_exits_one(pd):
    for command in (["compute", "--mode", "bracket"], ["compute", "--mode", "pkbp"],
                    ["compute", "--mode", "jones"], ["girth"]):
        proc = run_cli(*command, "--pd", pd, expect=1)
        assert "not planar" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_cutting_file_that_json_cannot_load_exits_one(tmp_path):
    # not JSON, an integer over int()'s digit limit, nesting past the
    # recursion limit
    path = tmp_path / "cut.json"
    path.write_text("{girth: 4")
    proc = run_cli("compute", "--pd", HOPF, "--order", f"@{path}", expect=1)
    assert "Traceback" not in proc.stderr
    cutting = greedy_cutting(parse_pd(HOPF)).to_json()
    cutting["girth"] = "GIRTH"
    path.write_text(json.dumps(cutting).replace('"GIRTH"', "4" * 5000))
    proc = run_cli("compute", "--pd", HOPF, "--order", f"@{path}", expect=1)
    assert "5000 digits" in proc.stderr
    path.write_text("[" * 100000 + "]" * 100000)
    proc = run_cli("compute", "--pd", HOPF, "--order", f"@{path}", expect=1)
    assert "nests too deeply" in proc.stderr


def test_binary_pd_file_exits_one(tmp_path):
    path = tmp_path / "d.pd"
    path.write_bytes(b"X[1,3,2,4] \xff\xfe")
    proc = run_cli("compute", "--pd", f"@{path}", expect=1)
    assert "Traceback" not in proc.stderr


def test_untyped_engine_error_exits_three(monkeypatch, capsys):
    # a bare ValueError out of the fold is an engine fault, not bad input
    def bad_fold(*args):
        raise ValueError("fold fault")

    monkeypatch.setattr(engine, "fold_cutting", bad_fold)
    assert cli.main(["compute", "--pd", HOPF]) == cli.EXIT_INTERNAL
    assert "fold fault" in capsys.readouterr().err


def test_pd_from_file(tmp_path):
    path = tmp_path / "d.pd"
    path.write_text("# a hopf diagram\n" + HOPF + "\n")
    proc = run_cli("compute", "--pd", f"@{path}")
    assert proc.stdout.strip() == "-A^4 - A^-4"


def test_verify_subset():
    proc = run_cli("verify", "--max-n", "6", "--seed", "3")
    assert "all suites passed" in proc.stdout


def test_verify_without_expected_values_exits_one(monkeypatch, capsys, tmp_path):
    # the stored-expectation check is never skipped: a corpus without
    # expected.json is an input error
    import skeinscan.verify as verify

    (tmp_path / "hopf.pd").write_text(HOPF)
    monkeypatch.setattr(verify, "CORPUS", tmp_path)
    assert cli.main(["verify", "--max-n", "6"]) == cli.EXIT_INPUT
    assert "expected.json" in capsys.readouterr().err


def test_verify_json_deterministic_modulo_timings():
    a = run_cli("verify", "--seed", "7", "--json", "--max-n", "8").stdout
    b = run_cli("verify", "--seed", "7", "--json", "--max-n", "8").stdout
    ja, jb = strip_timings(json.loads(a)), strip_timings(json.loads(b))
    assert json.dumps(ja, sort_keys=True) == json.dumps(jb, sort_keys=True)
