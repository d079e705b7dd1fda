"""Command-line front end.

Subcommands:

* ``compute`` -- bracket / positive-variant / Jones of one diagram
* ``girth``   -- cutting analysis: achieved girth, the sqrt bound, state cap
* ``verify``  -- run the verification suites against the corpus

Exit codes: 0 success, 1 input error (a usage error included), 2 failed
checks (or a failed verify), 3 internal invariant violation.  ``compute``
prints its answer either way; with a failed check it exits 2.
Environment variables are never consulted; verify's --seed pins its
randomized choices.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .cutorder import Cutting, InvalidCutting, InvalidOrder, TooLarge, sqrt_bound_check
from .engine import (EmptyDiagram, NotClosed, compute_bracket, compute_jones, compute_pkbp, expand_tangle,
                     failed_checks, make_cutting)
from .matchings import catalan, format_matching
from .oracle import TooLarge as OracleTooLarge
from .planar import (ArcMultiplicityError, ColoringError, MissingOrientation, NonPlanarError, ParseError, parse_pd,
                     trace_faces)
from .skein import BRACKET, PKBP
from .verify import render_report, run_verify

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CHECKS = 2
EXIT_INTERNAL = 3

# the package's input errors, plus a cutting file that is not JSON, a
# binary @file and an unreadable one; every other exception is an engine fault
INPUT_ERRORS = (ParseError, ArcMultiplicityError, NonPlanarError, ColoringError,
                MissingOrientation, NotClosed, EmptyDiagram, InvalidOrder,
                InvalidCutting, TooLarge, OracleTooLarge, json.JSONDecodeError,
                UnicodeDecodeError, OSError)


def _read_pd(value: str):
    text = Path(value[1:]).read_text() if value.startswith("@") else value
    return parse_pd(text)


def _read_order(value: str):
    if value in ("greedy", "exact"):
        return value
    if value.startswith("@"):
        text = Path(value[1:]).read_text()
        try:
            data = json.loads(text, parse_int=_cutting_int)
        except RecursionError as exc:
            raise InvalidCutting("the cutting file nests too deeply") from exc
        return Cutting.from_json(data)
    raise ParseError(f"unknown order {value!r} (greedy|exact|@cutting.json)")


def _cutting_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError as exc:  # over int()'s digit limit
        raise InvalidCutting(f"a cutting field has {len(digits)} digits") from exc


def _parse_orientation(text: str | None):
    if text is None:
        return None
    signs = []
    for ch in text:
        if ch == "+":
            signs.append(1)
        elif ch == "-":
            signs.append(-1)
        else:
            raise ParseError(f"orientation must be a string of + and -, got {text!r}")
    return signs


def cmd_compute(args) -> int:
    d = _read_pd(args.pd)
    order = _read_order(args.order)
    tracer = None
    if args.trace:
        def tracer(ev, state):
            print(f"-- {ev}", file=sys.stderr)
            for line in state.dump_lines():
                print("   " + line, file=sys.stderr)

    if not d.is_closed and args.mode != "jones":  # jones needs a closed diagram
        result = expand_tangle(d, order=order, mode=PKBP if args.mode == "pkbp" else BRACKET,
                               trace_fn=tracer)
        rows = [(format_matching(m), str(p)) for m, p in sorted(result.coeffs.items())]
        payload = {
            "mode": result.mode,
            "girth": result.girth_used,
            "peak_state_size": result.peak_state_size,
            "expansion": dict(rows),
            "checks": result.diagnostics,
        }
        text = "\n".join(f"{m} : {p}" for m, p in rows)
    else:
        if args.mode == "jones":
            result = compute_jones(d, orientation=_parse_orientation(args.oriented),
                                   order=order, trace_fn=tracer)
        else:
            result = (compute_pkbp if args.mode == "pkbp" else compute_bracket)(d, order=order, trace_fn=tracer)
        payload, text = result.to_json(), str(result.polynomial)
    print(json.dumps(payload, indent=2, sort_keys=True) if args.json else text)
    failed = failed_checks(result.diagnostics)
    if failed and not args.json:
        print("failed checks:", file=sys.stderr)
        for key, info in failed.items():
            print(f"  {key}: {info['violations'][:3] if 'violations' in info else info}", file=sys.stderr)
    return EXIT_CHECKS if failed else EXIT_OK


def cmd_girth(args) -> int:
    d = _read_pd(args.pd)
    order = _read_order(args.order)
    trace_faces(d)  # rejects a nonplanar diagram before it is cut
    cutting = make_cutting(d, order)
    payload = {"n": d.n, "girth": cutting.girth, "state_cap": str(catalan(cutting.girth // 2)),
               "events": len(cutting.events)}
    bound = ""
    if d.is_closed:  # the sqrt bound is about closed diagrams, as in the fold's checks
        check = sqrt_bound_check(d, cutting)
        payload.update(sqrt_bound=check["bound"], within_bound=check["ok"])
        bound = f" bound={check['bound']:.2f} ok={check['ok']}"
    if args.json:
        payload["cutting"] = cutting.to_json()
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"n={d.n} girth={cutting.girth}{bound} state_cap=Catalan({cutting.girth // 2})={payload['state_cap']}")
    return EXIT_OK


def cmd_verify(args) -> int:
    report = run_verify(max_n=args.max_n, seed=args.seed)
    print(render_report(report, as_json=args.json))
    return EXIT_OK if report["ok"] else EXIT_CHECKS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skeinscan",
        description="Bracket polynomials of knots and links by frontier scanning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute a polynomial for one diagram")
    p.add_argument("--pd", required=True, help="inline PD text or @file")
    p.add_argument("--mode", default="bracket", choices=["bracket", "pkbp", "jones"])
    p.add_argument("--order", default="greedy", help="greedy|exact|@cutting.json")
    p.add_argument("--oriented", default=None, help="orientation signs per component, e.g. +-")
    p.add_argument("--json", action="store_true")
    p.add_argument("--trace", action="store_true", help="dump the state after each fold step (a run is one)")
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("girth", help="analyze the cutting of a diagram")
    p.add_argument("--pd", required=True)
    p.add_argument("--order", default="greedy")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_girth)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--max-n", type=int, default=12, dest="max_n")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # anything else is an engine fault
        print(f"internal invariant violation: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
