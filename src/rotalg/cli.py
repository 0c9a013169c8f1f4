"""Command-line surface: evaluate, check, combine and plot ideal functions,
and run the sandbox verification suites.

Reports are JSON documents printed to stdout (or written with -o); every
computed set carries its certificate and every numeric claim its tolerance.
Exit codes: 0 success, 2 a check failed, 3 a certificate fell short of
exact under --require-exact, 4 bad input.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .angle import Angle, default_angle, named_angle
from .circleset import render_svg, set_from_json, set_to_json
from .idealfn import (canonical_decomposition, check_closed, classify_algebra,
                      closed_join, function_from_json, join_many, meet,
                      simplicity_report, values_equal)
from .sandbox import PhaseSearchFailed

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_NOT_EXACT = 3
EXIT_INPUT = 4


class InputError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        if path.lstrip().startswith("{"):
            return json.loads(path)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _resolve_angle(args) -> Angle:
    if getattr(args, "angle", None):
        try:
            return named_angle(args.angle)
        except Exception as exc:
            raise InputError(f"bad angle {args.angle!r}: {exc}") from exc
    return default_angle()


def _load_function(args, path: str, angle: Angle):
    """Rebuild an ideal function; an explicit --angle flag overrides the
    document's embedded angle, the environment default fills the gap."""
    doc = _load_json(path)
    try:
        if not getattr(args, "angle", None) and "angle" in doc:
            return function_from_json(doc)
        return function_from_json(doc, angle)
    except (KeyError, ValueError) as exc:
        raise InputError(f"bad ideal function in {path}: {exc}") from exc


def _cert_json(cert) -> dict:
    return {"status": cert.status, "depth": cert.depth, "note": cert.note}


def _window_values(fn, window: int) -> dict:
    out = {}
    for n in range(-window, window + 1):
        v, cert = fn.value(n)
        out[str(n)] = {"set": set_to_json(v), "certificate": _cert_json(cert)}
    return out


def _emit(args, report: dict) -> int:
    report = {"schema_version": SCHEMA_VERSION, "tool_version": __version__} | report
    text = json.dumps(report, sort_keys=True, indent=2)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if getattr(args, "require_exact", False) and not report.get("all_exact", True):
        return EXIT_NOT_EXACT
    if not report.get("ok", True):
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _all_exact(fn, window: int) -> bool:
    return all(fn.value(n)[1].exact for n in range(-window, window + 1))


# -- verbs --------------------------------------------------------------------


def cmd_eval(args) -> int:
    angle = _resolve_angle(args)
    fn = _load_function(args, args.function, angle)
    v, cert = fn.value(args.n)
    return _emit(args, {"verb": "eval", "n": args.n, "ok": True,
                        "angle": fn.angle.to_json(),
                        "result": {"set": set_to_json(v), "certificate": _cert_json(cert)},
                        "all_exact": cert.exact})


def cmd_check_closed(args) -> int:
    angle = _resolve_angle(args)
    fn = _load_function(args, args.function, angle)
    rep = check_closed(fn, args.window)
    return _emit(args, {"verb": "check-closed", "window": args.window,
                        "angle": fn.angle.to_json(), "ok": rep.ok,
                        "violations": [list(v) for v in rep.violations],
                        "all_exact": _all_exact(fn, 2 * args.window)})


def cmd_meet(args) -> int:
    angle = _resolve_angle(args)
    a = _load_function(args, args.left, angle)
    b = _load_function(args, args.right, angle)
    m = meet(a, b)
    return _emit(args, {"verb": "meet", "window": args.window, "ok": True,
                        "angle": m.angle.to_json(),
                        "values": _window_values(m, args.window),
                        "all_exact": _all_exact(m, args.window)})


def cmd_join(args) -> int:
    angle = _resolve_angle(args)
    a = _load_function(args, args.left, angle)
    b = _load_function(args, args.right, angle)
    j = closed_join(a, b, window=args.window, depth=args.depth)
    return _emit(args, {"verb": "join", "window": args.window, "depth": args.depth,
                        "ok": True, "angle": j.angle.to_json(),
                        "certificate": _cert_json(j.certificate),
                        "values": _window_values(j, args.window),
                        "all_exact": j.certificate.exact})


def cmd_close(args) -> int:
    angle = _resolve_angle(args)
    fn = _load_function(args, args.function, angle)
    j = join_many([fn], args.window, args.depth)
    return _emit(args, {"verb": "close", "window": args.window, "depth": args.depth,
                        "ok": True, "angle": fn.angle.to_json(),
                        "certificate": _cert_json(j.certificate),
                        "values": _window_values(j, args.window),
                        "unchanged": values_equal(fn, j, args.window),
                        "all_exact": j.certificate.exact})


def cmd_decompose(args) -> int:
    angle = _resolve_angle(args)
    fn = _load_function(args, args.function, angle)
    rep = canonical_decomposition(fn, args.window, args.depth)
    return _emit(args, {"verb": "decompose", "window": args.window,
                        "ok": rep.rejoin_ok, "angle": fn.angle.to_json(),
                        "critical": [{"n": n, "set": set_to_json(v)}
                                     for n, v in rep.critical],
                        "certificate": _cert_json(rep.certificate),
                        "all_exact": rep.certificate.exact})


def cmd_classify(args) -> int:
    angle = _resolve_angle(args)
    fn = _load_function(args, args.function, angle)
    rep = classify_algebra(fn, args.window)
    sup = rep.evidence["support"]
    return _emit(args, {"verb": "classify", "window": args.window, "ok": True,
                        "angle": fn.angle.to_json(), "verdict": rep.verdict,
                        "support": {"members": sup.members, "symbolic": sup.symbolic,
                                    "certificate": _cert_json(sup.certificate)},
                        "value_kinds": {str(k): v for k, v in
                                        rep.evidence["value_kinds"].items()},
                        "certificate": _cert_json(rep.certificate),
                        "all_exact": rep.certificate.exact})


def cmd_simplicity(args) -> int:
    angle = _resolve_angle(args)
    fn = _load_function(args, args.function, angle)
    rep = simplicity_report(fn, args.window)
    return _emit(args, {"verb": "simplicity", "window": args.window, "ok": True,
                        "angle": fn.angle.to_json(), "verdict": rep.verdict,
                        "q_intersection": {"set": set_to_json(rep.q_value),
                                           "certificate": _cert_json(rep.q_certificate)},
                        "notes": rep.notes,
                        "all_exact": rep.q_certificate.exact})


def cmd_plot(args) -> int:
    angle = _resolve_angle(args)
    doc = _load_json(args.input)
    if "repr" in doc:
        fn = _load_function(args, args.input, angle)
        v, _ = fn.value(args.n)
    else:
        v = set_from_json(angle, doc)
    svg = render_svg(v)
    out = args.output or "set.svg"
    with open(out, "w") as fh:
        fh.write(svg + "\n")
    print(json.dumps({"schema_version": SCHEMA_VERSION, "verb": "plot",
                      "ok": True, "written": out}, sort_keys=True))
    return EXIT_OK


def cmd_sandbox_verify(args) -> int:
    from . import suites
    runner = {
        "ring": suites.suite_ring_laws,
        "fejer": suites.suite_fejer,
        "averaging": suites.suite_averaging,
        "derivative": suites.suite_derivative,
        "center": suites.suite_center,
        "membership": suites.suite_membership,
    }.get(args.suite)
    if runner is None:
        raise InputError(f"unknown suite {args.suite!r}")
    angle = _resolve_angle(args)
    rep = runner(angle, n=args.n, tolerance=args.tolerance, seed=args.seed)
    return _emit(args, {"verb": "sandbox-verify", "suite": args.suite,
                        "angle": angle.to_json()} | rep)


def cmd_group_verify(args) -> int:
    from . import suites
    rep = suites.suite_finite_group(trials=args.trials)
    return _emit(args, {"verb": "group-verify"} | rep)


def cmd_schema(args) -> int:
    print(json.dumps(report_schema(), sort_keys=True, indent=2))
    return EXIT_OK


def report_schema() -> dict:
    """Machine-readable schema of the report documents this tool emits."""
    cert = {"type": "object",
            "properties": {"status": {"enum": ["Exact", "UpperBound"]},
                           "depth": {"type": "integer"},
                           "note": {"type": "string"}},
            "required": ["status"]}
    return {
        "$schema": "http://json-schema.org/draft-07/schema#",
        "title": "rotalg report",
        "type": "object",
        "properties": {
            "schema_version": {"const": SCHEMA_VERSION},
            "tool_version": {"type": "string"},
            "verb": {"type": "string"},
            "ok": {"type": "boolean"},
            "all_exact": {"type": "boolean"},
            "angle": {"type": "object"},
            "window": {"type": "integer"},
            "depth": {"type": "integer"},
            "certificate": cert,
            "values": {"type": "object"},
            "violations": {"type": "array"},
            "verdict": {"type": "string"},
            "notes": {"type": "string"},
        },
        "required": ["schema_version", "verb", "ok"],
        "definitions": {"certificate": cert},
    }


# -- entry point ----------------------------------------------------------------


def _common(p, window=True, depth=False):
    p.add_argument("--angle", help="named angle or JSON descriptor")
    p.add_argument("--require-exact", action="store_true", dest="require_exact")
    p.add_argument("-o", "--output", help="write the report here instead of stdout")
    if window:
        p.add_argument("--window", type=int, default=10)
    if depth:
        p.add_argument("--depth", type=int, default=6)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rotalg", description=__doc__)
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("eval", help="value of an ideal function at one index")
    p.add_argument("function")
    p.add_argument("-n", type=int, required=True)
    _common(p)
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("check-closed", help="verify the closure axioms on a window")
    p.add_argument("function")
    _common(p)
    p.set_defaults(run=cmd_check_closed)

    p = sub.add_parser("meet", help="pointwise meet of two ideal functions")
    p.add_argument("left")
    p.add_argument("right")
    _common(p)
    p.set_defaults(run=cmd_meet)

    p = sub.add_parser("join", help="certified closed join of two ideal functions")
    p.add_argument("left")
    p.add_argument("right")
    _common(p, depth=True)
    p.set_defaults(run=cmd_join)

    p = sub.add_parser("close", help="closure of an ideal function")
    p.add_argument("function")
    _common(p, depth=True)
    p.set_defaults(run=cmd_close)

    p = sub.add_parser("decompose", help="canonical generation by basics")
    p.add_argument("function")
    _common(p, depth=True)
    p.set_defaults(run=cmd_decompose)

    p = sub.add_parser("classify", help="residual / small classification")
    p.add_argument("function")
    _common(p)
    p.set_defaults(run=cmd_classify)

    p = sub.add_parser("simplicity", help="simplicity report for the algebra")
    p.add_argument("function")
    _common(p)
    p.set_defaults(run=cmd_simplicity)

    p = sub.add_parser("plot", help="render a circle set (or one value) as SVG")
    p.add_argument("input")
    p.add_argument("-n", type=int, default=1)
    _common(p, window=False)
    p.set_defaults(run=cmd_plot)

    p = sub.add_parser("sandbox-verify", help="run an operator-sandbox suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    _common(p, window=False)
    p.set_defaults(run=cmd_sandbox_verify)

    p = sub.add_parser("group-verify", help="run the finite-group suite")
    p.add_argument("--trials", type=int, default=200)
    _common(p, window=False)
    p.set_defaults(run=cmd_group_verify)

    p = sub.add_parser("schema", help="print the report document schema")
    p.set_defaults(run=cmd_schema)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (InputError, ValueError, KeyError, PhaseSearchFailed) as exc:
        # PhaseSearchFailed: the angle has no conjugator phase close enough
        # within the search bound, so the suite cannot run on this input
        print(json.dumps({"schema_version": SCHEMA_VERSION, "verb": args.verb,
                          "ok": False, "error": str(exc)}, sort_keys=True),
              file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
