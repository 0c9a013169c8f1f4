"""Command-line surface: evaluate, check, combine and plot ideal functions,
and run the sandbox verification suites.

Reports are JSON documents printed to stdout (or written with -o); every
computed set carries its certificate and every numeric claim its tolerance.
Exit codes: 0 success, 1 stdout closed before the report was written,
2 a check failed, 3 a certificate fell short of exact under
--require-exact, 4 bad input.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import INFINITY, encode_basestring_ascii
from typing import Callable, NamedTuple, Optional

from . import __version__
from .angle import Angle, PhaseSearchFailed, golden_angle, named_angle
from .circleset import render_svg, set_from_json, set_to_json
from .idealfn import (COUNT_LIMIT, DEFAULT_DEPTH, DEFAULT_WINDOW, DEPTH_LIMIT, SEED_LIMIT,
                      canonical_decomposition, check_closed, classify_algebra, closed_join,
                      function_from_json, join_many, meet, simplicity_report, values_equal)

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_NOT_EXACT = 3
EXIT_INPUT = 4


class InputError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        if path.lstrip().startswith("{"):
            return json.loads(path)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _resolve_angle(args) -> Optional[Angle]:
    """The angle of the --angle flag, None when it is not given."""
    if not getattr(args, "angle", None):
        return None
    try:
        return named_angle(args.angle)
    except Exception as exc:
        raise InputError(f"bad angle {args.angle!r}: {_reason(exc)}") from exc


def _reason(exc: Exception) -> str:
    """What a reader's error says; a plain KeyError is a missing field (an
    OutsideWindowError, a subclass, names its index itself)."""
    return f"missing field {exc}" if type(exc) is KeyError else str(exc)


def _load_function(path: str, angle: Optional[Angle]):
    return _function_from_doc(_load_json(path), path, angle)


def _function_from_doc(doc: dict, path: str, angle: Optional[Angle]):
    """Rebuild an ideal function; the --angle flag's angle overrides the
    document's embedded angles, and a document without one is read at the
    golden angle."""
    gap = angle is None and isinstance(doc, dict) and "angle" not in doc
    try:
        return function_from_json(doc, angle, outer=golden_angle() if gap else None)
    except (KeyError, ValueError) as exc:
        raise InputError(f"bad ideal function in {path}: {_reason(exc)}") from exc


def _cert_json(cert) -> dict:
    return {"status": cert.status, "depth": cert.depth, "note": cert.note}


def _window_values(fn, window: int) -> dict:
    out = {}
    for n in range(-window, window + 1):
        v, cert = fn.value(n)
        out[str(n)] = {"set": set_to_json(v), "certificate": _cert_json(cert)}
    return out


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == INFINITY:
        return "Infinity"
    if x == -INFINITY:
        return "-Infinity"
    return float.__repr__(x)


# the text of each scalar type, as the stdlib writes it
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, float: _float_text,
            bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def _json_text(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte, from one
    list of pieces joined once (the stdlib writes indented JSON through its
    pure-Python encoder)."""
    out: list[str] = []
    _write_json(obj, out, "\n")
    return "".join(out)


def _write_json(obj, out: list, nl: str) -> None:
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        out.append(scalar(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            name = key if isinstance(key, str) else _scalar_text(key)
            if name is None:
                raise TypeError(f"keys must be str, int, float, bool or None, "
                                f"not {key.__class__.__name__}")
            out.append(sep + encode_basestring_ascii(name) + ": ")
            _write_json(value, out, inner)
            sep = "," + inner
        out.append(nl + "}")
    else:
        text = _scalar_text(obj)  # a subclass of str, int or float
        if text is None:
            raise TypeError(f"Object of type {obj.__class__.__name__} "
                            f"is not JSON serializable")
        out.append(text)


def _scalar_text(obj) -> Optional[str]:
    """The stdlib's text of a str (quoted), None, bool, int or float, or of
    a subclass as its base; None for any other type."""
    base = next((t for t in (str, type(None), bool, int, float) if isinstance(obj, t)), None)
    return None if base is None else _SCALARS[base](obj)


def _emit(args, report: dict) -> int:
    report = {"schema_version": SCHEMA_VERSION, "tool_version": __version__} | report
    text = _json_text(report)
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


# -- verbs ----------------------------------------------------------------------
# Each returns its report body from (args, angle, *input functions); main
# adds "verb", and for the lattice verbs the angle of the first input.


def _eval(args, angle, fn) -> dict:
    v, cert = fn.value(args.n)
    return {"n": args.n, "ok": True,
            "result": {"set": set_to_json(v), "certificate": _cert_json(cert)},
            "all_exact": cert.exact}


def _check_closed(args, angle, fn) -> dict:
    rep = check_closed(fn, args.window)
    # check_closed read the window through value_set, which raises on an inexact value
    return {"window": args.window, "ok": rep.ok,
            "violations": [list(v) for v in rep.violations], "all_exact": True}


def _meet(args, angle, a, b) -> dict:
    values = _window_values(meet(a, b), args.window)
    return {"window": args.window, "ok": True, "values": values,
            "all_exact": all(v["certificate"]["status"] == "Exact" for v in values.values())}


def _join_report(args, j) -> dict:
    """The report body that the join and close verbs share."""
    return {"window": args.window, "depth": args.depth, "ok": True,
            "certificate": _cert_json(j.certificate),
            "values": _window_values(j, args.window),
            "all_exact": j.certificate.exact}


def _join(args, angle, a, b) -> dict:
    return _join_report(args, closed_join(a, b, window=args.window, depth=args.depth))


def _close(args, angle, fn) -> dict:
    j = join_many([fn], args.window, args.depth)
    return _join_report(args, j) | {"unchanged": values_equal(fn, j, args.window)}


def _decompose(args, angle, fn) -> dict:
    rep = canonical_decomposition(fn, args.window, args.depth)
    return {"window": args.window, "ok": rep.rejoin_ok,
            "critical": [{"n": n, "set": set_to_json(v)} for n, v in rep.critical],
            "certificate": _cert_json(rep.certificate),
            "all_exact": rep.certificate.exact}


def _classify(args, angle, fn) -> dict:
    rep = classify_algebra(fn, args.window)
    sup = rep.support
    return {"window": args.window, "ok": True, "verdict": rep.verdict,
            "support": {"members": sup.members, "symbolic": sup.symbolic,
                        "certificate": _cert_json(sup.certificate)},
            "value_kinds": {str(k): v for k, v in rep.value_kinds.items()},
            "certificate": _cert_json(rep.certificate),
            "all_exact": rep.certificate.exact}


def _simplicity(args, angle, fn) -> dict:
    rep = simplicity_report(fn, args.window)
    return {"window": args.window, "ok": True, "verdict": rep.verdict,
            "q_intersection": {"set": set_to_json(rep.q_value),
                               "certificate": _cert_json(rep.q_certificate)},
            "notes": rep.notes,
            "all_exact": rep.q_certificate.exact}


# suite -> (function in rotalg.suites, the flags it reads); every other
# sandbox-verify flag given is bad input
SUITES = {
    "ring": ("suite_ring_laws", ("angle", "n", "seed")),
    "fejer": ("suite_fejer", ("angle", "n")),
    "averaging": ("suite_averaging", ("angle", "n", "seed")),
    "derivative": ("suite_derivative", ("angle", "n", "seed")),
    "center": ("suite_center", ("tolerance",)),
    "membership": ("suite_membership", ("angle", "n", "tolerance", "seed")),
}


def _sandbox_verify(args, angle) -> dict:
    from . import suites  # imported on use: the lattice verbs do not need it
    name, reads = SUITES[args.suite]
    given = {f: getattr(args, f) for f in ("angle", "n", "tolerance", "seed")
             if getattr(args, f) is not None}
    unread = [f"--{f}" for f in given if f not in reads]
    if unread:
        raise InputError(f"the {args.suite} suite does not read {', '.join(unread)}")
    head = {"suite": args.suite}
    if "angle" in reads:
        given["angle"] = angle or golden_angle()
        head["angle"] = given["angle"].to_json()
    # the center suite runs on its own angle and reports it
    return head | getattr(suites, name)(**given)


def _group_verify(args, angle) -> dict:
    from . import suites
    return suites.suite_finite_group(trials=args.trials)


def _plot(args, angle) -> int:
    doc = _load_json(args.input)
    if isinstance(doc, dict) and "repr" in doc:
        v, _ = _function_from_doc(doc, args.input, angle).value(args.n)
    else:
        try:
            v = set_from_json(angle or golden_angle(), doc)
        except (KeyError, ValueError) as exc:
            raise InputError(f"bad circle set in {args.input}: {_reason(exc)}") from exc
    out = args.output or "set.svg"
    with open(out, "w") as fh:
        fh.write(render_svg(v) + "\n")
    print(json.dumps({"schema_version": SCHEMA_VERSION, "verb": "plot",
                      "ok": True, "written": out}, sort_keys=True))
    return EXIT_OK


def _schema(args, angle) -> int:
    print(_json_text(report_schema()))
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


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input (exit 4), not argparse's exit 2, which
    here means that a check failed."""

    def error(self, message):
        raise InputError(message)


def _int_in(low: int, high: Optional[int] = None, bound: str = ""):
    """An int from low to high, where bound says what high is."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {bound}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


# a suite's --n or group-verify's --trials
_count = _int_in(1, COUNT_LIMIT, f"COUNT_LIMIT = {COUNT_LIMIT}")


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0 < value < INFINITY:  # false for nan too
        raise argparse.ArgumentTypeError(f"must be a positive finite float, got {text}")
    return value


_tolerance.__name__ = "float"  # argparse names the type in "invalid float value"


# option -> (flags, add_argument keywords); a verb lists the options it reads
OPTIONS = {
    "input": (("input",), {}),
    "n": (("-n",), {"type": int, "required": True}),
    "plot_n": (("-n",), {"type": int, "default": 1}),
    # one bound for every verb: a join seeds the closure on twice the window
    "window": (("--window",), {"type": _int_in(0, SEED_LIMIT // 2, (
        f"{SEED_LIMIT // 2}, or twice the window exceeds SEED_LIMIT = {SEED_LIMIT}")),
        "default": DEFAULT_WINDOW}),
    "depth": (("--depth",), {"type": _int_in(0, DEPTH_LIMIT, f"DEPTH_LIMIT = {DEPTH_LIMIT}"),
                             "default": DEFAULT_DEPTH}),
    "angle": (("--angle",), {"help": "named angle or JSON descriptor"}),
    "require_exact": (("--require-exact",), {"action": "store_true"}),
    "output": (("-o", "--output"), {"help": "write the report here instead of stdout"}),
    "suite": (("--suite",), {"required": True, "choices": SUITES}),
    # suite flags default to None, so that a flag given to a suite that
    # does not read it can be told apart; the suite's own defaults fill the rest
    "suite_n": (("--n",), {"type": _count, "dest": "n"}),
    "tolerance": (("--tolerance",), {"type": _tolerance}),
    "seed": (("--seed",), {"type": int}),
    "trials": (("--trials",), {"type": _count, "default": 200}),
}


class Verb(NamedTuple):
    help: str
    inputs: tuple[str, ...]  # positional ideal-function documents, loaded by main
    options: tuple[str, ...]  # keys of OPTIONS
    run: Callable  # (args, angle, *functions) -> report body
    emits: bool = True  # False: run prints its own output and returns the exit code


_LATTICE = ("angle", "require_exact", "output", "window")

VERBS = {
    "eval": Verb("value of an ideal function at one index", ("function",),
                 ("n", "angle", "require_exact", "output"), _eval),
    "check-closed": Verb("verify the closure axioms on a window", ("function",),
                         _LATTICE, _check_closed),
    "meet": Verb("pointwise meet of two ideal functions", ("left", "right"),
                 _LATTICE, _meet),
    "join": Verb("certified closed join of two ideal functions", ("left", "right"),
                 _LATTICE + ("depth",), _join),
    "close": Verb("closure of an ideal function", ("function",),
                  _LATTICE + ("depth",), _close),
    "decompose": Verb("canonical generation by basics", ("function",),
                      _LATTICE + ("depth",), _decompose),
    "classify": Verb("residual / small classification", ("function",),
                     _LATTICE, _classify),
    "simplicity": Verb("simplicity report for the algebra", ("function",),
                       _LATTICE, _simplicity),
    "plot": Verb("render a circle set (or one value) as SVG", (),
                 ("input", "plot_n", "angle", "output"), _plot, emits=False),
    "sandbox-verify": Verb("run an operator-sandbox suite", (),
                           ("suite", "suite_n", "tolerance", "seed", "angle", "output"),
                           _sandbox_verify),
    "group-verify": Verb("run the finite-group suite", (), ("trials", "output"),
                         _group_verify),
    "schema": Verb("print the report document schema", (), (), _schema, emits=False),
}


def build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every verb, or of the verb `only` alone, which is all
    that a command line naming that verb needs."""
    ap = _Parser(prog="rotalg", description=__doc__)
    sub = ap.add_subparsers(dest="verb", required=True)
    for name, verb in (VERBS if only is None else {only: VERBS[only]}).items():
        p = sub.add_parser(name, help=verb.help)
        for inp in verb.inputs:
            p.add_argument(inp)
        for opt in verb.options:
            flags, kwargs = OPTIONS[opt]
            p.add_argument(*flags, **kwargs)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    name = argv[0] if argv and argv[0] in VERBS else None
    try:
        # a command line that names no verb (help, a usage error) gets the
        # full table, so that usage lists every verb
        args = build_parser(name).parse_args(argv)
        verb = VERBS[name]
        angle = _resolve_angle(args)
        fns = [_load_function(getattr(args, inp), angle) for inp in verb.inputs]
        if not verb.emits:
            code = verb.run(args, angle)
        else:
            report = verb.run(args, angle, *fns)
            if fns:
                report = {"angle": fns[0].angle.to_json()} | report
            code = _emit(args, {"verb": name} | report)
        sys.stdout.flush()  # a reader that closed the pipe shows here
        return code
    except BrokenPipeError:
        # Python's "Note on SIGPIPE": stdout goes to devnull, so the flush
        # at exit cannot fail again, and the exit code is Python's for EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (InputError, ValueError, KeyError, PhaseSearchFailed) as exc:
        # PhaseSearchFailed: the angle has no conjugator phase close enough
        # within the search bound, so the suite cannot run on this input
        print(json.dumps({"schema_version": SCHEMA_VERSION, "verb": name,
                          "ok": False, "error": str(exc)}, sort_keys=True),
              file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
