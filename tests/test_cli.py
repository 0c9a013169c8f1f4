import argparse
import contextlib
import copy
import importlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import rotalg

from rotalg import (Arc, ClosedCircleSet, function_to_json, golden_angle,
                    make_basic, set_to_json, window_function)
from rotalg.circleset import pt
from rotalg.cli import InputError, build_parser, main, report_schema
from rotalg.idealfn import COUNT_LIMIT, DEPTH_LIMIT, SEED_LIMIT

F = Fraction
_G = golden_angle()
_P = ClosedCircleSet.from_points(_G, [pt(F(1, 7))])


@pytest.fixture()
def inputs(tmp_path):
    paths = {}
    paths["a"] = tmp_path / "a.json"
    paths["a"].write_text(json.dumps(function_to_json(make_basic(1, _P))))
    paths["b"] = tmp_path / "b.json"
    paths["b"].write_text(json.dumps(function_to_json(make_basic(1, _P.rotate(1)))))
    bad = window_function(_G, {1: _P, 2: ClosedCircleSet.from_points(_G, [pt(F(1, 7), 5)])})
    paths["bad"] = tmp_path / "bad.json"
    paths["bad"].write_text(json.dumps(function_to_json(bad)))
    paths["set"] = tmp_path / "set.json"
    paths["set"].write_text(json.dumps(set_to_json(_P.union(_P.rotate(2)))))
    arc1 = ClosedCircleSet.from_components(_G, (), (Arc(pt(0), pt(F(1, 5))),))
    arc2 = ClosedCircleSet.from_components(_G, (), (Arc(pt(F(1, 10)), pt(F(3, 10))),))
    paths["arc1"] = tmp_path / "arc1.json"
    paths["arc1"].write_text(json.dumps(function_to_json(make_basic(1, arc1))))
    paths["arc2"] = tmp_path / "arc2.json"
    paths["arc2"].write_text(json.dumps(function_to_json(make_basic(1, arc2))))
    return paths


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def test_eval(inputs, capsys):
    code, rep = run(capsys, "eval", inputs["a"], "-n", "3")
    assert code == 0 and rep["ok"] and rep["all_exact"]
    assert len(rep["result"]["set"]["components"]) == 3


def test_check_closed_pass_and_fail(inputs, capsys):
    code, rep = run(capsys, "check-closed", inputs["a"], "--window", "4")
    assert code == 0 and rep["ok"]
    code, rep = run(capsys, "check-closed", inputs["bad"], "--window", "3")
    assert code == 2 and not rep["ok"]
    assert ["reflection", 1] in rep["violations"]


def test_join_collapse(inputs, capsys, tmp_path):
    out = tmp_path / "join.json"
    code, _ = run(capsys, "join", inputs["a"], inputs["b"],
                  "--window", "6", "--depth", "4", "-o", out)
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["certificate"]["status"] == "Exact"
    assert rep["values"]["1"]["set"] == {"components": []}
    assert rep["values"]["5"]["set"] == {"components": []}


def test_join_require_exact_depth_zero(inputs, capsys):
    code, _ = run(capsys, "join", inputs["arc1"], inputs["arc2"],
                  "--window", "4", "--depth", "0", "--require-exact")
    assert code == 3


def test_meet_and_close(inputs, capsys):
    code, rep = run(capsys, "meet", inputs["a"], inputs["b"], "--window", "3")
    assert code == 0
    assert len(rep["values"]["1"]["set"]["components"]) == 2
    code, rep = run(capsys, "close", inputs["a"], "--window", "3")
    assert code == 0 and rep["unchanged"]


def test_decompose_classify_simplicity(inputs, capsys):
    code, rep = run(capsys, "decompose", inputs["a"], "--window", "5")
    assert code == 0 and [c["n"] for c in rep["critical"]] == [1]
    code, rep = run(capsys, "classify", inputs["a"], "--window", "6")
    assert code == 0 and rep["verdict"] == "residual"
    assert rep["support"]["symbolic"] == "Z"
    code, rep = run(capsys, "simplicity", inputs["a"], "--window", "6")
    assert code == 0 and rep["verdict"] == "simple"


def test_decompose_checks_the_whole_window(capsys, tmp_path):
    # no positive index is critical, so the re-join is the trivial function,
    # which is full at -1, where this document is not
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(function_to_json(window_function(_G, {-1: _P}))))
    code, rep = run(capsys, "decompose", path, "--window", "3")
    assert code == 2 and rep["ok"] is False and rep["critical"] == []


def test_plot(inputs, capsys, tmp_path):
    out = tmp_path / "out.svg"
    code, _ = run(capsys, "plot", inputs["set"], "-o", out)
    assert code == 0
    svg = out.read_text()
    assert svg.startswith("<svg") and "</svg>" in svg


def test_input_error_exit_code(inputs, capsys, tmp_path):
    assert main(["eval", str(tmp_path / "nope.json"), "-n", "1"]) == 4
    garbage = tmp_path / "garbage.json"
    garbage.write_text('{"repr": "nonsense"}')
    assert main(["eval", str(garbage), "-n", "1"]) == 4


def test_schema_round_trips(inputs, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    schema = report_schema()
    for argv in (["eval", str(inputs["a"]), "-n", "2"],
                 ["check-closed", str(inputs["a"]), "--window", "3"],
                 ["classify", str(inputs["a"]), "--window", "4"]):
        code = main(argv)
        rep = json.loads(capsys.readouterr().out)
        jsonschema.validate(rep, schema)


def test_deterministic_reports(inputs, capsys):
    argv = ["join", str(inputs["a"]), str(inputs["b"]), "--window", "4"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_console_script(inputs, tmp_path):
    # the child imports rotalg from where this process did (an install,
    # PYTHONPATH, or pytest's pythonpath setting, which a child does not see)
    src = str(Path(rotalg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "rotalg.cli", "eval",
                           str(inputs["a"]), "-n", "1"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"]


def test_reader_closing_the_pipe_early_is_no_traceback(tmp_path):
    # a report far larger than a pipe buffer, read for one line
    doc = tmp_path / "points.json"
    forty = ClosedCircleSet.from_points(_G, [pt(F(k, 41)) for k in range(40)])
    doc.write_text(json.dumps(function_to_json(make_basic(1, forty))))
    src = str(Path(rotalg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "rotalg.cli", "eval", str(doc), "-n", "100"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 1
    assert err == ""


def test_lattice_verbs_leave_numpy_unimported(inputs, tmp_path):
    # numpy loads with the first norm, not with the sandbox: the ring suite
    # and group-verify compute no float; the exact side modules of the
    # sandboxes load on first use; every lattice report record gets built
    out = str(tmp_path / "out.json")
    script = f"""
import sys
import rotalg.cli
for argv in ({["eval", str(inputs["a"]), "-n", "3"]!r},
             {["join", str(inputs["a"]), str(inputs["b"])]!r},
             {["check-closed", str(inputs["a"]), "--window", "2"]!r},
             {["classify", str(inputs["a"]), "--window", "2"]!r},
             {["simplicity", str(inputs["a"]), "--window", "2"]!r},
             {["decompose", str(inputs["a"]), "--window", "2"]!r}):
    assert rotalg.cli.main(argv + ["-o", {out!r}]) == 0, argv
assert "numpy" not in sys.modules
assert "dataclasses" not in sys.modules  # the lattice records are NamedTuples
assert "rotalg.finitegroup" not in sys.modules and "rotalg.exactnum" not in sys.modules
assert rotalg.cli.main(["sandbox-verify", "--suite", "ring", "--n", "2"]) == 0
assert rotalg.cli.main(["group-verify", "--trials", "1", "-o", {out!r}]) == 0
assert "numpy" not in sys.modules
assert "dataclasses" not in sys.modules  # so are the sandbox and finite-group records
assert rotalg.cli.main(["sandbox-verify", "--suite", "center", "-o", {out!r}]) == 0
assert "numpy" in sys.modules
"""
    src = str(Path(rotalg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["suite"] == "ring"


def test_sandbox_suites_leave_scipy_unimported():
    # the suites norm on the orbit section, a dense SVD: scipy loads only
    # with the box norm, truncated_norm
    script = """
import sys
import rotalg.cli
for argv in (["ring", "--n", "2"], ["fejer"], ["averaging", "--n", "2"],
             ["derivative"], ["center"], ["membership", "--n", "2"]):
    assert rotalg.cli.main(["sandbox-verify", "--suite", *argv, "-o", sys.argv[1]]) == 0, argv
    assert "scipy" not in sys.modules, argv
"""
    src = str(Path(rotalg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, str(Path(os.devnull))],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr



def test_box_norm_leaves_arpack_unimported():
    # the box norm's Lanczos recurrence is plain numpy with scipy.linalg's
    # tridiagonal eigensolver; scipy.sparse.linalg (ARPACK) stays unloaded
    script = """
import sys
from rotalg import CrossedElement, golden_angle, truncated_norm
g = golden_angle()
a = (CrossedElement.monomial(g, 0, 1, 1.0, mode="float")
     + CrossedElement.monomial(g, 1, 0, 0.5j, mode="float"))
assert truncated_norm(a, radius=12) > 1.0
assert "scipy.linalg" in sys.modules
assert "scipy.sparse.linalg" not in sys.modules
"""
    src = str(Path(rotalg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr

# every name that `rotalg` exported by eager imports before the sandbox
# was loaded on first use, by the module that defines it
PACKAGE_NAMES = {
    "angle": ["Angle", "golden_angle", "named_angle", "silver_angle"],
    "circleset": ["Arc", "CirclePoint", "ClosedCircleSet", "covering_index", "render_svg",
                  "set_from_json", "set_to_json"],
    "idealfn": ["BasicFunction", "Certificate", "CIdealFunction", "IdealFunction",
                "JoinFunction", "WindowFunction", "all_empty", "canonical_decomposition",
                "check_c_closed", "check_closed", "classify_algebra", "close",
                "closed_join", "closed_join_value", "extend_from_positive",
                "function_from_json", "function_to_json", "join_many", "make_basic",
                "make_ideal_IQ", "meet", "naive_join", "omega", "q_intersection",
                "simplicity_report", "support", "triviality", "values_equal",
                "window_function"],
    "sandbox": ["AveragingOperator", "CrossedElement", "TrigPoly", "adjoint",
                "apply_averaging", "build_averaging", "center_check", "derivative_extract",
                "element_from_json", "element_to_json", "expectation_canonical",
                "expectation_mu", "fejer_bracket", "membership_test", "multiply",
                "project_qn", "q_of", "section_norm", "truncated_norm"],
    "finitegroup": ["FiniteAbelianGroup", "FiniteAction", "augmentation_ideal", "build_BI",
                    "check_no_intermediate_M2", "check_not_from_subgroup", "extend_ideal"],
}


@pytest.mark.parametrize("module", PACKAGE_NAMES)
def test_package_names_resolve_to_their_modules(module):
    names = PACKAGE_NAMES[module]
    space: dict = {}
    exec(f"from rotalg import ({', '.join(names)})", space)
    defined = importlib.import_module(f"rotalg.{module}")
    for name in names:
        assert space[name] is getattr(defined, name) is getattr(rotalg, name)
    with pytest.raises(AttributeError):
        rotalg.no_such_name


def test_phase_search_failed_lives_outside_the_sandbox():
    from rotalg import angle, sandbox
    assert sandbox.PhaseSearchFailed is angle.PhaseSearchFailed
    assert issubclass(angle.PhaseSearchFailed, RuntimeError)


def test_sandbox_verify_verb(capsys):
    code, rep = run(capsys, "sandbox-verify", "--suite", "ring", "--n", "30")
    assert code == 0 and rep["ok"] and rep["trials"] == 30


def test_group_verify_verb(capsys):
    code, rep = run(capsys, "group-verify", "--trials", "20")
    assert code == 0 and rep["ok"]


def _basic_doc(q=1, n=0, depth=None):
    doc = function_to_json(make_basic(1, _P))
    doc["q"] = q
    doc["P"]["components"][0]["pt"]["n"] = n
    if depth is None:
        return doc
    return {"angle": doc["angle"], "repr": "join", "depth": depth, "gens": [doc, doc]}


@pytest.mark.parametrize("doc, field", [
    pytest.param(_basic_doc(q=1.7), "q", id="q-1.7"),
    pytest.param(_basic_doc(q=2.0), "q", id="q-2.0"),
    pytest.param(_basic_doc(q=True), "q", id="q-true"),
    pytest.param(_basic_doc(q="2"), "q", id="q-string"),
    pytest.param(_basic_doc(n=1.9), "n", id="n-1.9"),
    pytest.param(_basic_doc(n=False), "n", id="n-false"),
    pytest.param(_basic_doc(depth=3.5), "depth", id="depth-3.5"),
    pytest.param(_basic_doc(depth=True), "depth", id="depth-true"),
])
def test_non_integer_json_fields_exit_4(doc, field, capsys, tmp_path):
    # integer fields given as floats, bools or strings are rejected, not
    # truncated into a different function
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    code = main(["eval", str(path), "-n", "1"])
    captured = capsys.readouterr()
    assert code == 4 and not captured.out
    err = json.loads(captured.err)
    assert err["ok"] is False and err["verb"] == "eval"
    assert f"{field} must be an integer" in err["error"]


def test_integer_json_fields_accepted(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(_basic_doc(q=1, n=0, depth=3)))
    code, rep = run(capsys, "eval", path, "-n", "1")
    assert code == 0 and rep["ok"]


def test_negative_join_depth_exits_4(capsys):
    # like --depth -1: bad input, not a depth-exhausted join
    code = main(["eval", json.dumps(_basic_doc(depth=-1)), "-n", "1"])
    captured = capsys.readouterr()
    assert code == 4 and not captured.out and "Traceback" not in captured.err
    err = json.loads(captured.err)
    assert err["ok"] is False and err["verb"] == "eval"
    assert "depth must be at least 0, got -1" in err["error"]


def test_cf_angle_near_one_accepted(capsys):
    # [0; 1, 3, 3, ...] = (1 + sqrt(13))/6 = 0.767... lies in (0, 1), though
    # its convergent pair 3/4, 1/1 reaches 1
    code, rep = run(capsys, "eval", _replaced(_DOCS["cf"], ("angle", "prefix"), [0, 1, 3]),
                    "-n", "1")
    assert code == 0 and rep["ok"]


@pytest.mark.parametrize("doc", [
    pytest.param({"repr": "basic", "q": 0, "P": {"components": []}}, id="basic-q-0"),
    pytest.param({"repr": "window", "default": "full", "values": {}}, id="empty-full-window"),
])
def test_simplicity_of_an_all_full_function_is_not_simple(doc, capsys):
    # every nonzero value is full, so the algebra is the layer-0 functions
    # C(T), which is commutative and not simple; the common zero set is
    # exactly the full circle
    code, rep = run(capsys, "simplicity", json.dumps(doc))
    assert code == 0 and rep["ok"] and rep["verdict"] == "not-simple"
    q = rep["q_intersection"]
    assert q["set"] == {"full": True} and q["certificate"]["status"] == "Exact"


@pytest.mark.parametrize("angle", ["silver", "silver5"])
def test_averaging_phase_search_failure_exits_4(angle, capsys):
    # no conjugator phase within the search bound realizes the root 1/2
    # closely enough on the silver angles: a JSON error, not a traceback
    code = main(["sandbox-verify", "--suite", "averaging", "--angle", angle])
    err = capsys.readouterr().err
    assert code == 4
    doc = json.loads(err)
    assert doc["ok"] is False and doc["verb"] == "sandbox-verify"
    assert "realizes the root" in doc["error"]


# every option each verb reads, and nothing else (-h aside)
READS = {
    "eval": {"-n", "--angle", "--require-exact", "-o"},
    "check-closed": {"--window", "--angle", "--require-exact", "-o"},
    "meet": {"--window", "--angle", "--require-exact", "-o"},
    "join": {"--window", "--depth", "--angle", "--require-exact", "-o"},
    "close": {"--window", "--depth", "--angle", "--require-exact", "-o"},
    "decompose": {"--window", "--depth", "--angle", "--require-exact", "-o"},
    "classify": {"--window", "--angle", "--require-exact", "-o"},
    "simplicity": {"--window", "--angle", "--require-exact", "-o"},
    "plot": {"-n", "--angle", "-o"},
    "sandbox-verify": {"--suite", "--n", "--tolerance", "--seed", "--angle", "-o"},
    "group-verify": {"--trials", "-o"},
    "schema": set(),
}


def _verb_parsers(parser) -> dict:
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _options(p) -> set:
    return {a.option_strings[0] for a in p._actions
            if a.option_strings and a.option_strings[0] != "-h"}


def test_each_verb_accepts_the_options_it_reads():
    accepted = {verb: _options(p) for verb, p in _verb_parsers(build_parser()).items()}
    assert accepted == READS
    # the parser main builds for a command line naming the verb holds that
    # verb alone, with the same options
    for verb in READS:
        alone = _verb_parsers(build_parser(verb))
        assert list(alone) == [verb] and _options(alone[verb]) == READS[verb]


def _error(capsys):
    captured = capsys.readouterr()
    assert not captured.out
    err = json.loads(captured.err)
    assert err["ok"] is False
    return err


@pytest.mark.parametrize("argv, verb", [
    pytest.param(["eval", "{A}"], "eval", id="eval-without-n"),
    pytest.param(["eval", "{A}", "-n", "x"], "eval", id="eval-n-not-int"),
    pytest.param(["join", "{A}"], "join", id="join-one-input"),
    pytest.param(["sandbox-verify"], "sandbox-verify", id="no-suite"),
    pytest.param(["sandbox-verify", "--suite", "nope"], "sandbox-verify", id="unknown-suite"),
    pytest.param(["nonsense"], None, id="unknown-verb"),
    pytest.param([], None, id="no-verb"),
])
def test_usage_errors_exit_4(argv, verb, inputs, capsys):
    # argparse's own exit code 2 would read as "a check failed"
    code = main([str(inputs["a"]) if a == "{A}" else a for a in argv])
    err = _error(capsys)
    assert code == 4 and err["verb"] == verb


_ALL_VERBS = ("'eval', 'check-closed', 'meet', 'join', 'close', 'decompose', 'classify', "
              "'simplicity', 'plot', 'sandbox-verify', 'group-verify', 'schema'")


@pytest.mark.parametrize("argv, verb, error", [
    ([], None, "the following arguments are required: verb"),
    (["bogus"], None, f"argument verb: invalid choice: 'bogus' (choose from {_ALL_VERBS})"),
    (["eval"], "eval", "the following arguments are required: function, -n"),
    (["join", "a.json"], "join", "the following arguments are required: right"),
    (["sandbox-verify", "--suite", "nope"], "sandbox-verify",
     "argument --suite: invalid choice: 'nope' (choose from 'ring', 'fejer', 'averaging', "
     "'derivative', 'center', 'membership')"),
])
def test_usage_error_reports_are_pinned(argv, verb, error, capsys):
    # a command line naming no verb is parsed by the full table, so its
    # error still lists every verb
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == json.dumps({"error": error, "ok": False, "schema_version": "1",
                                       "verb": verb}, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv", [["-h"], ["eval", "-h"], ["sandbox-verify", "-h"]])
def test_help_is_the_full_tables_help(argv, capsys):
    parser = build_parser()
    if len(argv) > 1:
        parser = _verb_parsers(parser)[argv[0]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out == parser.format_help()


def test_schema_prints_the_report_schema(capsys):
    assert main(["schema"]) == 0
    assert capsys.readouterr().out == json.dumps(report_schema(), sort_keys=True, indent=2) + "\n"


def _stdlib_text(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


_escapes = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€\u2028😀\ud800\udfff'))
_json_scalars = (st.none() | st.booleans() | st.text() | _escapes
                 | st.integers() | st.integers(min_value=2**63, max_value=2**200).map(lambda n: -n)
                 | st.floats(allow_nan=True, allow_infinity=True)
                 | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 1e300]))
_json_trees = st.recursive(
    _json_scalars,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(st.text() | _escapes, kids, max_size=4)
                  | st.dictionaries(st.integers(), kids, max_size=3)
                  | st.dictionaries(st.floats(allow_nan=False), kids, max_size=3)
                  | st.dictionaries(st.booleans(), kids, max_size=2)),
    max_leaves=30)


@given(_json_trees)
def test_report_writer_is_byte_identical_to_json_dumps(tree):
    from rotalg.cli import _json_text
    assert _json_text(tree) == _stdlib_text(tree)


def test_report_writer_edge_values():
    from rotalg.cli import _json_text
    for tree in ({}, [], (), {"a": {}, "b": [], "c": ()}, [[[]]], {None: 1},
                 {"é\n": ("x", 10**40, -(10**40), 0.1, 1e-320)},
                 [float("nan"), float("inf"), -float("inf")], {1.5: True, 0.25: None}):
        assert _json_text(tree) == _stdlib_text(tree)


class _Unserializable:
    pass


@pytest.mark.parametrize("tree", [
    {1, 2}, b"bytes", _Unserializable(), {"a": [1, {2}]}, {(1, 2): 3},
    {"a": 1, 2: "b"},  # keys that do not sort together
], ids=["set", "bytes", "object", "nested-set", "tuple-key", "mixed-keys"])
def test_report_writer_rejects_what_json_dumps_rejects(tree):
    from rotalg.cli import _json_text
    with pytest.raises(TypeError):
        _stdlib_text(tree)
    with pytest.raises(TypeError):
        _json_text(tree)


def test_far_point_basic_value_exits_4_at_once(inputs, capsys):
    from rotalg.idealfn import VALUE_LIMIT
    start = time.perf_counter()
    code = main(["eval", str(inputs["a"]), "-n", str(10**12)])
    assert time.perf_counter() - start < 5
    err = _error(capsys)
    assert code == 4 and f"past VALUE_LIMIT = {VALUE_LIMIT} components" in err["error"]
    # an arc basic is full from its covering index on, however far it is read
    code, rep = run(capsys, "eval", inputs["arc1"], "-n", str(10**12))
    assert code == 0 and rep["result"]["set"] == set_to_json(ClosedCircleSet.full_circle(_G))


def test_far_reads_of_an_empty_basic_and_its_collapsed_join_exit_0_at_once(capsys):
    empty = function_to_json(make_basic(1, ClosedCircleSet.empty(_G)))
    join = {"angle": _G.to_json(), "repr": "join", "depth": 6, "gens": [empty]}
    for doc, note in ((empty, ""), (join, "collapse")):
        start = time.perf_counter()
        code, rep = run(capsys, "eval", json.dumps(doc), "-n", str(10**12))
        assert time.perf_counter() - start < 5
        assert code == 0 and rep["result"]["set"] == set_to_json(ClosedCircleSet.empty(_G))
        assert rep["result"]["certificate"]["note"] == note


@pytest.mark.parametrize("argv", [["-h"], ["eval", "-h"], ["sandbox-verify", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("argv, flag", [
    pytest.param(["group-verify", "--trials", "1", "--angle", "nonsense"], "--angle",
                 id="group-verify-angle"),
    pytest.param(["group-verify", "--trials", "1", "--require-exact"], "--require-exact",
                 id="group-verify-require-exact"),
    pytest.param(["sandbox-verify", "--suite", "ring", "--n", "2", "--require-exact"],
                 "--require-exact", id="sandbox-require-exact"),
    pytest.param(["eval", "{A}", "-n", "1", "--window", "3"], "--window", id="eval-window"),
    pytest.param(["plot", "{A}", "--require-exact", "-o", "{SVG}"], "--require-exact",
                 id="plot-require-exact"),
    pytest.param(["sandbox-verify", "--suite", "ring", "--n", "2", "--tolerance", "5"],
                 "--tolerance", id="ring-tolerance"),
    pytest.param(["sandbox-verify", "--suite", "fejer", "--n", "8", "--tolerance", "1"],
                 "--tolerance", id="fejer-tolerance"),
    pytest.param(["sandbox-verify", "--suite", "fejer", "--n", "8", "--seed", "1"],
                 "--seed", id="fejer-seed"),
    pytest.param(["sandbox-verify", "--suite", "averaging", "--n", "1", "--tolerance", "1"],
                 "--tolerance", id="averaging-tolerance"),
    pytest.param(["sandbox-verify", "--suite", "derivative", "--n", "4", "--tolerance", "1"],
                 "--tolerance", id="derivative-tolerance"),
    pytest.param(["sandbox-verify", "--suite", "center", "--seed", "3"], "--seed",
                 id="center-seed"),
    pytest.param(["sandbox-verify", "--suite", "center", "--n", "3"], "--n", id="center-n"),
    pytest.param(["sandbox-verify", "--suite", "center", "--angle", "golden"], "--angle",
                 id="center-angle"),
])
def test_flags_nothing_reads_exit_4(argv, flag, inputs, capsys, tmp_path):
    subs = {"{A}": str(inputs["a"]), "{SVG}": str(tmp_path / "out.svg")}
    code = main([subs.get(a, a) for a in argv])
    err = _error(capsys)
    assert code == 4 and err["verb"] == argv[0]
    assert flag in err["error"]


@pytest.mark.parametrize("argv", [
    pytest.param(["check-closed", "{A}", "--window", "-3"], id="window-negative"),
    pytest.param(["join", "{A}", "{B}", "--depth", "-1"], id="depth-negative"),
    pytest.param(["join", "{A}", "{B}", "--depth", str(DEPTH_LIMIT + 1)],
                 id="depth-past-depth-limit"),
    pytest.param(["eval", json.dumps(_basic_doc(depth=DEPTH_LIMIT + 1)), "-n", "1"],
                 id="join-document-depth-past-depth-limit"),
    pytest.param(["sandbox-verify", "--suite", "membership", "--n", "-2"], id="suite-n-negative"),
    pytest.param(["sandbox-verify", "--suite", "ring", "--n", "0"], id="suite-n-zero"),
    pytest.param(["group-verify", "--trials", "0"], id="trials-zero"),
    pytest.param(["sandbox-verify", "--suite", "fejer", "--n", "3"], id="fejer-below-degree"),
    pytest.param(["group-verify", "--trials", str(10**9)], id="trials-past-count-limit"),
    pytest.param(["sandbox-verify", "--suite", "ring", "--n", str(COUNT_LIMIT + 1)],
                 id="suite-n-past-count-limit"),
    pytest.param(["sandbox-verify", "--suite", "derivative", "--n", str(10**9)],
                 id="derivative-n-past-count-limit"),
    # a tolerance must be positive and finite: exit 4 (bad input), not 2 (a check failed)
    *[pytest.param(["sandbox-verify", *suite, "--tolerance", value],
                   id=f"{suite[1]}-tolerance-{value}")
      for suite in (["--suite", "membership", "--n", "2"], ["--suite", "center"])
      for value in ("nan", "inf", "0", "-1")],
    # an angle descriptor past ANGLE_BITS is refused before it is converted
    *[pytest.param(["eval", "{A}", "-n", "1", "--angle", json.dumps(doc)], id=name)
      for name, doc in (
          ("angle-cf-4000-digit-quotients", {"kind": "cf", "prefix": [0] + [10**3999] * 39}),
          ("angle-cf-50000-quotients", {"kind": "cf", "prefix": [0] + [7] * 50_000}),
          ("angle-surd-2000-digit-den", {"kind": "surd", "a": -1, "b": 1, "c": 5,
                                         "den": 2 * 10**2000}))],
])
def test_out_of_range_values_exit_4(argv, inputs, capsys):
    subs = {"{A}": str(inputs["a"]), "{B}": str(inputs["b"])}
    start = time.perf_counter()
    code = main([subs.get(a, a) for a in argv])
    assert time.perf_counter() - start < 5
    err = _error(capsys)
    assert code == 4 and err["verb"] == argv[0]


@pytest.mark.parametrize("argv, dest", [(["group-verify", "--trials"], "trials"),
                                        (["sandbox-verify", "--suite", "ring", "--n"], "n")])
def test_counts_are_bounded_by_count_limit(argv, dest):
    # parsed only: a run at the limit takes seconds (see COUNT_LIMIT)
    parser = build_parser(argv[0])
    assert getattr(parser.parse_args(argv + [str(COUNT_LIMIT)]), dest) == COUNT_LIMIT
    with pytest.raises(InputError, match=f"must be at most COUNT_LIMIT = {COUNT_LIMIT}, "
                                         f"got {COUNT_LIMIT + 1}"):
        parser.parse_args(argv + [str(COUNT_LIMIT + 1)])


def test_depth_is_bounded_by_depth_limit():
    # parsed only, as join, close and decompose share the option; a join
    # document past the limit is read in the out-of-range test above
    parser, argv = build_parser("join"), ["join", "a.json", "b.json", "--depth"]
    assert parser.parse_args(argv + [str(DEPTH_LIMIT)]).depth == DEPTH_LIMIT
    with pytest.raises(InputError, match=f"must be at most DEPTH_LIMIT = {DEPTH_LIMIT}, "
                                         f"got {DEPTH_LIMIT + 1}"):
        parser.parse_args(argv + [str(DEPTH_LIMIT + 1)])


@pytest.mark.parametrize("argv", [["check-closed", "{A}"], ["meet", "{A}", "{B}"],
                                  ["classify", "{A}"], ["simplicity", "{A}"]],
                         ids=lambda argv: argv[0])
def test_window_is_bounded_by_half_the_seed_limit(argv, inputs, capsys):
    # parsed only at the bound: check-closed --window 200 takes seconds
    subs = {"{A}": str(inputs["a"]), "{B}": str(inputs["b"])}
    argv = [subs.get(a, a) for a in argv] + ["--window"]
    limit = SEED_LIMIT // 2
    assert build_parser(argv[0]).parse_args(argv + [str(limit)]).window == limit
    start = time.perf_counter()
    code = main(argv + [str(limit + 1)])
    assert time.perf_counter() - start < 5
    err = _error(capsys)
    assert code == 4 and err["verb"] == argv[0]
    assert f"exceeds SEED_LIMIT = {SEED_LIMIT}, got {limit + 1}" in err["error"]


@pytest.mark.parametrize("argv", [
    pytest.param(["join", "{A}", "{BIG}", "--window", "2"], id="join-step-1000000"),
    pytest.param(["close", "{A}", "--window", "3000"], id="close-window-3000"),
    pytest.param(["eval", "{JOIN}", "-n", "5000"], id="far-read-of-stabilized-join"),
])
def test_join_seed_beyond_its_limit_exits_4_at_once(argv, inputs, capsys, tmp_path):
    # each of these seeds the closure on a half-width past SEED_LIMIT
    big, join = tmp_path / "big.json", tmp_path / "join.json"
    big.write_text(json.dumps(function_to_json(make_basic(10**6, _P))))
    join.write_text(json.dumps({"angle": _G.to_json(), "repr": "join", "depth": 6,
                                "gens": [json.loads(inputs["a"].read_text())]}))
    subs = {"{A}": str(inputs["a"]), "{BIG}": str(big), "{JOIN}": str(join)}
    start = time.perf_counter()
    code = main([subs.get(a, a) for a in argv])
    assert time.perf_counter() - start < 5
    err = _error(capsys)
    assert code == 4 and err["verb"] == argv[0]
    assert f"exceeds SEED_LIMIT = {SEED_LIMIT}" in err["error"]


def test_arc_ends_beyond_float_range_are_ordered_exactly(capsys):
    # n = 2**1100 has no float key: the sweep sorts that end exactly
    arc = {"start": {"q": "0", "n": 2**1100}, "end": {"q": "1/2", "n": 0}}
    doc = {"repr": "basic", "q": 1, "P": {"components": [{"arc": arc}]}}
    code, rep = run(capsys, "eval", json.dumps(doc), "-n", "1")
    assert code == 0 and rep["result"]["set"] == {"components": [{"arc": arc}]}


def test_classify_of_a_too_short_arc_exits_4_at_once(capsys):
    # a 1/100000 arc needs more rotated copies than the documented limit,
    # which its measure shows before any union is made
    doc = {"repr": "basic", "q": 1, "P": {"components": [{"arc": {
        "start": {"q": "0", "n": 0}, "end": {"q": "1/100000", "n": 0}}}]}}
    start = time.perf_counter()
    code = main(["classify", json.dumps(doc)])
    assert time.perf_counter() - start < 5
    err = _error(capsys)
    assert code == 4 and err["verb"] == "classify"
    assert "covering-index-too-large" in err["error"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_derivative_suite_below_first_pick_exits_4(n, capsys):
    # golden best denominators up to n = 3 are 1, 2, 3: none reaches 5
    code = main(["sandbox-verify", "--suite", "derivative", "--angle", "golden",
                 "--n", str(n)])
    err = _error(capsys)
    assert code == 4 and err["verb"] == "sandbox-verify"
    assert "5" in err["error"]


def test_derivative_suite_on_integer_shift_phases_exits_4(capsys):
    # rho = 1 / (2 + 1e-16): 2 * rho is an integer to 1e-15, so the first
    # pick has no denominator to differentiate along
    angle = json.dumps({"kind": "cf", "prefix": [0, 2, 10**16]})
    code = main(["sandbox-verify", "--suite", "derivative", "--n", "2", "--angle", angle])
    err = _error(capsys)
    assert code == 4 and err["verb"] == "sandbox-verify"
    assert "1e-15" in err["error"]


def test_derivative_suite_at_first_pick_passes(capsys):
    code, rep = run(capsys, "sandbox-verify", "--suite", "derivative", "--angle", "golden",
                    "--n", "4")
    assert code == 0 and rep["ok"]
    assert [nj for nj, _ in rep["residuals"]] == [5]


def test_zero_window_and_depth_accepted(inputs, capsys):
    code, rep = run(capsys, "join", inputs["a"], inputs["b"], "--window", "0", "--depth", "0")
    assert code == 0 and list(rep["values"]) == ["0"]


def test_center_suite_reports_the_angle_it_runs_on(capsys):
    from rotalg.suites import center_instance
    code, rep = run(capsys, "sandbox-verify", "--suite", "center", "--tolerance", "1e-8")
    assert code == 0 and rep["ok"] and rep["tolerance"] == 1e-8
    assert rep["angle"] == center_instance()[0].to_json()
    assert rep["angle"] == {"kind": "surd", "a": -1, "b": 1, "c": 2, "den": 5}


def test_dash_is_a_file_name_not_stdin(capsys, monkeypatch, tmp_path):
    # inputs are file paths or inline JSON; stdin is not read
    monkeypatch.chdir(tmp_path)
    doc = json.dumps(function_to_json(make_basic(1, _P)))
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code = main(["eval", "-", "-n", "1"])
    err = _error(capsys)
    assert code == 4 and err["verb"] == "eval" and err["error"].startswith("cannot read -")


def test_plot_reads_its_input_once(inputs, capsys, monkeypatch, tmp_path):
    from rotalg import cli
    loads = []
    load_json = cli._load_json
    monkeypatch.setattr(cli, "_load_json", lambda path: loads.append(path) or load_json(path))
    code, _ = run(capsys, "plot", inputs["a"], "-n", "2", "-o", tmp_path / "value.svg")
    assert code == 0 and loads == [str(inputs["a"])]


def _recorded_join_windows(monkeypatch, capsys, doc, argv):
    """Run one verb on a join document; the windows join_many was called
    with, and the report."""
    from rotalg import idealfn
    windows = []
    join_many = idealfn.join_many

    def recording_join_many(gens, window, depth=idealfn.DEFAULT_DEPTH):
        windows.append(window)
        return join_many(gens, window, depth)

    monkeypatch.setattr(idealfn, "join_many", recording_join_many)
    verb, *rest = argv
    code, rep = run(capsys, verb, doc, *rest)
    assert code == 0
    return windows, rep


@pytest.mark.parametrize("argv, reach", [
    (("eval", "-n", "14"), 14), (("eval", "-n", "-3"), 10),
    (("check-closed", "--window", "6"), 12), (("close", "--window", "3"), 10),
    (("classify", "--window", "12"), 12), (("simplicity", "--window", "14"), 14)])
def test_join_document_widens_once(argv, reach, inputs, capsys, monkeypatch, tmp_path):
    doc = tmp_path / "join.json"
    doc.write_text(json.dumps({"angle": _G.to_json(), "repr": "join", "depth": 6,
                               "gens": [json.loads(inputs["a"].read_text())]}))
    windows, _ = _recorded_join_windows(monkeypatch, capsys, doc, argv)
    # loaded at window 10; a read past it widens once, straight to the
    # widest index the verb reads (the close verb's own join goes through
    # cli's name and is not recorded)
    assert windows == ([10] if reach == 10 else [10, reach])


def test_collapsed_join_document_answers_far_reads_without_widening(
        inputs, capsys, monkeypatch, tmp_path):
    empty = function_to_json(make_basic(2, ClosedCircleSet.empty(_G)))
    doc = tmp_path / "join.json"
    doc.write_text(json.dumps({"angle": _G.to_json(), "repr": "join", "depth": 6,
                               "gens": [empty]}))
    windows, rep = _recorded_join_windows(monkeypatch, capsys, doc, ("eval", "-n", "5000"))
    assert windows == [10]
    assert rep["result"]["certificate"]["note"] == "collapse"
    assert rep["result"]["set"] == set_to_json(ClosedCircleSet.empty(_G))


# -- malformed documents ---------------------------------------------------------

_UNKNOWN = function_to_json(window_function(_G, {1: _P}, default="unknown"))


@pytest.mark.parametrize("argv, index", [
    pytest.param(["eval", "{W}", "-n", "5"], 5, id="eval"),
    pytest.param(["check-closed", "{W}"], -20, id="check-closed"),
    pytest.param(["close", "{W}"], -20, id="close"),
    pytest.param(["decompose", "{W}"], -10, id="decompose"),
    # the join reads its generator on loading
    pytest.param(["eval", "{JOIN}", "-n", "1"], -20, id="join-document"),
])
def test_reads_outside_an_unknown_default_window_name_the_index(argv, index, capsys):
    join = {"angle": _G.to_json(), "repr": "join", "gens": [_UNKNOWN]}
    subs = {"{W}": json.dumps(_UNKNOWN), "{JOIN}": json.dumps(join)}
    code = main([subs.get(a, a) for a in argv])
    err = _error(capsys)
    assert code == 4 and err["error"].endswith(
        f"index {index} is outside the window of a window function whose default is unknown")


def test_missing_fields_are_named(capsys):
    point = {"pt": {"q": "1/7"}}  # no n
    basic = {**function_to_json(make_basic(1, _P)), "P": {"components": [point]}}
    for argv, field in (
            (["eval", json.dumps(basic), "-n", "1"], "n"),
            (["plot", json.dumps({"components": [point]}), "-o", os.devnull], "n"),
            (["eval", json.dumps(_DOCS["basic"]), "-n", "1",
              "--angle", '{"kind": "surd", "a": 1}'], "b")):
        assert main(argv) == 4
        assert _error(capsys)["error"].endswith(f": missing field '{field}'"), argv


_ARC = ClosedCircleSet.from_components(_G, [pt(F(1, 2), 1)], (Arc(pt(0), pt(F(1, 5))),))
_DOCS = {
    "basic": function_to_json(make_basic(1, _P)),
    "arc": function_to_json(make_basic(2, _ARC)),
    "cf": {**function_to_json(make_basic(1, _P)),
           "angle": {"kind": "cf", "prefix": [0, 2, 2], "rule": "repeat-last"}},
    "window": function_to_json(window_function(_G, {1: _P, -2: _ARC})),
}
_DOCS["join"] = {"angle": _G.to_json(), "repr": "join", "depth": 2,
                 "gens": [_DOCS["basic"], _DOCS["arc"]]}


_SET = set_to_json(_ARC)
_ANGLES = {"surd": _G.to_json(), "cf": _DOCS["cf"]["angle"]}


def _replaced(doc, path: tuple, value) -> str:
    """The document with the field at path set to value, as text."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return json.dumps(doc)


def _fields(doc, path=()):
    if isinstance(doc, (dict, list)):
        for key, sub in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield path + (key,)
            yield from _fields(sub, path + (key,))


@pytest.mark.parametrize("name, path, value", [
    ("basic", ("P", "components", 0, "pt", "q"), "1/0"),
    ("basic", ("P", "components", 0, "pt", "q"), None),
    ("basic", ("P", "components"), 5),
    ("basic", ("P",), []),
    ("basic", ("angle", "a"), "x"),
    ("basic", ("angle", "a"), -1.5),
    ("cf", ("angle", "prefix"), 5),
    ("cf", ("angle", "prefix"), [0, "a"]),
    ("basic", ("angle",), [1]),
    ("window", ("values",), [1]),
    ("join", ("gens",), 5),
    ("join", ("gens", 0, "angle"), "1/0"),
    ("join", ("gens", 1, "angle"), {"kind": "surd", "a": -1, "b": 1, "c": 2, "den": 1}),
    ("basic", ("P", "components", 0, "pt", "q"), True),  # was read as the point 0
])
def test_malformed_documents_exit_4(name, path, value, capsys):
    code = main(["eval", _replaced(_DOCS[name], path, value), "-n", "1"])
    captured = capsys.readouterr()
    assert code == 4 and not captured.out
    err = json.loads(captured.err)
    assert err["ok"] is False and err["verb"] == "eval"


def test_join_generators_are_read_at_the_join_angle(capsys):
    doc = copy.deepcopy(_DOCS["join"])
    doc["gens"][1]["angle"] = {"kind": "surd", "a": -1, "b": 1, "c": 2, "den": 1}
    assert main(["eval", json.dumps(doc), "-n", "1"]) == 4
    # --angle reads the whole document at its angle, generators included
    assert main(["eval", json.dumps(doc), "-n", "1", "--angle", "golden"]) == 0
    # a generator without an angle, or with the join's, is read at the join's
    del doc["gens"][1]["angle"]
    doc["gens"][0]["angle"] = copy.deepcopy(doc["angle"])
    assert main(["eval", json.dumps(doc), "-n", "1"]) == 0
    # a join that names no angle is read at the default one, and so checked
    del doc["angle"]
    assert main(["eval", json.dumps(doc), "-n", "1"]) == 0
    doc["gens"][0]["angle"] = "1/0"
    assert main(["eval", json.dumps(doc), "-n", "1"]) == 4
    capsys.readouterr()


@pytest.mark.parametrize("text", ["5", "[1]", '"x"', "null"])
def test_document_that_is_no_object_exits_4(text, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(text)
    for argv in (["eval", str(path), "-n", "1"], ["plot", str(path), "-o", os.devnull]):
        assert main(argv) == 4
        assert json.loads(capsys.readouterr().err)["ok"] is False


_FUZZ_VALUES = st.sampled_from([None, [], [1], "x", 1.5, "1/0"])


def _main_quietly(argv) -> int:
    """main's exit code, which must be a report's or bad input's with a JSON error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    if code == 4:
        assert json.loads(err.getvalue())["ok"] is False
    return code


@given(st.sampled_from([(name, path) for name, doc in _DOCS.items() for path in _fields(doc)]),
       _FUZZ_VALUES)
def test_document_readers_fuzz(field, value):
    # any one field of a valid document replaced: a report or bad input,
    # never an exception out of main
    text, basic = _replaced(_DOCS[field[0]], field[1], value), json.dumps(_DOCS["basic"])
    for argv in (["eval", text, "-n", "1"], ["check-closed", text, "--window", "1"],
                 ["meet", basic, text, "--window", "1"], ["join", basic, text, "--window", "1"]):
        code = _main_quietly(argv)
        if field[0] == "join" and field[1][0] == "gens" and field[1][2:3] == ("angle",):
            assert code == 4  # a join generator's angle is read and checked


_WINDOW_KEYS = st.sampled_from(["01", "+1", " 1", "1 ", "1_0", "\u0663", "-0", "1.0", "", "x",
                                "None", "1" * 5000])


@given(_WINDOW_KEYS, st.sampled_from([{"full": True}, {"components": []}, _SET]))
def test_window_key_reader_fuzz(key, value):
    # int(key) read each of these as an index, and two keys naming one
    # index kept only the later value
    doc = copy.deepcopy(_DOCS["window"])
    doc["values"][key] = value
    for argv in (["eval", json.dumps(doc), "-n", "1"],
                 ["check-closed", json.dumps(doc), "--window", "1"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == 4
        assert f"window key {key!r} must be an integer" in json.loads(err.getvalue())["error"]


def test_window_keys_that_name_one_index_exit_4(capsys):
    doc = {"angle": _G.to_json(), "repr": "window",
           "values": {"01": {"full": True}, "1": {"components": []}}}
    assert main(["eval", json.dumps(doc), "-n", "1"]) == 4
    assert "window key '01'" in _error(capsys)["error"]
    del doc["values"]["01"]
    code, rep = run(capsys, "eval", json.dumps(doc), "-n", "1")
    assert code == 0 and rep["result"]["set"] == {"components": []}


@pytest.mark.parametrize("q", ["1e-10000000", "1e10000000"])
def test_point_with_a_huge_decimal_exponent_exits_4_at_once(q, capsys):
    doc = _basic_doc()
    doc["P"]["components"][0]["pt"]["q"] = q
    start = time.perf_counter()
    code = main(["eval", json.dumps(doc), "-n", "1"])
    assert time.perf_counter() - start < 1
    assert code == 4 and "q has a decimal exponent past EXPONENT_LIMIT" in _error(capsys)["error"]


@given(st.sampled_from(list(_fields(_SET))), _FUZZ_VALUES)
def test_set_reader_fuzz(path, value):
    _main_quietly(["plot", _replaced(_SET, path, value), "-o", os.devnull])


@given(st.sampled_from([(name, path) for name, doc in _ANGLES.items() for path in _fields(doc)]),
       _FUZZ_VALUES)
def test_angle_descriptor_fuzz(field, value):
    angle = _replaced(_ANGLES[field[0]], field[1], value)
    _main_quietly(["eval", json.dumps(_DOCS["basic"]), "-n", "1", "--angle", angle])
