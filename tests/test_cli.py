import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import rotalg

from rotalg import (Arc, ClosedCircleSet, function_to_json, golden_angle,
                    make_basic, set_to_json, window_function)
from rotalg.circleset import pt
from rotalg.cli import main, report_schema

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


def test_env_default_angle(inputs, capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("ROTALG_DEFAULT_ANGLE", "silver")
    doc = function_to_json(make_basic(1, _P))
    del doc["angle"]
    # an explicit angle in the document is not required when the
    # environment supplies one
    p = tmp_path / "noangle.json"
    p.write_text(json.dumps(doc))
    code, rep = run(capsys, "eval", p, "-n", "1")
    assert code == 0
    assert rep["angle"] == {"kind": "surd", "a": -1, "b": 1, "c": 2, "den": 1}


def test_sandbox_verify_verb(capsys):
    code, rep = run(capsys, "sandbox-verify", "--suite", "ring", "--n", "30")
    assert code == 0 and rep["ok"] and rep["trials"] == 30


def test_group_verify_verb(capsys):
    code, rep = run(capsys, "group-verify", "--trials", "20")
    assert code == 0 and rep["ok"]


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
