"""Golden corpus: fixed inputs run through the lattice CLI verbs, compared
byte for byte with reports checked in under tests/golden/.

This is a regression guard, not a correctness oracle: the files record what
the program printed when they were generated, right or wrong, so that a
refactor of the exact engine (point representation, closure loop, ordering)
can show it changed no report byte and no exit code.  The correctness of
those outputs is argued by the other test modules and the exponent oracle.

Regenerate (after a deliberate change of output only) with

    PYTHONPATH=src python tests/test_golden.py

which rewrites every file under tests/golden/ and MANIFEST.json.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN = {"kind": "surd", "a": -1, "b": 1, "c": 5, "den": 2}
SILVER = {"kind": "surd", "a": -1, "b": 1, "c": 2, "den": 1}
SILVER5 = {"kind": "surd", "a": -1, "b": 1, "c": 2, "den": 5}
SILVER_CF = {"kind": "cf", "prefix": [0, 2, 2], "rule": "repeat-last"}


# -- input documents ------------------------------------------------------------


def p(q, n=0):
    return {"q": q, "n": n}


def pts(*points):
    return {"components": [{"pt": x} for x in points]}


def arcs(*pairs, points=()):
    return {"components": [{"pt": x} for x in points]
            + [{"arc": {"start": a, "end": b}} for a, b in pairs]}


def basic(angle, q, P):
    return {"angle": angle, "repr": "basic", "q": q, "P": P}


def window(angle, values, default="full"):
    return {"angle": angle, "repr": "window", "default": default,
            "values": {str(n): v for n, v in values.items()}}


def join(angle, gens, depth=6):
    return {"angle": angle, "repr": "join", "depth": depth, "gens": gens}


ORBIT = basic(GOLDEN, 1, pts(p("1/7")))
ORBIT_NEXT = basic(GOLDEN, 1, pts(p("1/7", 1)))
BLOCK = basic(GOLDEN, 1, pts(p("2/9", -1), p("2/9", 0)))
ARC = basic(GOLDEN, 1, arcs((p("0"), p("1/5"))))
ARC_SHIFTED = basic(GOLDEN, 1, arcs((p("1/10"), p("3/10"))))
ARC_FAR = basic(GOLDEN, 1, arcs((p("2/5"), p("3/5"))))
SILVER_HALF = basic(SILVER, 1, arcs((p("1/8"), p("5/8"))))
NOT_CLOSED = window(GOLDEN, {1: pts(p("1/7")), 2: pts(p("1/7", 5))})
ZERO_PROPER = window(GOLDEN, {0: pts(p("1/2")), 1: pts(p("1/2"), p("1/2", 1))})

# name -> (input documents, verb, argv after the inputs)
CASES = {
    # eval
    "eval-orbit": ([ORBIT], "eval", ["-n", 3]),
    "eval-block-negative": ([BLOCK], "eval", ["-n", -7]),
    "eval-step2": ([basic(GOLDEN, 2, pts(p("5/9", 1)))], "eval", ["-n", 6]),
    "eval-arc": ([ARC], "eval", ["-n", 4]),
    "eval-window": ([NOT_CLOSED], "eval", ["-n", 2]),
    "eval-silver": ([basic(SILVER, 1, pts(p("1/3"), p("2/3", 2)))], "eval", ["-n", 5]),
    "eval-cf-angle": ([basic(SILVER_CF, 2, pts(p("1/4", -1)))], "eval", ["-n", -4]),
    "eval-angle-override": ([ORBIT], "eval", ["-n", 3, "--angle", "silver5"]),
    # check-closed
    "check-closed-orbit": ([BLOCK], "check-closed", ["--window", 6]),
    "check-closed-arc": ([ARC], "check-closed", ["--window", 5]),
    "check-closed-defect": ([NOT_CLOSED], "check-closed", ["--window", 3]),
    "check-closed-zero": ([ZERO_PROPER], "check-closed", ["--window", 2]),
    "check-closed-join": ([join(GOLDEN, [ORBIT, basic(GOLDEN, 2, pts(p("1/7"), p("1/7", -1)))])],
                          "check-closed", ["--window", 4]),
    # join
    "join-collapse": ([ORBIT, ORBIT_NEXT], "join", ["--window", 6, "--depth", 4]),
    "join-residual": ([basic(GOLDEN, 1, pts(p("4/9"), p("4/9", 1))),
                       basic(GOLDEN, 2, pts(p("4/9"), p("4/9", -1), p("4/9", -2)))],
                      "join", ["--window", 6]),
    "join-steps-1-2": ([ORBIT, basic(GOLDEN, 2, pts(p("3/7", 1)))], "join", ["--window", 6]),
    "join-arcs-overlap": ([ARC, ARC_SHIFTED], "join", ["--window", 5]),
    "join-arcs-disjoint": ([ARC, ARC_FAR], "join", ["--window", 6]),
    "join-require-exact": ([ARC, ARC_SHIFTED], "join",
                           ["--window", 4, "--depth", 0, "--require-exact"]),
    "join-silver5": ([basic(SILVER5, 1, pts(p("1/2"))), basic(SILVER5, 3, pts(p("1/2"), p("1/2", 1)))],
                     "join", ["--window", 5]),
    # close
    "close-window": ([window(GOLDEN, {1: pts(p("2/7"), p("2/7", 1)),
                                      -1: pts(p("2/7", 1), p("2/7", 2))})],
                     "close", ["--window", 5]),
    "close-basic": ([basic(GOLDEN, 2, pts(p("1/9", 1), p("1/9", 2)))], "close", ["--window", 6]),
    # decompose
    "decompose-basic": ([BLOCK], "decompose", ["--window", 6]),
    "decompose-step2": ([basic(GOLDEN, 2, pts(p("7/9")))], "decompose", ["--window", 8]),
    "decompose-arc": ([ARC], "decompose", ["--window", 4]),
    # classify
    "classify-residual": ([basic(GOLDEN, 2, pts(p("1/9"), p("1/9", 1)))], "classify",
                          ["--window", 10]),
    "classify-small": ([basic(GOLDEN, 1, arcs((p("1/4"), p("13/20"))))], "classify",
                       ["--window", 12]),
    # meet
    "meet-2-3": ([basic(GOLDEN, 2, pts(p("1/7"))), basic(GOLDEN, 3, pts(p("1/7")))],
                 "meet", ["--window", 8]),
    "meet-orbits": ([ORBIT, ORBIT_NEXT], "meet", ["--window", 4]),
    "meet-arcs": ([ARC, ARC_SHIFTED], "meet", ["--window", 3]),
    # simplicity
    "simplicity-orbit": ([ORBIT], "simplicity", ["--window", 8]),
    "simplicity-silver-half": ([SILVER_HALF], "simplicity", ["--window", 6]),
    # plot
    "plot-points": ([pts(p("1/7"), p("1/7", 2), p("3/5", -1))], "plot", ["--angle", "golden"]),
    "plot-arcs": ([arcs((p("1/10"), p("3/10")), (p("7/10"), p("1/20")), points=[p("1/2", 1)])],
                  "plot", ["--angle", "silver"]),
    "plot-value": ([ARC], "plot", ["-n", 3]),
}


def run_case(name: str, workdir: Path) -> tuple[int, str]:
    """Run one case in workdir; return its exit code and its report text."""
    from rotalg.cli import main
    docs, verb, extra = CASES[name]
    files = []
    for i, doc in enumerate(docs):
        path = workdir / f"{name}.in{i}.json"
        path.write_text(json.dumps(doc, sort_keys=True))
        files.append(str(path))
    out = workdir / f"{name}.{'svg' if verb == 'plot' else 'json'}"
    code = main([verb, *files, *[str(a) for a in extra], "-o", str(out)])
    return code, out.read_text()


def _golden_name(name: str) -> str:
    return f"{name}.{'svg' if CASES[name][1] == 'plot' else 'json'}"


@pytest.fixture(autouse=True)
def _default_angle(monkeypatch):
    monkeypatch.delenv("ROTALG_DEFAULT_ANGLE", raising=False)


def test_manifest_lists_every_case():
    manifest = json.loads((GOLDEN_DIR / "MANIFEST.json").read_text())
    assert sorted(manifest) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path, capsys):
    manifest = json.loads((GOLDEN_DIR / "MANIFEST.json").read_text())
    code, text = run_case(name, tmp_path)
    capsys.readouterr()
    assert code == manifest[name], f"{name}: exit code {code}, golden {manifest[name]}"
    expected = (GOLDEN_DIR / _golden_name(name)).read_text()
    assert text == expected, f"{name}: report differs from tests/golden/{_golden_name(name)}"


def regenerate() -> None:
    import os
    import tempfile
    os.environ.pop("ROTALG_DEFAULT_ANGLE", None)
    GOLDEN_DIR.mkdir(exist_ok=True)
    manifest = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            code, text = run_case(name, Path(tmp))
            manifest[name] = code
            (GOLDEN_DIR / _golden_name(name)).write_text(text)
    (GOLDEN_DIR / "MANIFEST.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
