"""Golden corpus: fixed inputs run through the lattice CLI verbs, the ring
and membership suites of sandbox-verify and group-verify, compared byte for
byte with reports checked in under tests/golden/.

This is a regression guard, not a correctness oracle: the files record what
the program printed when they were generated, right or wrong, so that a
refactor of the exact engine (point representation, closure loop, ordering)
or of the finite-group model (span closure, subgroup enumeration) can show
it changed no report byte and no exit code.  The correctness of those
outputs is argued by the other test modules and the exponent oracle.

The sandbox-verify suites whose reports carry norms (fejer, averaging,
derivative, center) are pinned the same way under tests/golden_float/,
except that each float may differ from its pin by a relative 1e-12.  Those
pins guard against regressions too; they are not oracles either.

Regenerate (after a deliberate change of output only) with

    PYTHONPATH=src python tests/test_golden.py

which rewrites every file under tests/golden/ and MANIFEST.json, and every
file under tests/golden_float/.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "golden"
FLOAT_DIR = Path(__file__).parent / "golden_float"
FLOAT_REL = 1e-12

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
RESIDUAL_1 = basic(GOLDEN, 1, pts(p("4/9"), p("4/9", 1)))
RESIDUAL_2 = basic(GOLDEN, 2, pts(p("4/9"), p("4/9", -1), p("4/9", -2)))

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
    # a join document is rebuilt at window 10; |n| > 10 extends it on demand
    "eval-join-extension": ([join(GOLDEN, [RESIDUAL_1, RESIDUAL_2])], "eval", ["-n", 12]),
    # check-closed
    "check-closed-orbit": ([BLOCK], "check-closed", ["--window", 6]),
    "check-closed-arc": ([ARC], "check-closed", ["--window", 5]),
    "check-closed-defect": ([NOT_CLOSED], "check-closed", ["--window", 3]),
    "check-closed-zero": ([ZERO_PROPER], "check-closed", ["--window", 2]),
    "check-closed-join": ([join(GOLDEN, [ORBIT, basic(GOLDEN, 2, pts(p("1/7"), p("1/7", -1)))])],
                          "check-closed", ["--window", 4]),
    # join
    "join-collapse": ([ORBIT, ORBIT_NEXT], "join", ["--window", 6, "--depth", 4]),
    "join-residual": ([RESIDUAL_1, RESIDUAL_2], "join", ["--window", 6]),
    "join-steps-1-2": ([ORBIT, basic(GOLDEN, 2, pts(p("3/7", 1)))], "join", ["--window", 6]),
    "join-arcs-overlap": ([ARC, ARC_SHIFTED], "join", ["--window", 5]),
    "join-arcs-disjoint": ([ARC, ARC_FAR], "join", ["--window", 6]),
    "join-require-exact": ([ARC, ARC_SHIFTED], "join",
                           ["--window", 4, "--depth", 0, "--require-exact"]),
    # one round is not enough: the upper bounds reported depend on the
    # order in which the closure engine visits its constraints
    "join-depth-runs-out": ([basic(GOLDEN, 1, pts(p("1/3", -2), p("1/3", -1), p("1/3", 2))),
                             basic(GOLDEN, 1, pts(p("1/3", -2), p("1/3")))],
                            "join", ["--window", 5, "--depth", 1]),
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
    "classify-join": ([join(GOLDEN, [RESIDUAL_1, RESIDUAL_2])], "classify", ["--window", 8]),
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
    # group-verify: augmentation ideals, the compressed algebra, the
    # two-point rigidity at three trial counts, subgroups, ideal extension
    "group-verify-trials-1": ([], "group-verify", ["--trials", 1]),
    "group-verify-trials-20": ([], "group-verify", ["--trials", 20]),
    "group-verify-trials-160": ([], "group-verify", ["--trials", 160]),
    # sandbox-verify, ring laws of the exact PhasePoly products
    "ring-n8-seed0": ([], "sandbox-verify",
                      ["--suite", "ring", "--n", 8, "--seed", 0, "--angle", "golden"]),
    "ring-n20-seed3": ([], "sandbox-verify",
                       ["--suite", "ring", "--n", 20, "--seed", 3, "--angle", "golden"]),
    # sandbox-verify, membership of vanishing layers: the seed and the
    # tolerance reach the suite (the reports carry only counts)
    "membership-n6-seed2": ([], "sandbox-verify",
                            ["--suite", "membership", "--n", 6, "--seed", 2, "--angle", "golden"]),
    "membership-n4-seed5-tol": ([], "sandbox-verify",
                                ["--suite", "membership", "--n", 4, "--seed", 5,
                                 "--tolerance", "1e-6", "--angle", "silver"]),
}

# sandbox-verify suites that print floats: name -> argv after the verb.
# Each one passes (exit code 0)
FLOAT_CASES = {
    "fejer": ["--suite", "fejer"],
    "averaging": ["--suite", "averaging"],
    "averaging-n3-seed4": ["--suite", "averaging", "--n", 3, "--seed", 4],
    "derivative": ["--suite", "derivative"],
    "center": ["--suite", "center"],
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


def run_float_case(name: str, workdir: Path) -> tuple[int, str]:
    from rotalg.cli import main
    out = workdir / f"{name}.json"
    code = main(["sandbox-verify", *[str(a) for a in FLOAT_CASES[name]], "-o", str(out)])
    return code, out.read_text()


def _assert_close(got, want, where: str) -> None:
    """Floats within FLOAT_REL of the pin (a zero pin stays zero); every
    other value, and the shape of the document, exactly as pinned."""
    if type(want) is float and type(got) is float:
        assert math.isclose(got, want, rel_tol=FLOAT_REL, abs_tol=0.0), \
            f"{where}: {got!r}, pinned {want!r}"
    elif type(want) is dict:
        assert type(got) is dict and sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif type(want) is list:
        assert type(got) is list and len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r}, pinned {want!r}"


@pytest.mark.parametrize("name", sorted(FLOAT_CASES))
def test_float_suite_pinned(name, tmp_path, capsys):
    code, text = run_float_case(name, tmp_path)
    capsys.readouterr()
    assert code == 0
    pinned = json.loads((FLOAT_DIR / f"{name}.json").read_text())
    _assert_close(json.loads(text), pinned, name)


def regenerate() -> None:
    import tempfile
    GOLDEN_DIR.mkdir(exist_ok=True)
    manifest = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            code, text = run_case(name, Path(tmp))
            manifest[name] = code
            (GOLDEN_DIR / _golden_name(name)).write_text(text)
        FLOAT_DIR.mkdir(exist_ok=True)
        for name in sorted(FLOAT_CASES):
            (FLOAT_DIR / f"{name}.json").write_text(run_float_case(name, Path(tmp))[1])
    (GOLDEN_DIR / "MANIFEST.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
