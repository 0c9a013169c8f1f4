"""Seeded inputs and operation lists for the four workloads.

Stdlib only, and importing this module imports nothing numeric: the
set-up probe times ``import rotalg.cli`` from a cold interpreter after
importing it.

Every workload has a fixed structure (steps, block sizes, windows, arc
lengths, radii, suite sizes); the seed picks only what leaves the cost of
an operation unchanged: base points, orbit offsets, arc positions,
coefficients and suite seeds.  Each operation carries the independent
model its output is checked against (see checks.py).
"""
from __future__ import annotations

import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

GOLDEN = {"kind": "surd", "a": -1, "b": 1, "c": 5, "den": 2}
SILVER = {"kind": "surd", "a": -1, "b": 1, "c": 2, "den": 1}
ANGLES = {"golden": GOLDEN, "silver": SILVER}
RHO = {"golden": (math.sqrt(5) - 1) / 2, "silver": math.sqrt(2) - 1}

WORKLOADS = ("lattice-join", "lattice-query", "operator-norm", "exact-algebra")


# -- circle sets as exact component data ---------------------------------------
# A set is None (the full circle) or a pair (points, arcs): points is a
# frozenset of (q, n) with q a Fraction in [0, 1), arcs a tuple of
# ((q0, n0), (q1, n1)) counterclockwise arcs.  Rotation by k adds k to n.


def point(q, n):
    return (F(q) % 1, int(n))


def cset(points=(), arcs=()):
    return (frozenset(points), tuple(arcs))


def _pt_doc(p):
    return {"q": str(p[0]), "n": p[1]}


def set_doc(s):
    if s is None:
        return {"full": True}
    pts, arcs = s
    comps = [{"pt": _pt_doc(p)} for p in sorted(pts)]
    comps += [{"arc": {"start": _pt_doc(a), "end": _pt_doc(b)}} for a, b in arcs]
    return {"components": comps}


def basic_doc(angle, q, s):
    return {"angle": ANGLES[angle], "repr": "basic", "q": q, "P": set_doc(s)}


def window_doc(angle, values, default):
    return {"angle": ANGLES[angle], "repr": "window", "default": default,
            "values": {str(n): set_doc(v) for n, v in sorted(values.items())}}


def join_doc(angle, gens, depth=6):
    return {"angle": ANGLES[angle], "repr": "join", "depth": depth,
            "gens": [basic_doc(angle, q, s) for q, s in gens]}


# -- the models handed to the checks -------------------------------------------


def basic_model(q, s):
    return {"kind": "basic", "q": q, "P": s}


def window_model(values):
    """Explicit values, the full circle outside them."""
    return {"kind": "window", "values": values}


def meet_model(a, b):
    return {"kind": "meet", "children": [a, b]}


def naive_join_model(a, b):
    return {"kind": "naive-join", "children": [a, b]}


def point_exponents(base, exps):
    return cset(point(base[0], base[1] + e) for e in exps)


# -- operation list ------------------------------------------------------------


class OpList:
    """Writes input documents under a run directory and collects operations."""

    def __init__(self, run_dir: Path, seed_text: str):
        self.dir = run_dir
        (run_dir / "in").mkdir(parents=True, exist_ok=True)
        (run_dir / "out").mkdir(parents=True, exist_ok=True)
        self.rng = random.Random(seed_text)
        self.ops: list[dict] = []
        self._files = 0

    def doc(self, doc) -> str:
        self._files += 1
        path = self.dir / "in" / f"{self._files:03d}.json"
        path.write_text(json.dumps(doc, sort_keys=True))
        return str(path)

    def cli(self, verb, args, check, expect_exit=0, suffix="json"):
        out = str(self.dir / "out" / f"{len(self.ops):03d}.{suffix}")
        argv = [verb] + [str(a) for a in args] + ["-o", out]
        self.ops.append({"kind": "cli", "verb": verb, "argv": argv, "out": out,
                         "check": check, "expect_exit": expect_exit})

    def norm(self, element, radius, check):
        self.ops.append({"kind": "norm", "verb": "truncated_norm",
                         "element": element, "radius": radius, "check": check})

    # seeded choices that leave the cost of an operation unchanged
    def base(self, den=9, spread=2):
        return (F(self.rng.randrange(den), den), self.rng.randint(-spread, spread))

    def arc_start(self):
        return F(self.rng.randrange(20), 20)


def _arc(start, length):
    return (point(start, 0), point(start + length, 0))


def _residual_pair(b, q, blk):
    """basic(q, P) with P a block of blk+1 consecutive orbit points, and the
    step-2q basic generated by its value at 2q (computed from the exponent
    model, never by the program)."""
    import oracles
    base = b.base()
    exps = frozenset(range(blk + 1))
    partner = oracles.basic_value(q, exps, 2 * q)
    return ((q, point_exponents(base, exps)), (2 * q, point_exponents(base, partner)))


def _join_op(b, gens, window, depth=6, collapse=None, double=False):
    (qa, sa), (qb, sb) = gens
    fa, fb = b.doc(basic_doc("golden", qa, sa)), b.doc(basic_doc("golden", qb, sb))
    models = [basic_model(qa, sa), basic_model(qb, sb)]
    b.cli("join", [fa, fb, "--window", window, "--depth", depth],
          {"type": "join", "gens": models, "window": window, "collapse": collapse,
           "double": double, "inputs": [fa, fb], "depth": depth})


def lattice_join(b: OpList) -> None:
    # residual point pairs (criterion 06's shape): (step, block, window)
    residual = [(1, 1, 6), (1, 2, 8), (1, 1, 10), (1, 2, 12), (2, 2, 6), (2, 2, 8),
                (2, 3, 10), (2, 2, 14), (2, 4, 16), (3, 3, 6), (3, 3, 8),
                (3, 4, 12), (3, 3, 16), (3, 5, 20)]
    for q, blk, w in residual:
        _join_op(b, _residual_pair(b, q, blk), w, double=(w == 6 and q < 3))
    # overlapping arcs of equal length, offset by half a length; at these
    # windows the closure stabilizes without a finite-support proof
    for length, w in ((F(2, 5), 6), (F(3, 10), 6)):
        s = b.arc_start()
        gens = ((1, cset(arcs=[_arc(s, length)])),
                (1, cset(arcs=[_arc(s + length / 2, length)])))
        _join_op(b, gens, w, double=(length == F(2, 5)))
    # collapsing pairs: neighbouring orbit points, steps 1 and 2 on
    # different base points, disjoint arcs; all collapse onto gcd 1
    for w in (6, 8, 10, 14):
        base = b.base()
        gens = ((1, point_exponents(base, [0])), (1, point_exponents(base, [1])))
        _join_op(b, gens, w, depth=4, collapse=1, double=(w == 6))
    for w in (6, 8, 12, 14, 20):
        b1 = b.base(den=7)
        b2 = (b1[0] + F(1 + b.rng.randrange(6), 7), b.rng.randint(-2, 2))
        gens = ((1, point_exponents(b1, [0])), (2, point_exponents(b2, [0])))
        _join_op(b, gens, w, collapse=1)
    for w in (6, 12):
        s = b.arc_start()
        gens = ((1, cset(arcs=[_arc(s, F(1, 5))])),
                (1, cset(arcs=[_arc(s + F(2, 5), F(1, 5))])))
        _join_op(b, gens, w, collapse=1)

    # closure of window functions (criterion 13's shape) and of basics
    for npts, w in ((2, 5), (1, 6), (2, 8)):
        base = b.base(den=7)
        P = point_exponents(base, range(npts))
        vals = {1: P, -1: point_exponents((base[0], base[1] + 1), range(npts))}
        f = b.doc(window_doc("golden", vals, "full"))
        b.cli("close", [f, "--window", w],
              {"type": "close", "model": window_model(vals), "window": w})
    for q, npts, w in ((2, 2, 8), (3, 2, 10)):
        P = point_exponents(b.base(), range(npts))
        f = b.doc(basic_doc("golden", q, P))
        b.cli("close", [f, "--window", w],
              {"type": "close", "model": basic_model(q, P), "window": w})

    # canonical decomposition of basics and of the step-2/step-3 meet
    for q, npts, w in ((1, 2, 6), (1, 1, 8), (2, 2, 8), (2, 1, 10), (3, 2, 12)):
        base = b.base()
        P = point_exponents(base, [0, 2][:npts])
        f = b.doc(basic_doc("golden", q, P))
        b.cli("decompose", [f, "--window", w],
              {"type": "decompose-basic", "q": q, "P": P})
    base = b.base(den=7)
    P = point_exponents(base, [0])
    m = meet_model(basic_model(2, P), basic_model(3, P))
    from checks import model_value
    vals = {n: model_value(m, n) for n in range(-12, 13)}
    f = b.doc(window_doc("golden", vals, "unknown"))
    b.cli("decompose", [f, "--window", 12],
          {"type": "decompose-meet", "base": base})

    # join documents read past their stored window (10): check-closed at w
    # reads to 2w and classify at 12 or 14, so the join is extended on demand
    for verb, q, blk, w in (("check-closed", 2, 2, 6), ("check-closed", 3, 3, 8),
                            ("classify", 2, 3, 12), ("classify", 3, 2, 14)):
        gens = _residual_pair(b, q, blk)
        f = b.doc(join_doc("golden", gens))
        check = ({"type": "closed-ok"} if verb == "check-closed"
                 else {"type": "classify", "verdict": "residual"})
        b.cli(verb, [f, "--window", w], check)


def _covering_steps(length, q, rho):
    """Float model: smallest N with P u r^-q P u ... u r^-q(N-1) P the circle,
    for an arc P of the given length."""
    from checks import covers
    arcs = []
    for j in range(200):
        arcs.append(((-q * j * rho) % 1, float(length)))
        if covers(arcs, 0.0, 1.0):
            return j + 1
    raise ValueError("arc too short for the covering model")


def lattice_query(b: OpList) -> None:
    # eval far out on point basics (exponent model) and arc basics (union of
    # rotated arcs); eval on a one-point basic costs O(n^2) unions today
    for q, npts, n in ((1, 1, 150), (1, 1, -200), (1, 2, 120), (1, 1, 500),
                       (2, 1, 300), (2, 2, -240), (2, 1, -200), (3, 1, 450),
                       (3, 2, 360), (1, 1, 200), (1, 1, -200)):
        P = point_exponents(b.base(), [0, 3][:npts])
        f = b.doc(basic_doc("golden", q, P))
        b.cli("eval", [f, "-n", n],
              {"type": "eval", "model": basic_model(q, P), "n": n})
    for q, length, n in ((1, F(1, 50), 100), (1, F(1, 50), -150),
                         (2, F(1, 100), 200), (3, F(1, 200), -300)):
        P = cset(arcs=[_arc(b.arc_start(), length)])
        f = b.doc(basic_doc("golden", q, P))
        b.cli("eval", [f, "-n", n],
              {"type": "eval", "model": basic_model(q, P), "n": n})

    # closedness of basics (all pass) on growing windows
    for q, npts, w in ((1, 2, 12), (1, 2, 20), (1, 2, 30), (2, 1, 20), (3, 3, 20)):
        P = point_exponents(b.base(), range(npts))
        f = b.doc(basic_doc("golden", q, P))
        b.cli("check-closed", [f, "--window", w], {"type": "closed-ok"})
    for q, length, w in ((1, F(1, 4), 8), (2, F(1, 5), 10), (2, F(1, 5), 10),
                         (2, F(1, 5), 10)):
        P = cset(arcs=[_arc(b.arc_start(), length)])
        f = b.doc(basic_doc("golden", q, P))
        b.cli("check-closed", [f, "--window", w], {"type": "closed-ok"})
    # window documents: the naive join of neighbouring orbit-point basics is
    # not closed (product defect at (1, 1), exit 2); a basic materialized
    # from the exponent model is closed
    from checks import model_value
    for w in (6, 8):
        base = b.base(den=7)
        m = naive_join_model(basic_model(1, point_exponents(base, [0])),
                             basic_model(1, point_exponents(base, [1])))
        vals = {n: model_value(m, n) for n in range(-2 * w, 2 * w + 1)}
        f = b.doc(window_doc("golden", vals, "unknown"))
        b.cli("check-closed", [f, "--window", w], {"type": "naive-defect"},
              expect_exit=2)
    mb = basic_model(2, point_exponents(b.base(), [0, 1]))
    vals = {n: model_value(mb, n) for n in range(-16, 17)}
    f = b.doc(window_doc("golden", vals, "unknown"))
    b.cli("check-closed", [f, "--window", 8], {"type": "closed-ok"})

    # meets of point basics against the exponent model
    for qa, qb, same, w in ((2, 3, True, 12), (1, 2, False, 8), (2, 2, False, 10),
                            (3, 4, True, 16), (1, 3, True, 8), (2, 3, False, 10),
                            (1, 2, True, 8), (3, 2, False, 12), (2, 4, True, 12),
                            (3, 1, False, 10)):
        ba = b.base(den=7)
        bb = ba if same else (ba[0], ba[1] + 1 + b.rng.randrange(3))
        Pa, Pb = point_exponents(ba, [0]), point_exponents(bb, [0])
        fa, fb = b.doc(basic_doc("golden", qa, Pa)), b.doc(basic_doc("golden", qb, Pb))
        b.cli("meet", [fa, fb, "--window", w],
              {"type": "meet", "model": meet_model(basic_model(qa, Pa),
                                                   basic_model(qb, Pb)),
               "window": w})

    # classification: point basics are residual, arc basics small (windows
    # cover the certified support bound q*(N-1), N from the float model)
    for q, npts in ((1, 1), (2, 2), (3, 1), (1, 2), (2, 1), (3, 2), (1, 3), (2, 3)):
        P = point_exponents(b.base(), range(npts))
        f = b.doc(basic_doc("golden", q, P))
        b.cli("classify", [f, "--window", 12],
              {"type": "classify", "verdict": "residual"})
    for q, length in ((1, F(2, 5)), (2, F(1, 3)), (1, F(3, 10)), (1, F(1, 3))):
        if q * (_covering_steps(length, q, RHO["golden"]) - 1) > 12:
            raise ValueError("classify window misses the support bound")
        P = cset(arcs=[_arc(b.arc_start(), length)])
        f = b.doc(basic_doc("golden", q, P))
        b.cli("classify", [f, "--window", 12],
              {"type": "classify", "verdict": "small"})

    # simplicity: one-point basics are simple, the silver half-circle is not
    for q in (1, 2, 3, 1, 2, 3, 1, 2):
        P = point_exponents(b.base(), [0])
        f = b.doc(basic_doc("golden", q, P))
        b.cli("simplicity", [f, "--window", 10],
              {"type": "simplicity", "verdict": "simple"})
    for _ in range(3):
        s = F(b.rng.randrange(8), 8)
        f = b.doc(basic_doc("silver", 1, cset(arcs=[_arc(s, F(1, 2))])))
        b.cli("simplicity", [f, "--window", 10],
              {"type": "simplicity", "verdict": "not-simple"})

    # pictures: one marker per point, one path per arc
    base = b.base()
    f = b.doc(set_doc(point_exponents(base, [0, 2, 5])))
    b.cli("plot", [f, "--angle", "golden"], {"type": "plot", "points": 3, "arcs": 0},
          suffix="svg")
    s = b.arc_start()
    f = b.doc(set_doc(cset(arcs=[_arc(s, F(1, 10)), _arc(s + F(1, 2), F(1, 5))])))
    b.cli("plot", [f, "--angle", "golden"], {"type": "plot", "points": 0, "arcs": 2},
          suffix="svg")
    f = b.doc(basic_doc("golden", 1, point_exponents(b.base(), [0])))
    b.cli("plot", [f, "-n", 5], {"type": "plot", "points": 5, "arcs": 0},
          suffix="svg")
    f = b.doc(basic_doc("golden", 2, cset(arcs=[_arc(b.arc_start(), F(1, 8))])))
    b.cli("plot", [f, "-n", 2], {"type": "plot", "points": 0, "arcs": 1},
          suffix="svg")
    f = b.doc(set_doc(point_exponents(b.base(), [0, 1])))
    b.cli("plot", [f, "--angle", "golden"], {"type": "plot", "points": 2, "arcs": 0},
          suffix="svg")
    f = b.doc(set_doc(cset(arcs=[_arc(b.arc_start(), F(1, 4))])))
    b.cli("plot", [f, "--angle", "golden"], {"type": "plot", "points": 0, "arcs": 1},
          suffix="svg")
    f = b.doc(basic_doc("golden", 1, point_exponents(b.base(), [0])))
    b.cli("plot", [f, "-n", 3], {"type": "plot", "points": 3, "arcs": 0},
          suffix="svg")
    f = b.doc(set_doc(point_exponents(b.base(), [0, 1, 3, 4])))
    b.cli("plot", [f, "--angle", "golden"], {"type": "plot", "points": 4, "arcs": 0},
          suffix="svg")
    s = b.arc_start()
    f = b.doc(set_doc(cset(arcs=[_arc(s, F(1, 5)), _arc(s + F(1, 2), F(1, 10))])))
    b.cli("plot", [f, "--angle", "golden"], {"type": "plot", "points": 0, "arcs": 2},
          suffix="svg")
    f = b.doc(basic_doc("golden", 3, point_exponents(b.base(), [0])))
    b.cli("plot", [f, "-n", 6], {"type": "plot", "points": 2, "arcs": 0},
          suffix="svg")


# multi-layer elements: fixed (x-frequency, dual frequency) pattern,
# seeded coefficients of modulus in [1/2, 1]
_PATTERN = ((-2, 1), (-1, -2), (-1, 0), (0, 1), (1, 2), (1, -1), (2, 0))
# box sizes N = (2r+1)^2: 169, 441, 625 (the fejer suite's radius), 841,
# 1089 (the derivative suite's radius) for the dense Gram solve, then 1225
# and 1681 past N = 1200
NORM_RADII = (6, 10, 12, 14, 16, 17, 20)


def _coeff(rng):
    r, t = rng.uniform(0.5, 1.0), rng.uniform(0, 2 * math.pi)
    return complex(r * math.cos(t), r * math.sin(t))


def element_doc(terms):
    """terms: list of (n, k, complex)."""
    by_n: dict[int, list] = {}
    for n, k, c in terms:
        by_n.setdefault(n, []).append({"k": k, "re": repr(c.real), "im": repr(c.imag)})
    return {"mode": "float", "terms": [{"n": n, "coeffs": cs} for n, cs in sorted(by_n.items())]}


def operator_norm(b: OpList) -> None:
    # the short suites: averaging (seeded), center.  The fejer and
    # derivative suites are left out: each is a single operation of about
    # 6 s, too long for the per-operation speed calibration to follow the
    # host; their Gram sizes (radii 12 and 16) are among the direct calls
    for n in (3, 4):
        b.cli("sandbox-verify", ["--suite", "averaging", "--n", n,
                                 "--seed", b.rng.randrange(10**6), "--angle", "golden"],
              {"type": "averaging", "n": n})
    b.cli("sandbox-verify", ["--suite", "center"], {"type": "center"})

    # direct truncated_norm calls on both sides of N = (2r+1)^2 = 1200, and
    # at radius 12 alone, where the fejer suite makes its calls.  The mix
    # puts the median operation among the radius-12 calls and the tail
    # among the radius-14 and -17 calls, whose costs do not depend on the
    # seed or hardly do
    for e in range(9):
        terms = [(n, k, _coeff(b.rng)) for n, k in _PATTERN]
        doc = element_doc(terms)
        for r in (NORM_RADII if e < 3 else (12,)):
            b.norm(doc, r, {"type": "norm", "element": e, "terms": terms})
    for e in range(5):
        n, k = b.rng.randint(-3, 3), b.rng.randint(-3, 3)
        terms = [(n, k, _coeff(b.rng))]
        doc = element_doc(terms)
        for r in (8, 32):
            b.norm(doc, r, {"type": "monomial", "element": 100 + e, "terms": terms})


def exact_algebra(b: OpList) -> None:
    for n in (8, 10, 12, 14, 16, 18, 20, 22) * 3:
        b.cli("sandbox-verify", ["--suite", "ring", "--n", n,
                                 "--seed", b.rng.randrange(10**6), "--angle", "golden"],
              {"type": "ring", "n": n})
    for trials in (20, 40, 60, 80, 100, 120, 140, 160) * 2:
        b.cli("group-verify", ["--trials", trials], {"type": "group", "trials": trials})


WORKLOAD_OPS = {"lattice-join": lattice_join, "lattice-query": lattice_query,
            "operator-norm": operator_norm, "exact-algebra": exact_algebra}


def build(workload: str, seed: int, run_dir: Path) -> list[dict]:
    b = OpList(run_dir, f"{workload}/{seed}")
    WORKLOAD_OPS[workload](b)
    for i, op in enumerate(b.ops):
        op["id"] = i
    return b.ops


# -- warm-up: one fixed operation per workload, outside the batch ---------------


def warmup(workload: str, run_dir: Path) -> list[dict]:
    """Seed-independent operations that pay each workload's lazy first-use
    set-up (for example the scipy.sparse import of a multi-layer norm)."""
    b = OpList(run_dir / "warmup", "warmup")
    if workload == "operator-norm":
        b.norm(element_doc([(0, 1, 1.0 + 0j), (1, 0, 0.5j)]), 6, None)
    elif workload == "exact-algebra":
        b.cli("sandbox-verify", ["--suite", "ring", "--n", 1, "--angle", "golden"], None)
        b.cli("group-verify", ["--trials", 1], None)
    else:
        P = point_exponents((F(1, 7), 0), [0])
        fa = b.doc(basic_doc("golden", 1, P))
        fb = b.doc(basic_doc("golden", 2, point_exponents((F(2, 7), 0), [0])))
        b.cli("join", [fa, fb, "--window", 3], None)
        b.cli("eval", [fa, "-n", 4], None)
    return b.ops
