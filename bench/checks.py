"""Output checks made apart from the program.

Point instances are modelled with the exponent oracle in tests/oracles.py;
arcs with exact component data whose containment is decided in floating
point, with a tolerance of 1e-9 around arc ends.  Every other check is a
property the method must have (closure axioms, idempotence, window
independence, norm bounds), never a stored copy of an earlier output.

A circle set here is None (the full circle) or (points, arcs): points a
frozenset of (q, n), arcs a tuple of ((q0, n0), (q1, n1)), for the points
(q + n*rho) mod 1.  Unions are kept unnormalized.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction

import oracles
from workloads import RHO, point

TOL = 1e-9
EMPTY = (frozenset(), ())


# -- set algebra on component data ---------------------------------------------


def shift(s, k):
    if s is None:
        return None
    pts, arcs = s
    return (frozenset((q, n + k) for q, n in pts),
            tuple(((a[0], a[1] + k), (b[0], b[1] + k)) for a, b in arcs))


def union(a, b):
    if a is None or b is None:
        return None
    return (a[0] | b[0], a[1] + b[1])


def is_empty(s):
    return s is not None and not s[0] and not s[1]


def _pos(p, rho):
    return (float(p[0]) + p[1] * rho) % 1.0


def _arc_floats(s, rho):
    out = []
    for a, b in s[1]:
        x = _pos(a, rho)
        out.append((x, (_pos(b, rho) - x) % 1.0))
    return out


def covers(arcs, start, length):
    """Is the counterclockwise arc [start, start + length] inside the union
    of the (start, length) arcs?  Interval sweep on the unrolled circle."""
    ivs = []
    for a, la in arcs:
        d = (a - start) % 1.0
        ivs.append((d, d + la))
        ivs.append((d - 1.0, d - 1.0 + la))
    ivs.sort()
    reach = None
    for lo, hi in ivs:
        if hi < -TOL:
            continue
        if lo > (0.0 if reach is None else reach) + TOL:
            break
        reach = hi if reach is None else max(reach, hi)
        if reach >= length - TOL:
            return True
    return False


def contains(big, small, rho):
    """big contains small."""
    if big is None:
        return True
    arcs = _arc_floats(big, rho)
    if small is None:
        return covers(arcs, 0.0, 1.0)
    for p in small[0]:
        if p not in big[0] and not covers(arcs, _pos(p, rho), 0.0):
            return False
    return all(covers(arcs, x, la) for x, la in _arc_floats(small, rho))


def same(a, b, rho):
    if a is None or b is None or a[1] or b[1]:
        return contains(a, b, rho) and contains(b, a, rho)
    return a[0] == b[0]


def parse_set(doc):
    if doc.get("full"):
        return None
    pts, arcs = set(), []
    for comp in doc["components"]:
        if "pt" in comp:
            pts.add(point(Fraction(comp["pt"]["q"]), comp["pt"]["n"]))
        else:
            a, b = comp["arc"]["start"], comp["arc"]["end"]
            arcs.append((point(Fraction(a["q"]), a["n"]), point(Fraction(b["q"]), b["n"])))
    return (frozenset(pts), tuple(arcs))


# -- the models ------------------------------------------------------------------


def _basic_value(q, P, m):
    """The basic family from its definition: points through the exponent
    oracle (one base point at a time), arcs as the union of their rotates."""
    if m == 0:
        return EMPTY
    if q == 0 or m % q:
        return None
    pts = set()
    bases: dict[Fraction, set] = {}
    for b, n in P[0]:
        bases.setdefault(b, set()).add(n)
    for b, exps in bases.items():
        pts.update((b, e) for e in oracles.basic_value(q, frozenset(exps), m))
    k = m // q
    shifts = [-q * j for j in range(k)] if k > 0 else [q * j for j in range(1, -k + 1)]
    arcs = tuple(arc for s in shifts for arc in shift((frozenset(), P[1]), s)[1])
    return (frozenset(pts), arcs)


def model_value(model, n):
    kind = model["kind"]
    if kind == "basic":
        return _basic_value(model["q"], model["P"], n)
    if kind == "window":
        if n in model["values"]:
            return model["values"][n]
        return EMPTY if n == 0 else None
    vals = [model_value(c, n) for c in model["children"]]
    if kind == "meet":
        return union(*vals)
    # naive join of point-valued children: exact intersection
    a, b = vals
    if a is None:
        return b
    if b is None:
        return a
    if a[1] or b[1]:
        raise ValueError("naive join model covers point sets only")
    return (a[0] & b[0], ())


def axioms(values, window, rho):
    """Reflection and the product axiom of a closed function on the window."""
    for n in range(1, window + 1):
        want = shift(values[n], n)
        got = values[-n]
        if (got is None) != (want is None) or (got is not None and (
                got[0] != want[0] or set(got[1]) != set(want[1]))):
            return f"reflection fails at {n}"
    supp = [n for n in range(-window, window + 1) if values[n] is not None]
    for m in supp:
        for n in supp:
            t = m + n
            if abs(t) <= window and not contains(
                    union(shift(values[n], -m), values[m]), values[t], rho):
                return f"product axiom fails at ({m}, {n})"
    return None


# -- per-operation checks --------------------------------------------------------


def _values(rep):
    return {int(n): parse_set(v["set"]) for n, v in rep["values"].items()}


def _window_doc_of(rep, window):
    vals = {str(n): rep["values"][str(n)]["set"] for n in range(-window, window + 1)}
    return {"angle": rep["angle"], "repr": "window", "default": "full", "values": vals}


def check_join(op, rep, ctx):
    c = op["check"]
    w, rho = c["window"], RHO["golden"]
    vals = _values(rep)
    for n in range(-w, w + 1):
        for g in c["gens"]:
            if not contains(model_value(g, n), vals[n], rho):
                return f"value at {n} is not inside the generators' intersection"
    if c["collapse"]:
        d = c["collapse"]
        if not all(is_empty(vals[n]) for n in range(-w, w + 1) if n % d == 0):
            return "collapsing pair is not empty on the gcd progression"
    if rep["certificate"]["status"] == "Exact":
        bad = axioms(vals, w, rho)
        if bad:
            return bad
    if c["double"]:
        # window independence: the join at 2w agrees with the join at w
        code, big = ctx.rerun(["join", *c["inputs"], "--window", 2 * w,
                               "--depth", c["depth"]])
        if code != 0:
            return f"join at window {2 * w} exited {code}"
        big_vals = _values(big)
        if not all(same(vals[n], big_vals[n], rho) for n in range(-w, w + 1)):
            return f"join at window {w} disagrees with the join at {2 * w}"
    return None


def check_close(op, rep, ctx):
    c = op["check"]
    w, rho = c["window"], RHO["golden"]
    vals = _values(rep)
    for n in range(-w, w + 1):
        if not contains(model_value(c["model"], n), vals[n], rho):
            return f"closure is not extensive at {n}"
    if rep["certificate"]["status"] == "Exact":
        bad = axioms(vals, w, rho)
        if bad:
            return bad
    code, again = ctx.rerun(["close", ctx.write(_window_doc_of(rep, w)), "--window", w])
    if code != 0:
        return f"closing the closure exited {code}"
    again_vals = _values(again)
    if not all(same(vals[n], again_vals[n], rho) for n in range(-w, w + 1)):
        return "closure is not idempotent"
    return None


def check_decompose_basic(op, rep, ctx):
    c = op["check"]
    crit = rep["critical"]
    if not rep["ok"] or len(crit) != 1 or crit[0]["n"] != c["q"]:
        return f"critical set {[x['n'] for x in crit]}, expected [{c['q']}]"
    if not same(parse_set(crit[0]["set"]), c["P"], RHO["golden"]):
        return "critical value differs from the generating set"
    return None


def check_decompose_meet(op, rep, ctx):
    crit = rep["critical"]
    if not rep["ok"] or [x["n"] for x in crit] != [6]:
        return f"critical set {[x['n'] for x in crit]}, expected [6]"
    # the meet's value at 6, from the oracle's meet of the two basics
    base = op["check"]["base"]
    expect = oracles.meet_value(lambda m: oracles.basic_value(2, frozenset([0]), m),
                                lambda m: oracles.basic_value(3, frozenset([0]), m), 6)
    got = parse_set(crit[0]["set"])
    if got is None or got[1] or got[0] != frozenset(
            point(base[0], base[1] + e) for e in expect):
        return "critical value at 6 differs from the oracle"
    return None


def check_eval(op, rep, ctx):
    c = op["check"]
    if not same(parse_set(rep["result"]["set"]), model_value(c["model"], c["n"]),
                RHO["golden"]):
        return f"value at {c['n']} differs from the model"
    return None


def check_meet(op, rep, ctx):
    c = op["check"]
    vals = _values(rep)
    for n in range(-c["window"], c["window"] + 1):
        if not same(vals[n], model_value(c["model"], n), RHO["golden"]):
            return f"meet differs from the oracle's meet at {n}"
    return None


def check_closed_ok(op, rep, ctx):
    if rep["ok"] is not True or rep["violations"]:
        return f"closed function reported violations {rep['violations'][:3]}"
    return None


def check_naive_defect(op, rep, ctx):
    if rep["ok"] is not False or ["product", 1, 1] not in rep["violations"]:
        return "naive join's product defect at (1, 1) not reported"
    return None


def check_verdict(op, rep, ctx):
    want = op["check"]["verdict"]
    return None if rep["verdict"] == want else f"verdict {rep['verdict']}, expected {want}"


def check_plot(op, svg, ctx):
    c = op["check"]
    if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
        return "not an SVG document"
    pts, arcs = svg.count(' r="5" '), svg.count("<path ")
    if (pts, arcs) != (c["points"], c["arcs"]):
        return f"picture has {pts} points and {arcs} arcs"
    return None


def check_averaging(op, rep, ctx):
    eps = rep["eps"]
    if not (rep["ok"] and rep["trials"] == op["check"]["n"]
            and rep["preserve_error"] < eps
            and all(v < eps for v in rep["kill_errors"].values())
            and rep["contraction_excess"] <= 1e-9):
        return "averaging operator misses its stated bounds"
    return None


def check_center(op, rep, ctx):
    if not (rep["ok"] and rep["constructed"]["ok"] and rep["constant_ok"]
            and rep["shift_character_fails"]):
        return "central-element checks fail"
    return None


def check_ring(op, rep, ctx):
    if not (rep["ok"] and rep["trials"] == op["check"]["n"]
            and not any(rep["failures"].values())):
        return f"ring laws fail: {rep['failures']}"
    return None


def check_group(op, rep, ctx):
    aug, bi, m2 = rep["augmentation"], rep["bi"], rep["m2"]
    if not (aug["z2"]["dim"] == 1 and aug["z3"]["dim"] == 2
            and all(aug[g]["two_sided"] and aug[g]["proper"] for g in ("z2", "z3"))):
        return "augmentation ideals of Z2/Z3 have the wrong dimensions"
    if not (bi["functions_intersection_dim"] == 1 and bi["expectation_image_dim"] >= 2):
        return "compressed algebra meets the functions wrongly"
    if not (m2["trials"] == op["check"]["trials"] and m2["all_full"]):
        return "two-point model is not rigid over the requested trials"
    if not rep["subgroup"]["distinct"]:
        return "subgroup algebra not distinct"
    return None


def compression_norm(terms, radius, rho):
    """Top singular value of the compression to |u|, |v| <= radius, built
    entry by entry: the layer e^{inx} moves u to u + n with phase
    exp(-2 pi i n rho v') at the target dual index v', and the dual
    character k moves v to v + k."""
    import numpy as np
    dim = 2 * radius + 1
    M = np.zeros((dim * dim, dim * dim), dtype=complex)
    for n, k, c in terms:
        for u in range(-radius, radius + 1):
            if abs(u + n) > radius:
                continue
            for v in range(-radius, radius + 1):
                if abs(v + k) > radius:
                    continue
                M[(u + n + radius) * dim + v + k + radius, (u + radius) * dim + v + radius] += (
                    c * cmath.exp(-2j * math.pi * n * rho * (v + k)))
    return float(np.linalg.svd(M, compute_uv=False)[0])


def check_norm(op, value, ctx):
    c, r = op["check"], op["radius"]
    terms = c["terms"]
    total = sum(abs(x) for _, _, x in terms)
    if c["type"] == "monomial":
        return None if abs(value - total) <= 1e-12 * total else f"monomial norm {value} != {total}"
    if value > total * (1 + 1e-9):
        return "norm above the sum of the coefficient moduli"
    smaller = [rr for rr in ctx.norm_radii(c["element"]) if rr < r]
    if smaller and value < ctx.norm_value(c["element"], max(smaller)) * (1 - 1e-9):
        return "norm decreases as the radius grows"
    if r <= 10:
        ref = compression_norm(terms, r, RHO["golden"])
        if abs(value - ref) > 1e-9 * ref:
            return f"norm {value} differs from the dense SVD {ref}"
    return None


CHECKS = {
    "join": check_join, "close": check_close,
    "decompose-basic": check_decompose_basic, "decompose-meet": check_decompose_meet,
    "eval": check_eval, "meet": check_meet, "closed-ok": check_closed_ok,
    "naive-defect": check_naive_defect, "classify": check_verdict,
    "simplicity": check_verdict, "plot": check_plot,
    "averaging": check_averaging,
    "center": check_center, "ring": check_ring, "group": check_group,
    "norm": check_norm, "monomial": check_norm,
}


def check(op, output, ctx):
    """None when the output passes, else the reason it fails."""
    return CHECKS[op["check"]["type"]](op, output, ctx)
