import copy
import math
import pickle
import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from rotalg import Angle, Arc, CirclePoint, ClosedCircleSet, covering_index, golden_angle
from rotalg import circleset
from rotalg.circleset import pt, render_svg, set_from_json, set_to_json

import oracles

F = Fraction
_G = golden_angle()


def arcset(angle, a, b):
    return ClosedCircleSet.from_components(angle, (), (Arc(a, b),))


# -- strategies ----------------------------------------------------------

points = st.builds(pt,
                   st.fractions(min_value=0, max_value=1, max_denominator=8),
                   st.integers(min_value=-3, max_value=3))


# convergents F(k)/F(k+1) of the golden ratio with denominators above
# 2**64: neighbours are 1/(F(k+1)F(k+2)) < 2**-128 apart, so an order key
# of fixed or single-denominator precision ties there
_FIB = [0, 1]
while len(_FIB) < 102:
    _FIB.append(_FIB[-2] + _FIB[-1])
crowded_points = st.builds(lambda k, n: pt(F(_FIB[k], _FIB[k + 1]), n),
                           st.integers(min_value=94, max_value=99),
                           st.integers(min_value=0, max_value=1))


@st.composite
def circle_sets(draw, points=points):
    angle = _G
    pts = draw(st.lists(points, max_size=2))
    arcs = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        a, b = draw(points), draw(points)
        if a != b:
            arcs.append(Arc(a, b))
    return ClosedCircleSet.from_components(angle, pts, arcs)


# -- construction and normalization ---------------------------------------


unreduced = st.fractions(min_value=-3, max_value=3, max_denominator=12)
shifts = st.integers(min_value=-5, max_value=5)


def _same_point(a, b):
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert (a.q, a.n) == (b.q, b.n)


def test_point_canonical_form():
    assert pt(F(7, 3), 2) == pt(F(1, 3), 2)
    assert pt(F(-1, 3), 0) == pt(F(2, 3), 0)
    assert pt(F(1, 3), 1) != pt(F(1, 3), 2)
    for p in (pt(F(7, 4), 2), pt(F(-1, 4), 2), pt("7/4", 2)):
        _same_point(p, CirclePoint(F(3, 4), 2))
    assert pt(F(-1, 4)).q == F(3, 4) and isinstance(pt(F(-1, 4)).q, Fraction)
    assert pt(F(3, 4), 2) != pt(F(1, 4), 2)
    assert pt(0) != (F(0), 0)


@given(unreduced, st.integers(min_value=-3, max_value=3), shifts)
def test_point_equality_by_reduced_data(q, n, k):
    p = pt(q, n)
    assert 0 <= p.q < 1 and p.q == q - (q // 1)
    _same_point(p, pt(q + k, n))
    _same_point(p, CirclePoint(q % 1, n))
    # the point is the reduced int triple (x, d, n) and .q its Fraction view
    x, d, m = p
    assert all(type(v) is int for v in p) and m == n
    assert 0 <= x < d and gcd(x, d) == 1
    assert type(p.q) is Fraction and p.q == Fraction(x, d)


@given(unreduced, st.integers(min_value=-3, max_value=3))
def test_point_json_round_trip(q, n):
    p = pt(q, n)
    s = set_from_json(_G, set_to_json(ClosedCircleSet.from_points(_G, [p])))
    _same_point(s.points[0], p)


@given(unreduced, st.integers(min_value=-3, max_value=3), shifts, shifts)
def test_point_shift_composes(q, n, a, b):
    p = pt(q, n)
    _same_point(p.shift(a).shift(b), p.shift(a + b))
    _same_point(p.shift(a), pt(q, n + a))
    assert type(p.shift(a)) is CirclePoint and p.shift(a)[:2] == p[:2]
    assert p.shift(0) == p


def test_point_copy_and_pickle():
    p = pt(F(7, 4), -2)
    for other in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        _same_point(other, p)
        assert type(other) is CirclePoint and tuple(other) == (3, 4, -2)


def test_point_is_immutable():
    p = pt(F(1, 3), 1)
    for name, value in (("q", F(1, 2)), ("n", 0), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(p, name, value)
    with pytest.raises(AttributeError):
        del p.n
    assert p == pt(F(1, 3), 1) and repr(p) == "pt(1/3+1r)"


@given(circle_sets(points | crowded_points), circle_sets(points | crowded_points), shifts)
def test_components_in_data_order(a, b, k):
    def point_key(p):
        return (Fraction(p.q), p.n)

    def arc_key(arc):
        return point_key(arc.start) + point_key(arc.end)

    for s in (a, b, a.union(b), a.intersect(b), a.rotate(k), a.union(b.rotate(k))):
        assert list(s.points) == sorted(s.points, key=point_key)
        assert list(s.arcs) == sorted(s.arcs, key=arc_key)
        assert len(set(s.points)) == len(s.points)


def test_degenerate_arc_is_point(golden):
    s = ClosedCircleSet.from_components(golden, (), (Arc(pt(F(1, 3)), pt(F(1, 3))),))
    assert s.classify() == "finite-points"
    assert s.points == (pt(F(1, 3)),)


def test_normalization_canonical(golden):
    a = ClosedCircleSet.from_components(
        golden, [pt(F(1, 5))], (Arc(pt(0), pt(F(1, 2))), Arc(pt(F(1, 4)), pt(F(3, 5)))))
    b = ClosedCircleSet.from_components(
        golden, [pt(F(1, 5))], (Arc(pt(F(1, 4)), pt(F(3, 5))), Arc(pt(0), pt(F(1, 2)))))
    assert a == b
    # the point inside the merged arc is absorbed
    assert a.points == ()
    assert len(a.arcs) == 1


def test_union_examples(golden):
    p0 = ClosedCircleSet.from_points(golden, [pt(0)])
    p1 = ClosedCircleSet.from_points(golden, [pt(0, 1)])
    assert len(p0.union(p1).points) == 2

    merged = arcset(golden, pt(0), pt(F(3, 10))).union(
        arcset(golden, pt(F(2, 10)), pt(F(5, 10))))
    assert merged == arcset(golden, pt(0), pt(F(1, 2)))

    wrap = arcset(golden, pt(0), pt(F(6, 10))).union(
        arcset(golden, pt(F(5, 10)), pt(F(1, 10))))
    assert wrap.full


def test_touching_arcs_merge(golden):
    joined = arcset(golden, pt(0), pt(F(3, 10))).union(
        arcset(golden, pt(F(3, 10)), pt(F(5, 10))))
    assert joined == arcset(golden, pt(0), pt(F(1, 2)))


def test_intersect_examples(golden):
    # orbit points: {p, rot^-1 p} n {rot p, p} = {p}
    p = pt(F(0))
    a = ClosedCircleSet.from_points(golden, [p, p.shift(-1)])
    b = ClosedCircleSet.from_points(golden, [p.shift(1), p])
    assert a.intersect(b) == ClosedCircleSet.from_points(golden, [p])

    anything = arcset(golden, pt(F(1, 8)), pt(F(3, 8)))
    assert anything.intersect(ClosedCircleSet.full_circle(golden)) == anything

    # [0, 0.3] n rotated copy: empty for the golden step (0.618 > 0.3)
    a = arcset(golden, pt(0), pt(F(3, 10)))
    assert a.intersect(a.rotate(1)).is_empty()


def test_intersect_rotated_arc_silver(silver):
    # silver step 0.414...: [0, 0.5] n [rho, rho + 0.5] = [rho, 0.5]
    a = ClosedCircleSet.from_components(silver, (), (Arc(pt(0), pt(F(1, 2))),))
    got = a.intersect(a.rotate(1))
    assert got == ClosedCircleSet.from_components(
        silver, (), (Arc(pt(0, 1), pt(F(1, 2))),))


def test_intersect_wrapping_arc(golden):
    # the golden rotate of [0, 0.5] wraps through 0; the overlap is [0, rho - 1/2]
    a = arcset(golden, pt(0), pt(F(1, 2)))
    got = a.intersect(a.rotate(1))
    assert got == arcset(golden, pt(0), pt(F(-1, 2), 1))
    pts, arcs = got.float_components()
    assert not pts and abs(arcs[0][0]) < 1e-12 and abs(arcs[0][1] - 0.1180339887) < 1e-9


def test_rotate_examples(golden):
    p0 = ClosedCircleSet.from_points(golden, [pt(0)])
    assert p0.rotate(1) == ClosedCircleSet.from_points(golden, [pt(0, 1)])
    assert ClosedCircleSet.full_circle(golden).rotate(5).full
    a = arcset(golden, pt(0), pt(F(3, 10)))
    assert a.rotate(-1) == arcset(golden, pt(0, -1), pt(F(3, 10), -1))


def test_classify(golden):
    assert ClosedCircleSet.empty(golden).classify() == "empty"
    assert ClosedCircleSet.from_points(golden, [pt(0), pt(0, 1)]).classify() == "finite-points"
    assert arcset(golden, pt(0), pt(F(3, 10))).classify() == "has-interior"
    assert ClosedCircleSet.full_circle(golden).classify() == "full"


def test_covering_index(golden):
    P = arcset(golden, pt(0), pt(F(7, 10)))
    assert covering_index(P, 1) == 2
    assert covering_index(ClosedCircleSet.full_circle(golden), 1) == 1
    assert covering_index(ClosedCircleSet.from_points(golden, [pt(0)]), 1) is None
    # explicit re-check through the union operation
    assert not P.full
    assert P.union(P.rotate(-1)).full


def test_covering_index_small_arc(golden):
    P = arcset(golden, pt(0), pt(F(1, 10)))
    N = covering_index(P, 2)
    assert N is not None and N >= 3
    acc = P
    for k in range(1, N):
        assert not acc.full
        acc = acc.union(P.rotate(-2 * k))
    assert acc.full


def test_covering_index_rejects_arcs_below_the_limit_measure(golden):
    # 1/measure(P) bounds N from below, so no union is tried; the measure
    # sums the arcs
    half = F(1, 2 * (circleset.COVERING_LIMIT + 1))
    P = arcset(golden, pt(0), pt(half))
    two = P.union(arcset(golden, pt(F(1, 2)), pt(F(1, 2) + half)))
    for S in (P, two):
        with pytest.raises(ValueError, match="arcs measure below"):
            covering_index(S, 1)


def test_covering_index_stops_the_union_loop_at_the_limit(golden, monkeypatch):
    P = arcset(golden, pt(0), pt(F(1, 10)))
    N = covering_index(P, 2)
    monkeypatch.setattr(circleset, "COVERING_LIMIT", N)
    assert covering_index(P, 2) == N
    monkeypatch.setattr(circleset, "COVERING_LIMIT", N - 1)
    with pytest.raises(ValueError, match=f"{N - 1} copies do not cover"):
        covering_index(P, 2)


def _model_covering_index(s, l, q):
    """The first count N of copies r^-qk [s, s + l], 0 <= k < N, whose
    256-bit model union is the circle."""
    acc = []
    for N in range(1, 200):
        n = -q * (N - 1)
        start, end = oracles.circle_position(s, n), oracles.circle_position(s + l, n)
        assert None not in (start, end)
        acc = oracles.arc_union(acc, oracles.arc_set((), [(start, end)]))
        if acc == oracles.FULL_SET:
            return N


@pytest.mark.parametrize("q", range(1, 7))
def test_covering_index_is_the_first_cover_of_the_exact_model(golden, q):
    for s, l in product(range(10), range(1, 10)):
        P = arcset(golden, pt(F(s, 10)), pt(F(s + l, 10)))
        assert covering_index(P, q) == _model_covering_index(F(s, 10), F(l, 10), q), (s, l)


# -- algebraic laws --------------------------------------------------------


@given(circle_sets(), circle_sets())
def test_commutativity(a, b):
    assert a.union(b) == b.union(a)
    assert a.intersect(b) == b.intersect(a)


@given(circle_sets(), circle_sets(), circle_sets())
def test_associativity_distributivity(a, b, c):
    assert a.union(b.union(c)) == a.union(b).union(c)
    assert a.intersect(b.intersect(c)) == a.intersect(b).intersect(c)
    assert a.intersect(b.union(c)) == a.intersect(b).union(a.intersect(c))


@given(circle_sets())
def test_idempotence(a):
    assert a.union(a) == a
    assert a.intersect(a) == a


@given(circle_sets(), circle_sets(), st.integers(min_value=-4, max_value=4))
def test_rotation_automorphism(a, b, k):
    assert a.union(b).rotate(k) == a.rotate(k).union(b.rotate(k))
    assert a.intersect(b).rotate(k) == a.rotate(k).intersect(b.rotate(k))
    assert a.rotate(k).rotate(-k) == a


@given(circle_sets(), circle_sets())
def test_containment_consistency(a, b):
    u = a.union(b)
    assert u.contains_set(a) and u.contains_set(b)
    i = a.intersect(b)
    assert a.contains_set(i) and b.contains_set(i)


# -- union and intersect against a float membership model -------------------
# The laws above hold for any consistent order, also a wrong one; this
# model places each component at (q + n*rho) mod 1 in floating point and
# samples membership away from every component end.

RHO_GOLDEN = (5 ** 0.5 - 1) / 2


@st.composite
def raw_components(draw):
    pts = draw(st.lists(points, max_size=2))
    ends = draw(st.lists(st.tuples(points, points), max_size=3))
    return pts, [Arc(a, b) for a, b in ends if a != b]


def _float_pos(p):
    return (float(p.q) + p.n * RHO_GOLDEN) % 1.0


def _model_member(pts, arcs, x, eps=0.0):
    """Membership of position x in the closed set, arcs counterclockwise;
    eps widens every component, for probes placed on a component."""
    def near(y):
        d = (x - y) % 1.0
        return min(d, 1.0 - d) <= eps
    if any(near(_float_pos(p)) for p in pts):
        return True
    for a in arcs:
        s, e = _float_pos(a.start), _float_pos(a.end)
        if (x - s) % 1.0 <= (e - s) % 1.0 or near(s) or near(e):
            return True
    return False


def _set_member(s, x, eps=0.0):
    return s.full or _model_member(s.points, s.arcs, x, eps)


@given(raw_components(), raw_components(), st.floats(min_value=0, max_value=1))
def test_union_intersect_against_float_model(a, b, jitter):
    A, B = (ClosedCircleSet.from_components(_G, pts, arcs) for pts, arcs in (a, b))
    U, I = A.union(B), A.intersect(B)
    ends = [_float_pos(p) for p in a[0] + b[0]]
    ends += [_float_pos(p) for arc in a[1] + b[1] for p in (arc.start, arc.end)]
    samples = [(k + jitter) / 200 % 1.0 for k in range(200)]
    for x in samples:
        if any(min((x - e) % 1.0, (e - x) % 1.0) < 1e-9 for e in ends):
            continue
        in_a, in_b = _model_member(*a, x), _model_member(*b, x)
        assert _set_member(A, x) == in_a
        assert _set_member(U, x) == (in_a or in_b), x
        assert _set_member(I, x) == (in_a and in_b), x
    # points: every input point is in the union, and is in the
    # intersection exactly when both inputs hold it
    for p in a[0] + b[0]:
        x = _float_pos(p)
        in_a, in_b = _model_member(*a, x, 1e-12), _model_member(*b, x, 1e-12)
        assert _set_member(U, x, 1e-12)
        assert _set_member(I, x, 1e-12) == (in_a and in_b)


# -- union, intersect and containment against the exact 256-bit model ---------
# Components are drawn from one small pool, so arcs share ends, touch, hold
# a pool point at an end, and wrap past 0 (0 itself is often in the pool).
# The model decides every one of these exactly, where the float model above
# skips whatever lies within 1e-9 of an end.

pooled_points = st.one_of(st.just(pt(0)), points)


@st.composite
def pooled_sets(draw, count=2):
    pool = draw(st.lists(pooled_points, min_size=2, max_size=6, unique=True))
    pick = st.sampled_from(pool)
    comps = []
    for _ in range(count):
        pts = draw(st.lists(pick, max_size=3))
        ends = draw(st.lists(st.tuples(pick, pick), max_size=3))
        comps.append((pts, [Arc(a, b) for a, b in ends if a != b]))
    return pool, comps


def _assume_model_decides(pool):
    positions = [_pos(p) for p in pool]
    assume(None not in positions)
    positions.sort()
    assume(all(y - x > 2**56 for x, y in zip(positions, positions[1:])))


def _pos(p):
    return oracles.circle_position(p.q, p.n)


def _model(pts, arcs):
    return oracles.arc_set([_pos(p) for p in pts],
                           [(_pos(a.start), _pos(a.end)) for a in arcs])


def _model_of(s):
    """The model of a normalized set, checked to be in canonical form: one
    component per connected piece."""
    if s.full:
        return oracles.FULL_SET
    m = _model(s.points, s.arcs)
    assert m != oracles.FULL_SET
    assert oracles.arc_pieces(m) == (len(s.points), len(s.arcs))
    return m


@settings(max_examples=300)
@given(pooled_sets())
def test_boolean_operations_against_exact_model(example):
    pool, ((pa, aa), (pb, ab)) = example
    _assume_model_decides(pool)
    A = ClosedCircleSet.from_components(_G, pa, aa)
    B = ClosedCircleSet.from_components(_G, pb, ab)
    mA, mB = _model(pa, aa), _model(pb, ab)
    assert _model_of(A) == mA and _model_of(B) == mB
    assert _model_of(A.union(B)) == oracles.arc_union(mA, mB)
    assert _model_of(A.intersect(B)) == oracles.arc_intersect(mA, mB)
    assert A.contains_set(B) == oracles.arc_contains(mA, mB)
    assert B.contains_set(A) == oracles.arc_contains(mB, mA)
    for p in pool:
        assert A.contains_point(p) == oracles.arc_member(mA, _pos(p))


def test_exact_model_cases(golden):
    # closed arcs meeting in an end intersect in that point; touching arcs
    # join; an arc ending at 0 and one starting there join through 0
    a, b = arcset(golden, pt(F(1, 10)), pt(F(1, 2))), arcset(golden, pt(F(1, 2)), pt(0))
    assert a.intersect(b) == ClosedCircleSet.from_points(golden, [pt(F(1, 2))])
    assert a.union(b) == arcset(golden, pt(F(1, 10)), pt(0))
    c = arcset(golden, pt(0), pt(F(1, 10)))
    assert a.union(b).union(c).full
    assert b.intersect(c) == ClosedCircleSet.from_points(golden, [pt(0)])
    assert b.union(c) == arcset(golden, pt(F(1, 2)), pt(F(1, 10)))
    assert b.union(c).contains_point(pt(0)) and not b.union(c).contains_point(pt(F(1, 4)))


def _circle_ordered_arcs(ns):
    """Disjoint arcs between consecutive orbit points pt(0, n), n in ns, taken
    in circle order; data order is the order of n, unrelated to it."""
    ends = sorted(ns, key=lambda n: n * RHO_GOLDEN % 1.0)
    return [Arc(pt(0, ends[i]), pt(0, ends[i + 1])) for i in range(0, len(ends), 2)]


def test_intersect_decisions_are_sort_bounded(monkeypatch):
    angle = golden_angle()
    A = ClosedCircleSet.from_components(angle, (), _circle_ordered_arcs(range(1, 61)))
    B = ClosedCircleSet.from_components(angle, (), _circle_ordered_arcs(range(61, 121)))
    assert len(A.arcs) == len(B.arcs) == 30
    calls = [0]
    for name in ("compare_linear", "floor_linear"):
        decide = getattr(Angle, name)
        monkeypatch.setattr(Angle, name,
                            lambda self, *a, decide=decide: calls.__setitem__(0, calls[0] + 1)
                            or decide(self, *a))
    got = A.intersect(B)
    ends = 2 * (len(A.arcs) + len(B.arcs))
    assert calls[0] <= 2 * ends * ends.bit_length()  # O((a + b) log(a + b))
    monkeypatch.undo()
    assert _model_of(got) == oracles.arc_intersect(_model((), A.arcs), _model((), B.arcs))


def test_intersect_decisions_are_sort_bounded_on_near_ties(monkeypatch):
    # the twin of the test above with B's ends moved below A's by less than
    # 2**-60: no float key separates them, so the exact sort runs, on the
    # float order as its presort
    angle = golden_angle()
    A = ClosedCircleSet.from_components(angle, (), _circle_ordered_arcs(range(1, 61)))

    def below(p):
        return pt(F(_pos(p) >> (oracles.BITS - 60), 2**60))

    B = ClosedCircleSet.from_components(
        angle, (), [Arc(below(a.start), below(a.end)) for a in A.arcs])
    assert len(A.arcs) == len(B.arcs) == 30
    calls = [0]
    for name in ("compare_linear", "floor_linear"):
        decide = getattr(Angle, name)
        monkeypatch.setattr(Angle, name,
                            lambda self, *a, decide=decide: calls.__setitem__(0, calls[0] + 1)
                            or decide(self, *a))
    got = A.intersect(B)
    ends = 2 * (len(A.arcs) + len(B.arcs))
    assert 0 < calls[0] <= 2 * ends * ends.bit_length()
    monkeypatch.undo()
    assert _model_of(got) == oracles.arc_intersect(_model((), A.arcs), _model((), B.arcs))
    assert [a.start for a in got.arcs] == [a.start for a in A.arcs]


# -- the sweep's order: certified float keys, else the exact sort -------------
# A key is within (|n| + 2) * 2**-51 of its end's position; the keys decide
# only when their error intervals are disjoint and clear of 0 and 1.


def _model_order(ends):
    """The ends sorted by their 256-bit model positions."""
    pos = {p: _pos(p) for p in ends}
    assert None not in pos.values()
    return sorted(ends, key=pos.__getitem__)


def _sweep_order(ends):
    """The sweep's order of these ends, and whether the exact sort ran."""
    deltas = [0]
    delta = circleset._delta
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(circleset, "_delta",
                   lambda *a: deltas.__setitem__(0, deltas[0] + 1) or delta(*a))
        order = circleset._position_order(_G, ends)
    return order, deltas[0] > 0


def test_position_order_of_random_ends_is_decided_by_float_keys():
    rng = random.Random(21)
    for _ in range(300):
        ends = {pt(F(rng.randrange(60), rng.randrange(1, 61)), rng.randint(-50, 50))
                for _ in range(rng.randint(1, 12))}
        order, exact = _sweep_order(ends)
        assert order == _model_order(ends)
        assert not exact  # distinct ends of these sizes lie far apart


def _fibonacci_ties():
    # pt(0, F_k) lies within rho**k of 0 or 1; a rational within 1e-12 of it
    for k in range(30, 60, 3):
        x = round(F(_pos(pt(0, _FIB[k])), oracles.M) * 10**13)
        for j in (-7, -3, -1, 1, 3, 7):
            yield {pt(0, _FIB[k]), pt(F(x + j, 10**13))}


def _wide_denominator_ties():
    # rationals with denominators near 2**60, less than 2**-53 apart
    rng = random.Random(60)
    for n in (0, 0, 1, -3):
        d1, d2 = 2**60 + 1, 2**60 + 3
        x1 = rng.randrange(d1)
        x2 = x1 * d2 // d1 + rng.randint(-2, 2)
        assert abs(F(x1, d1) - F(x2, d2)) < 2.0**-53
        yield {pt(F(x1, d1), n), pt(F(x2, d2), n), pt(F(1, 2))}


def _large_orbit_ends():
    # |n| >= 2**53: every key error is above 1; and n beyond float range
    for big in (2**53, 2**60, 2**1100):
        yield {pt(0, big), pt(0, big + 1), pt(F(1, 3), -big), pt(F(1, 2), 3)}


def _wrap_ties():
    # ends within 2**-54 of 0 or 1, next to 1/2: for n = -100 some keys
    # land just below 1 although the end lies just past 0, and for n = 1
    # some keys are 0.0 although the end lies just below 1
    lo, hi = oracles.surd_enclosure(*oracles.GOLDEN_SURD, bits=200)
    for n, steps in ((-100, range(1, 40)), (1, range(-40, 0))):
        base = math.floor((math.ceil(n * lo) - n * lo) * 2**60)
        assert base == math.floor((math.ceil(n * hi) - n * hi) * 2**60)
        for s in steps:
            yield {pt(F(base + s, 2**60), n), pt(F(1, 2))}


@pytest.mark.parametrize("ties", [_fibonacci_ties, _wide_denominator_ties,
                                  _large_orbit_ends, _wrap_ties])
def test_position_order_of_near_ties_falls_back_to_the_exact_sort(ties):
    exact_runs = 0
    for ends in ties():
        order, exact = _sweep_order(ends)
        assert order == _model_order(ends), sorted(ends)
        exact_runs += exact
    assert exact_runs > 0


def test_position_order_beyond_float_range_is_the_exact_sort():
    ends = {pt(0, 2**1100 + j) for j in range(4)} | {pt(F(1, 2), -2**1100), pt(0)}
    order, exact = _sweep_order(ends)
    assert exact and order[0] == pt(0)
    pos = {p: circleset._delta(_G, pt(0), p) for p in ends}
    assert order == sorted(ends, key=cmp_to_key(lambda a, b: circleset._cmp(_G, pos[a], pos[b])))


# -- one sweep for target n (a u b) -------------------------------------------


@settings(max_examples=200)
@given(pooled_sets(3))
def test_intersect_union_against_two_sweeps_and_exact_model(example):
    pool, comps = example
    _assume_model_decides(pool)
    T, A, B = (ClosedCircleSet.from_components(_G, pts, arcs) for pts, arcs in comps)
    got = T.intersect_union(A, 0, B)
    assert got == T.intersect(A.union(B))
    mT, mA, mB = (_model(pts, arcs) for pts, arcs in comps)
    assert _model_of(got) == oracles.arc_intersect(mT, oracles.arc_union(mA, mB))


def test_intersect_union_cases(golden, silver):
    T = arcset(golden, pt(F(1, 10)), pt(F(1, 2)))
    a = arcset(golden, pt(F(1, 5)), pt(F(3, 10)))
    b = ClosedCircleSet.from_points(golden, [pt(F(2, 5)), pt(F(3, 4))])
    full = ClosedCircleSet.full_circle(golden)
    assert full.intersect_union(a, 0, b) == a.union(b)
    assert full.intersect_union(a, 2, b) == a.rotate(2).union(b)
    # a full target whose bound is full is not cut
    assert full.intersect_union(full, 1, b) is full
    assert full.intersect_union(arcset(golden, pt(0), pt(F(1, 2))), 0,
                                arcset(golden, pt(F(1, 2)), pt(0))) is full
    assert T.intersect_union(full, 3, b) is T and T.intersect_union(a, -1, full) is T
    assert T.intersect_union(a, 0, b) == ClosedCircleSet.from_components(
        golden, [pt(F(2, 5))], [Arc(pt(F(1, 5)), pt(F(3, 10)))])
    assert T.intersect_union(a.rotate(-1), 1, b) == T.intersect_union(a, 0, b)
    points = ClosedCircleSet.from_points(golden, [pt(F(1, 4)), pt(F(2, 5)), pt(F(3, 5))])
    assert points.intersect_union(a, 0, T) == ClosedCircleSet.from_points(
        golden, [pt(F(1, 4)), pt(F(2, 5))])
    # points alone: p is in A.rotate(k) iff its shift by -k is in A
    A = ClosedCircleSet.from_points(golden, [pt(F(1, 4), -2), pt(F(3, 5), 1)])
    assert points.intersect_union(A, 2, b) == ClosedCircleSet.from_points(
        golden, [pt(F(1, 4)), pt(F(2, 5))])
    assert points.intersect_union(A, -1, points) is points
    other = arcset(silver, pt(F(1, 5)), pt(F(3, 10)))
    for args in ((a, 0, other), (other, 0, b)):
        with pytest.raises(ValueError):
            T.intersect_union(*args)


_ORBIT = st.builds(pt, st.sampled_from([F(0), F(1, 3), F(1, 2)]), st.integers(-2, 2))


@st.composite
def operands(draw):
    """A point-only set on three orbits, so that rotated points meet, a set
    with arcs, or the full circle."""
    kind = draw(st.sampled_from(("points", "arcs", "full")))
    if kind == "full":
        return ClosedCircleSet.full_circle(_G)
    if kind == "arcs":
        return draw(circle_sets(_ORBIT))
    return ClosedCircleSet.from_points(_G, draw(st.lists(_ORBIT, max_size=5)))


@given(operands(), operands(), st.integers(-3, 3), operands())
def test_intersect_union_is_the_set_expression(T, A, k, B):
    got = T.intersect_union(A, k, B)
    want = T.intersect(A.rotate(k).union(B))
    assert (got.full, got.points, got.arcs) == (want.full, want.points, want.arcs)
    assert (got is T) == (got == T)


# -- serialization -----------------------------------------------------------


def test_json_round_trip(golden):
    s = ClosedCircleSet.from_components(
        golden, [pt(F(1, 3), 2)], (Arc(pt(0), pt(F(1, 10), 1)),))
    doc = set_to_json(s)
    assert set_from_json(golden, doc) == s
    assert set_to_json(ClosedCircleSet.full_circle(golden)) == {"full": True}
    assert set_from_json(golden, {"components": []}).is_empty()


def test_svg_render(golden):
    s = ClosedCircleSet.from_components(
        golden, [pt(F(1, 3))], (Arc(pt(0), pt(F(1, 10))),))
    svg = render_svg(s)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "path" in svg and svg.count("circle") >= 2
    assert "path" not in render_svg(ClosedCircleSet.from_points(golden, [pt(0)]))
    full = render_svg(ClosedCircleSet.full_circle(golden))  # one ring over the outline
    assert "path" not in full and full.count("<circle") == 2 and 'stroke="#c0392b"' in full
