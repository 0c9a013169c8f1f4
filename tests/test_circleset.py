import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rotalg import Arc, CirclePoint, ClosedCircleSet, covering_index, golden_angle
from rotalg.circleset import pt, render_svg, set_from_json, set_to_json

F = Fraction
_G = golden_angle()


def arcset(angle, a, b):
    return ClosedCircleSet.from_components(angle, (), (Arc(a, b),))


# -- strategies ----------------------------------------------------------

points = st.builds(pt,
                   st.fractions(min_value=0, max_value=1, max_denominator=8),
                   st.integers(min_value=-3, max_value=3))


@st.composite
def circle_sets(draw):
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
    # the hash is that of the (q, n) pair
    assert hash(p) == hash((p.q, p.n))
    # equal q values share one Fraction
    assert pt(q + k, n + 1).q is p.q


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
    assert p.shift(a).q is p.q
    assert p.shift(0) == p


def test_point_copy_and_pickle():
    p = pt(F(7, 4), -2)
    for other in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        _same_point(other, p)
        assert other.q is p.q


def test_point_is_immutable():
    p = pt(F(1, 3), 1)
    for name, value in (("q", F(1, 2)), ("n", 0), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(p, name, value)
    with pytest.raises(AttributeError):
        del p.n
    assert p == pt(F(1, 3), 1) and repr(p) == "pt(1/3+1r)"


@given(circle_sets(), circle_sets(), shifts)
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
