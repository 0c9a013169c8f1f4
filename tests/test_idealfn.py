import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rotalg import (Arc, CIdealFunction, ClosedCircleSet, all_empty,
                    check_c_closed, check_closed, classify_algebra,
                    function_from_json, function_to_json, golden_angle,
                    join_many, make_basic, make_ideal_IQ, meet, naive_join, omega,
                    q_intersection, support, triviality, values_equal,
                    window_function)
from rotalg.circleset import covering_index, pt
from rotalg.idealfn import ExtensionViolation, OutsideWindowError, extend_from_positive

import oracles

F = Fraction
_G = golden_angle()
_P = ClosedCircleSet.from_points(_G, [pt(F(1, 7))])


def orbit_set(*exps):
    return ClosedCircleSet.from_points(_G, [pt(F(1, 7), e) for e in exps])


def exps_of(circle_set):
    if circle_set.full:
        return oracles.FULL
    assert not circle_set.arcs
    return frozenset(p.n for p in circle_set.points)


# -- the basic family -------------------------------------------------------


def test_basic_values_match_closed_form():
    b1 = make_basic(1, _P)
    assert b1.value_set(3) == orbit_set(0, -1, -2)
    assert b1.value_set(-2) == orbit_set(1, 2)
    assert b1.value_set(0).is_empty()
    b2 = make_basic(2, _P)
    assert b2.value_set(3).full
    assert b2.value_set(4) == orbit_set(0, -2)


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=-12, max_value=12))
def test_basic_against_exponent_oracle(q, m):
    b = make_basic(q, _P)
    expected = oracles.basic_value(q, frozenset([0]), m)
    assert exps_of(b.value_set(m)) == expected


def test_far_basic_value_is_one_normalization(monkeypatch):
    from rotalg import circleset
    calls = {"normalize": 0, "union": 0}
    normalize, union = circleset._normalize, ClosedCircleSet.union

    def counting_normalize(*args):
        calls["normalize"] += 1
        return normalize(*args)

    def counting_union(self, other):
        calls["union"] += 1
        return union(self, other)

    monkeypatch.setattr(circleset, "_normalize", counting_normalize)
    monkeypatch.setattr(ClosedCircleSet, "union", counting_union)
    b = make_basic(3, _P)
    v = b.value_set(4000 * 3)
    assert calls == {"normalize": 1, "union": 0}
    assert exps_of(v) == oracles.basic_value(3, frozenset([0]), 12000)
    # read again, and reflected: no further normalization
    assert b.value_set(12000) is v
    assert exps_of(b.value_set(-12000)) == oracles.basic_value(3, frozenset([0]), -12000)
    assert calls == {"normalize": 1, "union": 0}
    # a wider read starts from the widest value read below it
    for k in (4500, 2000, 4001):
        assert exps_of(b.value_set(3 * k)) == oracles.basic_value(3, frozenset([0]), 3 * k)
    assert calls == {"normalize": 4, "union": 0}


def test_far_arc_basic_value_stops_at_the_covering_index(monkeypatch):
    from rotalg import circleset
    arc = ClosedCircleSet.from_components(_G, (), (Arc(pt(F(3, 10)), pt(F(2, 5))),))
    N = covering_index(arc, 5)  # its own union loop: the first full value
    arcs_in = []  # arcs handed to each normalization
    normalize = circleset._normalize
    monkeypatch.setattr(circleset, "_normalize",
                        lambda angle, pts, arcs: arcs_in.append(len(arcs)) or normalize(angle, pts, arcs))
    b = make_basic(5, arc)
    assert b.value_set(5 * 10**6).full
    assert len(arcs_in) <= N.bit_length() + 1 and sum(arcs_in) <= 4 * N + 2
    assert not b.value_set(5 * (N - 1)).full and b.value_set(5 * N).full


def test_basic_value_is_bounded_by_value_limit(monkeypatch):
    from rotalg import idealfn
    # lattice-query reads |n| <= 500 of two-point basics
    assert idealfn.VALUE_LIMIT >= 100 * 500 * 2
    monkeypatch.setattr(idealfn, "VALUE_LIMIT", 12)
    two = ClosedCircleSet.from_points(_G, [pt(F(1, 7)), pt(F(2, 7))])
    b = make_basic(2, two)
    assert len(b.value_set(12).points) == 12  # 6 copies of 2 points: at the limit
    for n in (14, -14, 2 * 10**12):
        with pytest.raises(ValueError, match="past VALUE_LIMIT = 12 components"):
            b.value_set(n)
    # an arc basic stops growing once full, however far it is read
    arc = make_basic(1, ClosedCircleSet.from_components(_G, (), (Arc(pt(0), pt(F(2, 5))),)))
    assert arc.value_set(10**12).full and arc.value_set(-10**12).full
    # a short arc doubles its way up to 1 and 3 copies of P's 3 components;
    # the 7 copies of the next step are refused before they are built
    mixed = make_basic(1, two.union(ClosedCircleSet.from_components(
        _G, (), (Arc(pt(0), pt(F(1, 1000))),))))
    with pytest.raises(ValueError, match="built from 7 copies of P"):
        mixed.value_set(10**12)
    assert sorted(mixed._values) == [1, 3]


def test_basic_q_zero_convention():
    b0 = make_basic(0, _P)
    assert b0.value_set(0).is_empty()
    assert b0.value_set(5).full and b0.value_set(-3).full
    assert support(b0, 8).members == [0]


def test_basics_are_closed():
    for q in (1, 2, 3):
        assert check_closed(make_basic(q, _P), 10).ok
    arc = ClosedCircleSet.from_components(_G, (), (Arc(pt(0), pt(F(7, 10))),))
    assert check_closed(make_basic(1, arc), 10).ok


def test_all_empty_passes():
    assert check_closed(all_empty(_G), 8).ok


# -- the naive join and its closure defect ----------------------------------


def test_naive_join_displayed_values():
    b1 = make_basic(1, _P)
    b1t = make_basic(1, _P.rotate(1))
    nj = naive_join(b1, b1t)
    for n in range(-6, 7):
        got = exps_of(nj.value_set(n))
        if abs(n) <= 1:
            assert got == frozenset()
        elif n >= 2:
            assert got == frozenset(range(-n + 2, 1))
        else:
            assert got == frozenset(range(2, -n + 1))
        # cross-checked against the independent exponent model
        assert got == oracles.naive_join_value(
            lambda m: oracles.basic_value(1, frozenset([0]), m),
            lambda m: oracles.basic_value(1, frozenset([1]), m), n)


def test_naive_join_not_closed_with_witness():
    b1 = make_basic(1, _P)
    nj = naive_join(b1, make_basic(1, _P.rotate(1)))
    rep = check_closed(nj, 6)
    assert not rep.ok
    assert ("product", 1, 1) in rep.violations


def test_naive_join_trivialities():
    b1 = make_basic(1, _P)
    assert values_equal(naive_join(b1, all_empty(_G)), all_empty(_G), 6)
    assert values_equal(naive_join(b1, b1), b1, 6)


# -- meet ---------------------------------------------------------------------


def test_meet_is_pointwise_union():
    b1 = make_basic(1, _P)
    bq = make_basic(1, _P.rotate(3))
    assert meet(b1, bq).value_set(1) == _P.union(_P.rotate(3))
    assert values_equal(meet(b1, b1), b1, 6)


def test_meet_absorbing_trivial():
    b1 = make_basic(1, _P)
    triv = make_basic(0, _P)
    m = meet(b1, triv)
    for n in range(1, 5):
        assert m.value_set(n).full
    assert m.value_set(0).is_empty()


def test_meet_of_closed_is_closed():
    pairs = [(make_basic(1, _P), make_basic(1, _P.rotate(2))),
             (make_basic(2, _P), make_basic(3, _P)),
             (make_basic(1, orbit_set(0, 1)), make_basic(2, _P))]
    for a, b in pairs:
        assert check_closed(meet(a, b), 6).ok


def test_meet_of_two_and_three_equals_basic_at_six():
    # verified independently in the exponent model: the meet is exactly the
    # basic with data (6, value at 6)
    m = meet(make_basic(2, _P), make_basic(3, _P))
    b6 = make_basic(6, m.value_set(6))
    assert values_equal(m, b6, 18)
    for n in range(-18, 19):
        assert exps_of(m.value_set(n)) == oracles.meet_value(
            lambda k: oracles.basic_value(2, frozenset([0]), k),
            lambda k: oracles.basic_value(3, frozenset([0]), k), n)


# -- windows and extension -----------------------------------------------------


def test_window_defaults():
    w = window_function(_G, {1: _P}, default="full")
    assert w.value_set(9).full
    w2 = window_function(_G, {1: _P}, default="unknown")
    with pytest.raises(OutsideWindowError):
        w2.value(9)


def test_extension_reproduces_basic_window():
    b1 = make_basic(1, _P)
    ext = extend_from_positive(_G, {n: b1.value_set(n) for n in range(0, 7)})
    assert values_equal(ext, b1, 6)


def test_extension_finite_support_complete():
    arc = ClosedCircleSet.from_components(_G, (), (Arc(pt(0), pt(F(7, 10))),))
    ext = extend_from_positive(_G, {0: ClosedCircleSet.empty(_G), 1: arc},
                               default="full")
    assert values_equal(ext, make_basic(1, arc), 8)
    assert check_closed(ext, 8).ok


def test_extension_all_empty():
    ext = extend_from_positive(_G, {n: ClosedCircleSet.empty(_G) for n in range(5)})
    assert all(ext.value_set(n).is_empty() for n in range(-4, 5))


def test_extension_violation():
    with pytest.raises(ExtensionViolation) as exc:
        extend_from_positive(_G, {0: ClosedCircleSet.empty(_G),
                                  1: ClosedCircleSet.empty(_G),
                                  2: _P})
    assert exc.value.condition == "sum-rule"
    assert (exc.value.m, exc.value.n) == (1, 1)


def test_extension_gap_reads_as_full_circle():
    # index 2 is missing: inside the window it is the full circle, which
    # the sum rule at (1, 1) bounds by P rotated by -1 together with P
    with pytest.raises(ExtensionViolation) as exc:
        extend_from_positive(_G, {0: ClosedCircleSet.empty(_G), 1: _P, 3: _P})
    assert exc.value.condition == "sum-rule"
    assert (exc.value.m, exc.value.n) == (1, 1)
    # a gap that the rules allow is filled with the full circle
    arc = ClosedCircleSet.from_components(_G, (), (Arc(pt(0), pt(F(7, 10))),))
    ext = extend_from_positive(_G, {1: arc, 3: ClosedCircleSet.full_circle(_G)})
    assert ext.value_set(2).full and ext.value_set(-2).full


def test_extension_shifted_difference_rule():
    # with p = 1/4 - 2 rho at 1 and 2: the sum rule's target at 3 is outside
    # the window (unknown); at (m, n) = (2, 1) the difference rule asks
    # {p - rho} u {p} to contain {p}, which holds, and the shifted
    # difference rule asks ({p} u {p}) rotated by 1, that is {1/4 - rho},
    # to contain {p}, which fails
    p = ClosedCircleSet.from_points(_G, [pt(F(1, 4), -2)])
    with pytest.raises(ExtensionViolation) as exc:
        extend_from_positive(_G, {1: p, 2: p}, default="unknown")
    assert exc.value.condition == "shifted-difference-rule"
    assert (exc.value.m, exc.value.n) == (2, 1)


def test_extension_difference_rule():
    # index 1 is a gap, read as the full circle; the support is {2, 3, 4}.
    # At m = 2 the only target in the window is the empty value at 4, and
    # at (m, n) = (3, 2) the difference rule asks the two points of 2
    # rotated by -1 together with the point of 3 to contain the full circle
    two = ClosedCircleSet.from_points(_G, [pt(0, -2), pt(F(3, 4), -2)])
    three = ClosedCircleSet.from_points(_G, [pt(F(1, 4))])
    with pytest.raises(ExtensionViolation) as exc:
        extend_from_positive(_G, {2: two, 3: three, 4: ClosedCircleSet.empty(_G)})
    assert exc.value.condition == "difference-rule"
    assert (exc.value.m, exc.value.n) == (3, 2)
    # at (m, n) = (2, 1) the sum rule holds (the target at 3 is empty), and
    # the difference rule asks the points -2, -1 of 1 rotated by n - m = -1,
    # that is -3, -2, together with the points -3, -2 of 2 to contain -2, -1
    # of 1; rotated by m - n = +1 instead they would
    with pytest.raises(ExtensionViolation) as exc:
        extend_from_positive(_G, {1: orbit_set(-2, -1), 2: orbit_set(-3, -2),
                                  3: ClosedCircleSet.empty(_G)})
    assert exc.value.condition == "difference-rule"
    assert (exc.value.m, exc.value.n) == (2, 1)


def test_extension_full_default_bounds_targets_past_the_window():
    # W = 1: the sum rule's target at 2 lies past the window.  Under "full"
    # it is the full circle, which {1/7} rotated by -1 together with {1/7}
    # does not contain; under "unknown" it is left open
    with pytest.raises(ExtensionViolation) as exc:
        extend_from_positive(_G, {1: _P}, default="full")
    assert (exc.value.condition, exc.value.m, exc.value.n) == ("sum-rule", 1, 1)
    ext = extend_from_positive(_G, {1: _P}, default="unknown")
    assert ext.value_set(1) == _P and ext.value_set(-1) == _P.rotate(1)


def _positive_rules(E, W, default):
    """The first broken one-sided rule (condition, m, n) of exponent data E
    on 1..W, in the order m, n, then sum, difference, shifted difference;
    None when all hold.  A gap inside the window is the full circle, a
    target past it the full circle under "full" and open under "unknown"."""
    def val(k):
        return E.get(k, oracles.FULL) if k <= W or default == "full" else "open"

    def holds(target, bound):
        return target == "open" or oracles.intersect(target, bound) == target

    supp = [k for k in range(1, W + 1) if E.get(k, oracles.FULL) is not oracles.FULL]
    for m in supp:
        for n in supp:
            if not holds(val(m + n), oracles.union(oracles.shift(val(n), -m), val(m))):
                return "sum-rule", m, n
            if n < m and not holds(val(m - n),
                                   oracles.union(oracles.shift(val(n), n - m), val(m))):
                return "difference-rule", m, n
            if n < m and not holds(val(m - n), oracles.union(oracles.shift(val(n), n),
                                                             oracles.shift(val(m), n))):
                return "shifted-difference-rule", m, n
    return None


def test_extension_matches_the_one_sided_rules_in_the_exponent_model():
    # exponents in [-1, 1], so that shifted sets overlap and rules hold often
    # enough for every outcome to occur
    rng = random.Random(33)
    outcomes = set()
    for _ in range(400):
        W, default = rng.randint(1, 6), rng.choice(("full", "unknown"))
        E = {}
        for k in range(1, W + 1):
            r = rng.random()
            if r < 0.15 and k < W:
                continue  # a gap
            E[k] = (oracles.FULL if r < 0.25 else frozenset() if r < 0.35 else
                    frozenset(rng.randint(-1, 1) for _ in range(rng.randint(1, 3))))
        values = {k: ClosedCircleSet.full_circle(_G) if e is oracles.FULL else orbit_set(*e)
                  for k, e in E.items()}
        expected = _positive_rules(E, W, default)
        outcomes.add(expected and expected[0])
        if expected is not None:
            with pytest.raises(ExtensionViolation) as exc:
                extend_from_positive(_G, values, default=default)
            assert (exc.value.condition, exc.value.m, exc.value.n) == expected, (E, default)
            continue
        ext = extend_from_positive(_G, values, default=default)
        assert ext.default == default and sorted(ext.values) == list(range(-W, W + 1))
        for k in range(1, W + 1):
            e = E.get(k, oracles.FULL)
            assert exps_of(ext.value_set(k)) == e
            assert exps_of(ext.value_set(-k)) == oracles.shift(e, k)
        assert ext.value_set(0).is_empty()
    assert outcomes == {None, "sum-rule", "difference-rule", "shifted-difference-rule"}


# -- support and classification ---------------------------------------------


def test_support_symbolic_progression():
    assert support(make_basic(2, _P), 10).symbolic == "2Z"
    assert support(all_empty(_G), 10).symbolic == "Z"


def test_support_finite_arc():
    arc = ClosedCircleSet.from_components(_G, (), (Arc(pt(0), pt(F(7, 10))),))
    rep = support(make_basic(1, arc), 10)
    assert rep.members == [-1, 0, 1]
    assert rep.symbolic == "finite"


def test_classification():
    assert classify_algebra(make_basic(1, _P)).verdict == "residual"
    arc = ClosedCircleSet.from_components(_G, (), (Arc(pt(0), pt(F(7, 10))),))
    assert classify_algebra(make_basic(1, arc)).verdict == "small"
    assert classify_algebra(all_empty(_G)).verdict == "residual"
    # the basic dichotomy: small iff not residual
    for P in (_P, orbit_set(0, 2), arc):
        v = classify_algebra(make_basic(1, P)).verdict
        assert v in ("residual", "small")


def test_support_and_classification_of_an_unknown_default_window():
    # outside its window the function is unknown, so neither a support bound
    # nor a progression is certified: the support is the window's evidence
    # alone.  The arc at +-2 has interior, so the function is neither
    # residual (every value nowhere dense) nor certified small.
    arc = ClosedCircleSet.from_components(_G, (), (Arc(pt(0), pt(F(1, 5))),))
    c = window_function(_G, {1: _P, -1: _P.rotate(1), 2: arc, -2: arc.rotate(2)},
                        default="unknown")
    sup = support(c, 2)
    assert sup.members == [-2, -1, 0, 1, 2]  # no value is full; 0 is empty
    assert sup.symbolic is None
    assert (sup.certificate.status, sup.certificate.note) == ("UpperBound", "window-truncated")
    rep = classify_algebra(c, 2)
    assert rep.verdict == "neither"
    assert (rep.certificate.status, rep.certificate.note) == ("UpperBound", "window-truncated")


def test_support_of_a_naive_join_with_an_arc_basic_is_window_evidence():
    # the naive join intersects values, so it is full only where both
    # basics are: off 2Z, and never on 2Z, where the point basic is finite
    # (exponent oracle).  The arc operand is not point-valued, so the
    # progression is window evidence, not exact.
    arc = ClosedCircleSet.from_components(_G, (), (Arc(pt(0), pt(F(1, 5))),))
    c = naive_join(make_basic(2, _P), make_basic(2, arc))
    rep = support(c, 6)
    assert rep.members == [m for m in range(-6, 7)
                           if oracles.basic_value(2, frozenset([0]), m) is not oracles.FULL]
    assert rep.symbolic == "2Z"
    assert (rep.certificate.status, rep.certificate.note) == ("UpperBound", "window-evidence")


def test_meet_with_a_depth_exhausted_join_is_an_upper_bound():
    # a join given no rounds exhausts its budget: an upper bound, and so is
    # a meet (pointwise union) read from it.  _P at 1 keeps the join from
    # collapsing, and its nonempty value there is not forced exact.
    j = join_many([make_basic(1, _P), make_basic(2, _P)], 3, depth=0)
    v, cert = meet(j, make_basic(1, _P)).value(1)
    assert v == _P
    assert (cert.status, cert.note) == ("UpperBound", "depth-exhausted")


# -- omega ---------------------------------------------------------------------


def test_omega_direct_union():
    for c, window in ((make_basic(1, _P), 2), (make_basic(2, _P), 4)):
        om, truncated = omega(c, window)
        expected = ClosedCircleSet.empty(_G)
        members = support(c, window).members
        for m in members:
            for n in members:
                expected = expected.union(c.value_set(n).rotate(-m))
        assert om == expected and truncated
    om0, trunc0 = omega(all_empty(_G), 4)
    assert om0.is_empty()


def test_omega_finite_support_not_truncated():
    arc = ClosedCircleSet.from_components(_G, (), (Arc(pt(0), pt(F(7, 10))),))
    _, truncated = omega(make_basic(1, arc), 4)
    assert not truncated


# -- the common zero set and ideals -------------------------------------------


def test_q_intersection_basic_closed_form(silver, golden):
    half = ClosedCircleSet.from_components(silver, (), (Arc(pt(0), pt(F(1, 2))),))
    Q, cert = q_intersection(make_basic(1, half), 10)
    assert cert.exact
    assert Q == ClosedCircleSet.from_components(silver, (), (Arc(pt(0, 1), pt(F(1, 2))),))
    # for the golden step the rotated arc wraps; the overlap survives near 0
    half_g = ClosedCircleSet.from_components(golden, (), (Arc(pt(0), pt(F(1, 2))),))
    Qg, cg = q_intersection(make_basic(1, half_g), 10)
    assert cg.exact and Qg == half_g.intersect(half_g.rotate(1))
    assert not Qg.is_empty()


def test_q_intersection_general():
    assert q_intersection(all_empty(_G), 8)[0].is_empty()
    b = make_basic(1, orbit_set(0, 1))
    Q, cert = q_intersection(b, 8)
    assert cert.exact and Q == orbit_set(1)
    # window truncation on a non-basic: still an upper bound of the basic formula
    m = meet(b, b)
    Qm, certm = q_intersection(m, 8)
    assert Qm.contains_set(Q)


def test_make_ideal_IQ_and_checks(silver):
    half = ClosedCircleSet.from_components(silver, (), (Arc(pt(0), pt(F(1, 2))),))
    c = make_basic(1, half)
    Q, _ = q_intersection(c, 10)
    j = make_ideal_IQ(c, Q)
    assert triviality(j) == "proper"
    assert check_c_closed(j, 10).ok
    # a single point of the common zero set also works
    point = ClosedCircleSet.from_points(silver, [Q.arcs[0].start])
    j2 = make_ideal_IQ(c, point)
    assert check_c_closed(j2, 8).ok and triviality(j2) == "proper"


def test_make_ideal_IQ_rejections():
    b1 = make_basic(1, _P)
    with pytest.raises(ValueError):
        make_ideal_IQ(b1, ClosedCircleSet.empty(_G))
    with pytest.raises(ValueError):
        make_ideal_IQ(b1, ClosedCircleSet.full_circle(_G))
    with pytest.raises(ValueError):
        make_ideal_IQ(b1, _P)  # not inside the (empty) common zero set


def test_c_ideal_failure_and_triviality():
    b1 = make_basic(1, _P)
    bad = CIdealFunction(b1, {0: _P})
    rep = check_c_closed(bad, 6)
    assert not rep.ok and not rep  # the report is falsy when it fails
    assert rep.violations
    as_whole = CIdealFunction(b1, {0: ClosedCircleSet.empty(_G)})
    assert triviality(as_whole) == "whole"
    as_zero = CIdealFunction(b1, {0: ClosedCircleSet.full_circle(_G)})
    assert triviality(as_zero) == "zero"
    assert check_c_closed(CIdealFunction(b1, {}), 6).ok


def _inside(A, B):
    return B is oracles.FULL or (A is not oracles.FULL and A <= B)


def _brute_closed_violations(c, w):
    """check_closed's violation list, from the axioms on orbit exponents."""
    v = {n: exps_of(c.value_set(n)) for n in range(-2 * w, 2 * w + 1)}
    viols = [("reflection", n) for n in range(1, w + 1)
             if v[-n] != oracles.shift(v[n], n)]
    for m in range(-w, w + 1):
        for n in range(-w, w + 1):
            if v[m] is oracles.FULL or v[n] is oracles.FULL:
                continue
            if not _inside(v[m + n], oracles.union(oracles.shift(v[n], -m), v[m])):
                viols.append(("product", m, n))
    return viols


def _brute_c_closed_violations(j, w):
    """check_c_closed's violation list, from the relative axioms on exponents."""
    rng = range(-2 * w, 2 * w + 1)
    jv = {n: exps_of(j.value_set(n)) for n in rng}
    cv = {n: exps_of(j.parent.value_set(n)) for n in rng}
    shift, union, meet_ = oracles.shift, oracles.union, oracles.intersect
    viols = [("domination", n) for n in range(-w, w + 1) if not _inside(cv[n], jv[n])]
    viols += [("reflection", n) for n in range(1, w + 1) if jv[-n] != shift(jv[n], n)]
    for m in range(-w, w + 1):
        for n in range(-w, w + 1):
            if cv[m] is not oracles.FULL and jv[n] is not oracles.FULL and not _inside(
                    jv[m + n], union(shift(jv[n], -m), cv[m])):
                viols.append(("product", m, n))
    for m in range(-w, w + 1):
        for n in range(-w, w + 1):
            if jv[m] is oracles.FULL or jv[n] is oracles.FULL:
                continue
            bound = meet_(meet_(union(shift(jv[n], -m), cv[m]), union(shift(jv[m], -n), cv[n])),
                          meet_(union(shift(cv[n], -m), jv[m]), union(shift(cv[m], -n), jv[n])))
            if not _inside(jv[m + n], bound):
                viols.append(("product-symmetric", m, n))
    return viols


def test_closedness_violation_lists_match_brute_force():
    b1 = make_basic(1, _P)
    closed_cases = [
        (window_function(_G, {1: _P, 2: orbit_set(5)}), 3),
        (window_function(_G, {1: orbit_set(0, 1), -1: orbit_set(2), 2: orbit_set(0)}), 3),
        # neither side of the reflection at 1 contains the other
        (window_function(_G, {1: orbit_set(0), -1: orbit_set(5)}), 2),
        (naive_join(b1, make_basic(1, _P.rotate(1))), 4),
        (meet(make_basic(2, _P), make_basic(3, _P)), 4),
        (make_basic(2, orbit_set(0, 1)), 4),
    ]
    kinds = set()
    for c, w in closed_cases:
        got = check_closed(c, w).violations
        assert got == _brute_closed_violations(c, w)
        kinds.update(v[0] for v in got)
    assert kinds == {"reflection", "product"}
    c_cases = [
        (CIdealFunction(b1, {0: _P}), 6),
        (CIdealFunction(b1, {2: ClosedCircleSet.empty(_G)}), 4),
        (CIdealFunction(b1, {2: orbit_set(7)}), 3),
        (CIdealFunction(b1, {1: orbit_set(0, 3), -1: orbit_set(4, 1)}), 4),
        (CIdealFunction(make_basic(1, orbit_set(0, 1)), {0: orbit_set(1)}), 4),
        (CIdealFunction(b1, {}), 4),
        # full at 1, where the parent is not: the one-sided rule still reads m = 1
        (CIdealFunction(b1, {1: ClosedCircleSet.full_circle(_G)}), 2),
        # each of the four symmetric bounds is the only one to cut some target:
        # at (m, n) = (1, 0) the first, (0, 1) the second, (2, -1) the third
        # and (-1, 2) the fourth
        (CIdealFunction(make_basic(1, orbit_set(1)),
                        {1: orbit_set(1, 2), 0: orbit_set(2), -1: orbit_set(2, 4)}), 2),
    ]
    kinds = set()
    for j, w in c_cases:
        got = check_c_closed(j, w).violations
        assert got == _brute_c_closed_violations(j, w)
        kinds.update(v[0] for v in got)
    assert kinds == {"domination", "reflection", "product", "product-symmetric"}


def test_c_ideal_zero_slice_inside_all_values(silver):
    half = ClosedCircleSet.from_components(silver, (), (Arc(pt(0), pt(F(1, 2))),))
    c = make_basic(1, half)
    j = make_ideal_IQ(c, q_intersection(c, 10)[0])
    for n in range(-10, 11):
        assert j.value_set(n).contains_set(j.value_set(0))


# -- minimality of basics -------------------------------------------------------


def test_basic_minimality_below_closed():
    for c in (make_basic(1, orbit_set(0, 1)), make_basic(2, _P)):
        for n in range(1, 5):
            vn = c.value_set(n)
            if vn.full:
                continue
            b = make_basic(n, vn)
            assert meet(c, b).value_set(n) == vn
            for k in range(-8, 9):
                assert b.value_set(k).contains_set(c.value_set(k))


# -- serialization ----------------------------------------------------------------


def test_function_json_round_trip():
    import json
    for fn in (make_basic(2, _P),
               window_function(_G, {1: _P, -1: _P.rotate(1)})):
        doc = json.loads(json.dumps(function_to_json(fn)))
        assert values_equal(function_from_json(doc), fn, 5)


def test_function_json_of_a_join_and_of_a_meet():
    import json
    j = join_many([make_basic(1, orbit_set(0, 1)), make_basic(2, _P)], 4)
    doc = json.loads(json.dumps(function_to_json(j)))
    assert doc["repr"] == "join" and len(doc["gens"]) == 2
    assert values_equal(function_from_json(doc), j, 4)
    # a lazy node is written as its values on the window, unknown outside
    m = meet(make_basic(2, _P), make_basic(3, _P))
    doc = json.loads(json.dumps(function_to_json(m, 3)))
    assert doc["repr"] == "window" and doc["default"] == "unknown"
    assert sorted(int(n) for n in doc["values"]) == list(range(-3, 4))
    assert values_equal(function_from_json(doc), m, 3)
