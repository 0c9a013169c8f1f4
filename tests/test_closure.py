"""Closed join engine, closure operator, decomposition, simplicity."""
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rotalg import (Arc, BasicFunction, CIdealFunction, Certificate, ClosedCircleSet,
                    WindowFunction, all_empty, canonical_decomposition, check_c_closed,
                    check_closed, classify_algebra, close, closed_join, closed_join_value,
                    golden_angle, join_many, make_basic, meet, naive_join, omega,
                    q_intersection, simplicity_report, support, triviality, values_equal,
                    window_function)
from rotalg.circleset import pt
from rotalg.idealfn import SEED_LIMIT

import oracles

F = Fraction
_G = golden_angle()
_P = ClosedCircleSet.from_points(_G, [pt(F(1, 7))])


def orbit_set(*exps):
    return ClosedCircleSet.from_points(_G, [pt(F(1, 7), e) for e in exps])


def exps_of(s):
    if s.full:
        return oracles.FULL
    return frozenset(p.n for p in s.points)


def collapse_modulus(j):
    """The d of a join whose closed form is basic(d, empty)."""
    assert isinstance(j.closed, BasicFunction) and j.closed.P.is_empty()
    return j.closed.q


# -- the constraint sweep's point filter -------------------------------------


_POOL = [pt(F(1, 7), e) for e in range(-3, 4)] + [pt(F(2, 7), 0), pt(F(1, 2), 1)]


@st.composite
def point_windows(draw, w=2):
    """Values on [-2w, 2w], empty at 0: mostly orbit point sets, some full,
    some arcs (which keep the set-operation path)."""
    values = {0: ClosedCircleSet.empty(_G)}
    for n in range(-2 * w, 2 * w + 1):
        if n == 0:
            continue
        kind = draw(st.sampled_from(("points",) * 6 + ("full", "arc")))
        if kind == "full":
            values[n] = ClosedCircleSet.full_circle(_G)
            continue
        pts = draw(st.lists(st.sampled_from(_POOL), max_size=5))
        arcs = [Arc(pt(0), pt(F(1, 3)))] if kind == "arc" else []
        values[n] = ClosedCircleSet.from_components(_G, pts, arcs)
    return values


def _product_cuts_by_set_operations(D, w, parent=None):
    side = D if parent is None else parent
    out = []
    for m in range(-w, w + 1):
        for n in range(-w, w + 1):
            t = m + n
            if side[m].full or D[n].full or D[t].is_empty():
                continue
            cut = D[t].intersect(D[n].rotate(-m).union(side[m]))
            if cut != D[t]:
                out.append((("product", m, n), t, cut))
    return out


@given(point_windows(), point_windows(), st.booleans())
def test_point_filter_cuts_like_set_operations(D, parent, with_parent):
    from rotalg.idealfn import _broken_constraints
    if with_parent:  # the one-sided rule of an ideal D over the parent
        j = CIdealFunction(window_function(_G, parent), D)
        got = [v for v in check_c_closed(j, 2).violations if v[0] == "product"]
        assert got == [label for label, _, _ in _product_cuts_by_set_operations(D, 2, parent)]
        return
    got = [c for c in _broken_constraints(D, 2) if c[0][0] == "product"]
    want = _product_cuts_by_set_operations(D, 2)
    assert [(label, t) for label, t, _ in got] == [(label, t) for label, t, _ in want]
    for (_, _, cut), (_, _, ref) in zip(got, want):
        assert cut == ref and cut.points == ref.points and cut.arcs == ref.arcs


# -- the mirror rule: a reflective sweep visits half the product constraints --

_STRAY = ClosedCircleSet.from_points(_G, [pt(F(3, 7))])  # on no orbit of the pool


@st.composite
def reflective_windows(draw, w=2):
    """Values on [-2w, 2w] with value(-n) = rotate(value(n), n) on every
    index: the values of a basic (closed) or drawn positive values,
    reflected.  Some draws then add a stray point at one t and at -t, which
    breaks product constraints and keeps the values reflective, or at one
    k alone: in (w, 2w], past the reflection labels of a window-w check, or
    in [1, w], where reflection breaks."""
    if draw(st.booleans()):
        arcs = [Arc(pt(0), pt(F(1, 3)))] if draw(st.booleans()) else []
        P = ClosedCircleSet.from_components(
            _G, draw(st.lists(st.sampled_from(_POOL), min_size=1, max_size=3)), arcs)
        b = make_basic(draw(st.integers(1, 3)), P)
        positive = {n: b.value_set(n) for n in range(1, 2 * w + 1)}
    else:
        positive = draw(point_windows(w))
    D = {0: ClosedCircleSet.empty(_G)}
    for n in range(1, 2 * w + 1):
        D[n], D[-n] = positive[n], positive[n].rotate(n)
    broken = draw(st.sampled_from(("none", "mirrored", "beyond", "reflection")))
    if broken == "mirrored":
        t = draw(st.integers(1, 2 * w))
        D[t] = D[t].union(_STRAY)
        D[-t] = D[t].rotate(t)
    elif broken != "none":
        k = draw(st.integers(w + 1, 2 * w) if broken == "beyond" else st.integers(1, w))
        D[k] = D[k].union(_STRAY)
    return D


def _full_visit(D, w):
    """Every broken constraint, in the sweep's order, by set operations."""
    out = []
    for n in range(1, w + 1):
        for t in (-n, n):
            cut = D[t].intersect(D[-t].rotate(-t))
            if cut != D[t]:
                out.append((("reflection", n), t, cut))
    return out + _product_cuts_by_set_operations(D, w)


def _reference_fixpoint(seed, max_rounds):
    """_closure_fixpoint with every constraint visited and cut live."""
    D = dict(seed)
    W2 = max(abs(n) for n in D)
    for rounds in range(1, max_rounds + 1):
        changed = False
        for n in range(1, W2 + 1):
            for t in (-n, n):
                cut = D[t].intersect(D[-t].rotate(-t))
                changed |= cut != D[t]
                D[t] = cut
        supp = [n for n in range(-W2, W2 + 1) if not D[n].full]
        for m in supp:
            for n in supp:
                t = m + n
                if t in D and not D[t].is_empty():
                    cut = D[t].intersect(D[n].rotate(-m).union(D[m]))
                    changed |= cut != D[t]
                    D[t] = cut
        if not changed:
            return D, rounds, True
    return D, max_rounds, False


@given(reflective_windows())
def test_mirror_rule_yields_what_a_full_visit_yields(D):
    from rotalg.idealfn import _broken_constraints
    assert list(_broken_constraints(D, 2)) == _full_visit(D, 2)


@settings(max_examples=30)
@given(reflective_windows())
def test_mirror_rule_fixpoint_matches_a_full_visit(seed):
    from rotalg.idealfn import _closure_fixpoint
    assert _closure_fixpoint(seed, 6) == _reference_fixpoint(seed, 6)


def _recorded_fixpoints(monkeypatch, run):
    from rotalg import idealfn
    calls, fixpoint = [], idealfn._closure_fixpoint

    def recording(seed, max_rounds):
        result = fixpoint(seed, max_rounds)
        calls.append((seed, max_rounds, result))
        return result

    monkeypatch.setattr(idealfn, "_closure_fixpoint", recording)
    run()
    return calls


def _golden_join_cases():
    from test_golden import CASES
    return sorted(name for name, (docs, verb, _) in CASES.items()
                  if verb in ("join", "close", "decompose")
                  or any(d.get("repr") == "join" for d in docs))


@pytest.mark.parametrize("name", _golden_join_cases())
def test_mirror_rule_fixpoints_of_the_golden_joins(name, monkeypatch, tmp_path):
    from test_golden import run_case
    calls = _recorded_fixpoints(monkeypatch, lambda: run_case(name, tmp_path))
    assert calls
    for seed, max_rounds, result in calls:
        assert result == _reference_fixpoint(seed, max_rounds)


def test_mirror_rule_fixpoint_of_the_found_arc_pair(monkeypatch):
    # basic(5, arc[3/10, 2/5]) v basic(6, arc[37/100, 67/100]) at window 1
    pair = (arc_basic(5, F(3, 10), F(1, 10)), arc_basic(6, F(37, 100), F(3, 10)))
    calls = _recorded_fixpoints(monkeypatch, lambda: join_many(pair, 1))
    [(seed, max_rounds, result)] = calls
    assert result == _reference_fixpoint(seed, max_rounds)


# -- closed join -----------------------------------------------------------


def test_join_of_disjoint_orbit_points_collapses():
    j = closed_join(make_basic(1, _P), make_basic(1, _P.rotate(1)),
                    window=6, depth=4)
    assert j.certificate.exact and j.certificate.depth <= 4
    assert collapse_modulus(j) == 1
    assert all(j.value_set(n).is_empty() for n in range(-6, 7))
    assert check_closed(j, 6).ok


def test_join_against_tuple_enumeration_oracle():
    # the engine result sits inside the brute-force intersection of the
    # union terms, and both agree on the forced empty values
    v1 = lambda m: oracles.basic_value(1, frozenset([0]), m)
    v2 = lambda m: oracles.basic_value(1, frozenset([1]), m)
    j = closed_join(make_basic(1, _P), make_basic(1, _P.rotate(1)), window=4)
    for n in range(-4, 5):
        upper = oracles.closed_join_upper(v1, v2, n, max_len=3, j_bound=6)
        got = exps_of(j.value_set(n))
        assert got is not oracles.FULL
        if upper is not oracles.FULL:
            assert got <= upper
    assert oracles.closed_join_upper(v1, v2, 1, max_len=2, j_bound=4) == frozenset()


def test_join_of_mixed_steps_collapses():
    # steps 1 and 2 over the same point: products force everything empty
    j = closed_join(make_basic(1, _P), make_basic(2, _P), window=5)
    assert collapse_modulus(j) == 1
    assert j.value_set(1).is_empty()


def test_join_idempotent_on_closed():
    for c in (make_basic(1, _P), make_basic(2, orbit_set(0, 1)),
              make_basic(1, ClosedCircleSet.from_components(
                  _G, (), (Arc(pt(0), pt(F(7, 10))),)))):
        j = closed_join(c, c, window=5)
        assert j.certificate.exact
        assert values_equal(j, c, 5)


def test_join_with_redundant_partner_is_exact():
    b = make_basic(1, orbit_set(0, 1, 2))
    partner = make_basic(2, b.value_set(2))
    j = closed_join(b, partner, window=6)
    assert j.certificate.exact
    assert values_equal(j, b, 6)


def test_join_arc_blowup_value():
    p_arc = ClosedCircleSet.from_components(_G, (), (Arc(pt(0), pt(F(1, 5))),))
    q_arc = ClosedCircleSet.from_components(_G, (), (Arc(pt(F(2, 5)), pt(F(3, 5))),))
    v, cert = closed_join_value(make_basic(1, p_arc), make_basic(1, q_arc), 1)
    assert v.is_empty() and cert.exact


def test_join_finite_support_certified():
    a = ClosedCircleSet.from_components(_G, (), (Arc(pt(0), pt(F(1, 5))),))
    b = ClosedCircleSet.from_components(_G, (), (Arc(pt(F(1, 10)), pt(F(3, 10))),))
    j = closed_join(make_basic(1, a), make_basic(1, b), window=8)
    assert j.certificate.exact
    assert j.certificate.note in ("finite-support", "collapse", "window-stabilized")
    assert check_closed(j, 8).ok


def arc_basic(q, start, length):
    return make_basic(q, ClosedCircleSet.from_components(
        _G, (), (Arc(pt(start), pt(start + length)),)))


@st.composite
def basic_pairs(draw):
    """Two point basics on one orbit with steps q and 2q, or two arc basics
    whose arcs overlap."""
    if draw(st.booleans()):
        q = draw(st.integers(1, 2))
        e1, e2 = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        return make_basic(q, orbit_set(e1)), make_basic(2 * q, orbit_set(e2))
    tenths = st.integers(1, 4).map(lambda k: F(k, 10))
    start, l1, l2 = F(draw(st.integers(0, 9)), 10), draw(tenths), draw(tenths)
    inside = l1 * F(draw(st.integers(0, 9)), 10)
    q1, q2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return arc_basic(q1, start, l1), arc_basic(q2, start + inside, l2)


@settings(max_examples=15)
@given(basic_pairs(), st.integers(1, 3))
# a step-3 generator lies outside the seed of the window-1 join unless the
# seed reaches the largest step
@example((arc_basic(2, F(3, 5), F(2, 5)), arc_basic(3, F(3, 5), F(1, 10))), 1)
def test_join_values_do_not_depend_on_the_window(pair, w):
    narrow, wide = join_many(pair, w), join_many(pair, 2 * w)
    for n in range(-w, w + 1):
        assert narrow.value_set(n) == wide.value_set(n)


def test_concurrent_join_widening():
    # threads read one join past its window in different orders; each
    # widening replaces the state whole, and a narrower one never replaces
    # a wider one, whose values a reader may already be indexing
    import sys
    import threading
    r1 = make_basic(1, ClosedCircleSet.from_points(_G, [pt(F(4, 9)), pt(F(4, 9), 1)]))
    r2 = make_basic(2, ClosedCircleSet.from_points(
        _G, [pt(F(4, 9)), pt(F(4, 9), -1), pt(F(4, 9), -2)]))
    wide = join_many([r1, r2], 14)
    errs = []

    def work(join, order):
        try:
            for n in order:
                if join.value(n) != wide.value(n):
                    errs.append(("value", n))
        except Exception as exc:  # pragma: no cover
            errs.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(8):
            j = join_many([r1, r2], 1)
            threads = [threading.Thread(target=work, args=(j, order))
                       for order in ([14, 2, -3], [5, -1, 12], [9, 3], [-7, 13, 1])]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            if j.window < 14:
                errs.append(("narrowed", j.window))
    finally:
        sys.setswitchinterval(interval)
    assert not errs


def test_join_depth_zero_is_upper_bound():
    a = ClosedCircleSet.from_components(_G, (), (Arc(pt(0), pt(F(1, 5))),))
    b = ClosedCircleSet.from_components(_G, (), (Arc(pt(F(1, 10)), pt(F(3, 10))),))
    j = join_many([make_basic(1, a), make_basic(1, b)], window=4, depth=0)
    assert not j.certificate.exact
    assert j.certificate.note == "depth-exhausted"


def test_join_seed_is_bounded_by_seed_limit():
    # the seed reaches twice the window and every generator step
    join_many([make_basic(SEED_LIMIT, _P)], window=1)
    for gens, window in (([make_basic(SEED_LIMIT + 1, _P)], 1),
                         ([make_basic(1, _P)], SEED_LIMIT // 2 + 1)):
        with pytest.raises(ValueError, match=f"exceeds SEED_LIMIT = {SEED_LIMIT}"):
            join_many(gens, window)


def test_join_rejects_non_closed_input():
    nj = naive_join(make_basic(1, _P), make_basic(1, _P.rotate(1)))
    with pytest.raises(ValueError):
        closed_join(nj, make_basic(1, _P), window=4)


# -- the closure operator ----------------------------------------------------


def test_close_of_naive_join_collapses():
    nj = naive_join(make_basic(1, _P), make_basic(1, _P.rotate(1)))
    cl, cert = close(nj, window=5)
    assert cert.exact
    assert all(cl.value_set(n).is_empty() for n in range(-5, 6))


def test_close_fixes_closed():
    for c in (make_basic(1, _P), make_basic(3, _P), all_empty(_G)):
        cl, cert = close(c, window=5)
        assert cert.exact and values_equal(cl, c, 5)


def test_close_from_window_seed():
    w = window_function(_G, {1: _P, -1: _P.rotate(1)})
    cl, cert = close(w, window=6)
    assert cert.exact
    assert values_equal(cl, make_basic(1, _P), 6)


def test_close_is_extensive_monotone_idempotent():
    w1 = window_function(_G, {1: _P, -1: _P.rotate(1)})
    w2 = window_function(_G, {1: orbit_set(0, 1), -1: orbit_set(0, 1).rotate(1)})
    cl1, c1 = close(w1, window=5)
    cl2, c2 = close(w2, window=5)
    assert c1.exact and c2.exact
    for n in range(-5, 6):
        # extensive: the closure's sets shrink pointwise
        assert w1.value_set(n).contains_set(cl1.value_set(n))
        # monotone: w1 dominates w2 (larger sets), so does the closure
        assert cl2.value_set(n).contains_set(cl1.value_set(n)) or \
            cl1.value_set(n) == cl2.value_set(n)
    again, cert = close(cl1, window=5)
    assert cert.exact and values_equal(again, cl1, 5)


# -- canonical decomposition ---------------------------------------------------


def test_decomposition_of_basic():
    for q in (1, 2, 3):
        rep = canonical_decomposition(make_basic(q, _P), 10)
        assert [n for n, _ in rep.critical] == [q]
        assert rep.rejoin_ok and rep.certificate.exact


def test_decomposition_of_all_empty():
    rep = canonical_decomposition(all_empty(_G), 6)
    assert [n for n, _ in rep.critical] == [1]
    assert rep.critical[0][1].is_empty()
    assert rep.rejoin_ok


def test_decomposition_of_meet_two_three():
    # the meet of the step-2 and step-3 point basics is exactly the basic
    # generated at 6, so the only critical index is 6 (the exponent-model
    # cross check is in test_idealfn)
    m = meet(make_basic(2, _P), make_basic(3, _P))
    rep = canonical_decomposition(m, 12)
    assert [n for n, _ in rep.critical] == [6]
    assert rep.rejoin_ok and rep.certificate.exact


def test_decomposition_of_trivial():
    rep = canonical_decomposition(make_basic(0, _P), 6)
    assert rep.critical == [] and rep.rejoin_ok
    # with no critical index the re-join is still checked on the whole window
    rep = canonical_decomposition(window_function(_G, {-1: _P}), 6)
    assert rep.critical == [] and not rep.rejoin_ok


def test_decomposition_window_values_match():
    b = make_basic(2, orbit_set(0, 1))
    rep = canonical_decomposition(b, 9)
    rejoin = join_many([make_basic(n, v) for n, v in rep.critical], 9)
    assert values_equal(rejoin, b, 9)


# -- support symmetry / subgroup property ---------------------------------------


def test_support_symmetry_closed():
    for c in (make_basic(2, _P), make_basic(3, orbit_set(0, 2)), all_empty(_G)):
        members = set(support(c, 12).members)
        assert members == {-n for n in members}


def test_residual_support_subgroup_window():
    for c in (make_basic(1, _P), make_basic(2, _P), all_empty(_G)):
        members = set(support(c, 10).members)
        for m in members:
            for n in members:
                if abs(m + n) <= 10:
                    assert m + n in members


# -- simplicity --------------------------------------------------------------------


def test_simplicity_singleton_point():
    rep = simplicity_report(make_basic(1, _P), 10)
    assert rep.verdict == "simple"


def test_simplicity_not_simple_with_witness(silver, monkeypatch):
    from rotalg import idealfn
    calls = []
    q_int = idealfn.q_intersection
    monkeypatch.setattr(idealfn, "q_intersection", lambda *a: calls.append(a) or q_int(*a))
    half = ClosedCircleSet.from_components(silver, (), (Arc(pt(0), pt(F(1, 2))),))
    rep = simplicity_report(make_basic(1, half), 10)
    assert rep.verdict == "not-simple"
    assert len(calls) == 1  # the witness is built from the Q already found
    assert rep.witness is not None
    assert check_c_closed(rep.witness, 10).ok


def test_simplicity_inconclusive_disjoint_arc():
    small = ClosedCircleSet.from_components(_G, (), (Arc(pt(0), pt(F(1, 4))),))
    c = make_basic(1, small)
    assert q_intersection(c, 8)[0].is_empty()
    rep = simplicity_report(c, 8)
    assert rep.verdict == "inconclusive"
    assert "no generating proper ideal" in rep.notes


def test_simplicity_two_point_block_not_simple():
    c = make_basic(1, orbit_set(0, 1))
    rep = simplicity_report(c, 10)
    assert rep.verdict == "not-simple"
    assert rep.q_value == orbit_set(1)
    j = rep.witness
    assert check_c_closed(j, 8).ok
    # equal supports and confinement inside the union of shifted values
    om, _ = omega(c, 8)
    for k in support(c, 8).members:
        assert om.contains_set(j.value_set(k))


@pytest.mark.parametrize("c", [
    pytest.param(make_basic(0, ClosedCircleSet.empty(_G)), id="basic-q-0"),
    pytest.param(window_function(_G, {}, default="full"), id="empty-full-window"),
])
def test_simplicity_all_full_is_not_simple(c):
    # every nonzero value is the full circle, so the common zero set is
    # the full circle and the algebra is C(T): commutative, not simple,
    # and the witness is a proper closed ideal of it
    rep = simplicity_report(c, 10)
    assert rep.q_value.full and rep.q_certificate.exact
    assert rep.verdict == "not-simple"
    assert check_c_closed(rep.witness, 10).ok
    assert triviality(rep.witness) == "proper"


# -- the support protocol ----------------------------------------------------------


def test_pointwise_support_modulus_lcm_and_gcd():
    # basics of steps 4 and 6 are supported on 4Z and 6Z; the meet (union
    # of values) on their intersection 12Z, the naive join (intersection
    # of values) on their union, inside 2Z
    b4, b6 = make_basic(4, _P), make_basic(6, _P)
    v4 = lambda m: oracles.basic_value(4, frozenset([0]), m)
    v6 = lambda m: oracles.basic_value(6, frozenset([0]), m)
    assert meet(b4, b6).support_modulus() == 12
    assert naive_join(b4, b6).support_modulus() == 2
    for m in range(-24, 25):
        assert (oracles.meet_value(v4, v6, m) is not oracles.FULL) == (m % 12 == 0)
        if oracles.naive_join_value(v4, v6, m) is not oracles.FULL:
            assert m % 2 == 0
    # a child with no known modulus leaves none
    w = window_function(_G, {1: _P}, default="full")
    assert meet(b4, w).support_modulus() is None
    assert naive_join(b4, w).support_modulus() is None


def test_pointwise_support_bound_min_and_max():
    # full-default windows supported on {0, 1, 2} and {0, 1, 3}
    w2 = window_function(_G, {1: _P, 2: _P}, default="full")
    w3 = window_function(_G, {1: _P, 3: _P}, default="full")
    assert meet(w2, w3).support_bound() == 2
    assert naive_join(w2, w3).support_bound() == 3
    # against a point basic, supported on all of Z: the meet still lies in
    # {-2, ..., 2}, the naive join has no bound
    b1 = make_basic(1, _P)
    assert b1.support_bound() is None
    assert meet(w2, b1).support_bound() == 2
    assert naive_join(w2, b1).support_bound() is None


def test_pointwise_is_point_valued():
    arc = ClosedCircleSet.from_components(_G, (), (Arc(pt(0), pt(F(7, 10))),))
    points = make_basic(1, _P), make_basic(2, orbit_set(0, 1))
    assert meet(*points).is_point_valued() and naive_join(*points).is_point_valued()
    assert not meet(points[0], make_basic(1, arc)).is_point_valued()
    assert not naive_join(points[0], make_basic(1, arc)).is_point_valued()


# indices each closed-form join is read at: its window, one past it, far out
def _reads(window):
    return [*range(-window - 1, window + 2), 10**6, -10**6, 10**6 + 1, -10**6 - 1]


def test_collapsed_join_support_protocol():
    # two step-2 basics over distinct points: the seed at 2 is P and its
    # rotate by 2 intersected, which is empty, so the join is basic(2, empty):
    # empty on 2Z and, like both generators, full off it
    j = closed_join(make_basic(2, _P), make_basic(2, _P.rotate(2)), window=4)
    assert collapse_modulus(j) == 2
    assert j.certificate.exact and j.certificate.note == "collapse"
    assert j.support_modulus() == 2
    assert j.support_bound() is None  # 2Z is infinite
    assert j.is_point_valued()
    for n in _reads(4):
        v, cert = j.value(n)
        assert (v.is_empty() if n % 2 == 0 else v.full) and cert == j.certificate
    assert j.window == 4


def test_finite_support_join_support_protocol():
    # the arc [0, 7/10] and its rotate by -rho (rho ~ 0.618) cover the
    # circle, so the arc basic of step 1 is full off {-1, 0, 1}; it is
    # closed, and its closure is itself, with that support
    arc = ClosedCircleSet.from_components(_G, (), (Arc(pt(0), pt(F(7, 10))),))
    b = make_basic(1, arc)
    j, cert = close(b, window=4)
    assert cert.exact and cert.note == "finite-support"
    assert isinstance(j.closed, WindowFunction) and j.closed.default == "full"
    assert j.support_modulus() == 1
    assert j.support_bound() == 1
    assert not j.is_point_valued()
    for n in _reads(4):
        v, got = j.value(n)
        assert v == (b.value_set(n) if abs(n) <= 1 else ClosedCircleSet.full_circle(_G))
        # the window's empty values keep their own note
        assert got == (Certificate(True, cert.depth, "empty-forced") if n == 0 else cert)
    assert j.window == 4  # the reads past the window did not widen it


def test_closed_form_joins_answer_support_classify_and_q_exactly():
    # a collapse onto Z: every value is empty, so the support is Z, every
    # value is nowhere dense and the common zero set Q is empty
    j = closed_join(make_basic(1, _P), make_basic(1, _P.rotate(1)), window=6)
    assert collapse_modulus(j) == 1
    sup = support(j, 6)
    assert sup.symbolic == "Z" and sup.certificate.exact
    cls = classify_algebra(j, 6)
    assert cls.verdict == "residual" and cls.certificate.exact
    Q, cert = q_intersection(j, 6)
    assert Q.is_empty() and cert.exact
    # two overlapping arc basics of step 1 join to a finite support: the
    # value at 1 is at most [1/5, 2/5] and the one at -1 its rotate by 1,
    # [1/5 + rho, 2/5 + rho], which misses it (rho ~ 0.618), so Q is empty
    arc = {k: ClosedCircleSet.from_components(_G, (), (Arc(pt(a), pt(b)),))
           for k, (a, b) in {"left": (0, F(2, 5)), "right": (F(1, 5), F(3, 5))}.items()}
    j = join_many([make_basic(1, arc["left"]), make_basic(1, arc["right"])], 20, 30)
    assert j.certificate.note == "finite-support"
    assert isinstance(j.closed, WindowFunction)
    sup = support(j, 20)
    assert sup.symbolic == "finite" and sup.certificate.exact
    assert sup.members == [n for n in range(-20, 21) if not j.value_set(n).full]
    cls = classify_algebra(j, 20)
    assert cls.verdict == "small" and cls.certificate.exact
    Q, cert = q_intersection(j, 20)
    assert Q.is_empty() and cert.exact


# -- randomized residual joins ----------------------------------------------------


def test_randomized_residual_joins_exact():
    rng = random.Random(7)
    for trial in range(6):
        q = rng.randint(1, 3)
        blk = q + rng.randint(0, 1)
        base = pt(F(rng.randint(0, 8), 9), rng.randint(-1, 1))
        P = ClosedCircleSet.from_points(_G, [base.shift(k) for k in range(blk + 1)])
        c = make_basic(q, P)
        partner = make_basic(2 * q, c.value_set(2 * q))
        j = closed_join(c, partner, window=8)
        assert j.certificate.exact
        assert values_equal(j, c, 8)
        assert classify_algebra(j, 8).verdict == "residual"
