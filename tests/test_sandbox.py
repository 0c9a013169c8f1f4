import cmath
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rotalg import (Arc, ClosedCircleSet, CrossedElement, TrigPoly, adjoint,
                    apply_averaging, build_averaging, center_check,
                    element_from_json, element_to_json, expectation_canonical,
                    expectation_mu, fejer_bracket, golden_angle, make_basic,
                    membership_test, multiply, project_qn, q_of,
                    section_norm, silver_angle, truncated_norm)
from rotalg.angle import named_angle
from rotalg.circleset import pt, set_from_json
from rotalg.exactnum import PhasePoly, qi
from rotalg.sandbox import (PhaseSearchFailed, bump_power, conjugate_by_shift,
                            derivative_extract)
from rotalg.suites import center_instance, random_exact_element

F = Fraction
_G = golden_angle()


def mono(n, k, c=1, mode="exact"):
    return CrossedElement.monomial(_G, n, k, c, mode=mode)


# -- multiplication and adjoint ----------------------------------------------


def test_x_characters_compose():
    a = multiply(mono(1, 0), mono(1, 0))
    assert set(a.terms) == {2}
    assert a.terms[2].coeffs == {0: PhasePoly.const(1)}


def test_shift_past_x_character_picks_phase():
    # moving the shift generator through e^{ix} costs one phase power
    got = multiply(mono(0, 1), mono(1, 0))
    assert set(got.terms) == {1}
    assert got.terms[1].coeffs == {1: PhasePoly.unit(1)}


def test_power_of_single_layer_matches_product_formula():
    # a = e^{iqx} f: the cube collects the rotated copies of f
    f = TrigPoly("exact", {0: PhasePoly.const(1), 1: PhasePoly.const(F(1, 2))})
    a = CrossedElement(_G, "exact", {2: f})
    a3 = multiply(multiply(a, a), a)
    expected = f.compose_rotation(_G, 4).convolve(
        f.compose_rotation(_G, 2)).convolve(f)
    assert set(a3.terms) == {6}
    assert a3.terms[6].coeffs == expected.coeffs


def test_adjoint_examples():
    a = mono(1, 0)
    assert adjoint(a).terms[-1].coeffs == {0: PhasePoly.const(1)}
    b = mono(1, 1)
    star = adjoint(b)
    # conj flips the dual frequency and the stored phase twists by -k*n
    assert set(star.terms) == {-1}
    assert star.terms[-1].coeffs == {-1: PhasePoly.unit(1)}


def _adjoint_by_layers(a: CrossedElement) -> CrossedElement:
    """The adjoint as the sum over layers of e^{-inx} (conj(f) o rot^{-n})."""
    out = CrossedElement.zero(_G)
    for n, f in a.terms.items():
        out = out + CrossedElement(_G, "exact",
                                   {-n: f.conjugate_function().compose_rotation(_G, -n)})
    return out


def test_exact_adjoint_matches_conjugate_then_rotate():
    rng = random.Random(13)
    for _ in range(20):
        a, b, c, d = (random_exact_element(_G, rng) for _ in range(4))
        ab, cd = multiply(a, b), multiply(c, d)
        for x in (a, ab, multiply(ab, cd)):
            star = adjoint(x)
            assert star == _adjoint_by_layers(x) and _zero_free(star)


def test_involution_and_antimultiplicativity():
    rng = random.Random(3)
    for _ in range(40):
        a = random_exact_element(_G, rng)
        b = random_exact_element(_G, rng)
        assert adjoint(adjoint(a)).terms == a.terms
        assert adjoint(multiply(a, b)).terms == multiply(adjoint(b), adjoint(a)).terms


def test_ring_laws_exact():
    rng = random.Random(4)
    for _ in range(40):
        a, b, c = (random_exact_element(_G, rng) for _ in range(3))
        assert multiply(multiply(a, b), c).terms == multiply(a, multiply(b, c)).terms
        assert multiply(a, b + c).terms == (multiply(a, b) + multiply(a, c)).terms


def _zero_free(a: CrossedElement) -> bool:
    return all(q[0] or q[1] for t in a.terms.values() for c in t.coeffs.values()
               for q in c.terms.values())


def test_exact_product_cancels_without_zero_terms():
    one, v = mono(0, 0), mono(1, 0)
    p = multiply(one + v, one - v)
    assert p == one - multiply(v, v)
    assert set(p.terms) == {0, 2} and _zero_free(p)


def _composed_convolutions(a: CrossedElement, b: CrossedElement) -> CrossedElement:
    """The product as the sum over layer pairs of (f o rot^m) g at layer n + m."""
    out = CrossedElement.zero(_G)
    for n, f in a.terms.items():
        for m, g in b.terms.items():
            out = out + CrossedElement(_G, "exact", {n + m: f.compose_rotation(_G, m).convolve(g)})
    return out


def test_exact_product_matches_composed_convolutions():
    rng = random.Random(12)
    widest = 0
    for _ in range(20):
        a, b, c, d = (random_exact_element(_G, rng) for _ in range(4))
        ab, cd = multiply(a, b), multiply(c, d)
        for x, y in ((a, b), (ab, cd), (cd, a)):
            p = multiply(x, y)
            assert p == _composed_convolutions(x, y) and _zero_free(p)
            widest = max([widest] + [len(q.terms) for t in p.terms.values()
                                     for q in t.coeffs.values()])
    assert widest >= 3  # products of products hold PhasePolys of several terms


def _drawn_as_monomials(rng: random.Random) -> tuple[CrossedElement, bool]:
    """random_exact_element's draws, in its order, summed as monomials; and
    whether an (n, k, j) repeated."""
    el, keys = CrossedElement.zero(_G), set()
    for _ in range(4):
        n, k, j = rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-1, 1)
        c = qi(F(rng.randint(-6, 6), rng.randint(1, 4)), F(rng.randint(-6, 6), rng.randint(1, 4)))
        el = el + mono(n, k, PhasePoly({j: c}))
        keys.add((n, k, j))
    return el, len(keys) < 4


def test_random_exact_element_is_the_sum_of_its_draws():
    repeats = 0
    for seed in range(300):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(2):
            want, repeated = _drawn_as_monomials(ref)
            got = random_exact_element(_G, rng)
            assert got == want and _zero_free(got)
            repeats += repeated
        assert rng.getstate() == ref.getstate()
    assert repeats >= 20  # keys that repeat, where adding and overwriting differ


def test_elements_over_equal_angles_are_equal():
    g1, g2 = named_angle("golden"), named_angle("golden")
    assert g1 is not g2
    assert CrossedElement.monomial(g1, 1, 0) == CrossedElement.monomial(g2, 1, 0)
    assert CrossedElement.monomial(g1, 1, 0) != CrossedElement.monomial(named_angle("silver"), 1, 0)


def test_conjugation_phase_law():
    rng = random.Random(5)
    a = random_exact_element(_G, rng)
    ca = conjugate_by_shift(a, 4)
    for n, t in a.terms.items():
        assert ca.terms[n].coeffs == t.scale(PhasePoly.unit(4 * n)).coeffs


def _agree(got: CrossedElement, want: CrossedElement):
    """Float coefficients equal within 1e-12, a missing term counting as 0."""
    assert got.mode == want.mode == "float"
    for n in set(got.terms) | set(want.terms):
        g, w = got.term(n).coeffs, want.term(n).coeffs
        for k in set(g) | set(w):
            assert cmath.isclose(g.get(k, 0), w.get(k, 0), rel_tol=1e-12, abs_tol=1e-12)


@given(st.integers(min_value=0, max_value=2**32))
def test_exact_and_float_modes_agree(seed):
    # every operation computed exactly and then converted equals the same
    # operation on the converted operands
    rng = random.Random(seed)
    a, b = random_exact_element(_G, rng), random_exact_element(_G, rng)
    fa, fb = a.as_float(), b.as_float()
    _agree(multiply(a, b).as_float(), multiply(fa, fb))
    _agree(adjoint(a).as_float(), adjoint(fa))
    _agree((a - b).as_float(), fa - fb)
    _agree(fejer_bracket(a, 2).as_float(), fejer_bracket(fa, 2))
    _agree(conjugate_by_shift(a, 3).as_float(), conjugate_by_shift(fa, 3))
    for n in set(a.terms) | set(b.terms):
        diff = a.term(n) - b.term(n)
        _agree(CrossedElement(_G, "exact", {0: diff}).as_float(),
               CrossedElement(_G, "float", {0: fa.term(n) - fb.term(n)}))
    for t in a.terms.values():
        for p in t.coeffs.values():
            assert bool(p) is bool(p.terms)
            assert p.conjugate() == p.conj()
            assert not p - p
    assert not PhasePoly() and not PhasePoly({0: (0, 0, 1)})


def test_elements_compare_by_value_without_zeros_and_are_unhashable():
    one, zero = PhasePoly.const(1), PhasePoly.const(0)
    t = TrigPoly("exact", {0: one, 1: PhasePoly.const(F(1, 2))})
    assert TrigPoly("exact", {**t.coeffs, 2: zero}) == t
    assert TrigPoly("float", {0: 1 + 0j, 3: 0j}) == TrigPoly("float", {0: 1 + 0j})
    assert TrigPoly("exact", {1: zero}) == TrigPoly.zero("exact")
    assert TrigPoly("float", {}) != TrigPoly("exact", {})
    assert t != TrigPoly("exact", {0: one})
    a = CrossedElement(_G, "exact", {2: t})
    assert CrossedElement(_G, "exact", {2: t, 3: TrigPoly("exact", {1: zero})}) == a
    assert CrossedElement(_G, "float", {}) != CrossedElement(_G, "exact", {})
    assert CrossedElement(silver_angle(), "exact", {2: t}) != a
    assert a != CrossedElement(_G, "exact", {1: t})
    for x in (one, t, a):
        with pytest.raises(TypeError):
            hash(x)


# -- expectations ---------------------------------------------------------------


def test_expectation_mu():
    assert expectation_mu(mono(1, 2)).is_zero()
    eta = mono(0, 2, F(1, 3))
    assert expectation_mu(eta).coeffs == {2: PhasePoly.const(F(1, 3))}
    a = mono(0, 1) + mono(2, 0) + mono(-1, 1)
    assert expectation_mu(a).coeffs == {1: PhasePoly.const(1)}


def test_expectation_is_bimodule_map():
    rng = random.Random(6)
    for _ in range(20):
        a = random_exact_element(_G, rng)
        eta = mono(0, rng.randint(-2, 2), F(rng.randint(-3, 3), 2))
        etap = mono(0, rng.randint(-2, 2), F(rng.randint(-3, 3), 2))
        lhs = expectation_mu(multiply(multiply(eta, a), etap))
        rhs = multiply(
            multiply(eta, CrossedElement(_G, "exact", {0: expectation_mu(a)})),
            etap).terms.get(0, TrigPoly.zero())
        assert lhs.coeffs == rhs.coeffs


def test_expectation_canonical_round_trip():
    rng = random.Random(7)
    a = random_exact_element(_G, rng)
    ks = {k for t in a.terms.values() for k in t.coeffs}
    rebuilt = CrossedElement.zero(_G, "exact")
    for k in ks:
        for n, coeff in expectation_canonical(a, k).items():
            rebuilt = rebuilt + CrossedElement.monomial(_G, n, k, coeff)
    assert rebuilt.terms == a.terms


def test_expectation_canonical_single_term():
    a = mono(3, 5)
    fk = expectation_canonical(a, 5)
    assert list(fk) == [3]
    assert expectation_canonical(a, 4) == {}


# -- projections, degree, Cesaro means --------------------------------------------


def test_project_and_q_of():
    a = mono(0, 1) + mono(3, 0) + mono(-5, 2)
    assert q_of(a) == 3
    assert q_of(mono(0, 4)) == float("inf")
    assert set(project_qn(a, 0).terms) == {0}
    assert set(project_qn(a, 3).terms) == {0, 3}
    assert set(project_qn(a, 5).terms) == {0, 3, -5}
    assert set(project_qn(a, 1).terms) == {0}


def test_fejer_weights():
    a = mono(0, 2) + mono(1, 0)
    f1 = fejer_bracket(a, 1)
    assert f1.terms[0].coeffs == {2: PhasePoly.const(1)}
    assert f1.terms[1].coeffs == {0: PhasePoly.const(F(1, 2))}
    assert fejer_bracket(a, 9).terms[1].coeffs == {0: PhasePoly.const(F(9, 10))}
    assert set(fejer_bracket(a, 0).terms) == {0}  # layers past n are dropped


def test_fejer_error_scales_exactly():
    a = (mono(1, 0, 0.5, "float") + mono(2, 1, 0.25, "float")
         + mono(0, 0, 1.0, "float"))
    e4 = a - fejer_bracket(a, 4)
    e9 = a - fejer_bracket(a, 9)
    n4 = truncated_norm(e4, radius=10)
    n9 = truncated_norm(e9, radius=10)
    assert n9 == pytest.approx(n4 * 5 / 10, rel=1e-9)


# -- truncated representation ------------------------------------------------------


def test_norm_of_unitaries():
    assert truncated_norm(mono(1, 0, 1.0, "float"), radius=8) == pytest.approx(1.0)
    assert truncated_norm(mono(0, 1, 1.0, "float"), radius=8) == pytest.approx(1.0)
    assert truncated_norm(CrossedElement.zero(_G, "float"), radius=8) == 0.0


def test_norm_monotone_in_radius():
    rng = random.Random(8)
    from rotalg.suites import random_float_element
    for _ in range(5):
        a = random_float_element(_G, rng)
        n4 = truncated_norm(a, radius=4)
        n8 = truncated_norm(a, radius=8)
        n14 = truncated_norm(a, radius=14)
        assert n4 <= n8 + 1e-9 and n8 <= n14 + 1e-9


def test_norm_scales_linearly():
    a = mono(2, 1, 0.7, "float") + mono(-1, 0, 0.3, "float")
    assert truncated_norm(a.scale(2.0), radius=8) == pytest.approx(
        2 * truncated_norm(a, radius=8), rel=1e-9)


# -- averaging operators ------------------------------------------------------------


def test_build_averaging_stage_structure():
    L = build_averaging(1, (2,), 0.05, _G, 100)
    terms = sorted(L.terms, key=lambda t: t[1])
    assert [k for _, k in terms] == [0, 72]
    assert terms[0][0] == pytest.approx(0.5)
    assert terms[1][0] == pytest.approx(-0.5)
    assert L.weight_sum() == pytest.approx(1.0)


def test_build_averaging_empty_is_identity():
    L = build_averaging(1, (), 0.05, _G, 100)
    a = mono(2, 1, 0.5, "float")
    assert apply_averaging(L, a).terms[2].coeffs == a.terms[2].coeffs


def test_build_averaging_rejects_bad_frequencies():
    with pytest.raises(ValueError):
        build_averaging(2, (2,), 0.05, _G, 100)
    with pytest.raises(PhaseSearchFailed):
        build_averaging(1, (3,), 0.0001, _G, 5)


def test_averaging_quality():
    L = build_averaging(1, (2, 3), 0.05, _G, 200)
    e1 = mono(1, 0, 1.0, "float")
    assert truncated_norm(apply_averaging(L, e1) - e1, radius=16) < 0.05
    for r in (2, 3):
        er = mono(r, 0, 1.0, "float")
        assert truncated_norm(apply_averaging(L, er), radius=16) < 0.05


def test_averaging_general_step():
    # step two: conjugator phases are fourth/sixth roots whose squares
    # enumerate the subgroup, not subgroup elements themselves
    L = build_averaging(2, (3,), 0.05, _G, 400)
    e2 = mono(2, 0, 1.0, "float")
    e3 = mono(3, 0, 1.0, "float")
    assert truncated_norm(apply_averaging(L, e2) - e2, radius=12) < 0.05
    assert truncated_norm(apply_averaging(L, e3), radius=12) < 0.05
    L4 = build_averaging(2, (4,), 0.05, _G, 400)
    e4 = mono(4, 0, 1.0, "float")
    assert truncated_norm(apply_averaging(L4, e2) - e2, radius=12) < 0.05
    assert truncated_norm(apply_averaging(L4, e4), radius=12) < 0.05


def test_averaging_contraction():
    from rotalg.suites import random_float_element
    L = build_averaging(1, (2, 3), 0.05, _G, 200)
    rng = random.Random(9)
    for _ in range(10):
        a = random_float_element(_G, rng)
        assert truncated_norm(apply_averaging(L, a), radius=10) <= \
            truncated_norm(a, radius=10) + 1e-9


# -- derivative extraction ------------------------------------------------------------


def test_derivative_extract_pure_layer():
    b = mono(2, 1, 0.5, "float")
    res = derivative_extract(b, 5)
    assert truncated_norm(res.plus - b, radius=8) == 0.0
    assert res.minus.is_zero()


def test_derivative_extract_two_layers():
    eta = TrigPoly("float", {0: 0.05, 2: 0.03j})
    etap = TrigPoly("float", {1: 0.04, -1: 0.02})
    plus = CrossedElement(_G, "float", {1: eta})
    minus = CrossedElement(_G, "float", {-1: etap})
    res = derivative_extract(plus + minus, 8)
    # the divided-difference error is about delta/4 per unit of coefficient
    # mass; at the eighth denominator that allows 0.0207 * 0.14
    assert truncated_norm(res.plus - plus, radius=12) < 3e-3
    assert truncated_norm(res.minus - minus, radius=12) < 3e-3
    res4 = derivative_extract(plus + minus, 4)
    residual = max(truncated_norm(res.plus - plus, radius=12),
                   truncated_norm(res.minus - minus, radius=12))
    assert residual < max(truncated_norm(res4.plus - plus, radius=12),
                          truncated_norm(res4.minus - minus, radius=12))


def test_derivative_suite_norms_only_its_residuals(monkeypatch):
    # one split per pick (5, 13, 34), each measured by two radius-16 norms
    from rotalg import sandbox, suites
    radii, norm = [], sandbox.section_norm

    def counted(a, radius=32):
        radii.append(radius)
        return norm(a, radius)
    monkeypatch.setattr(sandbox, "section_norm", counted)
    monkeypatch.setattr(suites, "section_norm", counted)
    assert suites.suite_derivative(_G, n=8, seed=5)["ok"]
    assert radii == [16] * 6


def test_derivative_extract_rejects_mixed():
    with pytest.raises(ValueError):
        derivative_extract(mono(2, 0, 1.0, "float") + mono(-3, 0, 1.0, "float"))


# -- membership ------------------------------------------------------------------------


def test_membership_vanishing_layer():
    p = pt(F(1, 8))
    c = make_basic(1, ClosedCircleSet.from_points(_G, [p]))
    root = cmath.exp(2j * cmath.pi * (1 / 8))
    phi = TrigPoly("float", {1: 1.0 + 0j, 0: -root})
    a = CrossedElement(_G, "float", {1: phi})
    assert membership_test(c, a, 1e-9).ok


def test_membership_constant_fails():
    c = make_basic(1, ClosedCircleSet.from_points(_G, [pt(F(1, 8))]))
    a = mono(1, 0, 1.0, "float")
    rep = membership_test(c, a, 1e-9)
    assert not rep.ok and rep.per_frequency[1][1] > 0.5
    # off the step-2 progression the value is full: the layer must vanish
    # on the whole circle
    rep = membership_test(make_basic(2, ClosedCircleSet.from_points(_G, [pt(F(1, 8))])), a, 1e-9)
    assert not rep.ok and rep.per_frequency[1][1] == pytest.approx(1.0)


def test_membership_dual_side_always_passes():
    c = make_basic(1, ClosedCircleSet.from_points(_G, [pt(F(1, 8))]))
    eta = mono(0, 3, 2.0, "float")
    assert membership_test(c, eta, 1e-9).ok


def test_membership_arc_sampling():
    arc = ClosedCircleSet.from_components(_G, (), (Arc(pt(0), pt(F(1, 4))),))
    c = make_basic(1, arc)
    bad = mono(1, 0, 1e-3, "float")
    rep = membership_test(c, bad, 1e-6)
    assert not rep.ok
    assert rep.per_frequency[1][1] == pytest.approx(1e-3)


# -- central elements -----------------------------------------------------------------


def test_center_constant_passes():
    _, c = center_instance()
    rep = center_check(c, TrigPoly("float", {0: 2.0 + 0j}), tolerance=1e-8)
    assert rep.ok and rep.equation_max == 0.0


def test_center_shift_character_fails():
    _, c = center_instance()
    rep = center_check(c, TrigPoly.delta(1, mode="float"), tolerance=1e-8)
    assert not rep.ok
    assert rep.equation_max > 0.1


def test_center_far_bump_passes():
    _, c = center_instance()
    phi = bump_power(F(1, 2), 20)
    rep = center_check(c, phi, tolerance=1e-8)
    assert rep.ok
    assert rep.commutator_norms["witness"] < 1e-8
    # the shifted gap copies genuinely overlap for this rotation
    assert not rep.shifted_copies_disjoint and rep.notes


def test_bump_power_center_half():
    t = bump_power(F(1, 2), 3)
    # binomials over 4^3 with alternating signs: e^{-i pi k} = (-1)^k
    assert t.mode == "float"
    for k, c in ((0, 20), (1, -15), (-1, -15), (2, 6), (3, -1), (-3, -1)):
        assert abs(t.coeffs[k] - c / 64) <= 1e-15
    # ((1 + cos 0) / 2)^3 = 1 at the center
    assert abs(t.eval_at(_G, 0.5) - 1) <= 1e-15


@pytest.mark.parametrize("power", [0, 1, 7, 558])
def test_bump_power_binomials_match_math_comb(power):
    flt = bump_power(F(0), power)
    for k in range(-power, power + 1):
        base = F(math.comb(2 * power, power + k), 4 ** power)
        # zero coefficients (2**-1116 and the like underflow) are dropped
        assert flt.coeffs.get(k, 0.0) == float(base)


# -- serialization -----------------------------------------------------------------------


def test_element_json_round_trip_exact():
    rng = random.Random(10)
    el = random_exact_element(_G, rng)
    doc = json.loads(json.dumps(element_to_json(el)))
    assert element_from_json(_G, doc).terms == el.terms
    # a term whose entries sum to zero is dropped
    entries = [{"k": 0, "re": "1/2", "im": "0"}, {"k": 0, "re": "-1/2", "im": "0"}]
    assert element_from_json(_G, {"terms": [{"n": 3, "coeffs": entries}]}).terms == {}


def test_element_json_round_trip_float():
    el = mono(1, 2, 0.5 + 0.25j, "float") + mono(-3, 0, 1.5, "float")
    doc = json.loads(json.dumps(element_to_json(el)))
    got = element_from_json(_G, doc)
    assert got.terms[1].coeffs == el.terms[1].coeffs
    assert got.terms[-3].coeffs == el.terms[-3].coeffs


def test_element_from_json_refuses_an_unknown_mode_and_non_integer_indices():
    # each was read before: mode "flaot" built an element whose norm then
    # crashed, n = 1.9 was truncated to 1 and k = true read as 1
    entry = {"k": 0, "re": "1.0", "im": "0.0"}
    for doc, message in (
            ({"mode": "flaot", "terms": [{"n": 1, "coeffs": [entry]}]}, "mode must be"),
            ({"mode": "float", "terms": [{"n": 1.9, "coeffs": [entry]}]}, "n must be an integer"),
            ({"mode": "float", "terms": [{"n": 1, "coeffs": [{**entry, "k": True}]}]},
             "k must be an integer")):
        with pytest.raises(ValueError, match=message):
            element_from_json(_G, doc)


@pytest.mark.parametrize("value", [True, False, [1], None, {"re": 1}],
                         ids=["true", "false", "list", "null", "object"])
def test_json_numbers_refuse_bools_containers_and_null(value):
    # true was read as 1 and false as 0, the others raised TypeError; the
    # round trips above still read the strings element_to_json writes (a
    # float's repr, as the benchmark's float documents do)
    for mode in ("exact", "float"):
        for field in ("re", "im"):
            entry = {"k": 0, "re": "0.5", "im": "0.25", field: value}
            with pytest.raises(ValueError, match=f"{field} must be a number"):
                element_from_json(_G, {"mode": mode, "terms": [{"n": 1, "coeffs": [entry]}]})
    with pytest.raises(ValueError, match="q must be a number"):
        set_from_json(_G, {"components": [{"pt": {"q": value, "n": 0}}]})


_INF, _NAN = float("inf"), float("nan")


@pytest.mark.parametrize("mode, value", [
    ("exact", "1/0"), ("exact", _INF), ("exact", -_INF), ("exact", _NAN), ("exact", "inf"),
    ("exact", "nan"), ("exact", "1e10000000"), ("exact", "1e-10000000"), ("exact", "1E+1001"),
    ("float", _INF), ("float", _NAN), ("float", "inf"), ("float", "nan"), ("float", "1e400"),
    ("float", "-Infinity"), pytest.param("float", 10**400, id="float-10**400"),
    ("float", "3/4"),
])
def test_json_numbers_refuse_what_their_mode_cannot_read(mode, value):
    # exact "1/0" raised ZeroDivisionError and Infinity OverflowError; float
    # mode read inf and nan into the element; an exponent of 10**7 made
    # Fraction build 10**10000000 first, for seconds
    start = time.perf_counter()
    for field in ("re", "im"):
        entry = {"k": 0, "re": "0.5", "im": "0.25", field: value}
        with pytest.raises(ValueError, match=f"{field} (must be a|has a decimal exponent)"):
            element_from_json(_G, {"mode": mode, "terms": [{"n": 1, "coeffs": [entry]}]})
    if mode == "exact":
        with pytest.raises(ValueError, match="q (must be a|has a decimal exponent)"):
            set_from_json(_G, {"components": [{"pt": {"q": value, "n": 0}}]})
    assert time.perf_counter() - start < 1


def test_json_numbers_read_exponents_within_the_limit():
    from rotalg.angle import EXPONENT_LIMIT, json_number
    assert json_number(f"1e-{EXPONENT_LIMIT}", "q") == Fraction(1, 10**EXPONENT_LIMIT)
    assert json_number(f"2.5E+{EXPONENT_LIMIT}", "q") == 25 * 10**(EXPONENT_LIMIT - 1)
    assert json_number("3/4", "q") == Fraction(3, 4) and json_number(0.1, "q") == Fraction(0.1)
    # float mode reads float(text), finite values past the exact bound included
    for text in ("0.1", "1e-10000000", "1e308", "-2.5"):
        assert json_number(text, "re", exact=False) == float(text)
    assert json_number(7, "re", exact=False) == 7.0


def _compression_matrix(terms, radius, rho):
    """The compression to |u|, |v| <= radius, built entry by entry: e^{inx}
    moves u to u + n with phase exp(-2 pi i n rho v') at the target dual
    index v', and the k-th shift moves v to v + k."""
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
                    c * cmath.exp(-2j * cmath.pi * n * rho * (v + k)))
    return M


def _compression_norm(terms, radius, rho):
    """Top singular value of the compression to |u|, |v| <= radius."""
    import numpy as np
    return float(np.linalg.svd(_compression_matrix(terms, radius, rho), compute_uv=False)[0])


def _float_element(terms):
    a = CrossedElement.zero(_G, "float")
    for n, k, c in terms:
        a = a + mono(n, k, c, "float")
    return a


_SYMMETRIC = [(1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0)]


def _pattern_terms(seed):
    """The benchmark's seven-term multi-layer pattern, seeded coefficients
    of modulus in [1/2, 1]."""
    rng = random.Random(seed)
    return [(n, k, cmath.rect(rng.uniform(0.5, 1.0), rng.uniform(0, 2 * cmath.pi)))
            for n, k in ((-2, 1), (-1, -2), (-1, 0), (0, 1), (1, 2), (1, -1), (2, 0))]


def _averaged_terms(seed=9, index=0):
    """An averaged random element: its top eigenvalues are close together."""
    from rotalg.suites import random_float_element
    L = build_averaging(1, (2, 3), 0.05, _G, 200)
    rng = random.Random(seed)
    for _ in range(index + 1):
        a = apply_averaging(L, random_float_element(_G, rng))
    assert len(a.terms) > 1
    return [(n, k, c) for n, t in a.terms.items() for k, c in t.coeffs.items()]


_NORM_ELEMENTS = {"pattern": lambda: _pattern_terms(1301),
                  "symmetric": lambda: _SYMMETRIC, "averaged": _averaged_terms}


def _watch_dense(monkeypatch):
    """Record the size of each dense eigensolve, the recurrence's fallback."""
    import numpy as np
    calls, eigvalsh = [], np.linalg.eigvalsh

    def watched(A, *args, **kwargs):
        calls.append(A.shape)
        return eigvalsh(A, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigvalsh", watched)
    return calls


def test_norm_lanczos_branch_matches_dense_svd_on_symmetric_element():
    # U + U* + V + V* at radius 18 (N = 1369): a constant start vector
    # misses its top eigenvector (2.5951130)
    ref = _compression_norm(_SYMMETRIC, 18, _G.float_value())
    assert ref == pytest.approx(2.5951366, abs=1e-6)
    assert truncated_norm(_float_element(_SYMMETRIC), radius=18) == pytest.approx(ref, abs=1e-9)


@pytest.mark.parametrize("radius, arpack_before", [(7, False), (8, True)])
def test_norm_solver_split_at_radius_8_matches_dense_svd(monkeypatch, radius, arpack_before):
    # arpack_before marks the side of the former split: radius 7 (N = 225)
    # was the largest box of the dense solve and radius 8 (N = 289) the
    # smallest of ARPACK; both are now answered by the one recurrence,
    # within its 4N steps
    import scipy.linalg
    steps, tridiagonal = [], scipy.linalg.eigh_tridiagonal

    def watched(d, e, **kwargs):
        steps.append(len(d))
        return tridiagonal(d, e, **kwargs)
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", watched)
    calls = _watch_dense(monkeypatch)
    terms = _pattern_terms(1301)
    ref = _compression_norm(terms, radius, _G.float_value())
    assert truncated_norm(_float_element(terms), radius=radius) == pytest.approx(ref, abs=1e-9)
    N = (2 * radius + 1) ** 2
    assert calls == [] and 0 < steps[-1] < 4 * N


@pytest.mark.parametrize("radius", range(1, 11))
@pytest.mark.parametrize("element", sorted(_NORM_ELEMENTS))
def test_norm_matches_dense_svd_across_the_split(monkeypatch, element, radius):
    # every multi-layer box from N = 9 to N = 441, the radii the benchmark
    # checks against the dense SVD, is answered by the recurrence itself
    calls = _watch_dense(monkeypatch)
    terms = _NORM_ELEMENTS[element]()
    ref = _compression_norm(terms, radius, _G.float_value())
    assert truncated_norm(_float_element(terms), radius=radius) == pytest.approx(ref, abs=1e-9)
    assert calls == []


@pytest.mark.parametrize("element", ["symmetric", "averaged"])
def test_norm_lanczos_at_radius_12_matches_dense_svd(monkeypatch, element):
    calls = _watch_dense(monkeypatch)
    terms = _NORM_ELEMENTS[element]()
    ref = _compression_norm(terms, 12, _G.float_value())
    assert truncated_norm(_float_element(terms), radius=12) == pytest.approx(ref, abs=1e-9)
    assert calls == []


def test_norm_converges_on_a_near_multiple_top_eigenvalue(monkeypatch):
    # the top three eigenvalues of this element's Gram agree to 7e-11
    # relative at radius 12: restarted Lanczos (ARPACK, 48 vectors) ran
    # out of 100 restarts here
    calls = _watch_dense(monkeypatch)
    terms = _averaged_terms(seed=1, index=17)
    ref = _compression_norm(terms, 12, _G.float_value())
    assert truncated_norm(_float_element(terms), radius=12) == pytest.approx(ref, abs=1e-9)
    assert calls == []


def test_norm_reaches_the_top_of_a_dense_cluster(monkeypatch):
    # 38 eigenvalues of this element's Gram lie within 4e-7 of the top at
    # radius 16; restarted Lanczos on the real form converged to one 2.3e-5
    # below them and returned a norm 1.1e-5 low
    import numpy as np
    terms = _averaged_terms(seed=7, index=2)
    M = _compression_matrix(terms, 16, _G.float_value())
    ref = math.sqrt(np.linalg.eigvalsh(M.conj().T @ M)[-1])
    calls = _watch_dense(monkeypatch)
    assert truncated_norm(_float_element(terms), radius=16) == pytest.approx(ref, abs=1e-9)
    assert calls == []


@pytest.mark.parametrize("element", sorted(_NORM_ELEMENTS))
def test_norm_falls_back_to_dense_when_arpack_fails(monkeypatch, element):
    # the recurrence never passes its residual test: |s_j| = 1 leaves
    # beta_j, which stays far above 1e-11 theta, so the dense solve answers
    # after 4N steps
    import numpy as np
    import scipy.linalg
    terms = _NORM_ELEMENTS[element]()
    steps, tridiagonal = [], scipy.linalg.eigh_tridiagonal

    def unconverged(d, e, **kwargs):
        steps.append(len(d))
        theta, s = tridiagonal(d, e, **kwargs)
        return theta, np.ones_like(s)
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", unconverged)
    calls = _watch_dense(monkeypatch)
    ref = _compression_norm(terms, 12, _G.float_value())
    assert truncated_norm(_float_element(terms), radius=12) == pytest.approx(ref, abs=1e-9)
    assert (steps[-1], calls) == (4 * 625, [(625, 625)])


@pytest.mark.parametrize("radius", [6, 11, 14])
def test_norm_of_element_outside_the_box_is_zero(radius):
    # both layers live, every dual frequency beyond 2 * radius: the
    # compression is the zero matrix, and no solve runs
    terms = [(0, 30, 1.0), (1, -30, 0.5j)]
    assert truncated_norm(_float_element(terms), radius=radius) == 0.0


# -- the orbit section --------------------------------------------------------------


def _section_reference(terms, radius, rho, x=0.0):
    """Top singular value of P pi_x(a) P, P onto e_j with |j| <= radius, built
    entry by entry from pi_x(a) e_j = sum c_{n,k} e^{2 pi i n (x - (j+k) rho)} e_{j+k}."""
    import numpy as np
    dim = 2 * radius + 1
    H = np.zeros((dim, dim), dtype=complex)
    for n, k, c in terms:
        for j in range(-radius, radius + 1):
            if abs(j + k) <= radius:
                H[j + k + radius, j + radius] += (
                    c * cmath.exp(2j * cmath.pi * n * (x - (j + k) * rho)))
    return float(np.linalg.svd(H, compute_uv=False)[0])


@pytest.mark.parametrize("radius", [0, 3, 8, 12])
@pytest.mark.parametrize("element", sorted(_NORM_ELEMENTS))
def test_section_norm_matches_entry_by_entry_section(element, radius):
    terms = _NORM_ELEMENTS[element]()
    ref = _section_reference(terms, radius, _G.float_value())
    assert section_norm(_float_element(terms), radius=radius) == pytest.approx(ref, abs=1e-9)


@pytest.mark.parametrize("element", sorted(_NORM_ELEMENTS))
def test_section_norm_monotone_in_radius(element):
    # the sections are nested compressions of one operator
    a = _float_element(_NORM_ELEMENTS[element]())
    norms = [section_norm(a, radius=r) for r in range(17)]
    assert all(lo <= hi + 1e-12 for lo, hi in zip(norms, norms[1:]))


@pytest.mark.parametrize("k", [-5, -4, 0, 3, 4, 5])
def test_section_norm_of_monomial(k):
    # one entry of modulus |c| per column while the shift stays in the
    # section, none once |k| > 2R
    c = 0.6 - 0.8j
    a = mono(3, k, c, "float")
    want = abs(c) if abs(k) <= 4 else 0.0
    assert section_norm(a, radius=2) == pytest.approx(want, abs=1e-12)


def test_section_norm_scales_with_the_modulus():
    a = _float_element(_pattern_terms(1301))
    lam = -2.5 + 1j
    assert section_norm(a.scale(lam), radius=8) == pytest.approx(
        abs(lam) * section_norm(a, radius=8), rel=1e-12)


def test_section_norm_at_most_the_coefficient_mass():
    from rotalg.suites import random_float_element
    rng = random.Random(16)
    for _ in range(20):
        a = random_float_element(_G, rng)
        mass = sum(abs(c) for t in a.terms.values() for c in t.coeffs.values())
        assert section_norm(a, radius=10) <= mass * (1 + 1e-12)


def test_section_and_box_agree_on_a_single_layer():
    # one layer compresses to the same block in both: the center and
    # averaging suites' single-layer norms did not move with the switch
    t = TrigPoly("float", {-2: 0.3j, 0: 0.5, 3: -0.25 + 0.1j})
    a = CrossedElement(_G, "float", {4: t})
    assert section_norm(a, radius=12) == truncated_norm(a, radius=12)
