import cmath
import json
import random
from fractions import Fraction

import pytest

from rotalg import (Arc, ClosedCircleSet, CrossedElement, TrigPoly, adjoint,
                    apply_averaging, build_averaging, center_check,
                    element_from_json, element_to_json, expectation_canonical,
                    expectation_mu, fejer_bracket, golden_angle, make_basic,
                    membership_test, multiply, project_qn, q_of,
                    truncated_norm)
from rotalg.circleset import pt
from rotalg.exactnum import PhasePoly
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


def test_conjugation_phase_law():
    rng = random.Random(5)
    a = random_exact_element(_G, rng)
    ca = conjugate_by_shift(a, 4)
    for n, t in a.terms.items():
        assert ca.terms[n].coeffs == t.scale(PhasePoly.unit(4 * n)).coeffs


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
    assert len(res.steps) >= 2
    assert res.steps[-1][1] < res.steps[0][1]


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
    rep = center_check(c, TrigPoly("float", {0: 2.0 + 0j}), grid=128)
    assert rep.ok and rep.equation_max == 0.0


def test_center_shift_character_fails():
    _, c = center_instance()
    rep = center_check(c, TrigPoly.delta(1, mode="float"), grid=128)
    assert not rep.ok
    assert rep.equation_max > 0.1


def test_center_far_bump_passes():
    angle, c = center_instance()
    phi = bump_power(angle, F(1, 2), 20, mode="float")
    rep = center_check(c, phi, grid=128, tolerance=1e-8)
    assert rep.ok
    assert rep.commutator_norms["witness"] < 1e-8
    assert rep.commutator_norms["shift"] < 1e-12
    # the shifted gap copies genuinely overlap for this rotation
    assert not rep.shifted_copies_disjoint and rep.notes


def test_bump_power_exact_center_half():
    t = bump_power(_G, F(1, 2), 3, mode="exact")
    # binomials over 4^3 with alternating signs
    assert t.coeffs[0] == PhasePoly.const(F(20, 64))
    assert t.coeffs[1] == PhasePoly.const(F(-15, 64))
    assert t.coeffs[3] == PhasePoly.const(F(-1, 64))
    with pytest.raises(ValueError):
        bump_power(_G, F(1, 3), 3, mode="exact")


# -- serialization -----------------------------------------------------------------------


def test_element_json_round_trip_exact():
    rng = random.Random(10)
    el = random_exact_element(_G, rng)
    doc = json.loads(json.dumps(element_to_json(el)))
    assert element_from_json(_G, doc).terms == el.terms


def test_element_json_round_trip_float():
    el = mono(1, 2, 0.5 + 0.25j, "float") + mono(-3, 0, 1.5, "float")
    doc = json.loads(json.dumps(element_to_json(el)))
    got = element_from_json(_G, doc)
    assert got.terms[1].coeffs == el.terms[1].coeffs
    assert got.terms[-3].coeffs == el.terms[-3].coeffs


def _compression_norm(terms, radius, rho):
    """Top singular value of the compression to |u|, |v| <= radius, built
    entry by entry: e^{inx} moves u to u + n with phase exp(-2 pi i n rho v')
    at the target dual index v', and the k-th shift moves v to v + k."""
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
    return float(np.linalg.svd(M, compute_uv=False)[0])


def test_norm_lanczos_branch_matches_dense_svd_on_symmetric_element():
    # U + U* + V + V* at radius 18 (N = 1369 > 1200, the Lanczos branch):
    # a constant start vector misses its top eigenvector (2.5951130)
    terms = [(1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0)]
    a = CrossedElement.zero(_G, "float")
    for n, k, c in terms:
        a = a + mono(n, k, c, "float")
    ref = _compression_norm(terms, 18, _G.float_value())
    assert ref == pytest.approx(2.5951366, abs=1e-6)
    assert truncated_norm(a, radius=18) == pytest.approx(ref, abs=1e-9)
