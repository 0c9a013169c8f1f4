"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expected values marked as derived were computed with the
independent exponent/float oracles in oracles.py or by direct analysis
(criterion 04's critical set {6} and its value at 6 are both: see its
docstring); tolerances are pinned here, not tuned at runtime.
"""
import random
import time
from fractions import Fraction

from rotalg import (Arc, ClosedCircleSet, canonical_decomposition,
                    check_c_closed, check_closed, classify_algebra, close,
                    closed_join, golden_angle, make_basic, make_ideal_IQ,
                    meet, naive_join, omega, q_intersection, silver_angle,
                    simplicity_report, support, values_equal,
                    window_function)
from rotalg.circleset import pt
from rotalg.suites import (suite_averaging, suite_center, suite_derivative,
                           suite_fejer, suite_finite_group, suite_membership,
                           suite_ring_laws)

import oracles

F = Fraction
_G = golden_angle()
_S = silver_angle()


def _report(num, ok, detail=""):
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'}  {detail}")


def orbit_set(*exps, base=F(1, 7)):
    return ClosedCircleSet.from_points(_G, [pt(base, e) for e in exps])


def test_criterion_01_basic_closure_randomized():
    """Randomized basics satisfy the closure axioms on window 12, exactly."""
    t0 = time.monotonic()
    rng = random.Random(2024)
    ok = True
    for _ in range(20):
        q = rng.choice([1, 2, 3])
        pts = [pt(F(rng.randint(0, 11), 12), rng.randint(-3, 3))
               for _ in range(rng.randint(1, 3))]
        c = make_basic(q, ClosedCircleSet.from_points(_G, pts))
        ok = ok and check_closed(c, 12).ok
    for _ in range(5):
        a = pt(F(rng.randint(0, 9), 10), rng.randint(-2, 2))
        b = pt(F(rng.randint(0, 9), 10), rng.randint(-2, 2))
        if a == b:
            b = b.shift(1)
        c = make_basic(rng.choice([1, 2, 3]),
                       ClosedCircleSet.from_components(_G, (), (Arc(a, b),)))
        ok = ok and check_closed(c, 12).ok
    elapsed = time.monotonic() - t0
    _report(1, ok and elapsed < 10, f"25 instances in {elapsed:.2f}s")
    assert ok
    assert elapsed < 10


def test_criterion_02_orbit_point_join():
    """The neighbouring orbit-point pair: displayed naive values, the
    closedness defect at (1, 1), and the collapsing certified join."""
    b1 = make_basic(1, orbit_set(0))
    b1t = make_basic(1, orbit_set(1))
    nj = naive_join(b1, b1t)
    values_ok = True
    for n in range(-6, 7):
        got = frozenset(p.n for p in nj.value_set(n).points)
        if abs(n) <= 1:
            expect = frozenset()
        elif n >= 2:
            expect = frozenset(range(-n + 2, 1))
        else:
            expect = frozenset(range(2, -n + 1))
        values_ok = values_ok and got == expect
    rep = check_closed(nj, 6)
    witness_ok = (not rep.ok) and ("product", 1, 1) in rep.violations
    j = closed_join(b1, b1t, window=6, depth=4)
    join_ok = (j.certificate.exact and j.certificate.depth <= 4
               and all(j.value_set(n).is_empty() for n in range(-6, 7)))
    _report(2, values_ok and witness_ok and join_ok,
            f"depth used {j.certificate.depth}")
    assert values_ok and witness_ok and join_ok


def test_criterion_03_small_join_blowup():
    """Joining two disjoint-arc basics blows up to the whole algebra."""
    P = ClosedCircleSet.from_components(_G, (), (Arc(pt(0), pt(F(1, 5))),))
    Q = ClosedCircleSet.from_components(_G, (), (Arc(pt(F(2, 5)), pt(F(3, 5))),))
    j = closed_join(make_basic(1, P), make_basic(1, Q), window=6)
    v, cert = j.value(1)
    ok = v.is_empty() and cert.exact
    _report(3, ok, f"value at 1 empty={v.is_empty()} cert={cert.status}")
    assert ok


def test_criterion_04_canonical_decomposition_of_meet():
    """Decomposition of the meet of the step-2 and step-3 point basics.

    The meet is the pointwise union of values, so it is full wherever
    either operand is: the step-2 basic is full off 2Z and the step-3
    basic off 3Z, hence the meet is supported on 6Z.  The decomposition
    starts from the trivial function (full off 0), so an index where the
    meet is full is never critical; in particular neither 2 nor 3 is.  At
    6k the meet's value is the union over j < k of its value at 6,
    exponents {0, -2, -3, -4}, shifted by -6j: the meet is the basic
    generated by its value at 6.  The critical set is therefore exactly
    {6}; the critical value is checked against the exponent oracle, and
    the basics must re-join to the meet exactly.
    """
    c = meet(make_basic(2, orbit_set(0)), make_basic(3, orbit_set(0)))
    rep = canonical_decomposition(c, 12)
    crit = {n for n, _ in rep.critical}
    rejoin_ok = rep.rejoin_ok and rep.certificate.exact
    expect_at_6 = oracles.meet_value(
        lambda m: oracles.basic_value(2, frozenset([0]), m),
        lambda m: oracles.basic_value(3, frozenset([0]), m), 6)
    got = [oracles.to_exponents(v, F(1, 7), 0) for _, v in rep.critical]
    value_ok = got == [expect_at_6]
    ok = rejoin_ok and crit == {6} and value_ok
    _report(4, ok, f"crit={sorted(crit)} rejoin={rejoin_ok}")
    assert rejoin_ok
    assert crit == {6}, (
        "the meet is full off 6Z (each operand is full off its own step) "
        "and equals the basic generated by its value at 6, so the only "
        "index where the trivial start disagrees with it is 6")
    assert value_ok, (
        f"critical values {got} differ from the oracle's meet value at 6, "
        f"{expect_at_6}")


def test_criterion_05_simplicity():
    """One-point basics are simple; the half-circle silver basic is not,
    with a working ideal witness."""
    simple_ok = simplicity_report(make_basic(1, orbit_set(0)), 10).verdict == "simple"
    half = ClosedCircleSet.from_components(_S, (), (Arc(pt(0), pt(F(1, 2))),))
    c = make_basic(1, half)
    Q, cert = q_intersection(c, 10)
    q_ok = (cert.exact and not Q.is_empty()
            and Q == ClosedCircleSet.from_components(
                _S, (), (Arc(pt(0, 1), pt(F(1, 2))),)))
    rep = simplicity_report(c, 10)
    witness_ok = (rep.verdict == "not-simple" and rep.witness is not None
                  and check_c_closed(rep.witness, 10).ok)
    _report(5, simple_ok and q_ok and witness_ok,
            f"Q={Q.float_components()[1]}")
    assert simple_ok and q_ok and witness_ok


def test_criterion_06_residual_structure():
    """Randomized residual joins: exact certificates, subgroup support,
    zero-slice domination, and confinement of ideal values."""
    rng = random.Random(99)
    all_ok = True
    for _ in range(10):
        q = rng.randint(1, 3)
        blk = q + rng.randint(0, 2)
        base = pt(F(rng.randint(0, 8), 9), rng.randint(-1, 1))
        P = ClosedCircleSet.from_points(_G, [base.shift(k) for k in range(blk + 1)])
        c = make_basic(q, P)
        partner = make_basic(2 * q, c.value_set(2 * q))
        j = closed_join(c, partner, window=10)
        all_ok = all_ok and j.certificate.exact
        all_ok = all_ok and classify_algebra(j, 10).verdict == "residual"
        members = set(support(j, 10).members)
        for m in members:
            for n in members:
                if abs(m + n) <= 10:
                    all_ok = all_ok and (m + n) in members
        Qb = q_intersection(c, 10)[0]
        assert not Qb.is_empty()  # block length >= step guarantees overlap
        w = make_ideal_IQ(j, Qb, window=10)
        all_ok = all_ok and check_c_closed(w, 10).ok
        om, _ = omega(j, 10)
        full = ClosedCircleSet.full_circle(_G)
        j_members = {k for k in range(-10, 11) if w.value_set(k) != full}
        all_ok = all_ok and j_members == members  # equal supports
        for k in range(-10, 11):
            all_ok = all_ok and w.value_set(k).contains_set(w.value_set(0))
            if k in members:
                all_ok = all_ok and om.contains_set(w.value_set(k))
    _report(6, all_ok, "10 randomized residual joins")
    assert all_ok


def test_criterion_07_ring_laws():
    """500 exact triples: associativity, distributivity, the adjoint
    anti-homomorphism and the product expectation identity, all literal."""
    rep = suite_ring_laws(_G, n=500, seed=7)
    _report(7, rep["ok"], f"failures={rep['failures']}")
    assert rep["ok"]


def test_criterion_08_fejer():
    """Cesaro means of a degree-8 element: monotone section-norm error,
    final ratio under 0.15, low-frequency convergence under 1e-2."""
    t0 = time.monotonic()
    rep = suite_fejer(_G, n=64)
    elapsed = time.monotonic() - t0
    ok = (rep["ok"] and rep["monotone"]
          and rep["final_error"] <= 0.15 * rep["initial_error"]
          and rep["q2_final_error"] < 1e-2 and elapsed < 30)
    _report(8, ok, f"ratio={rep['final_ratio']:.4f} "
                   f"q2={rep['q2_final_error']:.2e} in {elapsed:.1f}s")
    assert ok


def test_criterion_09_averaging():
    """Frequency-selecting averaging: preserves the first layer, damps the
    second and third under 0.05, and never increases the section norm."""
    rep = suite_averaging(_G, n=50)
    ok = (rep["ok"] and rep["eps"] == 0.05 and rep["weights"] == 6
          and rep["preserve_error"] < 0.05
          and all(v < 0.05 for v in rep["kill_errors"].values())
          and rep["contraction_excess"] <= 1e-9)
    _report(9, ok, f"preserve={rep['preserve_error']:.4f} "
                   f"kills={ {k: round(v, 4) for k, v in rep['kill_errors'].items()} } "
                   f"excess={rep['contraction_excess']:.1e}")
    assert ok


def test_criterion_10_derivative_extraction():
    """Two-layer splitting at the Fibonacci denominators 5, 13, 34:
    residuals decrease and end under 1e-2."""
    rep = suite_derivative(_G, n=8, seed=5)
    picks = [nj for nj, _ in rep["residuals"]]
    ok = (rep["ok"] and picks == [5, 13, 34] and rep["decreasing"]
          and rep["final_residual"] < 1e-2)
    _report(10, ok, f"residuals={[(nj, round(r, 5)) for nj, r in rep['residuals']]}")
    assert ok


def test_criterion_11_center():
    """The arc-complement instance at the one-fifth silver rotation: a
    glued far bump is central within 1e-8, constants pass, the first
    shift character fails."""
    rep = suite_center(tolerance=1e-8)
    c = rep["constructed"]
    ok = (rep["ok"] and c["ok"] and all(v < 1e-8 for v in c["commutators"].values())
          and rep["constant_ok"] and rep["shift_character_fails"])
    _report(11, ok, f"commutators={ {k: f'{v:.1e}' for k, v in c['commutators'].items()} }")
    assert ok


def test_criterion_12_finite_group():
    """Finite-group suite: compressed algebra meets the functions only in
    scalars with a strictly larger expectation image, the two-point model
    is rigid over 1000 generators, and invariant-ideal algebras differ
    from every subgroup crossed product."""
    t0 = time.monotonic()
    rep = suite_finite_group(trials=1000)
    elapsed = time.monotonic() - t0
    bi = rep["bi"]
    ok = (rep["ok"] and bi["functions_intersection_dim"] == 1
          and bi["expectation_image_dim"] >= 2
          and rep["m2"]["trials"] == 1000 and rep["m2"]["all_full"]
          and rep["subgroup"]["distinct"] and elapsed < 5)
    # the displayed evaluations of the compressed indicator at the fixed
    # point and on the swapped orbit
    from rotalg.exactnum import qi, qi_is_zero, qi_parts
    from rotalg.finitegroup import (FiniteAction, elem_mul,
                                    expectation_onto_functions,
                                    function_element, group_algebra_element)
    action = FiniteAction.swap_two_fix_one()
    eta = group_algebra_element(action, {1: qi(1), 0: qi(-1)})
    f = function_element(action, [0, 0, 1])
    e = expectation_onto_functions(elem_mul(elem_mul(eta, f), eta))
    ok = ok and qi_parts(e[2])[0] >= 1 and qi_is_zero(e[0])
    _report(12, ok, f"bi dims=({bi['functions_intersection_dim']}, "
                    f"{bi['expectation_image_dim']}) in {elapsed:.2f}s")
    assert ok


def test_criterion_13_closure_laws_and_membership():
    """Headline coverage: the closure operator is extensive, monotone and
    idempotent at exact certificates; meets of closed functions stay
    closed; sandbox membership agrees with the prescribed zero sets on 20
    randomized pairs."""
    rng = random.Random(11)
    laws_ok = True
    for _ in range(5):
        base = pt(F(rng.randint(0, 6), 7), rng.randint(-1, 1))
        P1 = ClosedCircleSet.from_points(_G, [base])
        P2 = ClosedCircleSet.from_points(_G, [base, base.shift(1)])
        w1 = window_function(_G, {1: P1, -1: P1.rotate(1)})
        w2 = window_function(_G, {1: P2, -1: P2.rotate(1)})
        cl1, c1 = close(w1, window=5)
        cl2, c2 = close(w2, window=5)
        laws_ok = laws_ok and c1.exact and c2.exact
        for n in range(-5, 6):
            laws_ok = laws_ok and w1.value_set(n).contains_set(cl1.value_set(n))
            laws_ok = laws_ok and cl2.value_set(n).contains_set(cl1.value_set(n))
        again, cagain = close(cl1, window=5)
        laws_ok = laws_ok and cagain.exact and values_equal(again, cl1, 5)

    meets_ok = True
    for _ in range(5):
        qa, qb = rng.randint(1, 3), rng.randint(1, 3)
        Pa = ClosedCircleSet.from_points(
            _G, [pt(F(rng.randint(0, 6), 7), rng.randint(-1, 1))])
        Pb = ClosedCircleSet.from_points(
            _G, [pt(F(rng.randint(0, 6), 7), rng.randint(-1, 1))])
        meets_ok = meets_ok and check_closed(
            meet(make_basic(qa, Pa), make_basic(qb, Pb)), 6).ok

    mem = suite_membership(_G, n=20, seed=11)
    ok = laws_ok and meets_ok and mem["ok"]
    _report(13, ok, f"membership pairs={mem['pairs']}")
    assert ok
