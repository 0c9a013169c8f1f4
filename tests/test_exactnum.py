"""Gaussian-rational scalars against the Fraction-pair model in oracles."""
import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

import oracles
from rotalg.exactnum import (PhasePoly, qi, qi_add, qi_addmul, qi_conj, qi_div, qi_frac,
                             qi_is_zero, qi_mul, qi_neg, qi_parts, qi_to_complex)
from rotalg.sandbox import CrossedElement, element_from_json, element_to_json

F = Fraction

# small parts collide often (for equality); large ones exercise the gcd
small = st.builds(F, st.integers(-3, 3), st.integers(1, 4))
large = st.builds(F, st.integers(-10**12, 10**12), st.integers(1, 10**9))
parts = st.one_of(small, large)
pairs = st.tuples(parts, parts)
small_pairs = st.tuples(small, small)


def assert_canonical(a):
    assert len(a) == 3 and all(type(x) is int for x in a)
    assert a[2] > 0 and gcd(*a) == 1


@given(pairs)
def test_qi_is_canonical_and_round_trips(a):
    x = qi(*a)
    assert_canonical(x)
    assert qi_parts(x) == a


@given(st.integers(-10**12, 10**12), st.integers(1, 10**9),
       st.integers(-10**12, 10**12), st.integers(1, 10**9))
def test_qi_frac_is_qi_of_two_fractions(a, b, c, d):
    x = qi_frac(a, b, c, d)
    assert_canonical(x)
    assert x == qi(F(a, b), F(c, d))


def test_qi_frac_zero_negative_and_reducible_cases():
    assert qi_frac(0, 4, 0, 6) == qi(0) == (0, 0, 1)
    assert qi_frac(-6, 4) == qi(F(-6, 4)) == (-3, 0, 2)
    assert qi_frac(6, 4, -9, 6) == qi(F(6, 4), F(-9, 6)) == (3, -3, 2)
    assert qi_frac(0, 3, -4, 2) == qi(0, F(-4, 2)) == (0, -2, 1)
    assert qi_frac(2, 4, 3, 9) == qi(F(2, 4), F(3, 9)) == (3, 2, 6)
    assert qi_frac(-5, 7, 5, 7) == qi(F(-5, 7), F(5, 7)) == (-5, 5, 7)


@given(pairs, pairs)
def test_binary_ops_agree_with_the_model(a, b):
    for op, model in ((qi_add, oracles.gq_add), (qi_mul, oracles.gq_mul)):
        out = op(qi(*a), qi(*b))
        assert_canonical(out)
        assert qi_parts(out) == model(a, b)
    if not oracles.gq_is_zero(b):
        out = qi_div(qi(*a), qi(*b))
        assert_canonical(out)
        assert qi_parts(out) == oracles.gq_div(a, b)


@given(pairs)
def test_unary_ops_agree_with_the_model(a):
    x = qi(*a)
    assert qi_parts(qi_neg(x)) == oracles.gq_neg(a)
    assert qi_parts(qi_conj(x)) == oracles.gq_conj(a)
    assert_canonical(qi_neg(x))
    assert_canonical(qi_conj(x))
    assert qi_is_zero(x) == oracles.gq_is_zero(a)
    assert qi_to_complex(x) == oracles.gq_to_complex(a)


@given(small_pairs, small_pairs, small_pairs, small_pairs)
def test_equality_is_equality_of_values(a, b, c, d):
    # two values reached by different operations
    x, y = qi_mul(qi(*a), qi(*b)), qi_add(qi(*c), qi(*d))
    assert (x == y) == (oracles.gq_mul(a, b) == oracles.gq_add(c, d))
    assert (qi(*a) == qi(*c)) == (a == c)


def test_equality_after_cancellation():
    half = qi(F(1, 2))
    assert qi_add(half, half) == qi(1) == (1, 0, 1)
    assert qi_add(qi(F(1, 6), F(1, 3)), qi(F(1, 3), F(-1, 3))) == qi(F(1, 2))
    assert qi_mul(qi(0, 1), qi(0, 1)) == qi(-1)
    assert qi_add(qi(F(5, 7), 2), qi(F(-5, 7), -2)) == qi(0) == (0, 0, 1)
    # (1 + z)(1 - z) = 1 - z**2: the z terms cancel and are dropped
    product = PhasePoly({0: qi(1), 1: qi(1)}) * PhasePoly({0: qi(1), 1: qi(-1)})
    assert product.terms == {0: qi(1), 2: qi(-1)}


@given(pairs, pairs, pairs)
def test_qi_addmul_is_add_of_mul(x, c, y):
    out = qi_addmul(qi(*x), qi(*c), qi(*y))
    assert_canonical(out)
    assert out == qi_add(qi(*x), qi_mul(qi(*c), qi(*y)))


def test_qi_addmul_with_zero_operands_and_result():
    x, c, zero = qi(F(2, 3), -1), qi(F(1, 2), F(1, 5)), qi(0)
    assert qi_addmul(x, c, zero) is x
    assert qi_addmul(zero, c, x) == qi_mul(c, x)
    assert qi_addmul(qi_neg(qi_mul(c, x)), c, x) == zero == (0, 0, 1)


@given(pairs)
def test_division_by_zero_raises(a):
    with pytest.raises(ZeroDivisionError):
        qi_div(qi(*a), qi(0))


terms = st.dictionaries(st.integers(-3, 3), pairs, max_size=4)


@given(terms)
def test_phasepoly_repr_matches_the_fraction_rendering(ts):
    live = {j: a for j, a in ts.items() if not oracles.gq_is_zero(a)}
    expected = " + ".join(f"({re}{'+' if im >= 0 else ''}{im}i)z^{j}"
                          for j, (re, im) in sorted(live.items())) or "0"
    assert repr(PhasePoly({j: qi(*a) for j, a in ts.items()})) == expected


@given(terms, st.integers(-3, 3), st.integers(-3, 3))
def test_element_json_matches_the_fraction_rendering(golden, ts, n, k):
    live = {j: a for j, a in ts.items() if not oracles.gq_is_zero(a)}
    c = PhasePoly({j: qi(*a) for j, a in ts.items()})
    x = CrossedElement.monomial(golden, n, k, c, mode="exact")
    doc = element_to_json(x)
    entries = []
    for j in sorted(live):
        e = {"k": k, "re": str(live[j][0]), "im": str(live[j][1])}
        if j:
            e["zeta"] = j
        entries.append(e)
    assert doc == {"mode": "exact", "terms": [{"n": n, "coeffs": entries}] if live else []}
    back = element_from_json(golden, json.loads(json.dumps(doc)))
    assert back == x
