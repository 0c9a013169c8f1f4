import itertools
import random
from fractions import Fraction

import pytest

from rotalg import (FiniteAbelianGroup, FiniteAction, augmentation_ideal,
                    build_BI, check_no_intermediate_M2,
                    check_not_from_subgroup, extend_ideal)
from rotalg.exactnum import qi, qi_is_zero, qi_parts, qi_to_complex
from rotalg.finitegroup import (CrossedMatrixElement, IdealReport, elem_adj, elem_mul,
                                expectation_onto_functions,
                                expectation_weighted, function_element,
                                group_algebra_element, regular_matrix,
                                _ideal_report, _in_span, _m2_adj, _m2_mul, _rank,
                                _rref, _span_closure)

F = Fraction


def rand_element(action, rng):
    coeffs = {}
    for g in action.group.elements:
        coeffs[g] = tuple(qi(F(rng.randint(-4, 4), rng.randint(1, 3)),
                             F(rng.randint(-4, 4), rng.randint(1, 3)))
                          for _ in range(action.npoints))
    return CrossedMatrixElement(action, coeffs)


# -- model sanity -------------------------------------------------------------


def test_covariance_rule():
    action = FiniteAction.swap_two_fix_one()
    f = function_element(action, [1, 2, 3])
    s = group_algebra_element(action, {1: 1})
    # shift * f * shift^{-1} = f composed with the swap
    conj = elem_mul(elem_mul(s, f), elem_adj(s))
    assert conj.coeffs[0] == (qi(2), qi(1), qi(3))


def test_regular_representation_is_multiplicative():
    action = FiniteAction.swap_two_fix_one()
    rng = random.Random(0)
    for _ in range(5):
        a, b = rand_element(action, rng), rand_element(action, rng)
        import numpy as np
        def mat(x):
            M = regular_matrix(x)
            return np.array([[qi_to_complex(c) for c in row]
                             for row in M])
        assert np.allclose(mat(elem_mul(a, b)), mat(a) @ mat(b))


def test_expectations_idempotent_positive_equivariant():
    action = FiniteAction.swap_two_fix_one()
    rng = random.Random(1)
    for _ in range(10):
        a = rand_element(action, rng)
        aa = elem_mul(elem_adj(a), a)
        diag = expectation_onto_functions(aa)
        # positivity of the canonical expectation on squares
        assert all(im == 0 and re >= 0 for re, im in map(qi_parts, diag))
        # idempotence: restricting to the function part fixes it
        f = CrossedMatrixElement(action, {action.group.identity: diag})
        assert expectation_onto_functions(f) == diag
        # equivariance under shift conjugation
        s = group_algebra_element(action, {1: 1})
        conj = elem_mul(elem_mul(s, a), elem_adj(s))
        lhs = expectation_onto_functions(conj)
        ginv = action.group.inverse[1]
        rhs = tuple(expectation_onto_functions(a)[action.apply(ginv, x)]
                    for x in range(action.npoints))
        assert lhs == rhs
        # the weighted expectation lands in the group algebra and is
        # idempotent on it
        w = expectation_weighted(a)
        ga = group_algebra_element(action, w)
        assert expectation_weighted(ga) == w


# -- augmentation ideals ---------------------------------------------------------


def test_augmentation_z2():
    rep = augmentation_ideal(FiniteAbelianGroup.cyclic(2))
    assert rep.dimension == 1 and rep.two_sided and rep.proper
    assert rep.basis == [{1: qi(1), 0: qi(-1)}]


def test_augmentation_z3():
    rep = augmentation_ideal(FiniteAbelianGroup.cyclic(3))
    assert rep.dimension == 2 and rep.two_sided and rep.proper


def test_augmentation_trivial_group_rejected():
    with pytest.raises(ValueError):
        augmentation_ideal(FiniteAbelianGroup.cyclic(1))


# -- the compressed intermediate algebra -------------------------------------------


def bi_generators(action, ideal_basis):
    """The shifts and every eta * (point function) * eta' over the basis."""
    gens = [group_algebra_element(action, {g: 1}) for g in action.group.elements]
    for eta, etap in itertools.product(ideal_basis, repeat=2):
        for x in range(action.npoints):
            f = function_element(action, [int(y == x) for y in range(action.npoints)])
            gens.append(elem_mul(elem_mul(group_algebra_element(action, eta), f),
                                 group_algebra_element(action, etap)))
    return gens


def assert_product_closed(gens, basis, rows):
    """rows is the reduced span of basis, contains the generators, and
    contains every pairwise product of basis elements."""
    assert rows == _rref([b.vec() for b in basis])
    assert all(_in_span(rows, g.vec()) for g in gens)
    for x, y in itertools.product(basis, repeat=2):
        assert _in_span(rows, elem_mul(x, y).vec())


def assert_BI_dimension(action, ideal_basis, dim):
    """build_BI reports dim, and dim is that of a span of the generators
    that is closed under products."""
    assert build_BI(action, ideal_basis).dimension == dim
    gens = bi_generators(action, ideal_basis)
    basis, rows = _span_closure(gens, elem_mul, CrossedMatrixElement.vec,
                                len(action.group) * action.npoints)
    assert len(rows) == dim
    assert_product_closed(gens, basis, rows)


def test_span_closure_keeps_only_independent_elements_below_full_rank():
    action = FiniteAction.swap_two_fix_one()
    gens = bi_generators(action, [{1: qi(1), 0: qi(-1)}])
    gens = gens + gens  # every generator twice
    basis, rows = _span_closure(gens, elem_mul, CrossedMatrixElement.vec, 6)
    assert len(basis) == len(rows) == 3
    assert_product_closed(gens, basis, rows)


def test_build_BI_swap_action():
    action = FiniteAction.swap_two_fix_one()
    aug = augmentation_ideal(action.group)
    rep = build_BI(action, aug.basis)
    assert rep.star_closed
    assert rep.functions_intersection_dim == 1  # only constants
    assert rep.expectation_image_dim == 2       # strictly more than constants
    assert_BI_dimension(action, aug.basis, 3)


def test_build_BI_expectation_evaluations():
    # compress the indicator of the fixed point: the expectation doubles it
    action = FiniteAction.swap_two_fix_one()
    eta = group_algebra_element(action, {1: qi(1), 0: qi(-1)})
    f = function_element(action, [0, 0, 1])
    a = elem_mul(elem_mul(eta, f), eta)
    e = expectation_onto_functions(a)
    assert qi_parts(e[2])[0] >= 1   # at the fixed point
    assert qi_is_zero(e[0])  # on the swapped orbit away from the support


def test_build_BI_extremes():
    action = FiniteAction.swap_two_fix_one()
    full_ga = [{0: qi(1)}, {1: qi(1)}]
    assert_BI_dimension(action, full_ga, 6)  # the whole crossed product
    assert_BI_dimension(action, [], 2)       # just the group algebra


# -- two points: no intermediate algebra --------------------------------------------


def test_m2_images_and_rigidity():
    rep = check_no_intermediate_M2(trials=60)
    assert rep.iso_verified
    eye, swap = rep.embedded_group_algebra
    assert eye == (qi(1), qi(0), qi(0), qi(1))
    assert swap == (qi(0), qi(1), qi(1), qi(0))
    assert rep.functions_image[0] == (qi(1), qi(0), qi(0), qi(0))
    assert rep.all_generated_full and rep.trials == 60


_EYE = (qi(1), qi(0), qi(0), qi(1))
_SWAP = (qi(0), qi(1), qi(1), qi(0))


@pytest.mark.parametrize("c", [
    (qi(1), qi(0), qi(0), qi(0)),       # a diagonal matrix unit
    (qi(0), qi(1), qi(0), qi(0)),       # an off-diagonal matrix unit
    (qi(0), qi(0, 1), qi(0, -1), qi(0)),
])
def test_m2_closure_stops_at_rank_four(c):
    products = []

    def mul(x, y):
        products.append(_m2_mul(x, y))
        return products[-1]

    basis, rows = _span_closure([_EYE, _SWAP, c, _m2_adj(c)], mul, list, 4)
    assert len(rows) == 4
    # the last product formed is the one that filled the space
    assert products and basis[-1] is products[-1]


def test_swap_closure_takes_a_second_pass():
    # swap^2 is the identity, found in the first pass; the second pass
    # forms the four products of {swap, identity}, all in their span
    products = []

    def mul(x, y):
        products.append(_m2_mul(x, y))
        return products[-1]

    basis, rows = _span_closure([_SWAP], mul, list, 4)
    assert basis == [_SWAP, _EYE] and len(rows) == 2
    assert len(products) == 1 + 4


def test_m2_closure_of_a_full_rank_seed_forms_no_product():
    c = (qi(1), qi(2), qi(3), qi(5))
    called = []
    basis, rows = _span_closure([_EYE, _SWAP, c, _m2_adj(c)],
                                lambda x, y: called.append(1), list, 4)
    assert len(rows) == 4 and not called
    assert basis == [_EYE, _SWAP, c, _m2_adj(c)]


def test_m2_closure_of_a_full_rank_seed_keeps_only_independent_generators():
    # the duplicate adds nothing, and the closure stops at rank four before
    # it reads the last generator
    c = (qi(1), qi(2), qi(3), qi(5))
    called = []
    basis, rows = _span_closure([_EYE, _SWAP, _EYE, c, _m2_adj(c), c],
                                lambda x, y: called.append(1), list, 4)
    assert basis == [_EYE, _SWAP, c, _m2_adj(c)] and not called
    assert rows == _rref([list(_EYE), list(_SWAP), list(c), list(_m2_adj(c))])


def test_m2_closure_of_the_copy_alone_is_the_copy():
    basis, rows = _span_closure([_EYE, _SWAP], _m2_mul, list, 4)
    assert len(rows) == 2 and basis == [_EYE, _SWAP]


# -- invariant-ideal algebras are not subgroup crossed products ------------------------


def test_not_from_subgroup():
    action = FiniteAction.swap_two_fix_one()
    rep = check_not_from_subgroup(action, {2})
    assert rep.distinct_from_all
    assert rep.coefficient_dims[0] == 3 and rep.coefficient_dims[1] == 2
    assert len(rep.comparisons) == 2  # trivial subgroup and the whole group
    assert all(not m for _, m in rep.comparisons)


def test_not_from_subgroup_rejections():
    action = FiniteAction.swap_two_fix_one()
    with pytest.raises(ValueError):
        check_not_from_subgroup(action, set())
    with pytest.raises(ValueError):
        check_not_from_subgroup(action, {0, 1, 2})
    with pytest.raises(ValueError):
        check_not_from_subgroup(action, {0})  # not invariant


# -- extension of subgroup ideals -------------------------------------------------------


def test_extend_ideal_z4():
    g4 = FiniteAbelianGroup.cyclic(4)
    rep = extend_ideal(g4, {0, 2}, [{2: qi(1), 0: qi(-1)}])
    assert rep.dimension == 2 and rep.two_sided and rep.proper


def test_extend_ideal_trivial_cases():
    g4 = FiniteAbelianGroup.cyclic(4)
    rep0 = extend_ideal(g4, {0, 2}, [])
    assert rep0.dimension == 0
    full = extend_ideal(g4, {0, 2}, [{0: qi(1)}, {2: qi(1)}])
    assert full.dimension == 4 and not full.proper


def test_extend_ideal_report_keeps_its_proper_value():
    # the compression check replaces `proper` and leaves every other field
    g4 = FiniteAbelianGroup.cyclic(4)
    rep = extend_ideal(g4, {0, 2}, [{2: qi(1), 0: qi(-1)}])
    assert type(rep) is IdealReport and rep.proper is True
    assert rep == _ideal_report(g4, rep.basis)
    full = extend_ideal(g4, {0, 2}, [{0: qi(1)}, {2: qi(1)}])
    assert full.proper is False and full == _ideal_report(g4, full.basis)


def test_extend_ideal_rejects_non_ideal():
    g4 = FiniteAbelianGroup.cyclic(4)
    with pytest.raises(ValueError):
        extend_ideal(g4, {0, 2}, [{1: qi(1)}])  # not on the subgroup


# -- exact linear algebra helpers ---------------------------------------------------------


def test_rref_rank_span():
    rows = [[qi(1), qi(0), qi(1)], [qi(0), qi(1), qi(1)], [qi(1), qi(1), qi(2)]]
    assert _rank(rows) == 2
    basis = _rref(rows)
    assert _in_span(basis, [qi(2), qi(3), qi(5)])
    assert not _in_span(basis, [qi(0), qi(0), qi(1)])


def test_subgroups_of_cyclic():
    g4 = FiniteAbelianGroup.cyclic(4)
    subs = {frozenset(s) for s in g4.subgroups()}
    assert subs == {frozenset({0}), frozenset({0, 2}), frozenset({0, 1, 2, 3})}


def cyclic_product(*ns):
    els = list(itertools.product(*(range(n) for n in ns)))
    table = {(a, b): tuple((x + y) % n for x, y, n in zip(a, b, ns))
             for a in els for b in els}
    return FiniteAbelianGroup(els, table)


# subgroup counts from group theory: Z2xZ2 has the trivial group, three of
# order 2 and itself; Z2xZ4 has 1 + 3 (order 2) + 3 (two cyclic and one
# Klein of order 4) + 1; Z3xZ3 has 1 + 4 lines + 1; Z12 one per divisor
@pytest.mark.parametrize("group, count", [
    (cyclic_product(2, 2), 5),
    (cyclic_product(2, 4), 8),
    (cyclic_product(3, 3), 6),
    (FiniteAbelianGroup.cyclic(12), 6),
])
def test_subgroup_counts(group, count):
    subs = group.subgroups()
    assert len(subs) == len(set(subs)) == count
    for h in subs:
        assert group.identity in h
        assert all(group.mul(a, b) in h for a in h for b in h)
        assert len(group) % len(h) == 0
