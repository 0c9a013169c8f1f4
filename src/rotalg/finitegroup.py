"""Matrix-level model of crossed products by finite abelian groups.

Everything is finite dimensional: an element of C(X) x| G is a map from
group elements to complex-rational functions on the point set, multiplied
by the covariance rule (shift conjugation acts on coefficients).  Exact
Gaussian-rational linear algebra decides spans, ranks and intersections,
so the structural statements (properness of ideals, intersections with
C(X), non-crossed-product coefficient spaces) are certified, not sampled.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain
from typing import Iterable, NamedTuple, Optional, Sequence

from .exactnum import QI, qi, qi_add, qi_addmul, qi_conj, qi_div, qi_is_zero, qi_mul, qi_neg

__all__ = [
    "FiniteAbelianGroup", "FiniteAction", "CrossedMatrixElement",
    "augmentation_ideal", "build_BI", "check_no_intermediate_M2",
    "check_not_from_subgroup", "extend_ideal",
    "elem_mul", "elem_adj", "expectation_onto_functions",
    "expectation_weighted", "regular_matrix",
]

_Z = qi(0)
_ONE = qi(1)


# -- exact linear algebra over Q(i) -------------------------------------------


def _pivot(row: list[QI]) -> int:
    return row.index(_ONE)  # a reduced row's first nonzero entry is 1


def _reduce(rows: list[list[QI]], v: Sequence[QI]) -> Sequence[QI]:
    """v less its part along a reduced basis, whose rows may come in any order."""
    for b in rows:
        c = v[_pivot(b)]
        if not qi_is_zero(c):
            c = qi_neg(c)
            v = [qi_addmul(x, c, y) for x, y in zip(v, b)]
    return v


def _insert(rows: list[list[QI]], v: Sequence[QI]) -> bool:
    """One Gauss-Jordan step: append v to the reduced basis rows if it is
    not in their span, scaled to 1 at its pivot, whose column is cleared
    from the earlier rows.  Returns whether rows grew."""
    r = _reduce(rows, v)
    p = next((i for i, x in enumerate(r) if not qi_is_zero(x)), None)
    if p is None:
        return False
    inv = r[p]
    r = [qi_div(x, inv) for x in r]
    for i, b in enumerate(rows):
        c = b[p]
        if not qi_is_zero(c):
            c = qi_neg(c)
            rows[i] = [qi_addmul(x, c, y) for x, y in zip(b, r)]
    rows.append(r)
    return True


def _rref(rows: list[list[QI]]) -> list[list[QI]]:
    """Reduced basis of the row span (Gauss-Jordan over Q(i)), by pivot."""
    basis: list[list[QI]] = []
    for r in rows:
        _insert(basis, r)
    return sorted(basis, key=_pivot)


def _rank(rows: list[list[QI]]) -> int:
    return len(_rref(rows))


def _in_span(basis_rref: list[list[QI]], v: list[QI]) -> bool:
    return all(qi_is_zero(x) for x in _reduce(basis_rref, v))


def _span_closure(gens: list, mul, vec, dim: int) -> tuple[list, list[list[QI]]]:
    """Close the span of gens under mul inside a dim-dimensional space.

    Returns (basis, rows): independent elements spanning the generated
    algebra and the reduced basis of their vectors, by pivot.  The
    generators, then their products, each grow the basis by one
    Gauss-Jordan step or are dropped; the closure stops as soon as the span
    reaches dim.
    """
    basis, rows = [], []

    def products():  # passes over the basis as it stands, until one adds nothing
        size = None
        while size != len(basis):
            size = len(basis)
            for x in list(basis):
                for y in list(basis):
                    yield mul(x, y)

    for e in chain(gens, products()):
        if _insert(rows, vec(e)):
            basis.append(e)
            if len(rows) == dim:
                break
    return basis, sorted(rows, key=_pivot)


# -- groups and actions --------------------------------------------------------


class FiniteAbelianGroup:
    """Element list plus Cayley table; elements are arbitrary hashables."""

    def __init__(self, elements: Sequence, table: dict):
        self.elements = list(elements)
        self.table = dict(table)
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate elements")
        for a in self.elements:
            for b in self.elements:
                if self.table[(a, b)] != self.table[(b, a)]:
                    raise ValueError("group is not abelian")
        self.identity = next(e for e in self.elements
                             if all(self.table[(e, a)] == a for a in self.elements))
        self.inverse = {a: next(b for b in self.elements
                                if self.table[(a, b)] == self.identity)
                        for a in self.elements}

    @staticmethod
    def cyclic(n: int) -> "FiniteAbelianGroup":
        els = list(range(n))
        return FiniteAbelianGroup(els, {(a, b): (a + b) % n for a in els for b in els})

    def mul(self, a, b):
        return self.table[(a, b)]

    def __len__(self) -> int:
        return len(self.elements)

    def _generated(self, gens: Iterable) -> frozenset:
        """The subgroup generated by gens: in a finite group, closing under
        products also yields the inverses."""
        cur = {self.identity, *gens}
        grown = True
        while grown:
            grown = False
            for a in list(cur):
                for b in list(cur):
                    c = self.mul(a, b)
                    if c not in cur:
                        cur.add(c)
                        grown = True
        return frozenset(cur)

    def subgroups(self) -> list[frozenset]:
        """All subgroups (fine at these sizes): the cyclic ones, closed
        under joins of pairs."""
        out = {self._generated([g]) for g in self.elements}
        changed = True
        while changed:
            changed = False
            for s in list(out):
                for t in list(out):
                    u = self._generated(s | t)
                    if u not in out:
                        out.add(u)
                        changed = True
        return sorted(out, key=lambda s: (len(s), sorted(map(str, s))))


class FiniteAction:
    """Action of a finite abelian group on points 0..npoints-1 with an
    invariant rational probability weighting of full support."""

    def __init__(self, group: FiniteAbelianGroup, npoints: int,
                 act: dict, weights: Optional[Sequence[Fraction]] = None):
        self.group = group
        self.npoints = npoints
        self.act = {g: tuple(act[g]) for g in group.elements}
        if weights is None:
            weights = [Fraction(1, npoints)] * npoints
        self.weights = [Fraction(w) for w in weights]
        e = group.identity
        if self.act[e] != tuple(range(npoints)):
            raise ValueError("identity must act trivially")
        for a in group.elements:
            for b in group.elements:
                ab = group.mul(a, b)
                composed = tuple(self.act[a][self.act[b][x]] for x in range(npoints))
                if composed != self.act[ab]:
                    raise ValueError("not a group action")
        if sum(self.weights) != 1 or any(w <= 0 for w in self.weights):
            raise ValueError("weights must be a full-support probability")
        for g in group.elements:
            if any(self.weights[self.act[g][x]] != self.weights[x]
                   for x in range(npoints)):
                raise ValueError("weights must be invariant")

    def apply(self, g, x: int) -> int:
        return self.act[g][x]

    @staticmethod
    def swap_two_fix_one() -> "FiniteAction":
        """Order-two group on three points: swap the first two, fix the third."""
        G = FiniteAbelianGroup.cyclic(2)
        return FiniteAction(G, 3, {0: (0, 1, 2), 1: (1, 0, 2)})

    @staticmethod
    def swap_two() -> "FiniteAction":
        G = FiniteAbelianGroup.cyclic(2)
        return FiniteAction(G, 2, {0: (0, 1), 1: (1, 0)})


# -- crossed product elements ---------------------------------------------------

# an element is a dict g -> coefficient vector (tuple of QI over the points)


class CrossedMatrixElement(NamedTuple):
    action: FiniteAction
    coeffs: dict  # g -> tuple[QI, ...]

    def vec(self) -> list[QI]:
        """Flatten to a vector over (group element, point)."""
        out = []
        for g in self.action.group.elements:
            row = self.coeffs.get(g)
            out.extend(row if row is not None else [_Z] * self.action.npoints)
        return out


def _const_vec(action: FiniteAction, c: QI) -> tuple:
    return tuple(c for _ in range(action.npoints))


def group_algebra_element(action: FiniteAction, scalars: dict) -> CrossedMatrixElement:
    """Element of the group algebra seen inside the crossed product."""
    return CrossedMatrixElement(action,
                                {g: _const_vec(action, s if isinstance(s, tuple) else qi(s))
                                 for g, s in scalars.items()})


def function_element(action: FiniteAction, values: Sequence) -> CrossedMatrixElement:
    vals = tuple(v if isinstance(v, tuple) else qi(v) for v in values)
    return CrossedMatrixElement(action, {action.group.identity: vals})


def _rotate_fn(action: FiniteAction, g, f: tuple) -> tuple:
    """(g.f)(x) = f(g^{-1} x)."""
    ginv = action.group.inverse[g]
    return tuple(f[action.apply(ginv, x)] for x in range(action.npoints))


def elem_mul(a: CrossedMatrixElement, b: CrossedMatrixElement) -> CrossedMatrixElement:
    action = a.action
    out: dict = {}
    for g, f in a.coeffs.items():
        for k, h in b.coeffs.items():
            gk = action.group.mul(g, k)
            moved = _rotate_fn(action, g, h)
            piece = tuple(qi_mul(f[x], moved[x]) for x in range(action.npoints))
            if gk in out:
                out[gk] = tuple(qi_add(u, v) for u, v in zip(out[gk], piece))
            else:
                out[gk] = piece
    return CrossedMatrixElement(action, out)


def elem_adj(a: CrossedMatrixElement) -> CrossedMatrixElement:
    """(f g)* = g^-1 conj(f); g -> g^-1 is a bijection, so no two terms meet."""
    action = a.action
    inverse = action.group.inverse
    return CrossedMatrixElement(action, {
        inverse[g]: _rotate_fn(action, inverse[g], tuple(qi_conj(c) for c in f))
        for g, f in a.coeffs.items()})


def expectation_onto_functions(a: CrossedMatrixElement) -> tuple:
    """Coefficient at the identity: the canonical expectation onto C(X)."""
    e = a.action.group.identity
    return a.coeffs.get(e, _const_vec(a.action, _Z))


def expectation_weighted(a: CrossedMatrixElement) -> dict:
    """Weight-average each coefficient: the expectation onto the group algebra."""
    w = [qi(x) for x in a.action.weights]
    out = {}
    for g, f in a.coeffs.items():
        s = _Z
        for x in range(a.action.npoints):
            s = qi_addmul(s, w[x], f[x])
        out[g] = s
    return out


def regular_matrix(a: CrossedMatrixElement) -> list[list[QI]]:
    """The element in the regular representation on (group x points)."""
    action = a.action
    G = action.group
    idx = {(h, x): i for i, (h, x) in enumerate(
        (h, x) for h in G.elements for x in range(action.npoints))}
    n = len(idx)
    M = [[_Z] * n for _ in range(n)]
    for g, f in a.coeffs.items():
        for h in G.elements:
            gh = G.mul(g, h)
            for x in range(action.npoints):
                M[idx[(gh, x)]][idx[(h, x)]] = qi_add(
                    M[idx[(gh, x)]][idx[(h, x)]], f[action.apply(gh, x)])
    return M


# -- the five operations --------------------------------------------------------


class IdealReport(NamedTuple):
    basis: list[dict]        # group-algebra vectors as {g: QI}
    dimension: int
    two_sided: bool
    proper: bool


def _translate(G: FiniteAbelianGroup, u: dict, g) -> dict:
    """u times the shift g; h -> hg is a bijection, so no two terms meet."""
    return {G.mul(h, g): c for h, c in u.items()}


def _ga_vec(G: FiniteAbelianGroup, u: dict) -> list[QI]:
    return [u.get(g, _Z) for g in G.elements]


def _ideal_report(group: FiniteAbelianGroup, basis: list[dict]) -> IdealReport:
    """The span of basis: two-sided when its products with every shift stay
    in it, proper when it misses the identity (both exact rank tests)."""
    rows = _rref([_ga_vec(group, u) for u in basis])
    two_sided = all(_in_span(rows, _ga_vec(group, _translate(group, u, g)))
                    for u in basis for g in group.elements)
    proper = not _in_span(rows, _ga_vec(group, {group.identity: _ONE}))
    return IdealReport(basis, len(rows), two_sided, proper)


def augmentation_ideal(group: FiniteAbelianGroup) -> IdealReport:
    """Kernel of the trivial character: spanned by (shift minus identity)."""
    if len(group) == 1:
        raise ValueError("trivial group has no augmentation ideal")
    e = group.identity
    return _ideal_report(group, [{g: _ONE, e: qi(-1)} for g in group.elements if g != e])


class BIReport(NamedTuple):
    dimension: int
    star_closed: bool
    functions_intersection_dim: int   # dim of (B n C(X))
    expectation_image_dim: int        # dim of E(B) inside C(X)


def build_BI(action: FiniteAction, ideal_basis: list[dict]) -> BIReport:
    """The subalgebra generated by the group algebra and ideal-compressed
    functions: span of the shifts together with eta * f * eta' over the
    ideal basis and the point functions.

    Reports dimensions and the two structural facts used downstream: how
    much of C(X) the algebra contains, and how large the image of the
    canonical expectation is.
    """
    G = action.group
    gens = [group_algebra_element(action, {g: _ONE}) for g in G.elements]
    for eta in ideal_basis:
        for etap in ideal_basis:
            left = group_algebra_element(action, eta)
            right = group_algebra_element(action, etap)
            for x in range(action.npoints):
                f = function_element(action,
                                     [_ONE if y == x else _Z for y in range(action.npoints)])
                gens.append(elem_mul(elem_mul(left, f), right))
    basis, rows = _span_closure(gens, elem_mul, CrossedMatrixElement.vec,
                                len(G) * action.npoints)
    dim = len(rows)
    star_ok = all(_in_span(rows, elem_adj(b).vec()) for b in basis)

    # intersection with C(X): functions whose flattened vector lies in the span
    fn_rows = [function_element(action, [(_ONE if y == x else _Z)
                                         for y in range(action.npoints)]).vec()
               for x in range(action.npoints)]
    inter_dim = len(fn_rows) + dim - _rank(fn_rows + rows)

    exp_rows = [list(expectation_onto_functions(b)) for b in basis]
    exp_dim = _rank(exp_rows)
    return BIReport(dim, star_ok, inter_dim, exp_dim)


# 2x2 complex-rational matrices for the two-point example

_M2Basis = list[tuple[QI, QI, QI, QI]]


def _m2_mul(a, b):
    return (qi_addmul(qi_mul(a[0], b[0]), a[1], b[2]),
            qi_addmul(qi_mul(a[0], b[1]), a[1], b[3]),
            qi_addmul(qi_mul(a[2], b[0]), a[3], b[2]),
            qi_addmul(qi_mul(a[2], b[1]), a[3], b[3]))


def _m2_adj(a):
    return (qi_conj(a[0]), qi_conj(a[2]), qi_conj(a[1]), qi_conj(a[3]))


class M2Report(NamedTuple):
    iso_verified: bool
    embedded_group_algebra: _M2Basis
    functions_image: _M2Basis
    trials: int
    all_generated_full: bool


def check_no_intermediate_M2(trials: int = 1000) -> M2Report:
    """Two points swapped by an order-two shift: the crossed product is the
    full 2x2 matrix algebra and nothing sits strictly between it and the
    embedded group algebra.

    The embedding sends u + v*shift to [[u(x1), v(x1)], [v(x2), u(x2)]].
    The claim is certified by generating, for structured plus randomized
    candidates outside the embedded copy, the *-algebra spanned by the
    copy and the candidate, and checking its dimension is 4 every time.
    """
    action = FiniteAction.swap_two()

    def embed(a: CrossedMatrixElement):
        u = a.coeffs.get(0, (_Z, _Z))
        v = a.coeffs.get(1, (_Z, _Z))
        return (u[0], v[0], v[1], u[1])

    # multiplicativity of the embedding on a spanning set
    iso = True
    span_elems = [group_algebra_element(action, {0: _ONE}),
                  group_algebra_element(action, {1: _ONE}),
                  function_element(action, [_ONE, _Z]),
                  function_element(action, [_Z, _ONE])]
    for x in span_elems:
        for y in span_elems:
            if embed(elem_mul(x, y)) != _m2_mul(embed(x), embed(y)):
                iso = False
            if embed(elem_adj(x)) != _m2_adj(embed(x)):
                iso = False

    eye = (qi(1), _Z, _Z, qi(1))
    swap = (_Z, qi(1), qi(1), _Z)
    copy_rows = _rref([list(eye), list(swap)])
    diag = [(qi(1), _Z, _Z, _Z), (_Z, _Z, _Z, qi(1))]

    structured = diag + [(_Z, qi(1), _Z, _Z), (_Z, _Z, qi(1), _Z),
                         (qi(1), _Z, _Z, qi(-1)), (_Z, qi(0, 1), qi(0, -1), _Z)]
    rng = random.Random(0)

    def rand_candidate():
        return tuple(qi(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                     for _ in range(4))

    all_full = True
    done = 0
    cands = list(structured)
    while done < trials:
        c = cands.pop(0) if cands else rand_candidate()
        if _in_span(copy_rows, list(c)):
            continue  # not a strict extension
        _, rows = _span_closure([eye, swap, c, _m2_adj(c)], _m2_mul, list, 4)
        if len(rows) != 4:
            all_full = False
        done += 1
    return M2Report(iso, [eye, swap], diag, done, all_full)


class SubgroupReport(NamedTuple):
    distinct_from_all: bool
    coefficient_dims: dict  # g -> dim of the coefficient space of B at g
    comparisons: list[tuple]  # (subgroup elements, matches_B)


def check_not_from_subgroup(action: FiniteAction, vanish_on: set[int]) -> SubgroupReport:
    """B = C(X) + (functions vanishing on an invariant set) x| G is not of
    the form C(X) x| H for any subgroup H.

    Certified by coefficient spaces: at every nonidentity g the slice of B
    is the vanishing ideal, while a crossed product by H has either all of
    C(X) or zero there.
    """
    G = action.group
    if not vanish_on or len(vanish_on) >= action.npoints:
        raise ValueError("need a nonempty proper vanishing set")
    for g in G.elements:
        if {action.apply(g, x) for x in vanish_on} != set(vanish_on):
            raise ValueError("vanishing set must be invariant")
    ideal_pts = [x for x in range(action.npoints) if x not in vanish_on]
    e = G.identity

    def point_fn(x: int) -> list:
        return [_ONE if y == x else _Z for y in range(action.npoints)]

    gens = [function_element(action, point_fn(x)) for x in range(action.npoints)]
    for x in ideal_pts:
        f = function_element(action, point_fn(x))
        for g in G.elements:
            if g != e:
                gens.append(elem_mul(f, group_algebra_element(action, {g: _ONE})))
    basis, _ = _span_closure(gens, elem_mul, CrossedMatrixElement.vec,
                             len(G) * action.npoints)
    # coefficient space of B at each group element, by exact rank
    coef_dims = {g: _rank([b.coeffs[g] for b in basis if g in b.coeffs])
                 for g in G.elements}

    comparisons = []
    distinct = True
    for H in G.subgroups():
        matches = all(coef_dims[g] == (action.npoints if g in H else 0)
                      for g in G.elements if g != e)
        comparisons.append((sorted(map(str, H)), matches))
        if matches:
            distinct = False
    return SubgroupReport(distinct, coef_dims, comparisons)


def extend_ideal(group: FiniteAbelianGroup, subgroup: Iterable,
                 J_basis: list[dict]) -> IdealReport:
    """Extend an ideal of a subgroup's algebra to the whole group algebra.

    The extension is the span of eta * shift over eta in the given basis;
    properness follows from the compression onto the subgroup (checked
    exactly: the compression of the extension stays inside the original
    span, which misses the identity).
    """
    sub = frozenset(subgroup)
    e = group.identity
    if e not in sub:
        raise ValueError("subgroup must contain the identity")
    j_rows = _rref([_ga_vec(group, b) for b in J_basis])
    for u in J_basis:
        if any(g not in sub for g in u):
            raise ValueError("basis must live on the subgroup")
        for h in sub:
            if not _in_span(j_rows, _ga_vec(group, _translate(group, u, h))):
                raise ValueError("given span is not an ideal of the subgroup algebra")
    ext = [_translate(group, u, g) for u in J_basis for g in group.elements]
    rep = _ideal_report(group, [u for u in ext if u])
    # compression onto the subgroup stays in the original span, which is the
    # structural reason the extension misses the identity
    return rep._replace(proper=all(
        _in_span(j_rows, _ga_vec(group, {g: c for g, c in u.items() if g in sub}))
        for u in rep.basis) and rep.proper)
