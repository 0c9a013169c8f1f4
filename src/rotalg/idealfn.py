"""Set-valued ideal functions on the integers and their lattice calculus.

An ideal function assigns to every integer n a closed subset of the circle,
with the empty set at 0.  The closed ones (fixed points of the Galois
closure between set functions and intermediate subalgebras of the rotation
crossed product) are characterized by two axioms checked throughout:

* reflection:  value(-n) equals the n-fold rotation of value(n);
* product:     value(m+n) is contained in rotate(value(n), -m) u value(m)
               whenever m and n are in the support.

Supported representations: explicit windows, the basic family (rotated
unions of one generating set along one arithmetic progression), lazy
pointwise meets/naive joins, and certified closed joins computed by a
constraint-propagation engine for the closure operator.  The same
constraint sweep checks closedness and the extension of positive-side
data, which names a broken constraint by the one-sided rule it is.

Certificate discipline: every computed value carries an exactness flag.
A closed join is exact on all of Z when it holds a closed form: basic(d,
empty) on a collapse onto dZ, a full-default window on a certified finite
support; an empty window value is exact on its own.  Otherwise a stabilized
sweep plus a window closedness check is reported as exact with an
explanatory note, and exhausting the round budget yields an upper bound.
"""
from __future__ import annotations

import threading
from math import gcd, lcm
from typing import NamedTuple, Optional, Sequence

from .angle import Angle, json_int, json_of
from .circleset import ClosedCircleSet, covering_index, pt, set_from_json, set_to_json

__all__ = [
    "Certificate", "IdealFunction", "BasicFunction", "WindowFunction",
    "PointwiseFunction", "JoinFunction", "CIdealFunction",
    "OutsideWindowError", "make_basic", "window_function", "all_empty",
    "meet", "naive_join", "closed_join", "closed_join_value", "close",
    "join_many", "check_closed", "extend_from_positive", "support",
    "classify_algebra", "canonical_decomposition", "omega",
    "q_intersection", "make_ideal_IQ", "check_c_closed", "triviality",
    "simplicity_report", "values_equal", "function_to_json",
    "function_from_json", "DEFAULT_DEPTH", "DEFAULT_WINDOW",
]

DEFAULT_DEPTH = 6
DEFAULT_WINDOW = 10
# the widest seed half-width join_many starts from: a point close at
# --window 200 takes about 27 s on a 2-CPU box, and the cost grows as W2**3
SEED_LIMIT = 400
# the most components (copies of P's points and arcs) a basic's value is
# built from: lattice-query reads |n| <= 500 of one- and two-point basics,
# and 100,000 points take about 0.4 s to build (2-CPU box)
VALUE_LIMIT = 100_000
# the largest suite --n or group-verify --trials: per unit the ring suite
# takes 1.7 ms (17 s at the limit), fejer up to 0.75, group-verify 0.18 (2-CPU
# box); derivative's n convergents took 0.06 s at 10**4, 1.45 s at 10**5
COUNT_LIMIT = 10_000
# the most closure sweeps a join runs (--depth, a join document's "depth"):
# tests, goldens and bench ask for at most 6, and no join measured needed
# more than 10 (an arc pair that collapses, 0.18 s at window 1, 2-CPU box)
DEPTH_LIMIT = 100


class OutsideWindowError(KeyError):
    """A window function with unknown outside values was queried there."""

    def __str__(self) -> str:
        return (f"index {self.args[0]} is outside the window of a window function "
                f"whose default is unknown")


class Certificate(NamedTuple):
    """Exactness evidence attached to a computed value or function."""
    exact: bool
    depth: int = 0
    note: str = ""

    @property
    def status(self) -> str:
        return "Exact" if self.exact else "UpperBound"


EXACT = Certificate(True)


def _meet_certs(*certs: Certificate) -> Certificate:
    if all(c.exact for c in certs):
        return Certificate(True, max((c.depth for c in certs), default=0))
    note = "; ".join(c.note for c in certs if not c.exact and c.note)
    return Certificate(False, max((c.depth for c in certs), default=0), note)


# ---------------------------------------------------------------------------
# representations


class IdealFunction:
    """Base class; concrete classes implement value()."""

    angle: Angle

    def value(self, n: int) -> tuple[ClosedCircleSet, Certificate]:
        raise NotImplementedError

    def value_set(self, n: int) -> ClosedCircleSet:
        """Value at n, insisting on an exact certificate."""
        v, cert = self.value(n)
        if not cert.exact:
            raise ValueError(f"value at {n} is only an upper bound: {cert.note}")
        return v

    def support_members(self, window: int) -> list[int]:
        """Supported indices within [-window, window] (value not full circle)."""
        return [n for n in range(-window, window + 1) if not self.value(n)[0].full]

    # symbolic support, when a closed form is known
    def support_modulus(self) -> Optional[int]:
        """d such that the support is contained in d*Z, if known."""
        return None

    def support_bound(self) -> Optional[int]:
        """K such that the support is certified inside [-K, K], if known."""
        return None

    def is_point_valued(self) -> bool:
        """True when every value is certified to be a finite point set or
        empty (off the full-circle default); such supports are exact
        progressions rather than window evidence."""
        return False


class BasicFunction(IdealFunction):
    """The minimal closed function taking a prescribed value at one index.

    Data (q, P): at m = n*q with n > 0 the value is the union of the
    rotates of P by 0, -q, ..., -q(n-1); empty at 0; the reflected unions
    on the negative side; the full circle off the progression q*Z.
    For q = 0 the generating set is ignored and the function is the
    trivial one (full everywhere except 0).
    """

    def __init__(self, q: int, P: ClosedCircleSet):
        if q < 0:
            raise ValueError("q must be nonnegative")
        self.q = q
        self.P = P
        self.angle = P.angle
        self._values: dict[int, ClosedCircleSet] = {}  # k -> value(kq), per k read

    def value(self, n: int) -> tuple[ClosedCircleSet, Certificate]:
        angle = self.angle
        if n == 0:
            return ClosedCircleSet.empty(angle), EXACT
        if self.q == 0 or n % self.q != 0:
            return ClosedCircleSet.full_circle(angle), EXACT
        k = abs(n) // self.q
        value = self._values.get(k)
        while value is None:
            # each step is one normalization: the widest value read below
            # k (P when none) and the rotated copies of P it lacks.  Arcs
            # cover the circle after finitely many copies, so an arc basic
            # doubles its way up to k and stops growing once it is full.
            # Components are the outer loop, so an empty P walks no steps.
            below = max((j for j in self._values if j < k), default=0)
            acc = self._values[below] if below else self.P
            top = min(k, 2 * below + 1) if self.P.arcs and not acc.full else k
            P, steps = self.P, range(-self.q * below, -self.q * top, -self.q)
            if not acc.full and top * (len(P.points) + len(P.arcs)) > VALUE_LIMIT:
                raise ValueError(f"basic value at {n} is built from {top} copies of "
                                 f"P, past VALUE_LIMIT = {VALUE_LIMIT} components")
            self._values[top] = acc if acc.full else ClosedCircleSet.from_components(
                angle, [*acc.points, *(p.shift(s) for p in P.points for s in steps)],
                [*acc.arcs, *(a.shift(s) for a in P.arcs for s in steps)])
            value = self._values.get(k)
        # reflection: value(-kq) is value(kq) rotated by kq
        return (value if n > 0 else value.rotate(k * self.q)), EXACT

    def support_modulus(self) -> Optional[int]:
        if self.q == 0:
            return None  # support is {0}
        return self.q

    def support_bound(self) -> Optional[int]:
        if self.q == 0:
            return 0
        if self.P.full:
            return 0
        if self.P.classify() == "has-interior":
            N = covering_index(self.P, self.q)
            return self.q * (N - 1)
        return None  # infinite support along q*Z

    def is_point_valued(self) -> bool:
        return self.q > 0 and self.P.classify() in ("empty", "finite-points")

    def __repr__(self) -> str:
        return f"basic(q={self.q}, P={self.P!r})"


class WindowFunction(IdealFunction):
    """Explicit values on a finite window, with a declared outside default."""

    def __init__(self, angle: Angle, values: dict[int, ClosedCircleSet],
                 default: str = "full"):
        if default not in ("full", "unknown"):
            raise ValueError("default must be 'full' or 'unknown'")
        self.angle = angle
        self.values = dict(values)
        self.default = default

    def value(self, n: int) -> tuple[ClosedCircleSet, Certificate]:
        if n in self.values:
            return self.values[n], EXACT
        if n == 0:
            return ClosedCircleSet.empty(self.angle), EXACT
        if self.default == "full":
            return ClosedCircleSet.full_circle(self.angle), EXACT
        raise OutsideWindowError(n)

    def support_bound(self) -> Optional[int]:
        if self.default != "full":
            return None
        return max((abs(n) for n, v in self.values.items() if not v.full), default=0)


class PointwiseFunction(IdealFunction):
    """Lazy pointwise combination: 'meet' unions sets, 'naive-join' intersects."""

    def __init__(self, kind: str, children: Sequence[IdealFunction]):
        if kind not in ("meet", "naive-join"):
            raise ValueError(kind)
        if not children:
            raise ValueError("need at least one operand")
        self.kind = kind
        self.children = list(children)
        self.angle = children[0].angle
        for c in children:
            if not c.angle.same_as(self.angle):
                raise ValueError("operands built over different angle contexts")

    def value(self, n: int) -> tuple[ClosedCircleSet, Certificate]:
        vals, certs = zip(*(c.value(n) for c in self.children))
        acc = vals[0]
        for v in vals[1:]:
            acc = acc.union(v) if self.kind == "meet" else acc.intersect(v)
        return acc, _meet_certs(*certs)

    def support_modulus(self) -> Optional[int]:
        mods = [c.support_modulus() for c in self.children]
        if any(m is None for m in mods):
            return None
        if self.kind == "meet":
            # supported only where every child is: multiples of the lcm
            return lcm(*mods)
        return gcd(*mods)

    def support_bound(self) -> Optional[int]:
        bounds = [c.support_bound() for c in self.children]
        known = [b for b in bounds if b is not None]
        if self.kind == "meet" and known:
            return min(known)  # meet support = intersection of supports
        if self.kind == "naive-join" and len(known) == len(bounds):
            return max(known)
        return None

    def is_point_valued(self) -> bool:
        return all(c.is_point_valued() for c in self.children)


class JoinFunction(IdealFunction):
    """Certified closed join, materialized on a window by the closure engine.
    `closed`, the certified closed form on all of Z if there is one, answers
    each index `values` does not hold, with the join's certificate.  A collapse
    holds no values: a depth-exhausted window may still hold non-empty ones."""
    _widening = threading.RLock()  # reentrant: a widening can widen a generator

    def __init__(self, generators: Sequence[IdealFunction], window: int,
                 depth: int, values: dict[int, ClosedCircleSet], cert: Certificate,
                 closed: Optional[IdealFunction] = None):
        self.generators = list(generators)
        self.angle = generators[0].angle
        self.window = window
        self.depth = depth
        self.values = values
        self.certificate = cert
        self.closed = closed

    def value(self, n: int) -> tuple[ClosedCircleSet, Certificate]:
        v = self.values.get(n)
        if v is not None:
            if v.is_empty():
                return v, Certificate(True, self.certificate.depth, "empty-forced")
            return v, self.certificate
        if self.closed is not None:
            return self.closed.value(n)[0], self.certificate
        with self._widening:  # widen on demand; the wider state swaps in whole
            if abs(n) > self.window:
                self.__dict__ = vars(join_many(self.generators, abs(n), self.depth))
        return self.value(n)

    def support_modulus(self) -> Optional[int]:
        mods = [g.support_modulus() for g in self.generators]
        mod = self.closed.support_modulus() if self.closed is not None else None
        return mod or (None if None in mods else gcd(*mods))

    def support_bound(self) -> Optional[int]:
        return self.closed.support_bound() if self.closed is not None else None

    def is_point_valued(self) -> bool:
        if self.closed is not None:
            return self.closed.is_point_valued()
        return all(g.is_point_valued() for g in self.generators)


def make_basic(q: int, P: ClosedCircleSet) -> BasicFunction:
    return BasicFunction(q, P)


def all_empty(angle: Angle) -> BasicFunction:
    """The everywhere-empty function (the whole crossed product)."""
    return BasicFunction(1, ClosedCircleSet.empty(angle))


def window_function(angle: Angle, values: dict[int, ClosedCircleSet],
                    default: str = "full") -> WindowFunction:
    return WindowFunction(angle, values, default)


def meet(c1: IdealFunction, c2: IdealFunction) -> PointwiseFunction:
    """Lattice meet (algebra intersection): pointwise union of the sets."""
    return PointwiseFunction("meet", [c1, c2])


def naive_join(c1: IdealFunction, c2: IdealFunction) -> PointwiseFunction:
    """Pointwise intersection of the sets; not closed in general."""
    return PointwiseFunction("naive-join", [c1, c2])


def values_equal(c1: IdealFunction, c2: IdealFunction, window: int) -> bool:
    return all(c1.value(n)[0] == c2.value(n)[0]
               for n in range(-window, window + 1))


# ---------------------------------------------------------------------------
# closedness checks


class ClosednessReport(NamedTuple):
    # ("reflection", n), ("product", m, n); for ideals also ("domination", n)
    # and ("product-symmetric", m, n)
    violations: list[tuple]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:  # a one-field tuple is always truthy
        return self.ok


def _broken_constraints(D: dict[int, ClosedCircleSet], w: int):
    """Yield (label, t, cut) for each closure constraint that D breaks,
    that is each one where cut, D[t] intersected with its bound, is not D[t].

    First reflection for 0 < n <= w, ("reflection", n), on both sides:
    D[-n] against D[n].rotate(n) and D[n] against D[-n].rotate(-n).  Then
    the product axiom, ("product", m, n), for m and n off the full circle
    in [-w, w] and targets m + n that are keys of D: D[m+n] against
    D[n].rotate(-m) u D[m].  Constraints met trivially (equal reflection
    sides, a full side, an empty target) are skipped.  A product cut is one
    `intersect_union`, which returns D[t] itself when nothing is cut.  D is
    read live, so a caller may set D[t] to cut before asking for the next one.

    Mirror rule: when D is reflective, D[-k] = D[k].rotate(k) on every key,
    the constraint at (-n, -m) is the one at (m, n) rotated by t = m + n:
    its target is D[t].rotate(t), its bound D[m].rotate(t) u
    D[n].rotate(-m).rotate(t), so cut(-n, -m) = rotate(cut(m, n), t).  Rows
    run in ascending m, and -n < m when t > 0, so the mirror of a constraint
    with t > 0 was visited earlier in the pass.  While nothing has been
    yielded, D is the D it was visited on and it was not broken, so those
    constraints are skipped.  The yielded sequence is the full visit's.
    """
    quiet = True  # no yield yet, and D reflective on every key
    for n in range(1, w + 1):
        if D[-n] == D[n].rotate(n):
            continue  # equality is cheap; containment on arcs is not
        for t in (-n, n):
            cut = D[t].intersect(D[-t].rotate(-t))
            if cut != D[t]:
                quiet = False
                yield ("reflection", n), t, cut
    # keys past w (check_closed reads targets out to 2w) are only the
    # mirror rule's precondition; they never report a label
    quiet = quiet and all(-k in D and D[-k] == D[k].rotate(k) for k in D if k > w)
    supp = [n for n in range(-w, w + 1) if not D[n].full]
    for m in supp:
        for n in supp:
            t = m + n
            if quiet and t > 0:
                break  # supp ascends: the rest of the row mirrors visited constraints
            if t not in D or D[t].is_empty():
                continue
            cut = D[t].intersect_union(D[n], -m, D[m])
            if cut is not D[t]:
                quiet = False
                yield ("product", m, n), t, cut


def _labels(D: dict[int, ClosedCircleSet], w: int) -> list[tuple]:
    """Labels of the broken constraints, each once, in visiting order."""
    return list(dict.fromkeys(label for label, _, _ in _broken_constraints(D, w)))


def check_closed(c: IdealFunction, window: int) -> ClosednessReport:
    """Verify the two closure axioms on a window.

    Reflection is checked for |n| <= window and the product axiom for all
    supported m, n with |m|, |n| <= window (targets reach 2*window).  For
    window functions whose support is certified inside the window this is
    a complete check.
    """
    vals = {n: c.value_set(n) for n in range(-2 * window, 2 * window + 1)}
    return ClosednessReport(_labels(vals, window))


class ExtensionViolation(Exception):
    def __init__(self, condition: str, m: int, n: int):
        self.condition, self.m, self.n = condition, m, n

    def __str__(self) -> str:
        return f"{self.condition} violated at (m={self.m}, n={self.n})"


_EXTENSION_RULES = ("sum-rule", "difference-rule", "shifted-difference-rule")


def extend_from_positive(angle: Angle, values: dict[int, ClosedCircleSet],
                         default: str = "unknown") -> WindowFunction:
    """Extend values given on 0..N to a closed function on the integers.

    The negative side is produced by reflection, and an index of 1..N
    missing from the data is the full circle.  The reflected window is
    checked by the closure sweep; with default "unknown" constraints whose
    target falls outside it are left open, with default "full" the data is
    read as a finite-support function and the targets out to 2N are the
    full circle.  A broken product constraint (m, n) is named by the
    positive-side rule it is, read through its mirror (-n, -m) when
    m + n < 0: the sum rule (m, n) for m, n > 0, the difference rule
    (m, -n) for n < 0 and the shifted difference rule (n, -m) for m < 0.
    Raises ExtensionViolation with the least broken (m, n, rule), rules
    in that order.
    """
    if any(n < 0 for n in values):
        raise ValueError("positive-side data only")
    zero = values.get(0, ClosedCircleSet.empty(angle))
    if not zero.is_empty():
        raise ValueError("value at 0 must be the empty set")
    full = ClosedCircleSet.full_circle(angle)
    W = max((n for n in values), default=0)
    out = {0: ClosedCircleSet.empty(angle)} | {n: values.get(n, full) for n in range(1, W + 1)}
    out |= {-n: out[n].rotate(n) for n in range(1, W + 1)}
    pad = {t: full for k in range(W + 1, 2 * W + 1) for t in (k, -k)} if default == "full" else {}
    broken = []
    for _, m, n in _labels(out | pad, W):  # all products: the window is reflective
        if m + n < 0:
            m, n = -n, -m
        broken.append((m, -n, 1) if n < 0 else (n, -m, 2) if m < 0 else (m, n, 0))
    if broken:
        m, n, rule = min(broken)
        raise ExtensionViolation(_EXTENSION_RULES[rule], m, n)
    return WindowFunction(angle, out, default=default)


# ---------------------------------------------------------------------------
# the closure engine


def _closure_fixpoint(seed: dict[int, ClosedCircleSet],
                      max_rounds: int) -> tuple[dict[int, ClosedCircleSet], int, bool]:
    """Greatest closed-function values below the seed on the seed window.

    Cuts each value by every broken reflection/product constraint, in
    sweeps, until a full sweep finds none broken.  Every surviving value
    is a superset of the true closure's value, so empty results are exact.
    """
    D = dict(seed)
    W2 = max(abs(n) for n in D)
    rounds = 0
    stable = False
    for _ in range(max_rounds):
        changed = False
        for _, t, cut in _broken_constraints(D, W2):
            D[t] = cut
            changed = True
        rounds += 1
        if not changed:
            stable = True
            break
    return D, rounds, stable


def join_many(generators: Sequence[IdealFunction], window: int,
              depth: int = DEFAULT_DEPTH) -> JoinFunction:
    """Closed join of several functions, certified on the given window."""
    if not generators:
        raise ValueError("need at least one generator")
    if depth < 0:
        raise ValueError(f"depth must be at least 0, got {depth}")
    # the seed reaches every generator's step, or the fixpoint misses it
    mods = [g.support_modulus() for g in generators]
    W2 = max([2 * window] + [m for m in mods if m is not None])
    if W2 > SEED_LIMIT:
        raise ValueError(f"join seed half-width {W2} (twice the window, and every "
                         f"generator step) exceeds SEED_LIMIT = {SEED_LIMIT}")
    seed: dict[int, ClosedCircleSet] = {}
    for n in range(-W2, W2 + 1):
        acc = generators[0].value_set(n)
        for g in generators[1:]:
            acc = acc.intersect(g.value_set(n))
        seed[n] = acc
    D, rounds, stable = _closure_fixpoint(seed, depth)

    values = {n: D[n] for n in range(-window, window + 1)}
    d = gcd(*mods) if None not in mods else 0
    K = max((abs(n) for n in D if not D[n].full), default=0)
    if 0 < d <= W2 and D[d].is_empty():
        # collapse: once the value at the gcd of the generator progressions
        # is empty, the true join is basic(d, empty): empty on dZ, full off it
        closed, note, values = BasicFunction(d, D[d]), "collapse", {}
    elif stable and all(b is not None and b <= W2
                        for b in (g.support_bound() for g in generators)) and K <= window:
        # certified finite support: generators have certified bounds and the
        # fixpoint is full-circle outside [-K, K], inside the window
        closed = WindowFunction(generators[0].angle, {n: D[n] for n in range(-K, K + 1)})
        note = "finite-support"
    else:
        # a stabilized sweep plus window closedness is exact per the
        # certification contract, globally rigorous only with a closed form
        closed, note = None, "window-stabilized" if stable else "depth-exhausted"
    return JoinFunction(generators, window, depth, values,
                        Certificate(stable or closed is not None, rounds, note), closed)


def closed_join(c1: IdealFunction, c2: IdealFunction, window: int = DEFAULT_WINDOW,
                depth: int = DEFAULT_DEPTH) -> JoinFunction:
    """Closed join of two closed functions (smallest closed function above both)."""
    for c in (c1, c2):
        rep = check_closed(c, min(window, 4))
        if not rep.ok:
            raise ValueError(f"closed_join input is not closed: {rep.violations[:3]}")
    return join_many([c1, c2], window, depth)


def closed_join_value(c1: IdealFunction, c2: IdealFunction, n: int,
                      window: Optional[int] = None,
                      depth: int = DEFAULT_DEPTH) -> tuple[ClosedCircleSet, Certificate]:
    """Single value of the closed join with its certificate."""
    j = closed_join(c1, c2, window or max(abs(n), 4), depth)
    return j.value(n)


def close(c: IdealFunction, window: int = DEFAULT_WINDOW,
          depth: int = DEFAULT_DEPTH) -> tuple[JoinFunction, Certificate]:
    """The closure operator: smallest closed function above c."""
    j = join_many([c], window, depth)
    return j, j.certificate


# ---------------------------------------------------------------------------
# support, classification, decomposition


class SupportReport(NamedTuple):
    members: list[int]          # within the window
    symbolic: Optional[str]     # e.g. "Z", "2Z", "finite"
    certificate: Certificate


def support(c: IdealFunction, window: int) -> SupportReport:
    members = c.support_members(window)
    bound = c.support_bound()
    if bound is not None and bound <= window:
        return SupportReport(members, "finite", EXACT)
    mod = c.support_modulus()
    if mod is not None:
        # symbolic progression, when the window confirms every multiple
        if members == [n for n in range(-window, window + 1) if n % mod == 0]:
            sym = "Z" if mod == 1 else f"{mod}Z"
            cert = EXACT if c.is_point_valued() else Certificate(
                False, 0, "window-evidence")
            return SupportReport(members, sym, cert)
    return SupportReport(members, None, Certificate(False, 0, "window-truncated"))


class ClassificationReport(NamedTuple):
    verdict: str                # 'residual' | 'small' | 'neither'
    support: SupportReport
    value_kinds: dict[int, str]  # member -> ClosedCircleSet.classify()
    certificate: Certificate


def classify_algebra(c: IdealFunction, window: int = DEFAULT_WINDOW) -> ClassificationReport:
    """Residual (all supported values nowhere dense) vs small (finite support).

    The two classes are mutually exclusive on closed functions: a closed
    function with finite nontrivial support must take a value with
    interior, and one with all values nowhere dense has a progression as
    support.  Basics realize the dichotomy exactly.
    """
    sup = support(c, window)
    kinds = {n: c.value_set(n).classify() for n in sup.members}
    nowhere_dense = all(k in ("empty", "finite-points") for k in kinds.values())
    if sup.symbolic == "finite":
        return ClassificationReport("small", sup, kinds, EXACT)
    if nowhere_dense:
        return ClassificationReport("residual", sup, kinds, sup.certificate)
    return ClassificationReport("neither", sup, kinds,
                                Certificate(False, 0, "window-truncated"))


class DecompositionReport(NamedTuple):
    critical: list[tuple[int, ClosedCircleSet]]
    rejoin_ok: bool
    certificate: Certificate


def canonical_decomposition(c: IdealFunction, window: int,
                            depth: int = DEFAULT_DEPTH) -> DecompositionReport:
    """Critical indices and generating data of the decomposition into basics.

    n is critical when the join of the basics collected so far (the trivial
    function before the first) still disagrees with c at n.  rejoin_ok
    reports whether that join equals c on all of [-window, window].
    """
    crit: list[tuple[int, ClosedCircleSet]] = []
    basics: list[IdealFunction] = []
    # the join of no basics: the trivial function, full off 0
    approx: IdealFunction = BasicFunction(0, ClosedCircleSet.empty(c.angle))
    certs = [c.value(n)[1] for n in range(-window, window + 1)]
    for n in range(1, window + 1):
        vn = c.value(n)[0]
        if approx.value(n)[0] != vn:
            crit.append((n, vn))
            basics.append(make_basic(n, vn))
            approx = join_many(basics, window, depth)
            certs.append(approx.certificate)
    return DecompositionReport(crit, values_equal(c, approx, window), _meet_certs(*certs))


def omega(c: IdealFunction, window: int) -> tuple[ClosedCircleSet, bool]:
    """Union of rotate(value(n), -m) over supported m, n in the window.

    The boolean flag reports whether the window truncates an infinite
    support (True means truncated).
    """
    angle = c.angle
    members = c.support_members(window)
    acc = ClosedCircleSet.empty(angle)
    for m in members:
        for n in members:
            acc = acc.union(c.value_set(n).rotate(-m))
            if acc.full:
                break
        if acc.full:
            break
    bound = c.support_bound()
    truncated = not (bound is not None and bound <= window)
    return acc, truncated


def q_intersection(c: IdealFunction, window: int) -> tuple[ClosedCircleSet, Certificate]:
    """Intersection of all values at nonzero indices.

    Exact closed form for basics (P with its q-fold rotate) and for
    certified finite supports; otherwise a window truncation, which is an
    upper bound decreasing in the window.
    """
    angle = c.angle
    if isinstance(c, BasicFunction) and c.q > 0:
        return c.P.intersect(c.P.rotate(c.q)), EXACT
    bound = c.support_bound()
    certified = bound is not None and bound <= window
    acc = ClosedCircleSet.full_circle(angle)
    # outermost index first, so that a join read past its window widens once
    for n in range((max(bound, 1) if certified else window), 0, -1):
        acc = acc.intersect(c.value_set(n)).intersect(c.value_set(-n))
    if certified or acc.is_empty():
        return acc, EXACT
    return acc, Certificate(False, 0, "window-truncated")


# ---------------------------------------------------------------------------
# ideals inside the algebra of a closed function


class CIdealFunction(IdealFunction):
    """A set function dominating a closed parent pointwise.

    Encodes a closed two-sided ideal of the parent's algebra: the value at
    each n contains the parent's value, and the closed ones satisfy the
    relative reflection/product axioms.
    """

    def __init__(self, parent: IdealFunction, overrides: dict[int, ClosedCircleSet]):
        self.parent = parent
        self.angle = parent.angle
        self.overrides = dict(overrides)

    def value(self, n: int) -> tuple[ClosedCircleSet, Certificate]:
        if n in self.overrides:
            return self.overrides[n], EXACT
        return self.parent.value(n)


def make_ideal_IQ(c: IdealFunction, Q1: ClosedCircleSet,
                  window: int = DEFAULT_WINDOW) -> CIdealFunction:
    """The ideal with zero-slice Q1 and the parent's values elsewhere.

    Q1 must be a nonempty subset of the intersection of all nonzero
    values; an empty Q1 would give the whole algebra and is rejected.
    """
    if Q1.is_empty():
        raise ValueError("empty zero-slice gives the whole algebra, not a proper ideal")
    if Q1.full:
        raise ValueError("full zero-slice gives the zero ideal")
    Q, cert = q_intersection(c, window)
    if not Q.contains_set(Q1):
        raise ValueError("zero-slice must sit inside the intersection of all values")
    # when cert is an upper bound the containment above is necessary only;
    # callers wanting a proof should pass exact inputs (basics, windows)
    return CIdealFunction(c, {0: Q1})


def check_c_closed(j: CIdealFunction, window: int) -> ClosednessReport:
    """Relative closure axioms for an ideal function over its parent.

    Checks domination, reflection, the one-sided product rule for m in the
    parent support and n in the ideal support, and the symmetric four-term
    bound when both indices are in the ideal support.  Each product-type
    rule is `intersect_union` cuts of the target: it holds when none cuts.
    """
    jv = {n: j.value_set(n) for n in range(-2 * window, 2 * window + 1)}
    cv = {n: j.parent.value_set(n) for n in range(-2 * window, 2 * window + 1)}
    span = range(-window, window + 1)
    viols = [("domination", n) for n in span if not jv[n].contains_set(cv[n])]
    viols += [("reflection", n) for n in range(1, window + 1) if jv[-n] != jv[n].rotate(n)]
    jsupp = [n for n in span if not jv[n].full]
    for m in span:
        if not cv[m].full:
            viols += [("product", m, n) for n in jsupp
                      if jv[m + n].intersect_union(jv[n], -m, cv[m]) is not jv[m + n]]
    for m in jsupp:
        for n in jsupp:
            t = jv[m + n]
            if any(t.intersect_union(a, k, b) is not t
                   for a, k, b in ((jv[n], -m, cv[m]), (jv[m], -n, cv[n]),
                                   (cv[n], -m, jv[m]), (cv[m], -n, jv[n]))):
                viols.append(("product-symmetric", m, n))
    return ClosednessReport(viols)


def triviality(j: CIdealFunction) -> str:
    """'zero' / 'proper' / 'whole' from the zero-slice alone."""
    z = j.value_set(0)
    if z.full:
        return "zero"
    if z.is_empty():
        return "whole"
    return "proper"


class SimplicityReport(NamedTuple):
    verdict: str  # 'not-simple' | 'simple' | 'inconclusive'
    witness: Optional[CIdealFunction]
    notes: str
    q_value: ClosedCircleSet
    q_certificate: Certificate


def simplicity_report(c: IdealFunction, window: int = DEFAULT_WINDOW) -> SimplicityReport:
    """Decide simplicity of the associated algebra where the calculus can.

    An exactly known intersection Q of all nonzero values that is not
    empty gives an explicit proper ideal (not simple): the one with zero
    slice Q, or, when Q is full (every nonzero value is full, so the
    algebra is the commutative C(T)), the one of functions vanishing at
    the point 0.  A residual function with a one-point value is simple.
    Otherwise inconclusive; the notes say when Q is exactly empty (no
    generating proper ideal exists).
    """
    Q, cert = q_intersection(c, window)
    if not Q.is_empty() and cert.exact:
        # Q1 is a nonempty, non-full part of Q: make_ideal_IQ's checks hold
        Q1 = ClosedCircleSet.from_points(c.angle, [pt(0)]) if Q.full else Q
        return SimplicityReport("not-simple", CIdealFunction(c, {0: Q1}),
                                "explicit proper ideal from the common zero set",
                                Q, cert)
    cls = classify_algebra(c, window)
    if cls.verdict == "residual":
        for n in cls.support.members:
            if n != 0 and c.value_set(n).is_single_point():
                return SimplicityReport(
                    "simple", None,
                    f"residual with a one-point value at n={n}", Q, cert)
    notes = ""
    if Q.is_empty() and cert.exact:
        notes = "no generating proper ideal exists (common zero set empty)"
    return SimplicityReport("inconclusive", None, notes, Q, cert)


# ---------------------------------------------------------------------------
# serialization


def function_to_json(c: IdealFunction, window: int = DEFAULT_WINDOW) -> dict:
    base = {"angle": c.angle.to_json()}
    if isinstance(c, BasicFunction):
        return base | {"repr": "basic", "q": c.q, "P": set_to_json(c.P)}
    if isinstance(c, WindowFunction):
        return base | {"repr": "window", "default": c.default,
                       "values": {str(n): set_to_json(v) for n, v in sorted(c.values.items())}}
    if isinstance(c, JoinFunction):
        return base | {"repr": "join", "depth": c.depth,
                       "gens": [function_to_json(g) for g in c.generators]}
    # lazy nodes materialize to a window
    vals = {str(n): set_to_json(c.value_set(n)) for n in range(-window, window + 1)}
    return base | {"repr": "window", "default": "unknown", "values": vals}


def _window_index(key: str) -> int:
    """A window key: an integer written as str(int) writes it, so that no
    two keys name one index ("01", "+1", " 1", "1_0" and "٣" are refused)."""
    try:
        if str(n := int(key)) == key:
            return n
    except ValueError:
        pass
    raise ValueError(f"window key {key!r} must be an integer written in canonical form")


def function_from_json(doc: dict, angle: Optional[Angle] = None, *,
                       outer: Optional[Angle] = None) -> IdealFunction:
    """A given `angle` is read in place of every angle field of the document.
    Otherwise a document that names no angle is read at `outer` (its join's,
    or a default), and one that names an angle must name that one."""
    json_of(dict, doc, "ideal function")
    if angle is None and outer is not None and "angle" in doc \
            and not Angle.from_json(doc["angle"]).same_as(outer):
        raise ValueError("a join generator's angle differs from its join's")
    own = angle or outer or Angle.from_json(doc["angle"])
    kind = doc["repr"]
    if kind == "basic":
        return BasicFunction(json_int(doc["q"], "q"), set_from_json(own, doc["P"]))
    if kind == "window":
        values = {_window_index(k): set_from_json(own, v)
                  for k, v in json_of(dict, doc["values"], "values").items()}
        return WindowFunction(own, values, doc.get("default", "full"))
    if kind == "join":
        gens = [function_from_json(g, angle, outer=own)
                for g in json_of(list, doc["gens"], "gens")]
        depth = json_int(doc.get("depth", DEFAULT_DEPTH), "depth")
        if depth > DEPTH_LIMIT:
            raise ValueError(f"depth must be at most DEPTH_LIMIT = {DEPTH_LIMIT}, got {depth}")
        return join_many(gens, window=DEFAULT_WINDOW, depth=depth)
    raise ValueError(f"unknown representation {kind!r}")
