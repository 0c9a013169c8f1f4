"""Independent brute-force models used to freeze expected values.

Point-based instances over a single base point live entirely in integer
orbit exponents: the set {rot^e(p) : e in E} is modelled by the frozenset
E, the full circle by None, and rotation by integer shifts.  Everything
here is computed with plain set arithmetic, independent of the exact
circle machinery under test.

Closed circle sets with arcs are modelled at 256 fractional bits: a
position (q + n*rho) mod 1 is the integer floor of 2**256 times it, with rho
enclosed by `math.isqrt`, and a set is a sorted list of disjoint closed
integer intervals in [0, 2**256).  Union and intersection are list merges
and a pairwise interval clip, sharing no code with `rotalg.circleset`.

Gaussian rationals are modelled by the textbook pair (re, im) of
`Fraction`s, independent of the integer form used by `rotalg.exactnum`.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import floor, isqrt

FULL = None


def shift(E, k):
    if E is FULL:
        return FULL
    return frozenset(e + k for e in E)


def union(A, B):
    if A is FULL or B is FULL:
        return FULL
    return A | B


def intersect(A, B):
    if A is FULL:
        return B
    if B is FULL:
        return A
    return A & B


def basic_value(q: int, base: frozenset, m: int):
    """Orbit-exponent value of the basic family (q, base) at m."""
    if m == 0:
        return frozenset()
    if q == 0 or m % q != 0:
        return FULL
    n = m // q
    out = frozenset()
    if n > 0:
        for k in range(n):
            out |= shift(base, -q * k)
    else:
        for k in range(1, -n + 1):
            out |= shift(base, q * k)
    return out


def meet_value(values1, values2, m):
    return union(values1(m), values2(m))


def naive_join_value(values1, values2, m):
    return intersect(values1(m), values2(m))


def closed_join_upper(values1, values2, n: int, max_len: int = 3,
                      j_bound: int = 8):
    """Brute-force upper bound from the intersection-of-unions formula.

    Enumerates index tuples summing to n (alternating assignment of the
    two inputs, both starting parities) up to the stated length and
    magnitude; each term is a union of shifted values, and terms hitting
    the full circle impose no constraint.
    """
    values = {1: values1, 2: values2}
    acc = FULL
    rng = range(-j_bound, j_bound + 1)
    for s in range(1, max_len + 1):
        for tail in product(rng, repeat=s - 1):
            j1 = n - sum(tail)
            if abs(j1) > j_bound:
                continue
            js = (j1,) + tail
            for eps in (1, 2):
                term = frozenset()
                for i, ji in enumerate(js):
                    v = values[1 if (eps + i) % 2 == 1 else 2](ji)
                    tailsum = sum(js[i + 1:])
                    v = shift(v, -tailsum)
                    term = union(term, v)
                    if term is FULL:
                        break
                acc = intersect(acc, term)
    return acc


def to_exponents(circle_set, base_q, base_n):
    """Orbit exponents of a finite point set over the base point, or FULL."""
    if circle_set.full:
        return FULL
    assert not circle_set.arcs
    out = set()
    for p in circle_set.points:
        assert p.q == base_q % 1 if hasattr(base_q, "__mod__") else True
        out.add(p.n - base_n)
    return frozenset(out)


# -- closed circle sets at 256 bits -----------------------------------------------

BITS = 256
M = 1 << BITS  # positions are integers in [0, M)
GOLDEN_SURD = (-1, 1, 5, 2)  # rho = (a + b*sqrt(c))/den


def surd_enclosure(a, b, c, den, bits=BITS):
    """lo < (a + b*sqrt(c))/den < hi for b > 0, hi - lo = b/(den*2**bits)."""
    s = isqrt(c << (2 * bits))  # s <= sqrt(c) * 2**bits < s + 1
    one = 1 << bits
    return Fraction(a * one + b * s, den * one), Fraction(a * one + b * (s + 1), den * one)


def circle_position(q, n, surd=GOLDEN_SURD):
    """floor(M * ((q + n*rho) mod 1)), or None when the enclosure leaves it open.

    rho is enclosed to 2**-(BITS + 64) / |n|, so that n*rho is known to
    2**-(BITS + 64) for every n."""
    lo, hi = surd_enclosure(*surd, bits=BITS + 64 + abs(n).bit_length())
    if n < 0:
        lo, hi = hi, lo
    a, b = floor((q + n * lo) * M), floor((q + n * hi) * M)
    return a % M if a == b else None


def _merged(intervals):
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def arc_set(points, arcs):
    """The set of these point positions and counterclockwise (start, end)
    arcs; an arc with end < start wraps past 0 and is split there."""
    intervals = [(x, x) for x in points]
    for s, e in arcs:
        intervals += [(s, e)] if s <= e else [(s, M - 1), (0, e)]
    return _merged(intervals)


FULL_SET = arc_set((), [(0, M - 1)])


def arc_union(A, B):
    return _merged(A + B)


def arc_intersect(A, B):
    return _merged([(max(a0, b0), min(a1, b1)) for a0, a1 in A for b0, b1 in B
                    if max(a0, b0) <= min(a1, b1)])


def arc_contains(A, B):
    return arc_intersect(A, B) == B


def arc_member(A, x):
    return any(lo <= x <= hi for lo, hi in A)


def arc_pieces(A):
    """(points, arcs): the connected pieces of a set other than the full
    circle, the two intervals through 0 glued into one arc."""
    if len(A) > 1 and A[0][0] == 0 and A[-1][1] == M - 1:
        A = A[1:-1] + [(A[-1][0], A[0][1] + M)]
    points = sum(lo == hi for lo, hi in A)
    return points, len(A) - points


# -- Q(i) as a pair of Fractions -----------------------------------------------


def gq_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def gq_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gq_neg(a):
    return (-a[0], -a[1])


def gq_conj(a):
    return (a[0], -a[1])


def gq_div(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    if not d:
        raise ZeroDivisionError
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


def gq_is_zero(a):
    return not a[0] and not a[1]


def gq_to_complex(a):
    return complex(float(a[0]), float(a[1]))
