"""Exact closed subsets of the unit-parameter circle.

Points are orbit expressions ``(q + n*rho) mod 1`` with q rational and n an
integer; a closed set is a finite union of such points and closed
counterclockwise arcs between them, or the full circle.  Because rho is
irrational, two points are equal iff their (q mod 1, n) data agree, and all
order decisions are exact: float keys with proved bounds, else Angle signs.

Union and intersection of sets holding arcs, and target n (a.rotate(k) u b),
are one coverage sweep (`_sweep`) over the component ends in position order.
Results are canonical (touching arcs joined, points inside arcs absorbed,
components in their exact (q, n) data order, which rotation keeps), so set
equality is plain structural equality.  Point-only sets skip the sweep: they
probe each set's frozenset of points, built once, on first use.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key
from itertools import chain
from operator import itemgetter
from typing import Collection, Iterable, NamedTuple, Optional

from .angle import Angle, json_int, json_number, json_of

__all__ = [
    "CirclePoint",
    "Arc",
    "ClosedCircleSet",
    "covering_index",
    "set_to_json",
    "set_from_json",
    "render_svg",
]

# internal positions (x + y*rho)/d are int triples with d > 0
_Expr = tuple[int, int, int]


class CirclePoint(tuple):
    """The point (q + n*rho) mod 1 as the reduced ints (x, d, n): q = x/d
    with 0 <= x < d and gcd(x, d) = 1.

    Equal points are equal tuples, so equality and hashing are tuple's.
    A Fraction appears only in the constructor and the .q view.
    """

    __slots__ = ()

    def __new__(cls, q, n: int):
        if type(q) is not Fraction:
            q = Fraction(q)
        d = q.denominator
        return tuple.__new__(cls, (q.numerator % d, d, n))

    n = property(itemgetter(2))

    @property
    def q(self) -> Fraction:
        return Fraction(self[0], self[1])

    def shift(self, k: int) -> "CirclePoint":
        x, d, n = self
        return tuple.__new__(CirclePoint, (x, d, n + k))

    def __getnewargs__(self):
        return self.q, self[2]

    def __repr__(self) -> str:
        return f"pt({self.q}{self[2]:+}r)"


class Arc(NamedTuple):
    """Closed arc traversed counterclockwise from start to end (distinct)."""
    start: CirclePoint
    end: CirclePoint

    def shift(self, k: int) -> "Arc":
        return Arc(self.start.shift(k), self.end.shift(k))

    def __repr__(self) -> str:
        return f"arc[{self.start!r},{self.end!r}]"


def pt(q, n: int = 0) -> CirclePoint:
    return CirclePoint(q, n)


_ORIGIN = pt(0)  # positions are _delta from here


# -- exact position arithmetic -------------------------------------------
# Positions are int triples, so comparing and shifting them is integer
# arithmetic; every order decision goes through the angle.


def _cmp(angle: Angle, a: _Expr, b: _Expr) -> int:
    ax, ay, ad = a
    bx, by, bd = b
    return angle.compare_linear(ax * bd - bx * ad, ay * bd - by * ad)


def _delta(angle: Angle, a: CirclePoint, b: CirclePoint) -> _Expr:
    """Counterclockwise distance from a to b as an expression in [0, 1)."""
    xa, da, na = a
    xb, db, nb = b
    x, d = xb * da - xa * db, da * db
    y = (nb - na) * d
    f = angle.floor_linear(x, y, d)
    return (x - f * d, y, d)


def _expr_float(angle: Angle, e: _Expr) -> float:
    """e at the midpoint of the angle's enclosure, correctly rounded."""
    lo, hi = angle.refine(Fraction(1, 10**18))
    mid_den = 2 * lo.denominator * hi.denominator
    mid_num = lo.numerator * hi.denominator + hi.numerator * lo.denominator
    x, y, d = e
    return (x * mid_den + y * mid_num) / (d * mid_den)


class ClosedCircleSet:
    """A normalized finite union of points and closed arcs, or everything."""

    __slots__ = ("angle", "full", "points", "arcs", "_frozen_points")

    def __init__(self, angle: Angle, full: bool, points: tuple[CirclePoint, ...],
                 arcs: tuple[Arc, ...]):
        # not for direct use: see empty/full_circle/from_components
        self.angle = angle
        self.full = full
        self.points = points
        self.arcs = arcs
        self._frozen_points = None  # built on first use by _point_set

    def _point_set(self) -> frozenset:
        if self._frozen_points is None:
            self._frozen_points = frozenset(self.points)
        return self._frozen_points

    # -- constructors ------------------------------------------------------

    @staticmethod
    def empty(angle: Angle) -> "ClosedCircleSet":
        return ClosedCircleSet(angle, False, (), ())

    @staticmethod
    def full_circle(angle: Angle) -> "ClosedCircleSet":
        return ClosedCircleSet(angle, True, (), ())

    @staticmethod
    def from_components(angle: Angle, points: Iterable[CirclePoint] = (),
                        arcs: Iterable[Arc] = ()) -> "ClosedCircleSet":
        return _normalize(angle, list(points), list(arcs))

    @staticmethod
    def from_points(angle: Angle, points: Iterable[CirclePoint]) -> "ClosedCircleSet":
        return _normalize(angle, list(points), [])

    # -- structure ----------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.full and not self.points and not self.arcs

    def classify(self) -> str:
        """One of 'empty', 'finite-points', 'has-interior', 'full'."""
        if self.full:
            return "full"
        if self.arcs:
            return "has-interior"
        if self.points:
            return "finite-points"
        return "empty"

    def is_single_point(self) -> bool:
        return not self.full and not self.arcs and len(self.points) == 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClosedCircleSet):
            return NotImplemented
        return (self.full == other.full and self.points == other.points
                and self.arcs == other.arcs)

    def __hash__(self) -> int:
        return hash((self.full, self.points, self.arcs))

    def __repr__(self) -> str:
        if self.full:
            return "CircleSet(full)"
        return f"CircleSet({list(self.points)}, {list(self.arcs)})"

    # -- operations ----------------------------------------------------------

    def rotate(self, k: int) -> "ClosedCircleSet":
        """Image under the k-th power of the rotation (n -> n + k pointwise).

        The canonical data order of components is preserved by the shift,
        so no re-sorting is needed.
        """
        if self.full or k == 0:
            return self
        return ClosedCircleSet(
            self.angle, False,
            tuple(p.shift(k) for p in self.points),
            tuple(a.shift(k) for a in self.arcs))

    def union(self, other: "ClosedCircleSet") -> "ClosedCircleSet":
        _check_context(self, other)
        if self.full or other.full:
            return ClosedCircleSet.full_circle(self.angle)
        if not self.arcs and not other.arcs:
            return _in_data_order(self.angle, {*self.points, *other.points}, ())
        return _sweep(self.angle, self.points + other.points, self.arcs + other.arcs, 1)

    def intersect(self, other: "ClosedCircleSet") -> "ClosedCircleSet":
        _check_context(self, other)
        if self.full:
            return other
        if other.full:
            return self
        if not self.arcs and not other.arcs:
            keep = other._point_set()  # a subsequence of canonical order is canonical
            if keep.issuperset(self.points):
                return self
            return ClosedCircleSet(self.angle, False,
                                   tuple(p for p in self.points if p in keep), ())
        return _sweep(self.angle, self.points + other.points, self.arcs + other.arcs, 2)

    def intersect_union(self, a: "ClosedCircleSet", k: int,
                        b: "ClosedCircleSet") -> "ClosedCircleSet":
        """self n (a.rotate(k) u b), and self itself when nothing is cut."""
        _check_context(self, a)
        _check_context(self, b)
        if a.full or b.full:
            return self
        if self.full:
            bound = a.rotate(k).union(b)
            return self if bound.full else bound
        if self.arcs or a.arcs or b.arcs:
            # self counts twice: depth 3 is where self and a or b cover (a
            # canonical set covers a point at most once)
            a = a.rotate(k)
            cut = _sweep(self.angle, self.points * 2 + a.points + b.points,
                         self.arcs * 2 + a.arcs + b.arcs, 3)
            return self if cut == self else cut
        # points only: p is in a.rotate(k) iff its shift by -k is in a, and a
        # point hashes and compares as its plain tuple, so the probe builds
        # no point; a subsequence of canonical order is canonical
        inside, moved = b._point_set(), a._point_set()
        kept = tuple(p for p in self.points
                     if p in inside or (p[0], p[1], p[2] - k) in moved)
        if len(kept) == len(self.points):
            return self
        return ClosedCircleSet(self.angle, False, kept, ())

    def contains_point(self, p: CirclePoint) -> bool:
        if self.full or p in self._point_set():
            return True
        return bool(self.arcs) and not _sweep(self.angle, (p,), self.arcs, 2).is_empty()

    def contains_set(self, other: "ClosedCircleSet") -> bool:
        _check_context(self, other)
        if self.full:
            return True
        if other.full:
            return False
        if not self.arcs and not other.arcs:
            return self._point_set().issuperset(other.points)
        return self.intersect(other) == other

    def float_components(self) -> tuple[list[float], list[tuple[float, float]]]:
        """Numeric view: point positions and (start, length) pairs for arcs.

        Presentation/sampling only; exact decisions never go through this.
        """
        pts = [_expr_float(self.angle, _delta(self.angle, _ORIGIN, p)) for p in self.points]
        arcs = [(_expr_float(self.angle, _delta(self.angle, _ORIGIN, a.start)),
                 _expr_float(self.angle, _delta(self.angle, a.start, a.end)))
                for a in self.arcs]
        return pts, arcs


def _check_context(a: ClosedCircleSet, b: ClosedCircleSet) -> None:
    if a.angle is not b.angle and not a.angle.same_as(b.angle):
        raise ValueError("circle sets built over different angle contexts")


def _in_data_order(angle: Angle, points: Collection[CirclePoint],
                   arcs: Collection[Arc]) -> ClosedCircleSet:
    """The set of these distinct components, listed in the exact value
    order of (q, n), arcs by start then end.

    Two distinct q = x/d with every d < 2**b differ by more than 2**-2b,
    so the integer floor(x * 2**2b / d) orders them exactly.
    """
    b2 = 2 * max((p[1] for p in chain(points, *arcs)), default=1).bit_length()

    def key(p: CirclePoint) -> tuple[int, int]:
        return (p[0] << b2) // p[1], p[2]

    return ClosedCircleSet(angle, False, tuple(sorted(points, key=key)),
                           tuple(sorted(arcs, key=lambda a: key(a[0]) + key(a[1]))))


def _normalize(angle: Angle, points: list[CirclePoint], arcs: list[Arc]) -> ClosedCircleSet:
    """Canonical form of the union of these components."""
    if not arcs:
        return _in_data_order(angle, set(points), ())
    return _sweep(angle, points, arcs, 1)


def _position_order(angle: Angle, ends: Collection[CirclePoint]) -> list[CirclePoint]:
    """The distinct ends sorted by position from 0: by float keys when their
    error intervals are disjoint and clear of 0 and 1, else by the exact
    sort (`_delta` from 0, `_cmp`), which the float order presorts.

    A key is within (|n| + 2) * 2**-51 of its end: |r - rho| <= 2**-54 for
    the nearest float r, and the roundings of x/d, float(n), n*r, the sum
    and % 1.0 add at most (7|n| + 4) * 2**-54 + O(|n| * 2**-105).  Twice
    that bound also covers the test's own roundings.  0 is exact.
    """
    r = angle.float_value()
    try:
        key = {p: (p[0] / p[1] + p[2] * r) % 1.0 for p in ends}
        order = sorted(key, key=key.__getitem__)
        lo = 0.0  # the top of the last error interval
        for p in order:
            if p[0] or p[2]:
                e = (abs(p[2]) + 2) * 2.0**-50
                if key[p] - e <= lo:
                    break
                lo = key[p] + e
        else:
            if lo < 1.0:
                return order
    except OverflowError:  # n beyond float range
        order = list(ends)
    pos = {p: _delta(angle, _ORIGIN, p) for p in order}
    return sorted(order, key=cmp_to_key(lambda a, b: _cmp(angle, pos[a], pos[b])))


def _sweep(angle: Angle, points: Collection[CirclePoint], arcs: Collection[Arc],
           need: int) -> ClosedCircleSet:
    """The closed set of positions covered by at least `need` components.

    A point is an arc of length zero.  The distinct ends are sorted once by
    position (`_position_order`).  At each end, arcs starting there count
    before arcs ending there: touching arcs join, and closed arcs that meet
    in an end keep that point.  The depth at 0 is the number of arcs that
    wrap past it; a piece open across 0 ends where the depth falls below need.
    """
    starts = Counter(points)
    ends = starts.copy()
    for s, e in arcs:
        starts[s] += 1
        ends[e] += 1
    order = _position_order(angle, starts.keys() | ends.keys())
    rank = {p: i for i, p in enumerate(order)}
    depth = wrapped = sum(rank[e] < rank[s] for s, e in arcs)
    pts, out = [], []
    lo = head = None  # where the open piece began; the end of the piece across 0
    for p in order:
        up = depth + starts[p]
        if depth < need <= up:
            lo = p
        depth = up - ends[p]
        if depth < need <= up:
            if lo is None:
                head = p
            elif lo == p:
                pts.append(p)
            else:
                out.append(Arc(lo, p))
            lo = None
    if wrapped >= need:
        if head is None:
            return ClosedCircleSet.full_circle(angle)
        out.append(Arc(lo, head))
    return _in_data_order(angle, pts, out)


COVERING_LIMIT = 500  # the most rotated copies covering_index unions


def covering_index(P: ClosedCircleSet, q: int) -> Optional[int]:
    """Smallest N >= 1 with P u r^-q P u ... u r^-q(N-1) P equal to the circle.

    Returns None when P has no interior (no finite union of rotated copies
    of a nowhere dense set can cover).  Each N is decided by an exact
    union, and the search stops at COVERING_LIMIT: N > COVERING_LIMIT
    raises ValueError, at once when 1/measure(P), a lower bound of N,
    exceeds the limit, else when the union loop reaches it.
    """
    if q == 0:
        raise ValueError("q must be nonzero")
    if P.full:
        return 1
    if not P.arcs:
        return None
    angle = P.angle
    lo, hi = angle.refine(Fraction(1, 10**24))
    # canonical arcs are disjoint, so lower bounds of their lengths sum to
    # a lower bound of the measure
    measure = sum((x + y * (lo if y > 0 else hi)) / d
                  for x, y, d in (_delta(angle, a.start, a.end) for a in P.arcs))
    if measure * COVERING_LIMIT < 1:
        raise ValueError(f"covering-index-too-large: arcs measure below 1/{COVERING_LIMIT}")
    acc = P
    for N in range(2, COVERING_LIMIT + 1):
        acc = acc.union(P.rotate(-q * (N - 1)))
        if acc.full:
            return N
    raise ValueError(f"covering-index-too-large: {COVERING_LIMIT} copies do not cover")


# -- serialization ----------------------------------------------------------


def _pt_to_json(p: CirclePoint) -> dict:
    return {"q": str(p.q), "n": p.n}


def _pt_from_json(doc: dict) -> CirclePoint:
    q = json_number(json_of(dict, doc, "point")["q"], "q")
    return CirclePoint(q, json_int(doc["n"], "n"))


def set_to_json(s: ClosedCircleSet) -> dict:
    if s.full:
        return {"full": True}
    comps = [{"pt": _pt_to_json(p)} for p in s.points]
    comps += [{"arc": {"start": _pt_to_json(a.start), "end": _pt_to_json(a.end)}}
              for a in s.arcs]
    return {"components": comps}


def set_from_json(angle: Angle, doc: dict) -> ClosedCircleSet:
    if json_of(dict, doc, "circle set").get("full"):
        return ClosedCircleSet.full_circle(angle)
    pts, arcs = [], []
    for comp in json_of(list, doc.get("components", []), "components"):
        if "pt" in json_of(dict, comp, "component"):
            pts.append(_pt_from_json(comp["pt"]))
        elif "arc" in comp:
            arc = json_of(dict, comp["arc"], "arc")
            arcs.append(Arc(_pt_from_json(arc["start"]), _pt_from_json(arc["end"])))
        else:
            raise ValueError("unknown component kind")
    return ClosedCircleSet.from_components(angle, pts, arcs)


def render_svg(s: ClosedCircleSet) -> str:
    """Static 420-pixel SVG picture of the set as marked points/arcs on a circle."""
    size = 420
    cx = cy = size / 2
    r = size * 0.38

    def xy(position: float) -> tuple[float, float]:
        th = 2 * math.pi * position
        return cx + r * math.cos(th), cy - r * math.sin(th)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r:.2f}" fill="none" '
        'stroke="#bbbbbb" stroke-width="2"/>',
    ]
    if s.full:
        lines.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r:.2f}" fill="none" '
                     'stroke="#c0392b" stroke-width="6"/>')
    else:
        points, arcs = s.float_components()
        for p0, span in arcs:
            x0, y0 = xy(p0)
            x1, y1 = xy(p0 + span)
            large = 1 if span > 0.5 else 0
            lines.append(
                f'<path d="M {x0:.3f} {y0:.3f} A {r:.3f} {r:.3f} 0 {large} 0 '
                f'{x1:.3f} {y1:.3f}" fill="none" stroke="#c0392b" stroke-width="6"/>')
        for p in points:
            x, y = xy(p)
            lines.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="5" fill="#2c3e50"/>')
    lines.append("</svg>")
    return "\n".join(lines)
