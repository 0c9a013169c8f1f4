"""Exact closed subsets of the unit-parameter circle.

Points are orbit expressions ``(q + n*rho) mod 1`` with q rational and n an
integer; a closed set is a finite union of such points and closed
counterclockwise arcs between them, or the full circle.  Because rho is
irrational, two points are equal iff their (q mod 1, n) data agree, and all
order decisions reduce to exact sign tests through the shared Angle.

Boolean operations normalize to a canonical component list (arcs merged,
touching arcs joined, points inside arcs absorbed, components sorted by
position), so set equality is plain structural equality.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .angle import Angle

__all__ = [
    "CirclePoint",
    "Arc",
    "ClosedCircleSet",
    "covering_index",
    "set_to_json",
    "set_from_json",
    "render_svg",
]

# internal linear expressions q + n*rho are plain (Fraction, int) pairs
_Expr = tuple[Fraction, int]


class CirclePoint:
    """The point (q + n*rho) mod 1; q is stored reduced into [0, 1).

    Immutable, equal and hashed by (q, n).  Equal q values share one
    interned Fraction, so tuple and set compares of points meet q by
    identity instead of calling Fraction.__eq__; the hash of q and of the
    point are computed once.  The hash is hash((q, n)), so a set of points
    iterates in the order a set of the (q, n) pairs would.
    """

    __slots__ = ("q", "n", "_qhash", "_hash")

    def __init__(self, q, n: int):
        if type(q) is not Fraction:
            q = Fraction(q)
        if not 0 <= q < 1:
            q -= q // 1
        entry = _INTERNED_Q.get(q)
        if entry is None:
            entry = _INTERNED_Q[q] = (q, hash(q))
        q, qhash = entry
        _set_q(self, q)
        _set_n(self, n)
        _set_qhash(self, qhash)
        _set_hash(self, hash((qhash, n)))

    def shift(self, k: int) -> "CirclePoint":
        # q is already reduced and interned: copy it and its hash
        p = _new_point(CirclePoint)
        n = self.n + k
        qhash = self._qhash
        _set_q(p, self.q)
        _set_n(p, n)
        _set_qhash(p, qhash)
        _set_hash(p, hash((qhash, n)))
        return p

    def __setattr__(self, name, value):
        raise AttributeError(f"CirclePoint is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"CirclePoint is immutable: cannot delete {name!r}")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not CirclePoint:
            return NotImplemented
        # q is interned, so equal q are almost always one object; threads
        # interning the same new q at once can leave two, hence the ==
        return (self._hash == other._hash and self.n == other.n
                and (self.q is other.q or self.q == other.q))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (CirclePoint, (self.q, self.n))

    def __repr__(self) -> str:
        return f"pt({self.q}{self.n:+}r)"


# reduced q -> (the shared Fraction, its hash); new q values enter only
# through the CirclePoint constructor, never through a set operation
_INTERNED_Q: dict[Fraction, tuple[Fraction, int]] = {}
_new_point = object.__new__
_set_q = CirclePoint.q.__set__
_set_n = CirclePoint.n.__set__
_set_qhash = CirclePoint._qhash.__set__
_set_hash = CirclePoint._hash.__set__


@dataclass(frozen=True)
class Arc:
    """Closed arc traversed counterclockwise from start to end (distinct)."""
    start: CirclePoint
    end: CirclePoint

    def shift(self, k: int) -> "Arc":
        return Arc(self.start.shift(k), self.end.shift(k))

    def __repr__(self) -> str:
        return f"arc[{self.start!r},{self.end!r}]"


def pt(q, n: int = 0) -> CirclePoint:
    return CirclePoint(Fraction(q), n)


# -- exact position arithmetic -------------------------------------------

def _cmp(angle: Angle, a: _Expr, b: _Expr) -> int:
    return angle.compare_linear(a[0] - b[0], a[1] - b[1])


def _offset(angle: Angle, p: CirclePoint) -> _Expr:
    """Position of p as an expression in [0, 1) measured from 0."""
    f = angle.floor_linear(p.q, p.n)
    return (p.q - f, p.n)


def _delta(angle: Angle, a: CirclePoint, b: CirclePoint) -> _Expr:
    """Counterclockwise distance from a to b as an expression in [0, 1)."""
    q, n = b.q - a.q, b.n - a.n
    f = angle.floor_linear(q, n)
    return (q - f, n)


def _expr_float(angle: Angle, e: _Expr) -> float:
    lo, hi = angle.refine(Fraction(1, 10**18))
    return float(e[0] + e[1] * (lo + hi) / 2)


class ClosedCircleSet:
    """A normalized finite union of points and closed arcs, or everything."""

    __slots__ = ("angle", "full", "points", "arcs")

    def __init__(self, angle: Angle, full: bool, points: tuple[CirclePoint, ...],
                 arcs: tuple[Arc, ...]):
        # not for direct use: see empty/full_circle/from_components
        self.angle = angle
        self.full = full
        self.points = points
        self.arcs = arcs

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
            pts = set(self.points)
            pts.update(other.points)
            return ClosedCircleSet(self.angle, False,
                                   tuple(sorted(pts, key=_data_key)), ())
        return _normalize(self.angle,
                          list(self.points) + list(other.points),
                          list(self.arcs) + list(other.arcs))

    def intersect(self, other: "ClosedCircleSet") -> "ClosedCircleSet":
        _check_context(self, other)
        if self.full:
            return other
        if other.full:
            return self
        if not self.arcs and not other.arcs:
            pts = set(self.points) & set(other.points)
            return ClosedCircleSet(self.angle, False,
                                   tuple(sorted(pts, key=_data_key)), ())
        pts: list[CirclePoint] = []
        arcs: list[Arc] = []
        for p in self.points:
            if other.contains_point(p):
                pts.append(p)
        for p in other.points:
            if self._arc_member(p):
                pts.append(p)
        for a in self.arcs:
            for b in other.arcs:
                for piece in _arc_intersect(self.angle, a, b):
                    if isinstance(piece, Arc):
                        arcs.append(piece)
                    else:
                        pts.append(piece)
        return _normalize(self.angle, pts, arcs)

    def contains_point(self, p: CirclePoint) -> bool:
        if self.full:
            return True
        if p in self.points:
            return True
        if not self.arcs:
            return False
        return self._arc_member(p)

    def _arc_member(self, p: CirclePoint) -> bool:
        for a in self.arcs:
            if _cmp(self.angle, _delta(self.angle, a.start, p),
                    _delta(self.angle, a.start, a.end)) <= 0:
                return True
        return False

    def contains_set(self, other: "ClosedCircleSet") -> bool:
        _check_context(self, other)
        if self.full:
            return True
        if other.full:
            return False
        if not self.arcs and not other.arcs:
            return set(self.points) >= set(other.points)
        return self.intersect(other) == other

    def float_components(self) -> tuple[list[float], list[tuple[float, float]]]:
        """Numeric view: point positions and (start, length) pairs for arcs.

        Presentation/sampling only; exact decisions never go through this.
        """
        pts = [_expr_float(self.angle, _offset(self.angle, p)) for p in self.points]
        arcs = [(_expr_float(self.angle, _offset(self.angle, a.start)),
                 _expr_float(self.angle, _delta(self.angle, a.start, a.end)))
                for a in self.arcs]
        return pts, arcs


def _check_context(a: ClosedCircleSet, b: ClosedCircleSet) -> None:
    if not a.angle.same_as(b.angle):
        raise ValueError("circle sets built over different angle contexts")


def _data_key(p: CirclePoint):
    return (p.q, p.n)


def _arc_data_key(a: Arc):
    return (a.start.q, a.start.n, a.end.q, a.end.n)


def _normalize(angle: Angle, points: list[CirclePoint], arcs: list[Arc]) -> ClosedCircleSet:
    """Canonical form: merged arcs, absorbed/deduped points, components in
    data order (which rotation preserves)."""
    live_pts = set(points)
    live_arcs = []
    for a in arcs:
        if a.start == a.end:
            live_pts.add(a.start)
        else:
            live_arcs.append(a)
    if live_arcs:
        merged = _merge_arcs(angle, live_arcs)
        if merged is None:  # covered everything
            return ClosedCircleSet.full_circle(angle)
        live_arcs = merged
        tmp = ClosedCircleSet(angle, False, (), tuple(live_arcs))
        live_pts = {p for p in live_pts if not tmp._arc_member(p)}
    return ClosedCircleSet(angle, False,
                           tuple(sorted(live_pts, key=_data_key)),
                           tuple(sorted(live_arcs, key=_arc_data_key)))


def _merge_arcs(angle: Angle, arcs: list[Arc]) -> Optional[list[Arc]]:
    """Merge overlapping/touching arcs; None means the circle is covered."""
    # unroll each arc to a line interval [a, a + span) with a in [0, 1)
    items = []
    for arc in arcs:
        a = _offset(angle, arc.start)
        span = _delta(angle, arc.start, arc.end)
        b = (a[0] + span[0], a[1] + span[1])
        items.append([a, b, arc.start, arc.end])
    import functools
    items.sort(key=functools.cmp_to_key(lambda x, y: _cmp(angle, x[0], y[0])))

    merged: list[list] = []
    for it in items:
        if merged and _cmp(angle, it[0], merged[-1][1]) <= 0:
            if _cmp(angle, it[1], merged[-1][1]) > 0:
                merged[-1][1] = it[1]
                merged[-1][3] = it[3]
        else:
            merged.append(it)
    # wrap: the last interval may extend past 1 and swallow leading ones
    one = (Fraction(1), 0)
    while len(merged) > 1:
        tail = merged[-1]
        wrapped_end = (tail[1][0] - 1, tail[1][1])
        head = merged[0]
        if _cmp(angle, wrapped_end, head[0]) < 0:
            break
        if _cmp(angle, wrapped_end, head[1]) >= 0:
            merged.pop(0)  # head fully swallowed
            continue
        tail[1] = (head[1][0] + 1, head[1][1])
        tail[3] = head[3]
        merged.pop(0)
        break
    for it in merged:
        span = (it[1][0] - it[0][0], it[1][1] - it[0][1])
        if _cmp(angle, span, one) >= 0:
            return None
    return [Arc(it[2], it[3]) for it in merged]


def _arc_intersect(angle: Angle, a: Arc, b: Arc) -> list:
    """Intersection of two closed arcs: up to two arcs/points."""
    la = _delta(angle, a.start, a.end)
    b0 = _delta(angle, a.start, b.start)
    spanb = _delta(angle, b.start, b.end)
    out = []
    for shift in (0, -1):
        lo = (b0[0] + shift, b0[1])
        hi = (lo[0] + spanb[0], lo[1] + spanb[1])
        # clip [lo, hi] against [0, la]
        if _cmp(angle, lo, (Fraction(0), 0)) < 0:
            lo_pt = a.start
            lo = (Fraction(0), 0)
        else:
            lo_pt = b.start
        if _cmp(angle, hi, la) > 0:
            hi_pt = a.end
            hi = la
        else:
            hi_pt = b.end
        s = _cmp(angle, lo, hi)
        if s > 0:
            continue
        if s == 0:
            out.append(lo_pt)
        else:
            out.append(Arc(lo_pt, hi_pt))
    return out


def covering_index(P: ClosedCircleSet, q: int) -> Optional[int]:
    """Smallest N >= 1 with P u r^-q P u ... u r^-q(N-1) P equal to the circle.

    Returns None when P has no interior (no finite union of rotated copies
    of a nowhere dense set can cover).  Termination for interior sets is
    backed by an explicit cap derived from how fast multiples of q*rho
    come back near 0 relative to the widest arc of P.
    """
    if q == 0:
        raise ValueError("q must be nonzero")
    if P.full:
        return 1
    if not P.arcs:
        return None
    angle = P.angle

    def expr_bounds(e: _Expr, prec: Fraction) -> tuple[Fraction, Fraction]:
        lo, hi = angle.refine(prec)
        a, b = e[0] + e[1] * lo, e[0] + e[1] * hi
        return (a, b) if a <= b else (b, a)

    prec = Fraction(1, 10**24)
    # widest arc length, as a rational lower bound
    L = max(expr_bounds(_delta(angle, a.start, a.end), prec)[0] for a in P.arcs)
    assert L > 0
    # find m with dist(m*q*rho, Z) < L/2; the exact distance expression is
    # e or 1-e depending on an exact half-circle test
    m = 1
    while True:
        f = angle.floor_linear(Fraction(0), m * q)
        e = (Fraction(-f), m * q)  # frac(m*q*rho) in [0, 1)
        if angle.compare_linear(2 * e[0] - 1, 2 * e[1]) <= 0:
            dist = e
        else:
            dist = (1 - e[0], -e[1])
        d_lo, d_hi = expr_bounds(dist, prec)
        if d_hi < L / 2:
            while d_lo <= 0:
                prec /= 1 << 16
                d_lo, d_hi = expr_bounds(dist, prec)
            break
        m += 1
    cap = m * (int(2 / d_lo) + 2) + m + 2

    acc = P
    for N in range(2, cap + 2):
        acc = acc.union(P.rotate(-q * (N - 1)))
        if acc.full:
            return N
    raise AssertionError("covering cap exceeded; cap computation is wrong")


# -- serialization ----------------------------------------------------------


def _pt_to_json(p: CirclePoint) -> dict:
    return {"q": str(p.q), "n": p.n}


def _pt_from_json(doc: dict) -> CirclePoint:
    return CirclePoint(Fraction(doc["q"]), int(doc["n"]))


def set_to_json(s: ClosedCircleSet) -> dict:
    if s.full:
        return {"full": True}
    comps = [{"pt": _pt_to_json(p)} for p in s.points]
    comps += [{"arc": {"start": _pt_to_json(a.start), "end": _pt_to_json(a.end)}}
              for a in s.arcs]
    return {"components": comps}


def set_from_json(angle: Angle, doc: dict) -> ClosedCircleSet:
    if doc.get("full"):
        return ClosedCircleSet.full_circle(angle)
    pts, arcs = [], []
    for comp in doc.get("components", []):
        if "pt" in comp:
            pts.append(_pt_from_json(comp["pt"]))
        elif "arc" in comp:
            arcs.append(Arc(_pt_from_json(comp["arc"]["start"]),
                            _pt_from_json(comp["arc"]["end"])))
        else:
            raise ValueError("unknown component kind")
    return ClosedCircleSet.from_components(angle, pts, arcs)


def render_svg(s: ClosedCircleSet, size: int = 420) -> str:
    """Static SVG picture of the set as marked points/arcs on a circle."""
    import math

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
    angle = s.angle
    if s.full:
        lines.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r:.2f}" fill="none" '
                     'stroke="#c0392b" stroke-width="6"/>')
    else:
        for a in s.arcs:
            p0 = _expr_float(angle, _offset(angle, a.start))
            span = _expr_float(angle, _delta(angle, a.start, a.end))
            x0, y0 = xy(p0)
            x1, y1 = xy(p0 + span)
            large = 1 if span > 0.5 else 0
            lines.append(
                f'<path d="M {x0:.3f} {y0:.3f} A {r:.3f} {r:.3f} 0 {large} 0 '
                f'{x1:.3f} {y1:.3f}" fill="none" stroke="#c0392b" stroke-width="6"/>')
        for p in s.points:
            x, y = xy(_expr_float(angle, _offset(angle, p)))
            lines.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="5" fill="#2c3e50"/>')
    lines.append("</svg>")
    return "\n".join(lines)
