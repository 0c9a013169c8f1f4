"""Exact rotation angles.

The rotation parameter rho is an irrational number in (0, 1), held
symbolically so that signs of expressions ``q + n*rho`` (q rational, n
integer) are decided exactly rather than with floating point.  Two
descriptor kinds are supported:

* quadratic surds ``(a + b*sqrt(c)) / den`` with c a non-square,
* continued-fraction coefficient streams given by a finite prefix plus a
  production rule for the tail.

Both rules give an eventually periodic continued fraction, so a cf angle
is a quadratic surd too (Euler and Lagrange), and it is converted to one
when it is built.  Every read goes through one kernel, the floor of
``(x + y*rho)/d``: one ``math.isqrt`` and one integer division, exact
because ``y*b*sqrt(c)`` is irrational for y != 0.  Order decisions
(:meth:`Angle.compare_linear`, :meth:`Angle.floor_linear`), the range
check and the dyadic enclosures of :meth:`Angle.refine` read it directly;
only :meth:`Angle.best_denominators` walks the continued fraction.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd, isfinite, isqrt
from typing import Optional

__all__ = [
    "Angle",
    "golden_angle",
    "silver_angle",
    "named_angle",
    "NAMED_ANGLES",
    "PhaseSearchFailed",
]


# bits of a descriptor: a surd's a, b, c and den each, a cf prefix's
# quotients in total; a decision costs one isqrt of a number about four
# times this size
ANGLE_BITS = 4096
# the largest decimal exponent, in size, of a numeric string read as a
# Fraction: Fraction("1e10000000") builds 10**10000000 first, 8.7 s on a
# 2-CPU box; 10**1000 has 3,322 bits, within ANGLE_BITS
EXPONENT_LIMIT = 1000
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


class PhaseSearchFailed(RuntimeError):
    """No integer conjugator realizes the requested root-of-unity phase."""


def _is_square(c: int) -> bool:
    r = isqrt(c)
    return r * r == c


class Angle:
    """An exact irrational rotation parameter in (0, 1).

    Immutable: held as the surd ``self._surd = (a, b, c, den)``, den > 0
    and gcd(a, b, den) = 1, whatever the descriptor, and every read is a
    function of that tuple.  The one memo is the float value, which is
    the same whichever thread writes it first.
    """

    def __init__(self, kind: str, *, surd: tuple[int, int, int, int] | None = None,
                 cf_prefix: list[int] | None = None, cf_rule: str = "repeat-last"):
        self.kind = kind
        self._float: float | None = None

        if kind == "surd":
            a, b, c, den = surd
            if max(abs(v).bit_length() for v in surd) > ANGLE_BITS:
                raise ValueError(f"angle-too-large: a surd term has more than {ANGLE_BITS} bits")
            if den == 0:
                raise ValueError("zero denominator")
            if den < 0:
                a, b, den = -a, -b, -den
            if b == 0 or c <= 1 or _is_square(c):
                raise ValueError("surd must be irrational: need b != 0 and c a non-square > 1")
            self._given = (a, b, c, den)  # echoed by to_json and repr
        elif kind == "cf":
            if not cf_prefix or cf_prefix[0] != 0:
                raise ValueError("prefix must start with 0 for a value in (0, 1)")
            if any(a < 1 for a in cf_prefix[1:]):
                raise ValueError("partial quotients after the first must be >= 1")
            if cf_rule == "repeat-last":
                if len(cf_prefix) < 2:
                    raise ValueError("repeat-last rule needs at least one partial quotient")
                k = 1
            elif cf_rule.startswith("periodic:"):
                k = int(cf_rule.split(":", 1)[1])
                if not (1 <= k <= len(cf_prefix) - 1):
                    raise ValueError("period length out of range")
            else:
                raise ValueError(f"unknown rule {cf_rule!r}")
            if sum(a.bit_length() for a in cf_prefix) > ANGLE_BITS:
                raise ValueError(f"angle-too-large: the prefix has more than {ANGLE_BITS} bits")
            self._cf_prefix = list(cf_prefix)
            self._cf_rule = cf_rule
            a, b, c, den = _periodic_surd(cf_prefix, k)
        else:
            raise ValueError(f"unknown descriptor kind {kind!r}")

        # reduced, so a scaled descriptor decides at the cost of the reduced one
        g = gcd(a, b, den)
        self._surd = (a // g, b // g, c, den // g)
        # rho is irrational, so it lies in (0, 1) exactly when its floor is 0
        if self._floor(0, 1, 1) != 0:
            raise ValueError("angle value must lie in (0, 1)")

    # -- enclosure and refinement ----------------------------------------

    def refine(self, precision: Fraction) -> tuple[Fraction, Fraction]:
        """Rational interval of width <= precision containing the value.

        The interval is (f/2**k, (f+1)/2**k) with f = floor(rho*2**k), for
        the least k with 2**-k <= precision and both ends strictly inside
        (0, 1).  It depends on the precision alone, and dyadic intervals
        nest, so a finer precision gives a subinterval.
        """
        precision = Fraction(precision)
        if precision <= 0:
            raise ValueError("precision must be positive")
        # least k with 2**k >= ceil(1/precision)
        k = (-(-precision.denominator // precision.numerator) - 1).bit_length()
        while (f := self._floor(0, 1 << k, 1)) == 0 or f + 1 == 1 << k:
            k += 1
        return Fraction(f, 1 << k), Fraction(f + 1, 1 << k)

    def float_value(self) -> float:
        """rho rounded to the nearest float: the rounding of both ends of
        a pair that round alike (rho is irrational, so a pair does)."""
        if self._float is None:
            precision = Fraction(1, 10**18)
            lo, hi = self.refine(precision)
            while float(lo) != float(hi):
                precision /= 1 << 16
                lo, hi = self.refine(precision)
            self._float = float(lo)
        return self._float

    # -- exact decisions ---------------------------------------------------

    def _floor(self, x: int, y: int, d: int) -> int:
        """Exact floor of (x + y*rho)/d for ints x, y and d > 0.

        (x + y*rho)/d = (u + v*sqrt(c))/(d*den); v*sqrt(c) is irrational
        for v != 0, so its floor is isqrt(v*v*c) for v >= 0 and
        -isqrt(v*v*c) - 1 for v < 0.
        """
        a, b, c, den = self._surd
        u, v = x * den + y * a, y * b
        r = isqrt(v * v * c)
        if v >= 0:
            return (u + r) // (d * den)
        return (u - r - 1) // (d * den)

    def compare_linear(self, q, n: int) -> int:
        """Exact sign of q + n*rho for q an int or a Fraction, in {-1, 0, +1}."""
        x, y = q.numerator, n * q.denominator
        if x == 0 and y == 0:
            return 0
        # x + y*rho is not 0, so it is positive exactly when its floor is >= 0
        return 1 if self._floor(x, y, 1) >= 0 else -1

    def floor_linear(self, q, n: int, d: int = 1) -> int:
        """Exact floor of (q + n*rho)/d for q an int or a Fraction and d > 0."""
        den = q.denominator
        return self._floor(q.numerator, n * den, d * den)

    # -- rational approximation services ----------------------------------

    def best_denominators(self, count: int) -> list[int]:
        """First `count` convergent denominators q_1, q_2, ...

        Along this sequence the distance from q_k * rho to the nearest
        integer is strictly decreasing.  The partial quotients come from
        the complete quotients x_k = (P + sqrt(D))/Q, Q | D - P**2, and
        q_k = a_k q_{k-1} + q_{k-2} from q_{-2}, q_{-1} = 1, 0.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        a, b, c, den = self._surd
        s = 1 if b > 0 else -1  # b*sqrt(c) = s*sqrt(b*b*c)
        P, D, Q = s * a, b * b * c, s * den
        if (D - P * P) % Q != 0:
            P, D, Q = P * abs(Q), D * Q * Q, Q * abs(Q)
        q0, q1, out = 1, 0, []
        for _ in range(count + 1):  # a_0 = 0 gives q_0 = 1, then q_1 ...
            a_k = _floor_quad(P, D, Q)
            P = a_k * Q - P
            Q = (D - P * P) // Q
            q0, q1 = q1, a_k * q1 + q0
            out.append(q1)
        return out[1:]

    def match_phase(self, target: Fraction, tolerance: Fraction,
                    search_bound: int) -> Optional[int]:
        """Best k with 1 <= |k| <= search_bound putting frac(k*rho) near target.

        Minimizes the circle distance from frac(k*rho) to `target` over the
        search range; returns k only when that distance is < tolerance,
        otherwise None.  All comparisons are exact; ties prefer smaller |k|,
        then positive k.  With target a/b and tolerance p/s, b times each
        distance is an integer form x + y*rho, decided by the kernel.
        """
        tolerance = Fraction(tolerance)
        if not (0 < tolerance < Fraction(1, 2)):
            raise ValueError("tolerance must lie in (0, 1/2)")
        target = Fraction(target) % 1
        a, b = target.numerator, target.denominator
        p, s = tolerance.numerator, tolerance.denominator

        best = best_k = None  # best = (x, y): b times the least distance so far
        for mag in range(1, search_bound + 1):
            for k in (mag, -mag):
                # b*frac(k*rho - a/b) = x + y*rho, in [0, b)
                y = b * k
                x = -a - b * self.floor_linear(-a, y, b)
                # circle distance: that, or b minus it past b/2
                if self.compare_linear(2 * x - b, 2 * y) > 0:
                    x, y = b - x, -y
                # ties keep the earlier (smaller |k|, positive) hit
                if best is None or self.compare_linear(x - best[0], y - best[1]) < 0:
                    best, best_k = (x, y), k
        if best is not None and self.compare_linear(best[0] * s - p * b, best[1] * s) < 0:
            return best_k
        return None

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == "surd":
            a, b, c, den = self._given
            return {"kind": "surd", "a": a, "b": b, "c": c, "den": den}
        return {"kind": "cf", "prefix": list(self._cf_prefix), "rule": self._cf_rule}

    @staticmethod
    def from_json(doc: dict) -> "Angle":
        kind = json_of(dict, doc, "angle").get("kind")
        if kind == "surd":
            return Angle("surd", surd=tuple(json_int(doc[k], k) for k in ("a", "b", "c", "den")))
        if kind == "cf":
            prefix = json_of(list, doc["prefix"], "prefix")
            return Angle("cf", cf_prefix=[json_int(a, "prefix") for a in prefix],
                         cf_rule=json_of(str, doc.get("rule", "repeat-last"), "rule"))
        raise ValueError("unknown angle descriptor")

    def same_as(self, other: "Angle") -> bool:
        """Same rotation parameter: identical object or equal descriptor."""
        if self is other:
            return True
        return isinstance(other, Angle) and self.to_json() == other.to_json()

    def __repr__(self) -> str:
        if self.kind == "surd":
            a, b, c, den = self._given
            return f"Angle(({a}{b:+}*sqrt({c}))/{den})"
        return f"Angle(cf {self._cf_prefix} {self._cf_rule})"


def json_int(value, field: str) -> int:
    """An integer field of a JSON document: a float, bool or string is
    rejected, not truncated or parsed."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def json_number(value, field: str, exact: bool = True) -> Fraction | float:
    """A number field of a JSON document: an int, a float or a string such
    as "3/4" or "0.1", read as a `Fraction`, or with exact=False as the
    finite float `float(value)`.  A bool, list, object or null is rejected,
    not read as 1 or 0, and so is a value that is no rational (no finite
    float), and a string whose decimal exponent exceeds EXPONENT_LIMIT in
    size, checked before the Fraction is built."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"{field} must be a number or a numeric string, got {value!r}")
    kind = "rational" if exact else "finite float"
    try:
        exponent = _EXPONENT.search(value) if exact and isinstance(value, str) else None
        past = exponent is not None and abs(int(exponent[1])) > EXPONENT_LIMIT
        number = None if past else Fraction(value) if exact else float(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"{field} must be a {kind}, got {value!r}") from exc
    if past:
        raise ValueError(f"{field} has a decimal exponent past EXPONENT_LIMIT = {EXPONENT_LIMIT}")
    if not exact and not isfinite(number):
        raise ValueError(f"{field} must be a {kind}, got {value!r}")
    return number


def json_of(kind: type, value, field: str):
    """A field of a JSON document that must be of the given type (dict,
    list or str): anything else is bad input, not a crash further in."""
    if not isinstance(value, kind):
        raise ValueError(f"{field} must be a {kind.__name__}, got {value!r}")
    return value


def _convergents(quotients: list[int]) -> tuple[int, int, int, int]:
    """(p, q, p1, q1): the last two convergents p/q, p1/q1 of the quotients."""
    p, q, p1, q1 = 1, 0, 0, 1
    for a in quotients:
        p, q, p1, q1 = a * p + p1, a * q + q1, p, q
    return p, q, p1, q1


def _periodic_surd(prefix: list[int], k: int) -> tuple[int, int, int, int]:
    """(a, b, c, den), den > 0 and gcd(a, b, den) = 1, with (a + b*sqrt(c))/den
    the continued fraction of the prefix whose last k quotients repeat."""
    # the tail t = [period; t] = (p*t + p1)/(q*t + q1) solves
    # q*t**2 + (q1 - p)*t - p1 = 0, so t = (e + sqrt(c))/f
    p, q, p1, q1 = _convergents(prefix[-k:])
    e, f = p - q1, 2 * q
    c = e * e + 4 * q * p1
    # the value (P*t + P1)/(Q*t + Q1) = (g + P*sqrt(c))/(h + Q*sqrt(c)), rationalised
    P, Q, P1, Q1 = _convergents(prefix[:-k])
    g, h = P * e + P1 * f, Q * e + Q1 * f
    a, b, den = g * h - P * Q * c, P * h - g * Q, h * h - Q * Q * c
    n = gcd(a, b, den) * (1 if den > 0 else -1)
    return a // n, b // n, c, den // n


def _floor_quad(P: int, D: int, Q: int) -> int:
    """Exact floor of (P + sqrt(D)) / Q, D a non-square > 0, Q != 0.

    sqrt(D) is irrational, so floor(P + sqrt(D)) = P + isqrt(D), and the
    quotient is never an integer: for Q < 0 its floor is
    -1 - floor((P + sqrt(D)) / -Q).
    """
    if Q > 0:
        return (P + isqrt(D)) // Q
    return -((P + isqrt(D)) // -Q) - 1


def golden_angle() -> Angle:
    """(sqrt(5) - 1) / 2, the default test rotation."""
    return Angle("surd", surd=(-1, 1, 5, 2))


def silver_angle() -> Angle:
    """sqrt(2) - 1."""
    return Angle("surd", surd=(-1, 1, 2, 1))


NAMED_ANGLES = {
    "golden": lambda: golden_angle(),
    "silver": lambda: silver_angle(),
    "silver5": lambda: Angle("surd", surd=(-1, 1, 2, 5)),  # (sqrt(2)-1)/5
}


def named_angle(spec: str) -> Angle:
    """Build an angle from a name in NAMED_ANGLES or a JSON descriptor string."""
    if spec in NAMED_ANGLES:
        return NAMED_ANGLES[spec]()
    return Angle.from_json(json.loads(spec))

