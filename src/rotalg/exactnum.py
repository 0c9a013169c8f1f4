"""Gaussian-rational scalars and Laurent polynomials in the rotation phase.

Exact-mode coefficients live in the ring Q(i)[z, 1/z] where z stands for
the unit phase exp(2*pi*i*rho).  For a quadratic-surd rho the phase is
transcendental, so distinct Laurent polynomials represent distinct
operators and equality is coefficient-wise; in general the ring is a
faithful formal model of the multiplication rules, which is what the
exact algebra tests assert against.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

__all__ = ["QI", "qi", "qi_frac", "qi_parts", "qi_add", "qi_mul", "qi_addmul", "qi_div",
           "qi_conj", "qi_neg", "qi_is_zero", "qi_to_complex", "PhasePoly"]

# (re + im*i) / den as ints with den > 0 and gcd(re, im, den) == 1.  That
# form is unique, so tuple equality is equality in Q(i).
QI = tuple[int, int, int]

_ONE = (1, 0, 1)


def _reduce(re: int, im: int, den: int) -> QI:
    """The canonical triple of (re + im*i) / den, for den > 0."""
    g = gcd(re, im, den)
    if g == 1:
        return (re, im, den)
    return (re // g, im // g, den // g)


def qi(re=0, im=0) -> QI:
    """re + im*i from anything `Fraction` accepts."""
    re, im = Fraction(re), Fraction(im)
    den = lcm(re.denominator, im.denominator)
    return (re.numerator * (den // re.denominator),
            im.numerator * (den // im.denominator), den)


def qi_frac(a: int, b: int, c: int = 0, d: int = 1) -> QI:
    """a/b + (c/d)*i for ints with b, d > 0, reduced once."""
    return _reduce(a * d, c * b, b * d)


def qi_parts(a: QI) -> tuple[Fraction, Fraction]:
    """Real and imaginary parts as fractions."""
    return Fraction(a[0], a[2]), Fraction(a[1], a[2])


def qi_add(a: QI, b: QI) -> QI:
    return _reduce(a[0] * b[2] + b[0] * a[2], a[1] * b[2] + b[1] * a[2], a[2] * b[2])


def qi_mul(a: QI, b: QI) -> QI:
    return _reduce(a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0], a[2] * b[2])


def qi_addmul(x: QI, c: QI, y: QI) -> QI:
    """x + c*y with one reduction; x itself when y is zero."""
    if not y[0] and not y[1]:
        return x
    d = c[2] * y[2]
    return _reduce(x[0] * d + (c[0] * y[0] - c[1] * y[1]) * x[2],
                   x[1] * d + (c[0] * y[1] + c[1] * y[0]) * x[2], x[2] * d)


def qi_div(a: QI, b: QI) -> QI:
    norm = b[0] * b[0] + b[1] * b[1]
    if not norm:
        raise ZeroDivisionError("division by zero in Q(i)")
    return _reduce((a[0] * b[0] + a[1] * b[1]) * b[2],
                   (a[1] * b[0] - a[0] * b[1]) * b[2], a[2] * norm)


def qi_conj(a: QI) -> QI:
    return (a[0], -a[1], a[2])


def qi_neg(a: QI) -> QI:
    return (-a[0], -a[1], a[2])


def qi_is_zero(a: QI) -> bool:
    return not a[0] and not a[1]


def qi_to_complex(a: QI) -> complex:
    return complex(a[0] / a[2], a[1] / a[2])


class PhasePoly:
    """Finite sum of c_j * z**j with Gaussian-rational c_j, z the rotation phase
    held symbolically (only `sandbox` evaluates it); not hashable."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, QI] | None = None):
        self.terms = {j: c for j, c in (terms or {}).items() if not qi_is_zero(c)}

    @classmethod
    def _of(cls, terms: dict[int, QI]) -> "PhasePoly":
        """A PhasePoly over terms that hold no zero, taken without a copy."""
        p = object.__new__(cls)
        p.terms = terms
        return p

    @staticmethod
    def const(re=0) -> "PhasePoly":
        return PhasePoly({0: qi(re)})

    @staticmethod
    def unit(j: int) -> "PhasePoly":
        """z**j."""
        return PhasePoly({j: _ONE})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "PhasePoly") -> "PhasePoly":
        out = dict(self.terms)
        for j, c in other.terms.items():
            if j not in out:
                out[j] = c
            elif qi_is_zero(s := qi_add(out[j], c)):
                del out[j]
            else:
                out[j] = s
        return PhasePoly._of(out)

    def __neg__(self) -> "PhasePoly":
        return PhasePoly._of({j: qi_neg(c) for j, c in self.terms.items()})

    def __sub__(self, other: "PhasePoly") -> "PhasePoly":
        return self + (-other)

    def __mul__(self, other: "PhasePoly") -> "PhasePoly":
        out: dict[int, QI] = {}
        for j1, c1 in self.terms.items():
            for j2, c2 in other.terms.items():
                j = j1 + j2
                out[j] = qi_addmul(out[j], c1, c2) if j in out else qi_mul(c1, c2)
        for j in [j for j, c in out.items() if qi_is_zero(c)]:
            del out[j]
        return PhasePoly._of(out)

    def scale(self, c: QI) -> "PhasePoly":
        return PhasePoly({j: qi_mul(v, c) for j, v in self.terms.items()})

    def shift(self, k: int) -> "PhasePoly":
        """Multiply by z**k."""
        if k == 0:
            return self
        return PhasePoly._of({j + k: c for j, c in self.terms.items()})

    def conj(self) -> "PhasePoly":
        return PhasePoly._of({-j: qi_conj(c) for j, c in self.terms.items()})

    def conjugate(self) -> "PhasePoly":
        """`conj`, under the name that `complex` uses."""
        return self.conj()

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhasePoly):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for j in sorted(self.terms):
            re, im = qi_parts(self.terms[j])
            bits.append(f"({re}{'+' if im >= 0 else ''}{im}i)z^{j}")
        return " + ".join(bits)
