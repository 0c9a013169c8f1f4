"""Finite-coefficient model of the rotation crossed product.

Elements are finite sums over integer x-frequencies n of e^{inx} times a
trigonometric polynomial on the dual circle.  Exact mode keeps Gaussian
rational coefficients with the rotation phase held symbolically (ring-law
tests demand literal equality); float mode evaluates phases numerically
for norm and limit experiments.

Operator norms are estimated from below by compressions, monotone in their
radius: the suites' `section_norm` cuts the orbit representation at x = 0
to |j| <= radius (one dense SVD); `truncated_norm` cuts the regular
representation to a frequency box (one Lanczos recurrence on its Gram,
with a dense eigensolve as the fallback).  numpy is imported by the norms
and `layer_block` alone, so the exact arithmetic runs without it.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from math import inf
from typing import NamedTuple, Sequence

from .angle import Angle, PhaseSearchFailed, json_int, json_number, json_of
from .circleset import Arc, ClosedCircleSet
from .exactnum import PhasePoly, qi, qi_addmul, qi_conj, qi_mul, qi_parts, qi_to_complex
from .idealfn import BasicFunction, IdealFunction

__all__ = [
    "TrigPoly", "CrossedElement", "AveragingOperator", "PhaseSearchFailed",
    "multiply", "adjoint", "expectation_mu", "expectation_canonical",
    "project_qn", "q_of", "fejer_bracket", "conjugate_by_shift",
    "build_averaging", "apply_averaging", "derivative_extract",
    "membership_test", "center_check", "section_norm", "truncated_norm", "bump_power",
    "element_to_json", "element_from_json",
]


def _phase(angle: Angle, j: int) -> complex:
    return cmath.exp(2j * cmath.pi * angle.float_value() * j)


class TrigPoly:
    """Finitely supported map k -> coefficient of the k-th dual character.

    Coefficients are `PhasePoly` (exact) or `complex` (float), alike in truth
    value, +, -, * and `conjugate()`; only the phase and `as_float` read the mode.
    Equal when mode and coefficients are equal; not hashable."""

    def __init__(self, mode: str, coeffs: dict[int, object] | None = None):
        self.mode = mode
        self.coeffs = {k: c for k, c in (coeffs or {}).items() if c}

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return (self.mode, self.coeffs) == (other.mode, other.coeffs)

    @classmethod
    def _of(cls, mode: str, coeffs: dict[int, object]) -> "TrigPoly":
        """A TrigPoly over coeffs that hold no zero, taken without a copy."""
        t = object.__new__(cls)
        t.mode, t.coeffs = mode, coeffs
        return t

    @staticmethod
    def zero(mode: str = "exact") -> "TrigPoly":
        return TrigPoly(mode, {})

    @staticmethod
    def delta(k: int, mode: str = "exact") -> "TrigPoly":
        """The k-th shift generator as a function on the dual circle."""
        one = PhasePoly.const(1) if mode == "exact" else 1 + 0j
        return TrigPoly(mode, {k: one})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, o: "TrigPoly") -> "TrigPoly":
        out = dict(self.coeffs)
        for k, c in o.coeffs.items():
            if k not in out:
                out[k] = c
            elif s := out[k] + c:
                out[k] = s
            else:
                del out[k]
        return TrigPoly._of(self.mode, out)

    def __sub__(self, o: "TrigPoly") -> "TrigPoly":
        return self + TrigPoly._of(self.mode, {k: -c for k, c in o.coeffs.items()})

    def scale(self, c) -> "TrigPoly":
        return TrigPoly(self.mode, {k: v * c for k, v in self.coeffs.items()})

    def convolve(self, o: "TrigPoly") -> "TrigPoly":
        """Pointwise product of the two functions."""
        out: dict[int, object] = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in o.coeffs.items():
                k = k1 + k2
                out[k] = out[k] + c1 * c2 if k in out else c1 * c2
        for k in [k for k, c in out.items() if not c]:
            del out[k]
        return TrigPoly._of(self.mode, out)

    def compose_rotation(self, angle: Angle, m: int) -> "TrigPoly":
        """The composition with the m-th rotation power: k-th coefficient
        picks up the phase to the power k*m."""
        if self.mode == "exact":
            return TrigPoly._of(self.mode, {k: c.shift(k * m) for k, c in self.coeffs.items()})
        return TrigPoly(self.mode,
                        {k: c * _phase(angle, k * m) for k, c in self.coeffs.items()})

    def conjugate_function(self) -> "TrigPoly":
        """Complex conjugate as a function: coefficient k -> conj(coeff(-k))."""
        return TrigPoly._of(self.mode, {-k: c.conjugate() for k, c in self.coeffs.items()})

    def eval_at(self, angle: Angle, position: float) -> complex:
        return sum((c * cmath.exp(2j * cmath.pi * k * position)
                    for k, c in self.as_float(angle).coeffs.items()), 0j)

    def as_float(self, angle: Angle) -> "TrigPoly":
        if self.mode == "float":
            return self
        return TrigPoly("float", {k: sum((qi_to_complex(q) * _phase(angle, j)
                                          for j, q in c.terms.items()), 0j)
                                  for k, c in self.coeffs.items()})


class CrossedElement:
    """Finite sum over x-frequencies n of e^{inx} times a dual polynomial.
    Equal when angle, mode and terms are equal; not hashable."""

    def __init__(self, angle: Angle, mode: str, terms: dict[int, TrigPoly] | None = None):
        self.angle, self.mode = angle, mode
        self.terms = {n: t for n, t in (terms or {}).items() if not t.is_zero()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, CrossedElement):
            return NotImplemented
        return ((self.mode, self.terms) == (other.mode, other.terms)
                and self.angle.same_as(other.angle))

    @staticmethod
    def zero(angle: Angle, mode: str = "exact") -> "CrossedElement":
        return CrossedElement(angle, mode, {})

    @staticmethod
    def monomial(angle: Angle, n: int, k: int, coeff=1,
                 mode: str = "exact") -> "CrossedElement":
        """coeff * e^{inx} * (k-th shift)."""
        if mode == "exact":
            c = coeff if isinstance(coeff, PhasePoly) else PhasePoly.const(coeff)
        else:
            c = complex(coeff)
        return CrossedElement(angle, mode, {n: TrigPoly(mode, {k: c})})

    def term(self, n: int) -> TrigPoly:
        return self.terms.get(n, TrigPoly.zero(self.mode))

    def __add__(self, o: "CrossedElement") -> "CrossedElement":
        self._check(o)
        out = dict(self.terms)
        for n, t in o.terms.items():
            out[n] = out[n] + t if n in out else t
        return CrossedElement(self.angle, self.mode, out)

    def __sub__(self, o: "CrossedElement") -> "CrossedElement":
        return self + o.scale(-1)

    def scale(self, c) -> "CrossedElement":
        if self.mode == "exact" and not isinstance(c, PhasePoly):
            c = PhasePoly.const(c)
        return CrossedElement(self.angle, self.mode,
                              {n: t.scale(c) for n, t in self.terms.items()})

    def _check(self, o: "CrossedElement"):
        if not self.angle.same_as(o.angle):
            raise ValueError("elements built over different angle contexts")
        if self.mode != o.mode:
            raise ValueError("mixed exact/float arithmetic; convert explicitly")

    def degree_x(self) -> int:
        return max((abs(n) for n in self.terms), default=0)

    def as_float(self) -> "CrossedElement":
        if self.mode == "float":
            return self
        return CrossedElement(self.angle, "float",
                              {n: t.as_float(self.angle) for n, t in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms


def _flat(a: CrossedElement) -> list[tuple]:
    """The exact element as (n, k, j, coefficient) terms of e^{inx} (k-th shift) z**j."""
    return [(n, k, j, q) for n, f in a.terms.items() for k, c in f.coeffs.items()
            for j, q in c.terms.items()]


def _nest(angle: Angle, flat: dict[tuple[int, int, int], tuple]) -> CrossedElement:
    """The exact element of flat (n, k, j) -> coefficient terms, exact zeros dropped."""
    nested: dict[int, dict[int, dict]] = {}
    for (t, k, j), q in flat.items():
        if q[0] or q[1]:
            nested.setdefault(t, {}).setdefault(k, {})[j] = q
    return CrossedElement(angle, "exact", {
        t: TrigPoly._of("exact", {k: PhasePoly._of(p) for k, p in ks.items()})
        for t, ks in nested.items()})


def multiply(a: CrossedElement, b: CrossedElement) -> CrossedElement:
    """Product in the crossed product.

    For single layers: e^{inx} f * e^{imx} g = e^{i(n+m)x} (f o rot^m) g,
    extended bilinearly.  Exact products are one loop over flat (n, k, j)
    terms, rot^m shifting j by k*m; float products compose and convolve.
    """
    a._check(b)
    if a.mode == "exact":
        acc: dict[tuple[int, int, int], tuple] = {}
        fb = _flat(b)
        for n, k1, j1, x in _flat(a):
            for m, k2, j2, y in fb:
                key = (n + m, k1 + k2, j1 + j2 + k1 * m)
                s = acc.get(key)
                acc[key] = qi_mul(x, y) if s is None else qi_addmul(s, x, y)
        return _nest(a.angle, acc)
    out: dict[int, TrigPoly] = {}
    for n, f in a.terms.items():
        for m, g in b.terms.items():
            piece = f.compose_rotation(a.angle, m).convolve(g)
            t = n + m
            out[t] = out[t] + piece if t in out else piece
    return CrossedElement(a.angle, a.mode, out)


def adjoint(a: CrossedElement) -> CrossedElement:
    """(e^{inx} f)* = e^{-inx} (conj(f) o rot^{-n}), extended additively;
    exactly, the flat term (n, k, j) goes to (-n, -k, kn - j), conjugated."""
    if a.mode == "exact":
        return _nest(a.angle, {(-n, -k, k * n - j): qi_conj(q) for n, k, j, q in _flat(a)})
    out: dict[int, TrigPoly] = {}
    for n, f in a.terms.items():
        g = f.conjugate_function().compose_rotation(a.angle, -n)
        out[-n] = out[-n] + g if -n in out else g
    return CrossedElement(a.angle, a.mode, out)


def expectation_mu(a: CrossedElement) -> TrigPoly:
    """Conditional expectation onto the x-frequency-zero slice."""
    return a.term(0)


def expectation_canonical(a: CrossedElement, k: int) -> dict[int, object]:
    """The C(X)-side Fourier coefficient at dual frequency k.

    Returns the map n -> coefficient so that the function is the sum of
    coeff * e^{inx}; rebuilding the element from all k recovers it.
    """
    return {n: t.coeffs[k] for n, t in a.terms.items() if k in t.coeffs}


def project_qn(a: CrossedElement, n: int) -> CrossedElement:
    """Truncate the x-frequency support to |m| <= n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return CrossedElement(a.angle, a.mode,
                          {m: t for m, t in a.terms.items() if abs(m) <= n})


def q_of(a: CrossedElement) -> float:
    """Smallest nonzero |x-frequency|, or infinity for dual-side elements."""
    freqs = [abs(n) for n in a.terms if n != 0]
    return min(freqs) if freqs else inf


def fejer_bracket(a: CrossedElement, n: int) -> CrossedElement:
    """Cesaro mean: the j-th layer scaled by 1 - |j|/(n+1), |j| <= n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out: dict[int, TrigPoly] = {}
    for j, t in a.terms.items():
        if abs(j) > n:
            continue
        w = Fraction(n + 1 - abs(j), n + 1)
        c = PhasePoly.const(w) if a.mode == "exact" else float(w)
        out[j] = t.scale(c)
    return CrossedElement(a.angle, a.mode, out)


def conjugate_by_shift(a: CrossedElement, k: int) -> CrossedElement:
    """Conjugation by the k-th shift unitary: layer n picks up phase^(n*k)."""
    out = {}
    for n, t in a.terms.items():
        c = (PhasePoly.unit(n * k) if a.mode == "exact" else _phase(a.angle, n * k))
        out[n] = t.scale(c)
    return CrossedElement(a.angle, a.mode, out)


# -- compressed representations ----------------------------------------------


def layer_block(n: int, t: TrigPoly, radius: int, rho: float) -> np.ndarray:
    """Dual-side block of the layer: row v+k, column v, phase in v+k."""
    import numpy as np
    B = np.zeros((2 * radius + 1,) * 2, dtype=complex)
    for k, c in t.coeffs.items():
        if abs(k) <= 2 * radius:  # else no v has |v|, |v + k| <= radius
            vs = np.arange(max(-radius, -radius - k), min(radius, radius - k) + 1)
            B[vs + k + radius, vs + radius] = c * np.exp(-2j * np.pi * n * rho * (vs + k))
    return B


def section_norm(a: CrossedElement, radius: int = 32) -> float:
    """Norm of P pi_0(a) P, pi_0(a) e_j = sum c_{n,k} e^{-2 pi i n rho (j+k)} e_{j+k}
    and P onto |j| <= radius: the sum of the layer blocks.  pi_0 is isometric
    (the rotation algebra is simple): a lower bound of the norm, monotone in radius."""
    import numpy as np
    a = a.as_float()
    rho = a.angle.float_value()
    H = sum((layer_block(n, t, radius, rho) for n, t in a.terms.items()),
            np.zeros((2 * radius + 1,) * 2, dtype=complex))
    return float(np.linalg.norm(H, 2))


def truncated_norm(a: CrossedElement, radius: int = 32) -> float:
    """Norm of the compression of a to the frequency box |u|, |v| <= radius.

    A lower bound of the operator norm, monotone nondecreasing in the
    radius (compressions are nested).  Layer n compresses to (truncated
    shift u -> u+n) kron `layer_block`; the top eigenvalue of the Gram
    G = M^H M of their sum is solved to a relative accuracy of 1e-11 by
    one unrestarted Lanczos recurrence on G, applied through M without
    forming G and with no reorthogonalization (lost orthogonality only
    adds copies of converged Ritz values, Paige 1980).  Every 20 steps the
    top Ritz pair (theta, s) of the tridiagonal T_j is tested with
    ARPACK's residual bound beta_j |s_j| <= 1e-11 theta; a dense Hermitian
    eigensolve of G is the fallback past 4N steps, N = (2r+1)^2.
    """
    import numpy as np
    a = a.as_float()
    dim = 2 * radius + 1
    rho = a.angle.float_value()

    live = {n: t for n, t in a.terms.items() if abs(n) <= 2 * radius}
    if not live:
        return 0.0
    if len(live) == 1:
        # single layer: the operator factors as (truncated shift) x (block),
        # and the truncated shift is a partial isometry of norm one
        (n, t), = live.items()
        return float(np.linalg.norm(layer_block(n, t, radius, rho), 2))

    import scipy.sparse as sp
    from scipy.linalg import eigh_tridiagonal
    N = dim * dim
    rows, cols, vals = [], [], []
    for n, t in live.items():
        B = layer_block(n, t, radius, rho)
        r, c = B.nonzero()
        us = np.arange(max(0, -n), min(dim, dim - n))
        rows.append(((us + n)[:, None] * dim + r).ravel())
        cols.append((us[:, None] * dim + c).ravel())
        vals.append(np.tile(B[r, c], len(us)))
    M = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(N, N))
    if not M.nnz:
        return 0.0
    MH = M.getH().tocsr()
    # a seeded random start: the constant vector can be (nearly) orthogonal
    # to the top eigenvector of symmetric elements, and Lanczos then
    # converges to a lower eigenvalue
    q = np.dot([1, 1j], np.random.default_rng(0).standard_normal((2, N)))
    q /= np.linalg.norm(q)
    prev, beta, alphas, betas = 0.0, 0.0, [], []
    for j in range(1, 4 * N + 1):
        w = MH @ (M @ q)
        w -= beta * prev
        alphas.append(np.vdot(q, w).real)
        w -= alphas[-1] * q
        beta = np.linalg.norm(w)
        if j % 20 == 0 or beta == 0.0 or j == 4 * N:
            theta, s = eigh_tridiagonal(alphas, betas, select="i", select_range=(j - 1, j - 1))
            if beta * abs(s[-1, 0]) <= 1e-11 * theta[0] or beta == 0.0:
                return math.sqrt(max(theta[0], 0.0))
        betas.append(beta)
        prev, q = q, w / beta
    return math.sqrt(max(np.linalg.eigvalsh((MH @ M).toarray())[-1], 0.0))


# -- averaging operators -----------------------------------------------------


class AveragingOperator(NamedTuple):
    """Convex phase combination of shift conjugations: a -> sum b_i U_i a U_i*."""
    terms: list[tuple[complex, int]]

    def weight_sum(self) -> float:
        return sum(abs(b) for b, _ in self.terms)

    def multiplier(self, angle: Angle, n: int) -> complex:
        return sum(b * _phase(angle, n * k) for b, k in self.terms)


def build_averaging(q: int, rs: Sequence[int], eps, angle: Angle,
                    search_bound: int) -> AveragingOperator:
    """Operator preserving the q-th x-frequency and damping those in rs.

    One stage per r: conjugators are chosen so their phases approximate
    the r-th roots of unity whose q-th powers enumerate the subgroup
    H = {w^q : w^r = 1}; weights are conj(w)/|H|.  Stages compose, with
    the phase-match tolerance split evenly across stages.
    """
    if q < 1:
        raise ValueError("q must be positive")
    rs = sorted(set(rs))
    if any(r <= q for r in rs):
        raise ValueError("every damped frequency must exceed q")
    if not rs:
        return AveragingOperator([(1 + 0j, 0)])
    eps = Fraction(str(eps)) if isinstance(eps, float) else Fraction(eps)
    stage_eps = eps / len(rs)
    stages: list[list[tuple[complex, int]]] = []
    for r in rs:
        d = math.gcd(q, r)
        h = r // d  # order of {w^q : w^r = 1}, at least 2 since r > q
        qq = (q // d) % h
        qq_inv = pow(qq, -1, h)
        # parameter tolerance so that r * 2*pi * dist stays under stage_eps
        tol = stage_eps / (7 * r)
        stage = []
        for j in range(h):
            # conjugator phase: an r-th root of unity whose q-th power is
            # the j-th element of the subgroup; any of the d lifts works
            m = (j * qq_inv) % h
            if j == 0:
                k = 0
            else:
                k = None
                for t in range(d):
                    k = angle.match_phase(Fraction(m + t * h, r), tol, search_bound)
                    if k is not None:
                        break
                if k is None:
                    raise PhaseSearchFailed(
                        f"phase-search-failed: no |k| <= {search_bound} "
                        f"realizes the root {m}/{r} within {float(tol):.2e}")
            w = cmath.exp(2j * cmath.pi * j / h)
            stage.append((w.conjugate() / h, k))
        stages.append(stage)
    terms = stages[0]
    for stage in stages[1:]:
        terms = [(b1 * b2, k1 + k2) for b2, k2 in stage for b1, k1 in terms]
    return AveragingOperator(terms)


def apply_averaging(L: AveragingOperator, a: CrossedElement) -> CrossedElement:
    """Apply the operator; each x-frequency layer is scaled by a multiplier
    of modulus at most the weight sum."""
    a = a.as_float()
    out = {n: t.scale(L.multiplier(a.angle, n)) for n, t in a.terms.items()}
    return CrossedElement(a.angle, "float", out)


# -- coefficient extraction by differentiation -------------------------------


class ExtractionResult(NamedTuple):
    plus: CrossedElement
    minus: CrossedElement


def derivative_extract(a: CrossedElement, j_count: int = 8) -> ExtractionResult:
    """Split a two-frequency element into its e^{iqx} and e^{-iqx} parts.

    Differentiates along the shift conjugation by n_j, the last of the
    first j_count best denominators whose n_j*rho is not an integer to
    1e-15: the conjugated element differs from a by phases close to
    identity, the divided difference approximates the derivative, and the
    two layers are then solved for linearly.  Raises ValueError when every
    such n_j*rho is an integer to 1e-15.
    """
    freqs = sorted(a.terms)
    if not freqs:
        raise ValueError("zero element")
    q = q_of(a)
    if q == inf or any(abs(n) != q for n in freqs):
        raise ValueError("not-two-frequency: support must be {q, -q}")
    q = int(q)
    a = a.as_float()
    angle = a.angle
    if len(freqs) == 1:
        # one-sided support: the split is determined by inspection
        zero = CrossedElement.zero(angle, "float")
        plus, minus = (a, zero) if freqs[0] > 0 else (zero, a)
        return ExtractionResult(plus, minus)
    rho = angle.float_value()
    dens = angle.best_denominators(j_count)
    for nj in reversed(dens):
        # signed fractional part of nj*rho in (-1/2, 1/2], decided exactly
        sf = nj * rho - angle.floor_linear(1, 2 * nj, 2)
        if abs(sf) >= 1e-15:
            break
    else:
        raise ValueError(f"best denominators {dens} all give n*rho within 1e-15 "
                         f"of an integer: no divided difference")
    deriv = (conjugate_by_shift(a, nj) - a).scale(1.0 / (2 * math.pi * sf))
    return ExtractionResult(a.scale(0.5) + deriv.scale(1 / (2j * q)),
                            a.scale(0.5) - deriv.scale(1 / (2j * q)))


# -- membership and center checks --------------------------------------------


class MembershipReport(NamedTuple):
    ok: bool
    per_frequency: dict[int, tuple[bool, float]]  # n -> (ok, max |value|)


def membership_test(c: IdealFunction, a: CrossedElement,
                    tolerance: float = 1e-9) -> MembershipReport:
    """Check that each layer of a vanishes on the required zero set.

    Points are evaluated directly; arcs are sampled at 256 points per unit
    length plus both endpoints.  Layer n passes when all sampled magnitudes stay
    within the tolerance.
    """
    angle = a.angle
    report = {}
    ok = True
    for n, t in a.terms.items():
        v = c.value_set(n)
        worst = 0.0
        positions: list[float] = []
        if v.full:
            # must vanish identically: sample a fixed global grid
            positions = [i / 64 for i in range(64)]
        else:
            pts, arcs = v.float_components()
            positions.extend(pts)
            for start, length in arcs:
                count = max(2, int(256 * length))
                positions.extend(start + i * length / count for i in range(count + 1))
        for pos in positions:
            worst = max(worst, abs(t.eval_at(angle, pos)))
        passed = worst <= tolerance
        report[n] = (passed, worst)
        ok = ok and passed
    return MembershipReport(ok, report)


def bump_power(center: Fraction, power: int) -> TrigPoly:
    """((1 + cos(2 pi (t - center))) / 2) ** power as a float dual polynomial.

    Coefficients are binomials over 4**power twisted by the center phase.
    """
    den = 4 ** power
    row = [1]  # binomials C(2p, j), j = 0..2p, by the exact running product
    for j in range(2 * power):
        row.append(row[-1] * (2 * power - j) // (j + 1))
    # int true division rounds correctly, as float(Fraction) does
    return TrigPoly("float", {k: row[power + k] / den
                              * cmath.exp(-2j * cmath.pi * float(center) * k)
                              for k in range(-power, power + 1)})


class CenterReport(NamedTuple):
    ok: bool
    shifted_copies_disjoint: bool
    equation_max: float
    commutator_norms: dict[str, float]
    notes: str


def center_check(c, phi: TrigPoly, tolerance: float) -> CenterReport:
    """Test whether phi commutes with the algebra of a basic arc-complement.

    c must be basic with step 1 and generating set the complement of an
    open arc J.  phi passes when it is (within tolerance) invariant under
    the rotation on J and its inverse on the rotated copy, and when its
    commutator with a vanishing witness supported near J (below 1e-6 off
    J) stays small in the section norm at radius 24.  (phi lies in the
    commutative layer 0, so it commutes with the shift generator there.)

    When the copies of J under the rotation overlap, the invariance
    conditions chain together; this is recorded but is not an error.
    """
    if not isinstance(c, BasicFunction) or c.q != 1:
        raise ValueError("center check needs a basic function with step 1")
    P = c.P
    if P.full or len(P.arcs) != 1 or P.points:
        raise ValueError("generating set must be a single closed arc")
    angle = c.angle
    arc = P.arcs[0]
    # J is the complementary (open) arc; sample its interior
    _, arc_view = P.float_components()
    p_start, p_len = arc_view[0]
    j_start = (p_start + p_len) % 1.0
    j_len = 1.0 - p_len
    rho = angle.float_value()

    # the copies of J rotated by -1, 0, 1 and 2 meet pairwise as J meets
    # its rotation by 1, 2 or 3
    J_closed = ClosedCircleSet.from_components(angle, (), (Arc(arc.end, arc.start),))
    disjoint = all(J_closed.intersect(J_closed.rotate(k)).classify() != "has-interior"
                   for k in (1, 2, 3))

    # invariance at 255 evenly spaced t inside J; at s = t + rho in the
    # rotated copy, invariance under the inverse rotation is the same equation
    phi_f = phi.as_float(angle)
    eq_max = 0.0
    for i in range(1, 256):
        t = j_start + j_len * i / 256
        eq_max = max(eq_max, abs(phi_f.eval_at(angle, t + rho) - phi_f.eval_at(angle, t)))

    # commutator against a vanishing witness
    phi_el = CrossedElement(angle, "float", {0: phi_f})
    mid = (j_start + j_len / 2) % 1.0
    half = j_len / 2
    n_pow = max(8, int(math.ceil(math.log(1e-6) / math.log(math.cos(math.pi * half) ** 2))))
    h = bump_power(Fraction(mid).limit_denominator(10**6), n_pow)
    witness = CrossedElement(angle, "float", {1: h})
    comm = section_norm(multiply(phi_el, witness) - multiply(witness, phi_el), radius=24)
    ok = eq_max <= tolerance and comm <= tolerance
    notes = "" if disjoint else "rotated copies of the gap overlap; conditions chain"
    return CenterReport(ok, disjoint, eq_max, {"witness": comm}, notes)


# -- serialization ------------------------------------------------------------


def element_to_json(a: CrossedElement) -> dict:
    terms = []
    for n in sorted(a.terms):
        entries = []
        for k in sorted(a.terms[n].coeffs):
            c = a.terms[n].coeffs[k]
            if isinstance(c, PhasePoly):
                for j in sorted(c.terms):
                    re, im = qi_parts(c.terms[j])
                    e = {"k": k, "re": str(re), "im": str(im)}
                    if j:
                        e["zeta"] = j
                    entries.append(e)
            else:
                entries.append({"k": k, "re": repr(c.real), "im": repr(c.imag)})
        terms.append({"n": n, "coeffs": entries})
    return {"mode": a.mode, "terms": terms}


def element_from_json(angle: Angle, doc: dict) -> CrossedElement:
    mode = json_of(dict, doc, "element").get("mode", "exact")
    if mode not in ("exact", "float"):
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
    terms: dict[int, TrigPoly] = {}
    for td in json_of(list, doc["terms"], "terms"):
        n = json_int(json_of(dict, td, "term")["n"], "n")
        coeffs: dict[int, object] = {}
        for e in json_of(list, td["coeffs"], "coeffs"):
            k = json_int(json_of(dict, e, "coefficient")["k"], "k")
            exact = mode == "exact"
            re, im = json_number(e["re"], "re", exact), json_number(e["im"], "im", exact)
            if exact:
                add = PhasePoly({json_int(e.get("zeta", 0), "zeta"): qi(re, im)})
            else:
                add = complex(re, im)
            coeffs[k] = coeffs[k] + add if k in coeffs else add
        t = TrigPoly(mode, coeffs)
        if t.is_zero():
            continue
        terms[n] = (terms[n] + t) if n in terms else t
    return CrossedElement(angle, mode, terms)
