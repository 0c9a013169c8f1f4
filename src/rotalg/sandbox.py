"""Finite-coefficient model of the rotation crossed product.

Elements are finite sums over integer x-frequencies n of e^{inx} times a
trigonometric polynomial on the dual circle.  Exact mode keeps Gaussian
rational coefficients with the rotation phase held symbolically (ring-law
tests demand literal equality); float mode evaluates phases numerically
for norm and limit experiments.

Operator norms are estimated from below by compressing the regular
representation to a finite frequency box; the compression norm is
monotone increasing in the box radius, so every norm-based assertion is
phrased against this estimator.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, inf
from typing import Sequence

import numpy as np

from .angle import Angle
from .circleset import Arc, ClosedCircleSet
from .exactnum import PhasePoly, qi
from .idealfn import IdealFunction

__all__ = [
    "TrigPoly", "CrossedElement", "AveragingOperator", "PhaseSearchFailed",
    "multiply", "adjoint", "expectation_mu", "expectation_canonical",
    "project_qn", "q_of", "fejer_bracket", "conjugate_by_shift",
    "build_averaging", "apply_averaging", "derivative_extract",
    "membership_test", "center_check", "truncated_norm", "bump_power",
    "element_to_json", "element_from_json",
]


class PhaseSearchFailed(RuntimeError):
    """No integer conjugator realizes the requested root-of-unity phase."""


# -- coefficient helpers (exact: PhasePoly, float: complex) -----------------

def _czero(mode: str):
    return PhasePoly.zero() if mode == "exact" else 0j


def _is_czero(a) -> bool:
    return a.is_zero() if isinstance(a, PhasePoly) else a == 0


def _cconj(a):
    return a.conj() if isinstance(a, PhasePoly) else a.conjugate()


def _phase(angle: Angle, j: int) -> complex:
    return cmath.exp(2j * cmath.pi * angle.float_value() * j)


def _cphase(angle: Angle, a, j: int):
    """Multiply a coefficient by the j-th power of the rotation phase."""
    if isinstance(a, PhasePoly):
        return a.shift(j)
    return a * _phase(angle, j)


def _cfloat(angle: Angle, a) -> complex:
    return a.to_complex(angle) if isinstance(a, PhasePoly) else complex(a)


@dataclass
class TrigPoly:
    """Finitely supported map k -> coefficient of the k-th dual character."""
    mode: str
    coeffs: dict[int, object] = field(default_factory=dict)

    def __post_init__(self):
        self.coeffs = {k: c for k, c in self.coeffs.items() if not _is_czero(c)}

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
            out[k] = out.get(k, _czero(self.mode)) + c
        return TrigPoly(self.mode, out)

    def __sub__(self, o: "TrigPoly") -> "TrigPoly":
        return self + o.scale(PhasePoly.const(-1) if self.mode == "exact" else -1.0)

    def scale(self, c) -> "TrigPoly":
        return TrigPoly(self.mode, {k: v * c for k, v in self.coeffs.items()})

    def convolve(self, o: "TrigPoly") -> "TrigPoly":
        """Pointwise product of the two functions."""
        out: dict[int, object] = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in o.coeffs.items():
                k = k1 + k2
                prev = out.get(k)
                out[k] = c1 * c2 if prev is None else prev + c1 * c2
        return TrigPoly(self.mode, out)

    def compose_rotation(self, angle: Angle, m: int) -> "TrigPoly":
        """The composition with the m-th rotation power: k-th coefficient
        picks up the phase to the power k*m."""
        return TrigPoly(self.mode,
                        {k: _cphase(angle, c, k * m) for k, c in self.coeffs.items()})

    def conjugate_function(self, angle: Angle) -> "TrigPoly":
        """Complex conjugate as a function: coefficient k -> conj(coeff(-k))."""
        return TrigPoly(self.mode, {-k: _cconj(c) for k, c in self.coeffs.items()})

    def eval_at(self, angle: Angle, position: float) -> complex:
        return sum((_cfloat(angle, c) * cmath.exp(2j * cmath.pi * k * position)
                    for k, c in self.coeffs.items()), 0j)

    def one_norm(self, angle: Angle) -> float:
        return sum(abs(_cfloat(angle, c)) for c in self.coeffs.values())

    def as_float(self, angle: Angle) -> "TrigPoly":
        if self.mode == "float":
            return self
        return TrigPoly("float", {k: _cfloat(angle, c) for k, c in self.coeffs.items()})

    def degree(self) -> int:
        return max((abs(k) for k in self.coeffs), default=0)


@dataclass
class CrossedElement:
    """Finite sum over x-frequencies n of e^{inx} times a dual polynomial."""
    angle: Angle
    mode: str
    terms: dict[int, TrigPoly] = field(default_factory=dict)

    def __post_init__(self):
        self.terms = {n: t for n, t in self.terms.items() if not t.is_zero()}

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
            out[n] = out.get(n, TrigPoly.zero(self.mode)) + t
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

    def support_x(self) -> list[int]:
        return sorted(self.terms)

    def degree_x(self) -> int:
        return max((abs(n) for n in self.terms), default=0)

    def as_float(self) -> "CrossedElement":
        if self.mode == "float":
            return self
        return CrossedElement(self.angle, "float",
                              {n: t.as_float(self.angle) for n, t in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms


def multiply(a: CrossedElement, b: CrossedElement) -> CrossedElement:
    """Product in the crossed product.

    For single layers: e^{inx} f * e^{imx} g = e^{i(n+m)x} (f o rot^m) g,
    extended bilinearly.
    """
    a._check(b)
    out: dict[int, TrigPoly] = {}
    for n, f in a.terms.items():
        for m, g in b.terms.items():
            piece = f.compose_rotation(a.angle, m).convolve(g)
            t = n + m
            out[t] = out.get(t, TrigPoly.zero(a.mode)) + piece
    return CrossedElement(a.angle, a.mode, out)


def adjoint(a: CrossedElement) -> CrossedElement:
    """(e^{inx} f)* = e^{-inx} (conj(f) o rot^{-n}), extended additively."""
    out: dict[int, TrigPoly] = {}
    for n, f in a.terms.items():
        g = f.conjugate_function(a.angle).compose_rotation(a.angle, -n)
        out[-n] = out.get(-n, TrigPoly.zero(a.mode)) + g
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


# -- truncated regular representation ---------------------------------------


def truncated_norm(a: CrossedElement, radius: int = 32, tol: float = 1e-11) -> float:
    """Norm of the compression of a to the frequency box |u|, |v| <= radius.

    A lower bound of the operator norm, monotone nondecreasing in the
    radius (compressions are nested).  tol is the relative accuracy of the
    extremal eigenvalue solve on the Gram matrix.
    """
    a = a.as_float()
    dim = 2 * radius + 1
    rho = a.angle.float_value()

    def layer_block(n: int, t: TrigPoly) -> np.ndarray:
        """Dual-side block of the layer: row v+k, column v, phase in v+k."""
        B = np.zeros((dim, dim), dtype=complex)
        for k, c in t.coeffs.items():
            vs = np.arange(max(-radius, -radius - k), min(radius, radius - k) + 1)
            B[vs + k + radius, vs + radius] = c * np.exp(-2j * np.pi * n * rho * (vs + k))
        return B

    live = {n: t for n, t in a.terms.items() if abs(n) <= 2 * radius}
    if not live:
        return 0.0
    if len(live) == 1:
        # single layer: the operator factors as (truncated shift) x (block),
        # and the truncated shift is a partial isometry of norm one
        (n, t), = live.items()
        return float(np.linalg.norm(layer_block(n, t), 2))

    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    N = dim * dim
    rows, cols, vals = [], [], []
    us = np.arange(-radius, radius + 1)
    for n, t in live.items():
        u_src = us[(us + n >= -radius) & (us + n <= radius)]
        if len(u_src) == 0:
            continue
        for k, c in t.coeffs.items():
            v_src = us[(us + k >= -radius) & (us + k <= radius)]
            if len(v_src) == 0:
                continue
            uu, vv = np.meshgrid(u_src, v_src, indexing="ij")
            amp = complex(c) * np.exp(-2j * np.pi * n * rho * (vv + k))
            rows.append(((uu + n + radius) * dim + (vv + k + radius)).ravel())
            cols.append(((uu + radius) * dim + (vv + radius)).ravel())
            vals.append(amp.ravel())
    if not rows:
        return 0.0
    M = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(N, N)).tocsr()
    if N <= 1200:
        gram = (M.getH() @ M).toarray()
        top = float(np.linalg.eigvalsh(gram)[-1])
        return math.sqrt(max(top, 0.0))
    gram = (M.getH() @ M).tocsr()
    # a seeded random start: the constant vector can be (nearly) orthogonal
    # to the top eigenvector of symmetric elements, and Lanczos then
    # converges to a lower eigenvalue
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    try:
        val = spla.eigsh(gram, k=1, which="LA", return_eigenvectors=False,
                         tol=tol, ncv=min(N - 1, 64), maxiter=20000, v0=v0)
        return float(math.sqrt(max(float(val[0]), 0.0)))
    except spla.ArpackError:
        # plain power iteration from the same start still yields a lower bound
        v = v0 / np.linalg.norm(v0)
        lam = 0.0
        for _ in range(3000):
            w = gram @ v
            nw = np.linalg.norm(w)
            if nw == 0:
                return 0.0
            new = float(np.real(np.vdot(v, w)))
            v = w / nw
            if abs(new - lam) <= 1e-14 * max(new, 1e-30):
                lam = new
                break
            lam = new
        return float(math.sqrt(max(lam, 0.0)))


# -- averaging operators -----------------------------------------------------


@dataclass
class AveragingOperator:
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


@dataclass
class ExtractionResult:
    plus: CrossedElement
    minus: CrossedElement
    steps: list[tuple[int, float]]  # (n_j, residual against previous step)


def derivative_extract(a: CrossedElement, j_count: int = 8) -> ExtractionResult:
    """Split a two-frequency element into its e^{iqx} and e^{-iqx} parts.

    Differentiates along shift conjugations with denominators n_j of best
    rational approximations, where the conjugated element differs from a
    by phases close to identity; the divided difference converges to the
    derivative and the two layers are then solved for linearly.
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
        return ExtractionResult(plus, minus, [])
    rho = angle.float_value()
    dens = angle.best_denominators(j_count)
    prev_plus = None
    steps: list[tuple[int, float]] = []
    plus = minus = None
    for nj in dens:
        # signed fractional part of nj*rho in (-1/2, 1/2], decided exactly
        nearest = angle.floor_linear(Fraction(1, 2), nj)
        sf = nj * rho - nearest
        delta = 2 * math.pi * sf
        if abs(sf) < 1e-15:
            continue
        conj = conjugate_by_shift(a, nj)
        deriv = (conj - a).scale(1.0 / delta)
        plus = a.scale(0.5) + deriv.scale(1 / (2j * q))
        minus = a.scale(0.5) - deriv.scale(1 / (2j * q))
        if prev_plus is not None:
            steps.append((nj, truncated_norm(plus - prev_plus, radius=16)))
        prev_plus = plus
    return ExtractionResult(plus, minus, steps)


# -- membership and center checks --------------------------------------------


@dataclass
class MembershipReport:
    ok: bool
    per_frequency: dict[int, tuple[bool, float]]  # n -> (ok, max |value|)


def membership_test(c: IdealFunction, a: CrossedElement, tolerance: float = 1e-9,
                    samples_per_unit: int = 256) -> MembershipReport:
    """Check that each layer of a vanishes on the required zero set.

    Points are evaluated directly; arcs are sampled at the stated density
    plus both endpoints.  Layer n passes when all sampled magnitudes stay
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
                count = max(2, int(samples_per_unit * length))
                positions.extend(start + i * length / count for i in range(count + 1))
        for pos in positions:
            worst = max(worst, abs(t.eval_at(angle, pos)))
        passed = worst <= tolerance
        report[n] = (passed, worst)
        ok = ok and passed
    return MembershipReport(ok, report)


def bump_power(angle: Angle, center: Fraction, power: int,
               mode: str = "float") -> TrigPoly:
    """((1 + cos(2 pi (t - center))) / 2) ** power as a dual polynomial.

    Coefficients are binomials over 4**power twisted by the center phase;
    exact mode requires the center to have denominator dividing 4 so the
    twist stays Gaussian rational.
    """
    center = Fraction(center)
    coeffs: dict[int, object] = {}
    for k in range(-power, power + 1):
        base = Fraction(comb(2 * power, power + k), 4 ** power)
        if mode == "exact":
            tw = (-center * k) % 1
            if tw.denominator not in (1, 2, 4):
                raise ValueError("exact bump needs a center with denominator | 4")
            unit = {Fraction(0): qi(1, 0), Fraction(1, 2): qi(-1, 0),
                    Fraction(1, 4): qi(0, 1), Fraction(3, 4): qi(0, -1)}[tw]
            coeffs[k] = PhasePoly({0: (unit[0] * base, unit[1] * base)})
        else:
            coeffs[k] = float(base) * cmath.exp(-2j * cmath.pi * float(center) * k)
    return TrigPoly(mode, coeffs)


@dataclass
class CenterReport:
    ok: bool
    shifted_copies_disjoint: bool
    equation_max: float
    commutator_norms: dict[str, float]
    notes: str


def center_check(c, phi: TrigPoly, grid: int = 256, tolerance: float = 1e-8,
                 witness_tol: float = 1e-6, radius: int = 24) -> CenterReport:
    """Test whether phi commutes with the algebra of a basic arc-complement.

    c must be basic with step 1 and generating set the complement of an
    open arc J.  phi passes when it is (within tolerance) invariant under
    the rotation on J and its inverse on the rotated copy, and when its
    commutators with the shift generator and with a vanishing witness
    supported near J stay small in the truncated norm.

    When the copies of J under the rotation overlap, the invariance
    conditions chain together; this is recorded but is not an error.
    """
    from .idealfn import BasicFunction
    if not isinstance(c, BasicFunction) or c.q != 1:
        raise ValueError("center check needs a basic function with step 1")
    P = c.P
    if P.full or len(P.arcs) != 1 or P.points:
        raise ValueError("generating set must be a single closed arc")
    angle = c.angle
    arc = P.arcs[0]
    # J is the complementary (open) arc; sample its interior
    _, arc_view = ClosedCircleSet.from_components(angle, (), (arc,)).float_components()
    p_start, p_len = arc_view[0]
    j_start = (p_start + p_len) % 1.0
    j_len = 1.0 - p_len
    rho = angle.float_value()

    disjoint = True
    J_closed = ClosedCircleSet.from_components(angle, (), (Arc(arc.end, arc.start),))
    shifted = [J_closed.rotate(k) for k in (-1, 0, 1, 2)]
    for i in range(len(shifted)):
        for j in range(i + 1, len(shifted)):
            if shifted[i].intersect(shifted[j]).classify() == "has-interior":
                disjoint = False

    phi_f = phi.as_float(angle)
    eq_max = 0.0
    for i in range(1, grid):
        t = j_start + j_len * i / grid
        eq_max = max(eq_max, abs(phi_f.eval_at(angle, t + rho) - phi_f.eval_at(angle, t)))
        s = t + rho  # point of the rotated copy
        eq_max = max(eq_max, abs(phi_f.eval_at(angle, s - rho) - phi_f.eval_at(angle, s)))

    # commutators against the shift generator and a vanishing witness
    phi_el = CrossedElement(angle, "float", {0: phi_f})
    shift_el = CrossedElement.monomial(angle, 0, 1, 1.0, mode="float")
    mid = (j_start + j_len / 2) % 1.0
    half = j_len / 2
    n_pow = max(8, int(math.ceil(math.log(witness_tol) / math.log(math.cos(math.pi * half) ** 2))))
    h = bump_power(angle, Fraction(mid).limit_denominator(10**6), n_pow, mode="float")
    witness = CrossedElement(angle, "float", {1: h})
    norms = {}
    for name, g in (("shift", shift_el), ("witness", witness)):
        comm = multiply(phi_el, g) - multiply(g, phi_el)
        norms[name] = truncated_norm(comm, radius=radius)
    ok = eq_max <= tolerance and all(v <= tolerance for v in norms.values())
    notes = "" if disjoint else "rotated copies of the gap overlap; conditions chain"
    return CenterReport(ok, disjoint, eq_max, norms, notes)


# -- serialization ------------------------------------------------------------


def element_to_json(a: CrossedElement) -> dict:
    terms = []
    for n in sorted(a.terms):
        entries = []
        for k in sorted(a.terms[n].coeffs):
            c = a.terms[n].coeffs[k]
            if isinstance(c, PhasePoly):
                for j in sorted(c.terms):
                    re, im = c.terms[j]
                    e = {"k": k, "re": str(re), "im": str(im)}
                    if j:
                        e["zeta"] = j
                    entries.append(e)
            else:
                entries.append({"k": k, "re": repr(c.real), "im": repr(c.imag)})
        terms.append({"n": n, "coeffs": entries})
    return {"mode": a.mode, "terms": terms}


def element_from_json(angle: Angle, doc: dict) -> CrossedElement:
    mode = doc.get("mode", "exact")
    terms: dict[int, TrigPoly] = {}
    for td in doc["terms"]:
        n = int(td["n"])
        coeffs: dict[int, object] = {}
        for e in td["coeffs"]:
            k = int(e["k"])
            if mode == "exact":
                j = int(e.get("zeta", 0))
                add = PhasePoly({j: qi(Fraction(e["re"]), Fraction(e["im"]))})
                prev = coeffs.get(k)
                coeffs[k] = add if prev is None else prev + add
            else:
                coeffs[k] = coeffs.get(k, 0j) + complex(float(e["re"]), float(e["im"]))
        t = TrigPoly(mode, coeffs)
        if t.is_zero():
            continue
        terms[n] = (terms[n] + t) if n in terms else t
    return CrossedElement(angle, mode, terms)
