"""Reusable verification suites.

Each suite runs a batch of checks against the exact calculus or the
numerical sandbox and returns a plain dict of measurements plus an "ok"
verdict, so the command line and the test suite assert against the same
computations.
"""
from __future__ import annotations

import cmath
import random
from fractions import Fraction

from .angle import Angle, named_angle
from .circleset import Arc, ClosedCircleSet, CirclePoint
from .exactnum import qi, qi_add, qi_frac
from .finitegroup import (FiniteAbelianGroup, FiniteAction, augmentation_ideal, build_BI,
                          check_no_intermediate_M2, check_not_from_subgroup, extend_ideal)
from .idealfn import make_basic
from .sandbox import (CrossedElement, TrigPoly, _nest, adjoint, apply_averaging,
                      build_averaging, bump_power, center_check,
                      derivative_extract, expectation_mu, fejer_bracket,
                      membership_test, multiply, project_qn, section_norm)

__all__ = [
    "suite_ring_laws", "suite_fejer", "suite_averaging", "suite_derivative",
    "suite_center", "suite_membership", "suite_finite_group",
    "random_exact_element", "random_float_element", "fejer_test_element",
]


def random_exact_element(angle: Angle, rng: random.Random) -> CrossedElement:
    """Four exact terms with |n|, |k| <= 2 and Gaussian-rational coefficients."""
    flat: dict[tuple[int, int, int], tuple] = {}
    for _ in range(4):
        key = (rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-1, 1))  # n, k, j
        q = qi_frac(rng.randint(-6, 6), rng.randint(1, 4), rng.randint(-6, 6), rng.randint(1, 4))
        flat[key] = qi_add(flat[key], q) if key in flat else q
    return _nest(angle, flat)


def random_float_element(angle: Angle, rng: random.Random) -> CrossedElement:
    """Six float terms with |n|, |k| <= 3 and coefficients in the unit square."""
    el = CrossedElement.zero(angle, "float")
    for _ in range(6):
        n = rng.randint(-3, 3)
        k = rng.randint(-3, 3)
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        el = el + CrossedElement.monomial(angle, n, k, c, mode="float")
    return el


def suite_ring_laws(angle: Angle, n: int = 64, seed: int = 0) -> dict:
    """Exact-mode ring laws on randomized triples, plus the expectation
    identity for products (zero-layer of a*d as a finite convolution)."""
    rng = random.Random(seed)
    failures = {"associativity": 0, "distributivity": 0, "adjoint": 0,
                "expectation": 0}
    for _ in range(n):
        a = random_exact_element(angle, rng)
        b = random_exact_element(angle, rng)
        c = random_exact_element(angle, rng)
        ab = multiply(a, b)
        if multiply(ab, c).terms != multiply(a, multiply(b, c)).terms:
            failures["associativity"] += 1
        if multiply(a, b + c).terms != (ab + multiply(a, c)).terms:
            failures["distributivity"] += 1
        if adjoint(ab).terms != multiply(adjoint(b), adjoint(a)).terms:
            failures["adjoint"] += 1
        # zero-layer of a product: sum over opposite layers of the
        # rotation-composed convolutions, which the exact product never forms
        prod0 = expectation_mu(ab)
        acc = TrigPoly.zero("exact")
        for m, f in a.terms.items():
            g = b.terms.get(-m)
            if g is not None:
                acc = acc + f.compose_rotation(angle, -m).convolve(g)
        if prod0.coeffs != acc.coeffs:
            failures["expectation"] += 1
    ok = not any(failures.values())
    return {"ok": ok, "trials": n, "failures": failures, "tolerance": 0}


def fejer_test_element(angle: Angle) -> CrossedElement:
    """Deterministic degree-8 element with small low-frequency layers."""
    el = CrossedElement.zero(angle, "float")
    spec = {0: [(0, 0.05)], 1: [(1, 0.04 + 0.02j)], -1: [(0, 0.03j)],
            2: [(-1, 0.05)], -2: [(2, 0.04)],
            3: [(0, 0.10), (2, 0.05)], -3: [(1, 0.10)],
            4: [(0, 0.08)], -4: [(-2, 0.08)],
            5: [(1, 0.30)], -5: [(0, 0.25)],
            6: [(0, 0.28), (-1, 0.10)], -6: [(2, 0.22)],
            7: [(0, 0.35)], -7: [(1, 0.30)],
            8: [(0, 0.40), (1, 0.15)], -8: [(0, 0.45)]}
    for nx, coeffs in spec.items():
        for k, c in coeffs:
            el = el + CrossedElement.monomial(angle, nx, k, c, mode="float")
    return el


def suite_fejer(angle: Angle, n: int = 64) -> dict:
    """Cesaro-mean error table: the section-norm error is nonincreasing
    past the degree and the low-frequency compression converges, at
    section radius 12."""
    radius = 12
    a = fejer_test_element(angle)
    deg = a.degree_x()
    if n < deg:
        raise ValueError(f"n = {n} is below the degree {deg} of the test element")
    errors = []
    for m in range(deg, n + 1):
        err = section_norm(a - fejer_bracket(a, m), radius=radius)
        errors.append((m, err))
    monotone = all(errors[i + 1][1] <= errors[i][1] + 1e-12
                   for i in range(len(errors) - 1))
    initial = errors[0][1]
    final = errors[-1][1]
    q2_err = section_norm(project_qn(a, 2) - project_qn(fejer_bracket(a, n), 2),
                          radius=radius)
    ok = monotone and final <= 0.15 * initial and q2_err < 1e-2
    return {"ok": ok, "degree": deg, "radius": radius,
            "errors": [[m, e] for m, e in errors],
            "monotone": monotone, "initial_error": initial,
            "final_error": final, "final_ratio": final / initial,
            "q2_final_error": q2_err}


def suite_averaging(angle: Angle, n: int = 64, seed: int = 0) -> dict:
    """Quality of the frequency-selecting averaging operator (layer 1 kept,
    layers 2 and 3 damped below eps = 0.05, rotations up to 200, section
    radius 32), and the contraction property on randomized elements."""
    eps, q, rs, bound, radius = 0.05, 1, (2, 3), 200, 32
    L = build_averaging(q, rs, eps, angle, bound)
    e_q = CrossedElement.monomial(angle, q, 0, 1.0, mode="float")
    preserve = section_norm(apply_averaging(L, e_q) - e_q, radius=radius)
    kills = {}
    for r in rs:
        e_r = CrossedElement.monomial(angle, r, 0, 1.0, mode="float")
        kills[r] = section_norm(apply_averaging(L, e_r), radius=radius)
    rng = random.Random(seed)
    worst_excess = 0.0
    small_radius = 10
    for _ in range(n):
        a = random_float_element(angle, rng)
        na = section_norm(a, radius=small_radius)
        nla = section_norm(apply_averaging(L, a), radius=small_radius)
        worst_excess = max(worst_excess, nla - na)
    ok = (preserve < eps and all(v < eps for v in kills.values())
          and worst_excess <= 1e-9)
    return {"ok": ok, "weights": len(L.terms), "weight_sum": L.weight_sum(),
            "preserve_error": preserve, "kill_errors": {str(r): v for r, v in kills.items()},
            "contraction_excess": worst_excess, "trials": n, "eps": eps}


def suite_derivative(angle: Angle, n: int = 64, seed: int = 0) -> dict:
    """Two-frequency splitting by differentiation along best denominators,
    on coefficients of size at most 0.01."""
    rng = random.Random(seed)

    def small_poly() -> TrigPoly:
        return TrigPoly("float", {k: complex(rng.uniform(-0.01, 0.01),
                                             rng.uniform(-0.01, 0.01))
                                  for k in range(-4, 5)})

    eta, etap = small_poly(), small_poly()
    plus_exact = CrossedElement(angle, "float", {1: eta})
    minus_exact = CrossedElement(angle, "float", {-1: etap})
    a = plus_exact + minus_exact

    dens = angle.best_denominators(n)
    if dens[-1] < 5:
        raise ValueError(f"n = {n} gives best denominators {dens}, "
                         f"none of them reaching the first pick 5")
    picks = [d for d in dens if d in (5, 13, 34)] or dens[-3:]
    residuals = []
    for nj in picks:
        j_count = dens.index(nj) + 1
        res = derivative_extract(a, j_count)
        r = max(section_norm(res.plus - plus_exact, radius=16),
                section_norm(res.minus - minus_exact, radius=16))
        residuals.append((nj, r))
    decreasing = all(residuals[i + 1][1] < residuals[i][1]
                     for i in range(len(residuals) - 1))
    final = residuals[-1][1]
    ok = decreasing and final < 1e-2
    return {"ok": ok, "residuals": [[nj, r] for nj, r in residuals],
            "decreasing": decreasing, "final_residual": final}


def center_instance():
    """Canonical central-element configuration: rotation by (sqrt(2)-1)/5
    and the complement of the gap (-1/20, 1/20)."""
    angle = named_angle("silver5")
    P = ClosedCircleSet.from_components(
        angle, (), (Arc(CirclePoint(Fraction(1, 20), 0),
                        CirclePoint(Fraction(-1, 20), 0)),))
    return angle, make_basic(1, P)


def suite_center(tolerance: float = 1e-9) -> dict:
    """Central-element checks on the canonical arc-complement instance,
    which fixes its own angle (reported as "angle").

    A rotation-glued bump far from the gap passes; constants pass; the
    first shift character fails the invariance equations.
    """
    angle, c = center_instance()
    phi = bump_power(Fraction(1, 2), 20)
    rep = center_check(c, phi, tolerance=tolerance)
    const = TrigPoly("float", {0: 1.0 + 0j})
    rep_const = center_check(c, const, tolerance=tolerance)
    eigen = TrigPoly.delta(1, mode="float")
    rep_eigen = center_check(c, eigen, tolerance=tolerance)
    ok = rep.ok and rep_const.ok and not rep_eigen.ok
    return {"ok": ok, "angle": angle.to_json(),
            "constructed": {"ok": rep.ok, "equation_max": rep.equation_max,
                            "commutators": rep.commutator_norms,
                            "copies_disjoint": rep.shifted_copies_disjoint,
                            "notes": rep.notes},
            "constant_ok": rep_const.ok,
            "shift_character_fails": not rep_eigen.ok,
            "tolerance": tolerance}


def suite_membership(angle: Angle, n: int = 64, tolerance: float = 1e-9,
                     seed: int = 0) -> dict:
    """Consistency between ideal-function values and sandbox membership.

    For each random basic with point data, a layer built to vanish on the
    prescribed set passes, and the same layer with a constant added fails.
    """
    rng = random.Random(seed)
    failures = 0
    for _ in range(n):
        q = rng.randint(1, 3)
        pts = [CirclePoint(Fraction(rng.randint(0, 7), 8), rng.randint(-2, 2))
               for _ in range(rng.randint(1, 2))]
        P = ClosedCircleSet.from_points(angle, pts)
        c = make_basic(q, P)
        m = q * rng.randint(1, 3)
        v = c.value_set(m)
        positions, _ = v.float_components()
        # vanishing layer: product of (character - value at each point)
        coeffs = {0: 1 + 0j}
        for pos in positions:
            root = cmath.exp(2j * cmath.pi * pos)
            new = {}
            for k, cf in coeffs.items():
                new[k + 1] = new.get(k + 1, 0j) + cf
                new[k] = new.get(k, 0j) - cf * root
            coeffs = new
        good = CrossedElement(angle, "float", {m: TrigPoly("float", coeffs)})
        bad = good + CrossedElement.monomial(angle, m, 0, 1.0, mode="float")
        if not membership_test(c, good, tolerance).ok:
            failures += 1
        if membership_test(c, bad, tolerance).ok:
            failures += 1
    return {"ok": failures == 0, "pairs": n, "failures": failures,
            "tolerance": tolerance}


def suite_finite_group(trials: int) -> dict:
    """End-to-end finite-group checks: augmentation ideals, the compressed
    intermediate algebra, the two-point rigidity, subgroup discrimination
    and ideal extension."""
    out: dict = {}
    g2 = FiniteAbelianGroup.cyclic(2)
    aug2 = augmentation_ideal(g2)
    g3 = FiniteAbelianGroup.cyclic(3)
    aug3 = augmentation_ideal(g3)
    out["augmentation"] = {
        "z2": {"dim": aug2.dimension, "two_sided": aug2.two_sided, "proper": aug2.proper},
        "z3": {"dim": aug3.dimension, "two_sided": aug3.two_sided, "proper": aug3.proper},
    }

    action = FiniteAction.swap_two_fix_one()
    bi = build_BI(action, aug2.basis)
    out["bi"] = {"dim": bi.dimension, "star_closed": bi.star_closed,
                 "functions_intersection_dim": bi.functions_intersection_dim,
                 "expectation_image_dim": bi.expectation_image_dim}

    m2 = check_no_intermediate_M2(trials=trials)
    out["m2"] = {"iso": m2.iso_verified, "trials": m2.trials,
                 "all_full": m2.all_generated_full}

    sg = check_not_from_subgroup(action, {2})
    out["subgroup"] = {"distinct": sg.distinct_from_all,
                       "coefficient_dims": {str(k): v for k, v in sg.coefficient_dims.items()}}

    g4 = FiniteAbelianGroup.cyclic(4)
    ext = extend_ideal(g4, {0, 2}, [{2: qi(1), 0: qi(-1)}])
    out["extend"] = {"dim": ext.dimension, "two_sided": ext.two_sided,
                     "proper": ext.proper}

    ok = (aug2.two_sided and aug2.proper and aug3.dimension == 2
          and aug3.two_sided and aug3.proper
          and bi.star_closed and bi.functions_intersection_dim == 1
          and bi.expectation_image_dim >= 2
          and m2.iso_verified and m2.all_generated_full
          and sg.distinct_from_all
          and ext.dimension == 2 and ext.two_sided and ext.proper)
    out["ok"] = ok
    return out
