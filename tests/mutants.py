#!/usr/bin/env python3
"""Mutation check: every mutant in MUTANTS must fail the tests named with it.

    python3 tests/mutants.py

Run from anywhere; it finds the checkout from its own path.  For each entry
(file under src/, old text, new text, test ids) it copies src/, tests/ and
pyproject.toml to a temporary directory, replaces the old text by the new
one in the copy, and runs each named test there in its own pytest call.  A
mutant is killed only when every test named with it fails; one that passes
any of them survives.  Exits 1 when a mutant survives, pytest cannot run one
of its tests, or an old text does not occur exactly once in its file; 0
otherwise.
Standard library only; pytest runs in a child process.
"""
from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_KERNEL = "key = (n + m, k1 + k2, j1 + j2 + k1 * m)"
_KERNEL_TESTS = ["tests/test_sandbox.py::test_exact_product_matches_composed_convolutions"]
_PRODUCT_TESTS = ["tests/test_sandbox.py::test_exact_product_cancels_without_zero_terms",
                  *_KERNEL_TESTS]
_ADDMUL_TESTS = ["tests/test_exactnum.py::test_qi_addmul_is_add_of_mul",
                 "tests/test_exactnum.py::test_qi_addmul_with_zero_operands_and_result"]
_ADJOINT = "(-n, -k, k * n - j)"
_ADJOINT_TESTS = ["tests/test_sandbox.py::test_exact_adjoint_matches_conjugate_then_rotate"]
_QI_FRAC_TESTS = ["tests/test_exactnum.py::test_qi_frac_is_qi_of_two_fractions",
                  "tests/test_exactnum.py::test_qi_frac_zero_negative_and_reducible_cases"]
_NEAR_TIES = "tests/test_circleset.py::test_position_order_of_near_ties_falls_back_to_the_exact_sort"
_OUT_OF_RANGE = "tests/test_cli.py::test_out_of_range_values_exit_4"
_PHASE_BRUTE = "tests/test_angle.py::test_match_phase_matches_a_256_bit_brute_force"
_RECORDS = "tests/test_sandbox.py::test_elements_compare_by_value_without_zeros_and_are_unhashable"
_C_CLOSED = "tests/test_idealfn.py::test_closedness_violation_lists_match_brute_force"
_FILTER = "tests/test_closure.py::test_point_filter_cuts_like_set_operations"
_MIRROR = "tests/test_closure.py::test_mirror_rule_yields_what_a_full_visit_yields"
_EXTENSION = ["tests/test_idealfn.py::test_extension_violation",
              "tests/test_idealfn.py::test_extension_gap_reads_as_full_circle",
              "tests/test_idealfn.py::test_extension_shifted_difference_rule",
              "tests/test_idealfn.py::test_extension_difference_rule"]
_EXTENSION_MODEL = ("tests/test_idealfn.py::"
                    "test_extension_matches_the_one_sided_rules_in_the_exponent_model")
_NUMBERS = "tests/test_sandbox.py::test_json_numbers_refuse_what_their_mode_cannot_read"
_CUT_TWICE = ("self.points * 2 + a.points + b.points,\n"
              "                         self.arcs * 2 + a.arcs + b.arcs, 3)")
_CUT_ONCE = ("self.points + a.points + b.points,\n"
             "                         self.arcs + a.arcs + b.arcs, {})")
_CUT_TESTS = ["tests/test_circleset.py::test_intersect_union_cases",
              "tests/test_circleset.py::test_intersect_union_is_the_set_expression"]
_DENSE_SPLIT = "tests/test_sandbox.py::test_norm_matches_dense_svd_across_the_split"
_NO_FALLBACK = ["tests/test_sandbox.py::test_norm_converges_on_a_near_multiple_top_eigenvalue",
                "tests/test_sandbox.py::test_norm_reaches_the_top_of_a_dense_cluster"]

# (file under src/, old text, new text, test ids that must fail)
MUTANTS = [
    ("rotalg/sandbox.py", _KERNEL, "key = (n + m, k1 + k2, j1 + j2 + k2 * n)", _KERNEL_TESTS),
    ("rotalg/sandbox.py", _KERNEL, "key = (n + m, k1 + k2, j1 + j2 - k1 * m)", _KERNEL_TESTS),
    ("rotalg/sandbox.py", "if q[0] or q[1]:", "if True:", _PRODUCT_TESTS),
    ("rotalg/exactnum.py", "return _reduce(x[0] * d", "return (x[0] * d", _ADDMUL_TESTS),
    ("rotalg/exactnum.py", "if not y[0] and not y[1]:", "if not x[0] and not x[1]:",
     _ADDMUL_TESTS),
    ("rotalg/sandbox.py", _ADJOINT, "(-n, -k, -k * n - j)",
     [*_ADJOINT_TESTS, "tests/test_sandbox.py::test_adjoint_examples"]),
    ("rotalg/sandbox.py", _ADJOINT, "(-n, -k, k * n + j)", _ADJOINT_TESTS),
    ("rotalg/sandbox.py", "qi_conj(q) for", "q for", _ADJOINT_TESTS),
    ("rotalg/exactnum.py", "return _reduce(a * d, c * b, b * d)", "return (a * d, c * b, b * d)",
     _QI_FRAC_TESTS),
    ("rotalg/suites.py", "flat[key] = qi_add(flat[key], q) if key in flat else q",
     "flat[key] = q", ["tests/test_sandbox.py::test_random_exact_element_is_the_sum_of_its_draws"]),
    ("rotalg/angle.py", "(u - r - 1) // (d * den)", "(u - r) // (d * den)",
     ["tests/test_angle.py::test_decisions_match_256_bit_oracle"]),
    ("rotalg/angle.py", "        if x == 0 and y == 0:\n            return 0\n", "",
     ["tests/test_angle.py::test_compare_linear_examples"]),
    ("rotalg/angle.py", "e, f = p - q1,", "e, f = q1 - p,",
     ["tests/test_angle.py::test_cf_angle_is_the_surd_of_its_quotient_stream",
      "tests/test_angle.py::test_golden_surd_and_cf_refine_alike"]),
    # the immutable angle: dyadic refine, local best denominators, reduced surd
    ("rotalg/angle.py", "== 0 or f + 1 == 1 << k:", "== 0:",
     ["tests/test_angle.py::test_refine_vacuous_precision",
      "tests/test_angle.py::test_refine_is_the_dyadic_floor_of_the_256_bit_oracle"]),
    ("rotalg/angle.py", "q0, q1, out = 1, 0, []", "q0, q1, out = 0, 1, []",
     ["tests/test_angle.py::test_best_denominators_golden"]),
    ("rotalg/angle.py", "s = 1 if b > 0 else -1", "s = 1",
     ["tests/test_angle.py::test_best_denominators_negative_surd_coefficient"]),
    ("rotalg/angle.py", "g = gcd(a, b, den)", "g = 1",
     ["tests/test_angle.py::test_scaled_surd_reads_as_its_reduced_surd"]),
    # the integer phase search
    ("rotalg/angle.py", "x, y = b - x, -y", "x, y = b - x, y",
     [_PHASE_BRUTE, "tests/test_angle.py::test_match_phase_third_bound_200"]),
    ("rotalg/angle.py", "self.compare_linear(x - best[0], y - best[1]) < 0:",
     "self.compare_linear(x - best[0], y - best[1]) <= 0:",
     [_PHASE_BRUTE, "tests/test_angle.py::test_match_phase_zero_hits_denominator",
      "tests/test_angle.py::test_match_phase_half"]),
    ("rotalg/angle.py", "x = -a - b * self.floor_linear", "x = -a + b * self.floor_linear",
     [_PHASE_BRUTE]),
    ("rotalg/angle.py", "best[0] * s - p * b,", "best[0] * s - p,", [_PHASE_BRUTE]),
    # input checks
    ("rotalg/cli.py", 'return f"missing field {exc}" if type(exc) is KeyError else str(exc)',
     "return str(exc)", ["tests/test_cli.py::test_missing_fields_are_named"]),
    ("rotalg/cli.py", "if not 0 < value < INFINITY:", "if not 0 < value <= INFINITY:",
     [f"{_OUT_OF_RANGE}[membership-tolerance-inf]", f"{_OUT_OF_RANGE}[center-tolerance-inf]"]),
    ("rotalg/idealfn.py", "if depth > DEPTH_LIMIT:", "if depth > 10 * DEPTH_LIMIT:",
     [f"{_OUT_OF_RANGE}[join-document-depth-past-depth-limit]"]),
    ("rotalg/cli.py", "_int_in(0, DEPTH_LIMIT,", "_int_in(0, 10 * DEPTH_LIMIT,",
     ["tests/test_cli.py::test_depth_is_bounded_by_depth_limit"]),
    # re-derived from the mutants that earlier changes ran by hand
    ("rotalg/circleset.py", "(p[0], p[1], p[2] - k) in moved", "(p[0], p[1], p[2] + k) in moved",
     ["tests/test_circleset.py::test_intersect_union_cases"]),
    ("rotalg/circleset.py", "e = (abs(p[2]) + 2) * 2.0**-50", "e = 0.0",
     [f"{_NEAR_TIES}[_fibonacci_ties]", f"{_NEAR_TIES}[_wrap_ties]"]),
    ("rotalg/idealfn.py", "    def __bool__(self) -> bool:  # a one-field tuple is always truthy\n"
     "        return self.ok\n", "", ["tests/test_idealfn.py::test_c_ideal_failure_and_triviality"]),
    ("rotalg/idealfn.py", "                quiet = False\n                yield (\"product\"",
     "                yield (\"product\"",
     ["tests/test_closure.py::test_mirror_rule_yields_what_a_full_visit_yields"]),
    ("rotalg/finitegroup.py", "            if len(rows) == dim:\n                break\n", "",
     ["tests/test_finitegroup.py::test_m2_closure_stops_at_rank_four"]),
    # records: numpy off the exact path, zero-free value equality, no hash
    ("rotalg/sandbox.py", "import cmath\n", "import cmath\nimport numpy as np\n",
     ["tests/test_cli.py::test_lattice_verbs_leave_numpy_unimported"]),
    ("rotalg/sandbox.py", "self.coeffs = {k: c for k, c in (coeffs or {}).items() if c}",
     "self.coeffs = dict(coeffs or {})", [_RECORDS]),
    ("rotalg/sandbox.py", "(terms or {}).items() if not t.is_zero()}", "(terms or {}).items()}",
     [_RECORDS]),
    ("rotalg/sandbox.py", "return (self.mode, self.coeffs) == (other.mode, other.coeffs)",
     "return self.coeffs == other.coeffs", [_RECORDS]),
    ("rotalg/sandbox.py", "\n                and self.angle.same_as(other.angle))", ")", [_RECORDS]),
    ("rotalg/sandbox.py", "coefficients are equal; not hashable.\"\"\"\n",
     "coefficients are equal; not hashable.\"\"\"\n    __hash__ = object.__hash__\n", [_RECORDS]),
    ("rotalg/finitegroup.py", "for u in rep.basis) and rep.proper)", "for u in rep.basis))",
     ["tests/test_finitegroup.py::test_extend_ideal_report_keeps_its_proper_value"]),
    # one cut per closure rule: the ideal's four symmetric cuts and its
    # one-sided m, the decomposition's start
    ("rotalg/idealfn.py", "((jv[n], -m, cv[m]), (jv[m]", "((jv[m]", [_C_CLOSED]),
    ("rotalg/idealfn.py", ", (jv[m], -n, cv[n]),", ",", [_C_CLOSED]),
    ("rotalg/idealfn.py", "(cv[n], -m, jv[m]), ", "", [_C_CLOSED]),
    ("rotalg/idealfn.py", ", (cv[m], -n, jv[n]))):", ")):", [_C_CLOSED]),
    ("rotalg/idealfn.py", "if not cv[m].full:", "if not jv[m].full:", [_C_CLOSED, _FILTER]),
    ("rotalg/idealfn.py",
     "approx: IdealFunction = BasicFunction(0, ClosedCircleSet.empty(c.angle))",
     "approx: IdealFunction = all_empty(c.angle)",
     ["tests/test_closure.py::test_decomposition_of_trivial",
      "tests/test_closure.py::test_decomposition_of_basic",
      "tests/test_cli.py::test_decompose_checks_the_whole_window"]),
    ("rotalg/angle.py", "        if (D - P * P) % Q != 0:\n"
     "            P, D, Q = P * abs(Q), D * Q * Q, Q * abs(Q)\n", "",
     ["tests/test_angle.py::test_best_denominators_silver"]),
    # integer circle positions: the product cut shifted by +m, swapped
    # denominators, an arc basic built one copy a step
    ("rotalg/idealfn.py", "intersect_union(D[n], -m, D[m])", "intersect_union(D[n], m, D[m])",
     [_FILTER, _MIRROR]),
    ("rotalg/circleset.py", "ax * bd - bx * ad, ay * bd - by * ad",
     "ax * ad - bx * bd, ay * ad - by * bd",
     [f"{_NEAR_TIES}[_fibonacci_ties]",
      "tests/test_circleset.py::test_intersect_decisions_are_sort_bounded_on_near_ties"]),
    ("rotalg/circleset.py", "x, d = xb * da - xa * db, da * db",
     "x, d = xb * db - xa * da, da * db",
     ["tests/test_circleset.py::test_covering_index",
      "tests/test_circleset.py::test_intersect_wrapping_arc"]),
    ("rotalg/idealfn.py", "top = min(k, 2 * below + 1) if", "top = min(k, below + 1) if",
     ["tests/test_idealfn.py::test_far_arc_basic_value_stops_at_the_covering_index",
      "tests/test_idealfn.py::test_basic_value_is_bounded_by_value_limit"]),
    # the certified sweep order: no wrap check at 0 or at 1, the target
    # counted once at need 3 or at need 2
    ("rotalg/circleset.py", "lo = 0.0  # the top", "lo = -1.0  # the top",
     [f"{_NEAR_TIES}[_fibonacci_ties]", f"{_NEAR_TIES}[_wrap_ties]"]),
    ("rotalg/circleset.py", "if lo < 1.0:", "if True:", [f"{_NEAR_TIES}[_wrap_ties]"]),
    ("rotalg/circleset.py", _CUT_TWICE, _CUT_ONCE.format(3), _CUT_TESTS),
    ("rotalg/circleset.py", _CUT_TWICE, _CUT_ONCE.format(2), _CUT_TESTS),
    # the mirror rule: quiet kept after a reflection yield, no w < k <= 2w check
    ("rotalg/idealfn.py", "                quiet = False\n                yield (\"reflection\"",
     "                yield (\"reflection\"", [_MIRROR, _C_CLOSED]),
    ("rotalg/idealfn.py", "    quiet = quiet and all(-k in D and D[-k] == D[k].rotate(k) "
     "for k in D if k > w)\n", "", [_MIRROR]),
    # the extension read from the sweep: no mirror flip, the greatest
    # violation named, the difference rule's n unnegated, no full padding
    ("rotalg/idealfn.py", "        if m + n < 0:\n            m, n = -n, -m\n", "",
     [*_EXTENSION, _EXTENSION_MODEL]),
    ("rotalg/idealfn.py", "m, n, rule = min(broken)", "m, n, rule = max(broken)",
     [_EXTENSION[1], _EXTENSION[3], _EXTENSION_MODEL]),
    ("rotalg/idealfn.py", "broken.append((m, -n, 1)", "broken.append((m, n, 1)",
     [_EXTENSION[3], _EXTENSION_MODEL]),
    ("rotalg/idealfn.py", "_labels(out | pad, W)", "_labels(out, W)",
     ["tests/test_idealfn.py::test_extension_full_default_bounds_targets_past_the_window",
      _EXTENSION_MODEL]),
    # number and window-key readers: the exponent bound ten times too
    # loose, non-finite floats read, any integer spelling taken as a key
    ("rotalg/angle.py", "abs(int(exponent[1])) > EXPONENT_LIMIT",
     "abs(int(exponent[1])) > 10 * EXPONENT_LIMIT", [f"{_NUMBERS}[exact-1E+1001]"]),
    ("rotalg/angle.py", "if not exact and not isfinite(number):", "if False:",
     [f"{_NUMBERS}[float-1e400]", f"{_NUMBERS}[float--Infinity]"]),
    ("rotalg/idealfn.py", "if str(n := int(key)) == key:", "if (n := int(key)) is not None:",
     ["tests/test_cli.py::test_window_keys_that_name_one_index_exit_4"]),
    # exact views: a full target or an uncut sweep returned as a new set
    ("rotalg/circleset.py", "return self if bound.full else bound", "return bound",
     ["tests/test_circleset.py::test_intersect_union_cases",
      "tests/test_closure.py::test_join_idempotent_on_closed"]),
    ("rotalg/circleset.py", "return self if cut == self else cut", "return cut",
     ["tests/test_idealfn.py::test_basics_are_closed", _MIRROR]),
    # the box norm's recurrence: no three-term subtraction, the residual
    # test without the Ritz vector's last entry, a constant start
    ("rotalg/sandbox.py", "        w -= beta * prev\n", "",
     [f"{_DENSE_SPLIT}[pattern-8]", f"{_DENSE_SPLIT}[averaged-10]"]),
    ("rotalg/sandbox.py", "if beta * abs(s[-1, 0]) <=", "if beta <=", _NO_FALLBACK),
    ("rotalg/sandbox.py", "q = np.dot([1, 1j], np.random.default_rng(0).standard_normal((2, N)))",
     "q = np.ones(N, dtype=complex)",
     ["tests/test_sandbox.py::test_norm_lanczos_branch_matches_dense_svd_on_symmetric_element"]),
]


def stale() -> list[str]:
    """The entries whose old text does not occur exactly once in its file."""
    out = []
    for path, old, _, _ in MUTANTS:
        count = (SRC / path).read_text().count(old)
        if count != 1:
            out.append(f"{path}: {old!r} occurs {count} times")
    return out


def run_mutant(path: str, old: str, new: str,
               tests: list[str]) -> list[subprocess.CompletedProcess]:
    """pytest on each named test alone over a copy of the sources with
    old -> new: exit code 0 means the test passes on the mutant, 1 that it
    fails."""
    with tempfile.TemporaryDirectory(prefix="rotalg-mutant-") as tmp:
        work = Path(tmp)
        shutil.copytree(SRC, work / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", work / "tests",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        target = work / "src" / path
        target.write_text(target.read_text().replace(old, new))
        return [subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                                test], cwd=work, capture_output=True, text=True)
                for test in tests]


def main() -> int:
    bad = stale()
    for line in bad:
        print(f"stale: {line}")
    if bad:
        return 1
    for path, old, new, tests in MUTANTS:
        procs = run_mutant(path, old, new, tests)
        codes = {proc.returncode for proc in procs}
        verdict = "killed" if codes == {1} else "SURVIVED" if 0 in codes else f"ERROR {codes}"
        print(f"{verdict}: {path}: {old!r} -> {new!r}")
        for test, proc in zip(tests, procs):
            if proc.returncode != 1:  # passes on the mutant, or pytest could not run it
                bad.append(path)
                print(f"  not killed by {test}:")
                print(proc.stdout[-2000:] + proc.stderr[-2000:])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
