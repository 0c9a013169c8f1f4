from fractions import Fraction
from math import floor, isqrt

import pytest
from hypothesis import assume, given, strategies as st

from rotalg import Angle, golden_angle, named_angle, silver_angle
from rotalg.angle import ANGLE_BITS, _floor_quad

import oracles


def test_refine_golden_hundredth(golden):
    lo, hi = golden.refine(Fraction(1, 100))
    assert hi - lo <= Fraction(1, 100)
    # 2**-7 is the first dyadic width <= 1/100, and floor(rho * 128) = 79
    assert (lo, hi) == (Fraction(79, 128), Fraction(5, 8))
    olo, ohi = oracles.surd_enclosure(-1, 1, 5, 2)
    assert lo < olo and ohi < hi


def test_golden_surd_and_cf_refine_alike():
    surd, cf = golden_angle(), Angle("cf", cf_prefix=[0, 1])
    for e in range(2, 25):
        assert surd.refine(Fraction(1, 10**e)) == cf.refine(Fraction(1, 10**e))


def test_range_check_is_exact():
    # rho is irrational, so it lies in (0, 1) exactly when its floor is 0;
    # near 1 a coarse enclosure reaches 1 and must not reject the angle
    for prefix in ([0, 1, 3], [0, 1, 4]):
        assert 0.75 < Angle("cf", cf_prefix=prefix).float_value() < 0.85
    surd = Angle("surd", surd=(1, 1, 13, 6))  # (1 + sqrt(13))/6 = [0; 1, 3, 3, ...]
    cf = Angle("cf", cf_prefix=[0, 1, 3])
    assert surd.float_value() == cf.float_value()
    assert surd.best_denominators(12) == cf.best_denominators(12)
    for bad in ((3, 1, 5, 2), (-3, 1, 5, 2), (1, -1, 5, 2)):  # 2.618..., -0.381..., -0.618...
        with pytest.raises(ValueError, match=r"must lie in \(0, 1\)"):
            Angle("surd", surd=bad)


def test_float_value_is_the_nearest_float():
    # the last four lie within 5e-19 of a rounding boundary: the midpoint
    # of their first convergent pair of width <= 1e-18 rounds the wrong way
    for surd in ((-1, 1, 5, 2), (-1, 1, 2, 1), (-1, 1, 2, 5), (1, 1, 13, 6), (-27, 8, 11, -31),
                 (-21, 6, 11, -14), (-38, 9, 10, -60), (21, -6, 2, 31)):
        # the 256-bit bounds bracket the value whatever the signs of b and den
        lo, hi = sorted(oracles.surd_enclosure(*surd))
        assert float(lo) == float(hi) == Angle("surd", surd=surd).float_value(), surd


def test_refine_vacuous_precision(golden):
    lo, hi = golden.refine(Fraction(1))
    assert 0 < lo < hi < 1


def test_refine_silver_micro(silver):
    lo, hi = silver.refine(Fraction(1, 10**6))
    assert hi - lo <= Fraction(1, 10**6)
    assert lo < Fraction(414214, 10**6) < hi or lo > Fraction(414213, 10**6)
    assert abs(float(lo) - 0.4142135) < 1e-5


def test_refine_nested():
    golden = golden_angle()  # fresh: nothing refined before the first call
    mid = golden.refine(Fraction(1, 100))
    fine = golden.refine(Fraction(1, 10**9))
    # the interval depends on the precision alone, not on a finer call before it
    assert golden.refine(Fraction(1, 100)) == mid
    # dyadic intervals nest: coarse ones contain fine ones
    coarse = golden.refine(Fraction(1, 10))
    assert coarse[0] <= mid[0] <= fine[0] < fine[1] <= mid[1] <= coarse[1]


def test_compare_linear_examples(golden):
    assert golden.compare_linear(Fraction(-1, 2), 1) == 1
    assert golden.compare_linear(Fraction(0), 0) == 0
    assert golden.compare_linear(Fraction(-2, 3), 1) == -1


_G = golden_angle()


@given(st.fractions(min_value=-3, max_value=3, max_denominator=20),
       st.integers(min_value=-6, max_value=6))
def test_compare_linear_negation(q, n):
    assert _G.compare_linear(q, n) == -_G.compare_linear(-q, -n)


@given(st.lists(st.tuples(
    st.fractions(min_value=-2, max_value=2, max_denominator=12),
    st.integers(min_value=-5, max_value=5)), min_size=3, max_size=3))
def test_compare_linear_transitive(triples):
    g = _G
    (q1, n1), (q2, n2), (q3, n3) = triples
    # order expressions by their exact sign differences and check consistency
    def le(a, b):
        return g.compare_linear(a[0] - b[0], a[1] - b[1]) <= 0
    items = sorted(triples, key=lambda t: t[0] + t[1] * 0.6180339887498949)
    assert le(items[0], items[1]) and le(items[1], items[2])
    assert le(items[0], items[2])


def test_best_denominators_golden(golden):
    assert golden.best_denominators(5) == [1, 2, 3, 5, 8]


def _expansion_denominators(surd, count, digits=300):
    """Convergent denominators of the continued fraction of a 300-digit
    rational approximation of (a + b*sqrt(c))/den."""
    a, b, c, den = surd
    N = 10**digits
    x = Fraction(a * N + b * isqrt(c * N * N), den * N)
    q0, q1, out = 1, 0, []
    while len(out) <= count:
        k = floor(x)
        q0, q1 = q1, k * q1 + q0
        out.append(q1)
        x = 1 / (x - k)
    return out[1:]


def test_best_denominators_silver(silver):
    assert silver.best_denominators(4) == [2, 5, 12, 29]
    # (D - P**2) % Q != 0 for these two: the expansion state is rescaled first
    for surd in ((-1, 1, 2, 5), (1, 1, 2, 3)):  # silver5 and (1 + sqrt(2))/3
        dens = Angle("surd", surd=surd).best_denominators(40)
        assert dens == _expansion_denominators(surd, 40) and dens[-1] > 10**15


def test_best_denominators_negative_surd_coefficient():
    # (3 - sqrt(5))/2 = [0; 2, 1, 1, ...]: its expansion state has Q < 0
    assert Angle("surd", surd=(3, -1, 5, 2)).best_denominators(6) == [2, 3, 5, 8, 13, 21]


def test_best_denominators_decreasing_distance(golden):
    rho = golden.float_value()
    dens = golden.best_denominators(8)
    dists = [abs(d * rho - round(d * rho)) for d in dens]
    assert all(a > b for a, b in zip(dists, dists[1:]))
    assert dists[0] < 0.5


def test_convergent_quality(golden):
    # |q_k rho - p_k| < 1/q_{k+1}
    dens = golden.best_denominators(9)
    rho = golden.float_value()
    for k in range(len(dens) - 1):
        assert abs(dens[k] * rho - round(dens[k] * rho)) < 1.0 / dens[k + 1]


def test_match_phase_half(golden):
    # best |k| <= 100 for the half turn: verified by float scan, 72 beats 17
    rho = golden.float_value()
    def dist(k):
        e = (k * rho) % 1.0
        return min(abs(e - 0.5), 1 - abs(e - 0.5))
    best = min(range(1, 101), key=dist)
    assert best == 72
    assert golden.match_phase(Fraction(1, 2), Fraction(1, 100), 100) == 72


def test_match_phase_zero_hits_denominator(golden):
    # with the bound at the first denominator below tolerance, that
    # denominator is the match
    assert golden.match_phase(Fraction(0), Fraction(1, 100), 55) == 55


def test_match_phase_not_found(golden):
    assert golden.match_phase(Fraction(1, 3), Fraction(1, 10**6), 10) is None


def test_match_phase_third_bound_200(golden):
    # verified by exact comparison: -48 lands closer to 1/3 than 96
    assert golden.match_phase(Fraction(1, 3), Fraction(1, 100), 200) == -48
    assert golden.match_phase(Fraction(2, 3), Fraction(1, 100), 200) == 48


def test_cf_descriptor_stream():
    a = Angle("cf", cf_prefix=[0, 2, 2], cf_rule="repeat-last")
    s = silver_angle()
    assert a.best_denominators(4) == s.best_denominators(4)
    lo, hi = a.refine(Fraction(1, 10**8))
    slo, shi = s.refine(Fraction(1, 10**8))
    assert not (hi < slo or shi < lo)


def test_cf_periodic_rule():
    a = Angle("cf", cf_prefix=[0, 1, 2], cf_rule="periodic:2")
    # coefficients 1,2,1,2,...: the value is a quadratic irrational in (0,1)
    lo, hi = a.refine(Fraction(1, 10**6))
    assert 0 < lo < hi < 1
    dens = a.best_denominators(6)
    assert dens[0] == 1 and all(b > a for a, b in zip(dens, dens[1:]))


def test_descriptor_validation():
    with pytest.raises(ValueError):
        Angle("surd", surd=(0, 1, 4, 2))   # square
    with pytest.raises(ValueError):
        Angle("surd", surd=(1, 0, 5, 2))   # rational
    with pytest.raises(ValueError):
        Angle("surd", surd=(3, 1, 5, 2))   # outside (0, 1)
    with pytest.raises(ValueError):
        Angle("cf", cf_prefix=[1, 2], cf_rule="repeat-last")  # a0 != 0


@given(st.lists(st.integers(1, 50), min_size=1, max_size=7), st.data())
def test_cf_angle_is_the_surd_of_its_quotient_stream(quotients, data):
    prefix = [0, *quotients]
    k = data.draw(st.integers(1, len(quotients)))
    rule = data.draw(st.sampled_from(["repeat-last", f"periodic:{k}"]))
    if rule == "repeat-last":
        k = 1
    stream = prefix + [prefix[len(prefix) - k + i % k] for i in range(61 - len(prefix))]
    # textbook recurrence from p_{-1}/q_{-1} = 1/0, p_0/q_0 = 0/1
    conv = [(1, 0), (0, 1)]
    for a in stream[1:]:
        (p0, q0), (p1, q1) = conv[-2:]
        conv.append((a * p1 + p0, a * q1 + q0))
    angle = Angle("cf", cf_prefix=prefix, cf_rule=rule)
    assert angle.best_denominators(30) == [q for _, q in conv[2:32]]
    assert abs(Fraction(angle.float_value()) - Fraction(*conv[61])) <= Fraction(1, 2**50)


def test_descriptors_past_angle_bits_are_refused():
    big = 1 << ANGLE_BITS  # ANGLE_BITS + 1 bits
    for surd in ((-big, big, 5, 2 * big), (-1, 1, 5 * big * big, 2), (-1, 1, 5, 2 * big)):
        with pytest.raises(ValueError, match="angle-too-large"):
            Angle("surd", surd=surd)
    for prefix in ([0] + [1] * (ANGLE_BITS + 1), [0, 2, big], [0] + [7] * 50_000):
        with pytest.raises(ValueError, match="angle-too-large"):
            Angle("cf", cf_prefix=prefix)
    # at the bound: a surd term or the prefix of ANGLE_BITS bits is accepted
    half = 1 << (ANGLE_BITS - 2)
    golden = Angle("surd", surd=(-half, half, 5, 2 * half))
    assert golden.float_value() == golden_angle().float_value()
    assert golden.best_denominators(5) == [1, 2, 3, 5, 8]
    ones = Angle("cf", cf_prefix=[0] + [1] * ANGLE_BITS)
    assert ones.best_denominators(5) == [1, 2, 3, 5, 8]
    wide = Angle("cf", cf_prefix=[0, 2, (1 << (ANGLE_BITS - 3)) - 1])
    assert wide.compare_linear(Fraction(-1, 2), 1) == -1
    assert wide.floor_linear(Fraction(-1, 3), 1) == 0


def test_scaled_surd_reads_as_its_reduced_surd():
    # a descriptor scaled to ANGLE_BITS decides at the cost of (-1, 1, 5, 2)
    half = 1 << (ANGLE_BITS - 2)
    golden = golden_angle()
    for desc in ((-half, half, 5, 2 * half), (half, -half, 5, -2 * half)):
        big = Angle("surd", surd=desc)
        assert big._surd == golden._surd == (-1, 1, 5, 2)
        for q, n in ((Fraction(-13, 21), 1), (Fraction(-21, 34), 1), (-832040, 1346269), (7, -3)):
            assert big.compare_linear(q, n) == golden.compare_linear(q, n)
            assert big.floor_linear(q, n, 5) == golden.floor_linear(q, n, 5)
        assert big.refine(Fraction(1, 10**30)) == golden.refine(Fraction(1, 10**30))
        assert big.float_value() == golden.float_value()
        assert big.best_denominators(30) == golden.best_denominators(30)
        # the descriptor is echoed sign-normalised, not reduced
        assert big.to_json() == {"kind": "surd", "a": -half, "b": half, "c": 5, "den": 2 * half}
        assert repr(big) == f"Angle(({-half}{half:+}*sqrt(5))/{2 * half})"
        assert big.same_as(Angle("surd", surd=(-half, half, 5, 2 * half)))
        assert not big.same_as(golden)


def test_json_round_trip(golden):
    doc = golden.to_json()
    assert doc == {"kind": "surd", "a": -1, "b": 1, "c": 5, "den": 2}
    again = Angle.from_json(doc)
    assert again.best_denominators(5) == golden.best_denominators(5)
    cf = Angle("cf", cf_prefix=[0, 1, 1, 1], cf_rule="repeat-last")
    cf2 = Angle.from_json(cf.to_json())
    assert cf2.best_denominators(5) == [1, 2, 3, 5, 8]


def test_named_angles():
    assert abs(named_angle("golden").float_value() - 0.6180339887) < 1e-9
    assert abs(named_angle("silver").float_value() - 0.4142135624) < 1e-9
    assert abs(named_angle("silver5").float_value() - 0.0828427125) < 1e-9
    assert abs(named_angle('{"kind":"surd","a":-1,"b":1,"c":5,"den":2}')
               .float_value() - 0.6180339887) < 1e-9


def test_concurrent_refinement():
    import sys
    import threading
    g = golden_angle()
    fresh = golden_angle()  # decided only while the threads run
    errs = []
    # near-ties -p_k + q_k*rho at Fibonacci convergents: each one needs a
    # narrower enclosure than the last
    fib = [1, 1]
    while len(fib) < 200:
        fib.append(fib[-1] + fib[-2])

    def work(offset):
        try:
            for k in range(10, 40):
                g.refine(Fraction(1, 2**k))
                g.compare_linear(Fraction(-13, 21), 1)
            for k in range(20 + offset, 198, 3):
                p, q = fib[k - 1], fib[k]  # p/q -> rho, alternating sides
                want = -1 if k % 2 else 1
                s = 1 if k % 4 < 2 else -1  # both signs of the rho coefficient
                if fresh.compare_linear(-s * p, s * q) != s * want:
                    errs.append(("sign", k))
                if fresh.floor_linear(-s * p, s * q, 1) != (0 if s * want > 0 else -1):
                    errs.append(("floor", k))
        except Exception as exc:  # pragma: no cover
            errs.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i % 3,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errs
    lo, hi = g.refine(Fraction(1, 2**39))
    assert hi - lo <= Fraction(1, 2**39)


# -- the decision kernel against an independent 256-bit oracle ---------------
# rho = (a + b*sqrt(c))/den is enclosed by math.isqrt at 256 bits; the cf
# angle [0; 1, 2, 1, 2, ...] is sqrt(3) - 1.  Convergents come from the
# textbook recurrence over the known partial quotients, not from Angle.

ORACLE_ANGLES = {
    "golden": (lambda: golden_angle(), (-1, 1, 5, 2), lambda i: 0 if i == 0 else 1),
    "silver": (lambda: silver_angle(), (-1, 1, 2, 1), lambda i: 0 if i == 0 else 2),
    "cf-sqrt3": (lambda: Angle("cf", cf_prefix=[0, 1, 2], cf_rule="periodic:2"),
                 (-1, 1, 3, 1), lambda i: 0 if i == 0 else (1 if i % 2 else 2)),
}


def _oracle_sign(name, x, y):
    lo, hi = oracles.surd_enclosure(*ORACLE_ANGLES[name][1])
    a, b = x + y * lo, x + y * hi
    assert (a > 0) == (b > 0) and a != 0 and b != 0, "256 bits do not decide"
    return 1 if a > 0 else -1


def _oracle_floor(name, x, y, d):
    lo, hi = oracles.surd_enclosure(*ORACLE_ANGLES[name][1])
    a, b = floor((x + y * lo) / d), floor((x + y * hi) / d)
    assert a == b, "256 bits do not decide"
    return a


def _convergent(name, k):
    coeff = ORACLE_ANGLES[name][2]
    p0, q0, p1, q1 = 1, 0, coeff(0), 1
    for i in range(1, k + 1):
        p0, q0, p1, q1 = p1, q1, coeff(i) * p1 + p0, coeff(i) * q1 + q0
    return p1, q1


@st.composite
def linear_cases(draw):
    """(angle name, x, y, d): generic ints, or a near-tie t*d -/+ (q_k*rho - p_k)."""
    name = draw(st.sampled_from(sorted(ORACLE_ANGLES)))
    d = draw(st.integers(min_value=1, max_value=60))
    if draw(st.booleans()):
        big = 2**70
        return (name, draw(st.integers(-big, big)), draw(st.integers(-big, big)), d)
    p, q = _convergent(name, draw(st.integers(min_value=8, max_value=70)))
    sign = draw(st.sampled_from((1, -1)))
    t = draw(st.sampled_from((0, 0, 0, 1, -1, 2, -5)))  # t = 0: a near-tie of the sign too
    return (name, t * d - sign * p + draw(st.sampled_from((0, 0, 1, -1))), sign * q, d)


@given(linear_cases())
def test_decisions_match_256_bit_oracle(case):
    name, x, y, d = case
    angle = ORACLE_ANGLES[name][0]()  # fresh: no enclosure grown by earlier cases
    assert angle.compare_linear(x, y) == _oracle_sign(name, x, y)
    assert angle.compare_linear(Fraction(x, d), y) == _oracle_sign(name, x, d * y)
    assert angle.floor_linear(x, y, d) == _oracle_floor(name, x, y, d)
    assert angle.floor_linear(Fraction(x, d), y) == _oracle_floor(name, x, d * y, d)


def test_near_ties_refine_past_the_first_enclosure():
    for name, (make, _, _) in ORACLE_ANGLES.items():
        angle = make()
        p, q = _convergent(name, 60)
        assert q > 2**30
        assert angle.floor_linear(-p, q, 1) == _oracle_floor(name, -p, q, 1)
        for s in (1, -1):
            assert angle.compare_linear(-s * p, s * q) == _oracle_sign(name, -s * p, s * q)
            assert angle.floor_linear(-s * p, s * q, 3) == _oracle_floor(name, -s * p, s * q, 3)
        # zero coefficient of rho: plain integer sign and floor
        assert angle.compare_linear(0, 0) == 0 and angle.floor_linear(-7, 0, 2) == -4


@given(st.integers(-10**12, 10**12), st.integers(2, 10**20),
       st.integers(1, 10**6), st.sampled_from((1, -1)))
def test_floor_quad_matches_256_bit_oracle(P, D, Q, sign):
    assume(isqrt(D) ** 2 != D)
    Q *= sign
    # (P + sqrt(D))/Q between the 256-bit bounds of sqrt(D), in either order
    a, b = sorted(oracles.surd_enclosure(P, 1, D, Q))
    assert floor(a) == floor(b), "256 bits do not decide"
    assert _floor_quad(P, D, Q) == floor(a)


@st.composite
def phase_cases(draw):
    """(angle name, target a/b with b <= 60, tolerance in [1e-9, 1/3], bound)."""
    name = draw(st.sampled_from(sorted(ORACLE_ANGLES)))
    b = draw(st.integers(min_value=1, max_value=60))
    target = Fraction(draw(st.integers(min_value=-b, max_value=2 * b - 1)), b)
    tolerance = Fraction(draw(st.integers(min_value=1, max_value=333)),
                         10 ** draw(st.integers(min_value=3, max_value=9)))
    return name, target, tolerance, draw(st.integers(min_value=0, max_value=60))


def _brute_match_phase(name, target, tolerance, bound):
    """match_phase by its contract.  Each distance is a form x + y*rho with
    x a Fraction; equal forms tie, others are ordered at 256 bits."""
    lo, hi = oracles.surd_enclosure(*ORACLE_ANGLES[name][1])

    def less(f, g):
        x, y = f[0] - g[0], f[1] - g[1]
        if x == 0 and y == 0:
            return False
        ends = (x + y * lo, x + y * hi)
        assume(min(ends) > 0 or max(ends) < 0)  # 256 bits decide
        return max(ends) < 0

    best = best_k = None
    for mag in range(1, bound + 1):
        for k in (mag, -mag):
            m = floor(k * lo - target)
            assume(floor(k * hi - target) == m)
            e = (-target - m, k)  # frac(k*rho - target)
            d = e if less(e, (Fraction(1, 2), 0)) else (1 - e[0], -e[1])
            if best is None or less(d, best):
                best, best_k = d, k
    return best_k if best is not None and less(best, (tolerance, 0)) else None


@given(phase_cases())
def test_match_phase_matches_a_256_bit_brute_force(case):
    name, target, tolerance, bound = case
    expected = _brute_match_phase(name, target, tolerance, bound)
    assert ORACLE_ANGLES[name][0]().match_phase(target, tolerance, bound) == expected


def test_refine_is_the_dyadic_floor_of_the_256_bit_oracle():
    # refine(2**-k) is (f/2**j, (f+1)/2**j), f = floor(rho*2**j), for the
    # least j >= k that puts both ends strictly inside (0, 1)
    for name, (make, _, _) in ORACLE_ANGLES.items():
        angle = make()
        for k in range(1, 201):
            j = k
            while not 0 < (f := _oracle_floor(name, 0, 1 << j, 1)) < (1 << j) - 1:
                j += 1
            assert angle.refine(Fraction(1, 1 << k)) == (Fraction(f, 1 << j),
                                                          Fraction(f + 1, 1 << j)), (name, k)
