import random
import sys
import threading
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelianwords.contfrac import (AffineThreshold, ContinuedFraction,
                                   InsufficientPrecisionError, _sign,
                                   convergents, floor_scaled, frac_less_than)


def fixed_point_floor_oracle(cf, ns, bits=256):
    """Independent floors from a 256-bit fixed-point value of alpha.

    Recomputes a deep convergent by the plain recurrence (no shared cache);
    the truncated p*2^bits // q is within 2 of alpha*2^bits, so n*X carries
    error < 2n+1 and the assertion certifies the floor is unambiguous.
    """
    terms = cf.terms()
    p2, p1, q2, q1 = 1, 0, 0, 1
    while q1 < (1 << (bits // 2 + 20)):
        a = next(terms)
        p2, p1 = p1, a * p1 + p2
        q2, q1 = q1, a * q1 + q2
    x = (p1 << bits) // q1
    out = []
    for n in ns:
        v = n * x
        frac = v & ((1 << bits) - 1)
        margin = 2 * n + 1
        assert margin < frac < (1 << bits) - margin, "oracle too shallow"
        out.append(v >> bits)
    return out


# -- Fraction oracles ------------------------------------------------------
# The comparisons as they were written before the integer sign kernel: each
# builds Convergent objects and Fractions.  The kernel must agree with them
# on every result and raise InsufficientPrecisionError exactly where they do.

def oracle_compare_with_rational(cf, r):
    num, den = r.numerator, r.denominator
    m = 0
    while True:
        lo = cf.convergent(2 * m)
        if lo.p * den >= num * lo.q:
            return 1
        hi = cf.convergent(2 * m + 1)
        if hi.p * den <= num * hi.q:
            return -1
        m += 1


def oracle_affine_sign(cf, coeff, const):
    coeff = Fraction(coeff)
    const = Fraction(const)
    if coeff == 0:
        return (const > 0) - (const < 0)
    s = oracle_compare_with_rational(cf, -const / coeff)
    return s if coeff > 0 else -s


def oracle_floor_scaled(cf, n):
    if n == 0:
        return 0
    m = 0
    while True:
        lo = cf.convergent(2 * m)
        hi = cf.convergent(2 * m + 1)
        f_lo = (n * lo.p) // lo.q
        f_hi = (n * hi.p) // hi.q
        if f_lo == f_hi:
            return f_lo
        m += 1


def oracle_floor_range(cf, n_max):
    """floor(n*alpha) for every n in 0..n_max, as Python ints.

    Uses a single convergent p/q with q > n_max + 1: then n*p mod q is
    never 0 (q > n and gcd(p, q) = 1) while |n*alpha - n*p/q| < n/(q*q')
    < 1/q, so (n*p)//q is already exact for every n in range.  A finite
    expansion without such a convergent raises InsufficientPrecisionError.
    """
    m = 1
    while cf.convergent(m).q <= n_max + 1:
        m += 1
    c = cf.convergent(m)
    return [(n * c.p) // c.q for n in range(n_max + 1)]


def oracle_frac_less_than(cf, i, t):
    f = oracle_floor_scaled(cf, i)
    w = Fraction(i) - t.v
    s = t.u + f
    if w == 0:
        if s == 0:
            raise ValueError("identity")
        return s > 0
    if w > 0:
        return oracle_compare_with_rational(cf, s / w) < 0
    return oracle_compare_with_rational(cf, s / w) > 0


def outcome(fn, *args):
    """A call's result, or the type of the exception it raised."""
    try:
        return fn(*args)
    except (InsufficientPrecisionError, ValueError) as exc:
        return type(exc)


TERMS = st.integers(min_value=1, max_value=50)


@st.composite
def expansions(draw, finite=False):
    """[0; pre, per, per, ...] with terms 1..50, sometimes carrying one
    partial quotient 10**12; ``finite`` leaves the period empty."""
    pre = draw(st.lists(TERMS, min_size=int(finite), max_size=5))
    if draw(st.booleans()):
        pre.insert(draw(st.integers(0, len(pre))), 10**12)
    per = [] if finite else draw(st.lists(TERMS, min_size=1, max_size=3))
    return ContinuedFraction(tuple(pre), tuple(per))


any_expansion = st.one_of(expansions(), expansions(finite=True))


def draw_rational(data, cf):
    """A rational with a large numerator and denominator: either anywhere
    in a wide range, or a convergent of cf scaled by K and nudged by at
    most 3/(qK), which forces deep refinement on both sides of alpha."""
    if data.draw(st.booleans()):
        return Fraction(data.draw(st.integers(-10**30, 10**30)),
                        data.draw(st.integers(1, 10**30)))
    available = 40 if cf.period else len(cf.preperiod)
    c = cf.convergent(data.draw(st.integers(0, available)))
    K = data.draw(st.integers(1, 10**20))
    return Fraction(c.p * K + data.draw(st.integers(-3, 3)), c.q * K)


def fresh_copy(cf, warm_to):
    """An equal expansion with its own cache, grown to convergent
    ``warm_to`` (or as far as a finite expansion goes); None leaves it
    cold."""
    out = ContinuedFraction(cf.preperiod, cf.period)
    if warm_to is not None:
        try:
            out.convergent(warm_to)
        except InsufficientPrecisionError:
            pass
    return out


WARMTH = st.one_of(st.none(), st.integers(0, 60))


class TestIntegerKernelAgainstFractionOracles:
    # each kernel runs on a copy whose cache is cold or grown to a random
    # depth ``warm_to``; the oracles give the same answers either way

    @settings(max_examples=400, deadline=None)
    @given(any_expansion, WARMTH, st.data())
    def test_sign(self, cf, warm_to, data):
        if data.draw(st.booleans()):
            r = draw_rational(data, cf)
            c, e = r.denominator, -r.numerator
            if data.draw(st.booleans()):
                c, e = -c, -e
        else:  # |c| up to 10**6 against an e next to -c*alpha
            c = data.draw(st.integers(-10**6, 10**6))
            f = outcome(oracle_floor_scaled, cf, abs(c))
            f = 0 if isinstance(f, type) else f
            e = (-f if c >= 0 else f) + data.draw(st.integers(-2, 2))
        assert outcome(_sign, fresh_copy(cf, warm_to), c, e) == \
            outcome(oracle_affine_sign, cf, c, e)

    @settings(max_examples=400, deadline=None)
    @given(any_expansion, WARMTH, st.integers(0, 10**12))
    def test_floor_scaled(self, cf, warm_to, n):
        got = outcome(floor_scaled, fresh_copy(cf, warm_to), n)
        assert got == outcome(oracle_floor_scaled, cf, n)
        if cf.period and n >= 1:
            assert got == fixed_point_floor_oracle(cf, [n])[0]

    @settings(max_examples=100, deadline=None)
    @given(expansions(), WARMTH, st.integers(1, 400))
    def test_floor_range(self, cf, warm_to, n_max):
        assert oracle_floor_range(fresh_copy(cf, warm_to), n_max) == \
            [oracle_floor_scaled(cf, n) for n in range(n_max + 1)]

    @settings(max_examples=300, deadline=None)
    @given(any_expansion, WARMTH, st.integers(1, 10**6), st.data())
    def test_frac_less_than(self, cf, warm_to, i, data):
        if data.draw(st.booleans()):
            # near {i*alpha}: v = i - c for small c, u = -floor(i*alpha) + r;
            # c = 0 with r = 0 is the identity case both must reject
            f = outcome(oracle_floor_scaled, cf, i)
            f = 0 if isinstance(f, type) else f
            v = i - data.draw(st.integers(-2, 2))
            u = -f + data.draw(st.sampled_from(
                [Fraction(0), Fraction(1, 10**18), Fraction(-1, 10**18)]))
        else:
            u = data.draw(st.fractions(-3, 3, max_denominator=10**15))
            v = data.draw(st.fractions(-3, 3, max_denominator=10**15))
        t = AffineThreshold(u, v)
        assert outcome(frac_less_than, fresh_copy(cf, warm_to), i, t) == \
            outcome(oracle_frac_less_than, cf, i, t)

    def test_finite_stream_runs_out_where_the_oracle_does(self):
        # [0; 2, 3] = 3/7 has convergents 0/1, 1/2, 3/7 and no fourth: a
        # rational just below 3/7 is decided by the even bound 3/7 before
        # the missing odd one is requested, one just above needs it
        cf = ContinuedFraction((2, 3))
        below = Fraction(3, 7) - Fraction(1, 10**20)
        above = Fraction(3, 7) + Fraction(1, 10**20)
        cases = [(_sign, oracle_affine_sign,
                  (below.denominator, -below.numerator)),
                 (_sign, oracle_affine_sign,
                  (above.denominator, -above.numerator)),
                 (_sign, oracle_affine_sign, (-7, 3)),
                 (_sign, oracle_affine_sign, (7, -3)),
                 (floor_scaled, oracle_floor_scaled, (7,)),
                 (frac_less_than, oracle_frac_less_than,
                  (3, AffineThreshold(Fraction(2, 7), 0)))]
        got = [outcome(fn, cf, *args) for fn, _, args in cases]
        assert got == [outcome(oracle, cf, *args) for _, oracle, args in cases]
        assert got == [1, InsufficientPrecisionError, -1, 1,
                       InsufficientPrecisionError, InsufficientPrecisionError]

    def test_finite_expansion_warm_cache_raises_where_cold_does(self):
        # [0; 2, 3] = 3/7, fully cached: floor(7*alpha) and comparing
        # alpha with a rational just above 3/7 still need the missing
        # fourth convergent; just below 3/7 is decided by 3/7 itself
        warm = ContinuedFraction((2, 3))
        warm.convergent(2)
        above, below = Fraction(3, 7) + Fraction(1, 10**20), \
            Fraction(3, 7) - Fraction(1, 10**20)
        with pytest.raises(InsufficientPrecisionError):
            floor_scaled(warm, 7)
        with pytest.raises(InsufficientPrecisionError):
            _sign(warm, above.denominator, -above.numerator)
        assert _sign(warm, below.denominator, -below.numerator) == 1
        assert floor_scaled(warm, 1) == 0


class TestWarmStart:
    @settings(max_examples=400, deadline=None)
    @given(any_expansion, WARMTH, st.integers(0, 10**12))
    def test_floor_scaled_matches_cold_walk(self, cf, warm_to, n):
        # what a cache already holds never changes the floor it gives
        assert outcome(floor_scaled, fresh_copy(cf, warm_to), n) == \
            outcome(floor_scaled, fresh_copy(cf, None), n)


class TestConvergents:
    def test_golden_denominators_are_fibonacci(self, golden):
        assert [c.q for c in convergents(golden, 5)] == [2, 3, 5, 8, 13]

    def test_sqrt2_values(self, sqrt2m1):
        assert [(c.p, c.q) for c in convergents(sqrt2m1, 3)] == \
            [(1, 2), (2, 5), (5, 12)]

    def test_count_one_is_reciprocal_of_first_term(self, golden):
        (c,) = convergents(golden, 1)
        assert (c.p, c.q) == (1, 2)

    def test_exhausted_stream_reports_shortfall(self):
        with pytest.raises(InsufficientPrecisionError, match="2 convergents"):
            convergents(ContinuedFraction((2, 3)), 5)

    @pytest.mark.parametrize("cf_fix", ["golden", "sqrt2m1"])
    def test_determinant_identity(self, cf_fix, request):
        cf = request.getfixturevalue(cf_fix)
        cs = convergents(cf, 40)
        for n in range(1, 40):
            a, b = cf.convergent(n), cf.convergent(n - 1)
            assert a.p * b.q - b.p * a.q == (-1) ** (n - 1)

    @pytest.mark.parametrize("cf_fix", ["golden", "sqrt2m1"])
    def test_q_strictly_increases(self, cf_fix, request):
        cf = request.getfixturevalue(cf_fix)
        qs = [c.q for c in convergents(cf, 40)]
        assert all(b > a for a, b in zip(qs[1:], qs[2:]))  # from n >= 1

    @pytest.mark.parametrize("cf_fix", ["golden", "sqrt2m1"])
    def test_sandwich_nesting(self, cf_fix, request):
        cf = request.getfixturevalue(cf_fix)
        val = {n: cf.convergent(n).value for n in range(40)}
        for n in range(0, 36, 2):
            assert val[n] < val[n + 2] < val[n + 3] < val[n + 1]

    def test_coprime(self, golden, sqrt2m1):
        from math import gcd
        for cf in (golden, sqrt2m1):
            for c in convergents(cf, 30):
                assert gcd(c.p, c.q) == 1

    @pytest.mark.parametrize("cf_fix", ["golden", "sqrt2m1"])
    def test_one_sided_error_bounds(self, cf_fix, request):
        # even n: 0 < alpha - p_n/q_n < 1/(q_n q_{n+1}); odd n: mirrored
        cf = request.getfixturevalue(cf_fix)

        def alpha_minus(r):  # sign of alpha - r
            return _sign(cf, r.denominator, -r.numerator)

        for n in range(0, 30):
            c, cn = cf.convergent(n), cf.convergent(n + 1)
            gap = Fraction(1, c.q * cn.q)
            if n % 2 == 0:
                assert alpha_minus(c.value) > 0
                assert alpha_minus(c.value + gap) < 0
            else:
                assert alpha_minus(c.value) < 0
                assert alpha_minus(c.value - gap) > 0


class TestSharedCache:
    def test_threads_extending_one_instance(self):
        # extending the cache is check-then-append on a shared list; an
        # extension interleaved with another appends an entry computed from
        # the wrong neighbours and shifts every later convergent
        depth = 4000
        fresh = ContinuedFraction((2, 3), (1, 2))
        expected = [fresh.convergent(n) for n in range(depth + 1)]
        wrong = []

        def grow_and_check(shared, barrier):
            barrier.wait()
            shared.convergent(depth)
            wrong.extend(n for n in range(depth + 1)
                         if shared.convergent(n) != expected[n])

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                shared = ContinuedFraction((2, 3), (1, 2))
                barrier = threading.Barrier(8)
                threads = [threading.Thread(target=grow_and_check,
                                            args=(shared, barrier))
                           for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(old)
        assert wrong == []


class TestFloorScaled:
    def test_zero(self, golden):
        assert floor_scaled(golden, 0) == 0

    def test_golden_five(self, golden):
        assert floor_scaled(golden, 5) == 1  # 5*alpha ~ 1.9098

    def test_sqrt2_twelve(self, sqrt2m1):
        assert floor_scaled(sqrt2m1, 12) == 4  # 12*alpha ~ 4.9705

    @pytest.mark.parametrize("cf_fix", ["golden", "sqrt2m1"])
    def test_against_fixed_point_oracle(self, cf_fix, request):
        cf = request.getfixturevalue(cf_fix)
        rng = random.Random(99)
        ns = list(range(1, 10001)) + [rng.randrange(10001, 10**6)
                                      for _ in range(300)]
        assert fixed_point_floor_oracle(cf, ns) == [floor_scaled(cf, n) for n in ns]

    @pytest.mark.parametrize("cf_fix", ["golden", "sqrt2m1"])
    def test_floor_range_matches_floor_scaled(self, cf_fix, request):
        cf = request.getfixturevalue(cf_fix)
        assert oracle_floor_range(cf, 3000) == \
            [floor_scaled(cf, n) for n in range(3001)]

    def test_rejects_negative(self, golden):
        with pytest.raises(ValueError):
            floor_scaled(golden, -1)

    def test_finite_stream_exhausts_mid_sandwich(self):
        # [0; 2, 3] = 3/7: the first convergent pair decides floor(1*alpha)
        # but floor(7*alpha) needs a deeper pair that does not exist
        cf = ContinuedFraction((2, 3))
        assert floor_scaled(cf, 1) == 0
        with pytest.raises(InsufficientPrecisionError, match="precision"):
            floor_scaled(cf, 7)


class TestIntegerInputs:
    # positions, lengths and terms pass through operator.index: a numpy
    # integer is read as the exact int, a float is refused

    def test_numpy_integers_match_python_ints(self, golden):
        n = 7 * 10**15 + 1  # n * p_m passes 2**63 within a few pairs
        assert floor_scaled(golden, np.int64(n)) == floor_scaled(golden, n) \
            == 2673762078750736
        assert floor_scaled(golden, np.int64(10**15)) == \
            floor_scaled(golden, 10**15)
        t = AffineThreshold(0, Fraction(1, 2))
        for i in (1, 2, 10**15, n):
            assert frac_less_than(golden, np.int64(i), t) == \
                frac_less_than(golden, i, t)
        cf = ContinuedFraction((np.int64(2),), (np.uint8(1),))
        assert cf == golden
        assert all(type(a) is int for a in cf.preperiod + cf.period)

    def test_numpy_integer_thresholds_match_python_ints(self, golden):
        # an int64 numerator times 2**40 would wrap inside ``form``
        t = AffineThreshold(np.int64(2**62), Fraction(1, 2**40))
        ref = AffineThreshold(2**62, Fraction(1, 2**40))
        assert t == ref
        assert t.form == ref.form
        assert hash(t) == hash(ref)
        assert all(type(x) is int for x in t.form)
        assert frac_less_than(golden, 3, t) is True
        assert frac_less_than(golden, 3, ref) is True
        small = AffineThreshold(np.int32(1), np.int8(-1))
        assert small == AffineThreshold(1, -1)
        assert small.form == (1, -1, 1)
        assert all(type(x.numerator) is int for x in (small.u, small.v))

    @pytest.mark.parametrize("call", [
        lambda cf: floor_scaled(cf, 10**20 + 0.0),
        lambda cf: floor_scaled(cf, 7.0),
        lambda cf: frac_less_than(cf, 2.5, AffineThreshold(0, Fraction(1, 2))),
        lambda cf: ContinuedFraction((2.7,), (1.5,)),
        lambda cf: ContinuedFraction((2,), (1.0,)),
        lambda cf: AffineThreshold(0.1, 0),
        lambda cf: AffineThreshold(0, np.float64(0.5)),
        lambda cf: AffineThreshold(Decimal("0.1"), 0),
        lambda cf: AffineThreshold("1/2", 0),
        lambda cf: frac_less_than(cf, 3, 0.5),
        lambda cf: frac_less_than(cf, 3, Fraction(1, 2)),
    ], ids=["floor_scaled-big", "floor_scaled", "frac_less_than",
            "terms", "period-term", "threshold-float", "threshold-float64",
            "threshold-decimal", "threshold-str", "frac_less_than-float",
            "frac_less_than-fraction"])
    def test_floats_are_refused(self, golden, call):
        with pytest.raises(TypeError):
            call(golden)


class TestFracLessThan:
    def test_identity_is_rejected(self, golden):
        # {1*alpha} equals 0 + 1*alpha exactly: nothing to refine towards
        with pytest.raises(ValueError, match="identity"):
            frac_less_than(golden, 1, AffineThreshold(0, 1))

    def test_two_alpha_not_below_alpha(self, golden):
        # {2*alpha} ~ 0.7639 > alpha ~ 0.3820
        assert frac_less_than(golden, 2, AffineThreshold(0, 1)) is False

    def test_three_alpha_below_one_minus_alpha(self, sqrt2m1):
        # {3*alpha} ~ 0.2426 < 1 - alpha ~ 0.5858
        assert frac_less_than(sqrt2m1, 3, AffineThreshold(1, -1)) is True

    @pytest.mark.parametrize("cf_fix", ["golden", "sqrt2m1"])
    def test_consistent_with_floor_definition(self, cf_fix, request):
        # {i*alpha} < 1 - alpha iff floor((i+1)*alpha) == floor(i*alpha)
        cf = request.getfixturevalue(cf_fix)
        one_minus_alpha = AffineThreshold(1, -1)
        floors = oracle_floor_range(cf, 10001)
        for i in range(1, 10001):
            assert frac_less_than(cf, i, one_minus_alpha) == \
                (floors[i + 1] == floors[i])

    def test_rational_threshold(self, golden):
        # {3*alpha} ~ 0.1459 vs 1/7 ~ 0.1429
        assert frac_less_than(golden, 3, AffineThreshold(Fraction(1, 7), 0)) is False
        assert frac_less_than(golden, 3, AffineThreshold(Fraction(1, 6), 0)) is True


class TestCompareAffine:
    # ``_sign`` on the cleared integers: alpha - p/q is p/q's
    # (q, -p), and coeff*alpha + const multiplies through by both
    # denominators

    def test_compare_with_rational_signs(self, golden):
        assert _sign(golden, 3, -1) == 1    # alpha > 1/3
        assert _sign(golden, 5, -2) == -1   # alpha < 2/5
        # a convergent itself is handled (alpha > p_2/q_2 = 1/3 decided above;
        # odd-indexed one from the other side)
        assert _sign(golden, 2, -1) == -1   # alpha < 1/2

    def test_affine_sign(self, golden):
        assert _sign(golden, 0, 1) == 1     # 0*alpha + 1/2 > 0
        assert _sign(golden, 0, 0) == 0
        assert _sign(golden, 2, -1) < 0     # 2*alpha < 1
        assert _sign(golden, 3, -1) > 0     # 3*alpha > 1
        assert _sign(golden, -2, 1) > 0     # -alpha + 1/2 > 0


class TestContinuedFraction:
    def test_terms_replayable(self, golden):
        t1 = golden.terms()
        first = [next(t1) for _ in range(5)]
        t2 = golden.terms()
        assert [next(t2) for _ in range(5)] == first == [2, 1, 1, 1, 1]

    def test_terms_must_be_positive(self):
        with pytest.raises(ValueError):
            ContinuedFraction((0,), (1,))
        with pytest.raises(ValueError):
            ContinuedFraction((), ())

    def test_complement_value(self, golden):
        comp = golden.complement()
        # floor(n*(1-a)) = n - 1 - floor(n*a) when n*a is not an integer
        for n in range(1, 500):
            assert floor_scaled(comp, n) == n - 1 - floor_scaled(golden, n)

    def test_complement_round_trip(self, sqrt2m1):
        back = sqrt2m1.complement().complement()
        assert oracle_floor_range(back, 2000) == \
            oracle_floor_range(sqrt2m1, 2000)

    def test_wire_schema_round_trip(self, golden):
        d = golden.to_dict()
        assert d == {"preperiod": [2], "period": [1]}
        assert ContinuedFraction.from_dict(d) == golden
