"""Exact polynomial algebra: operation examples and algebraic invariants."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqnash.exactalg import (
    RootInterval,
    SturmSequence,
    UniPoly,
    isolate_real_roots,
    isolate_roots_in_interval,
    refine_root,
    sturm_count,
)
from lqnash.game import GameParams, normalize
from lqnash.solver import build_g
from reference_algebra import (
    discriminant,
    from_roots,
    poly_derivative,
    poly_eval,
    poly_mul,
    resultant,
    scale,
    square_free_part,
    sylvester_matrix,
)

X2_MINUS_1 = UniPoly([-1, 0, 1])
ALL_ONES_2G = UniPoly([1, -2, -2, 0, -3, 2])  # twice the all-ones quintic
SYMMETRIC_CUBIC = UniPoly([1, -2, -3, 2])  # 2k^3 - 3k^2 - 2k + 1


def rational(rng, num=9, den=5):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_poly(rng, degree, num=9, den=5):
    coeffs = [rational(rng, num, den) for _ in range(degree)]
    coeffs.append(Fraction(rng.randint(1, num)))
    return UniPoly(coeffs)


def sylvester_discriminant(p):
    """The discriminant by the reference route: the Sylvester determinant of (p, p')."""
    n = p.degree
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(p, poly_derivative(p)) / p.coeffs[-1]


def _reference_refine(seq, iv, width):
    """Bisection on `Fraction` midpoints, the loop `refine_root` replaced.

    Signs come from `poly_eval` on the square-free part, not from the
    integer evaluator under test.
    """
    sf = UniPoly(seq.chain[0])

    def sign(x):
        value = poly_eval(sf, x)
        return (value > 0) - (value < 0)

    lo, hi, width = Fraction(iv.lo), Fraction(iv.hi), Fraction(width)
    s_hi = sign(hi)
    if s_hi == 0:
        return hi
    while hi - lo > width:
        mid = (lo + hi) / 2
        s_mid = sign(mid)
        if s_mid == 0:
            return mid
        if s_mid == s_hi:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


class TestPolyEval:
    def test_root_of_factored(self):
        assert poly_eval(X2_MINUS_1, 1) == 0

    def test_zero_polynomial(self):
        assert poly_eval(UniPoly(), 7) == 0

    def test_all_ones_quintic_at_zero(self):
        g = scale(build_g(normalize(GameParams(a=1, q1=1, q2=1, r1=1, r2=1))), Fraction(1, 2))
        assert poly_eval(g, 0) == Fraction(1, 2)


class TestPolyText:
    # groebner-check prints its quintics with to_str("k2"), and repr uses the same printer
    @pytest.mark.parametrize("coeffs, text", [
        ((), "0"),
        ((7,), "7"),
        ((0, -1), "-x"),
        ((Fraction(1, 2), -1, 0, Fraction(-3, 2), 1), "x^4 - 3/2*x^3 - x + 1/2"),
        ((-2, 0, -3), "-3*x^2 - 2"),
    ])
    def test_highest_degree_first(self, coeffs, text):
        assert UniPoly(coeffs).to_str() == text
        assert repr(UniPoly(coeffs)) == f"UniPoly({text})"

    def test_variable(self):
        assert UniPoly([1, 1, 1]).to_str("k2") == "k2^2 + k2 + 1"


class TestPolyDerivative:
    def test_quadratic(self):
        assert poly_derivative(X2_MINUS_1) == UniPoly([0, 2])

    def test_constant(self):
        assert poly_derivative(UniPoly([5])) == UniPoly()

    def test_all_ones_quintic(self):
        assert poly_derivative(ALL_ONES_2G) == UniPoly([-2, -4, 0, -12, 10])


class TestSylvester:
    def test_quadratic_against_derivative(self):
        a, b, c = Fraction(3), Fraction(5), Fraction(7)
        m = sylvester_matrix(UniPoly([c, b, a]), UniPoly([b, 2 * a]))
        assert m == [[a, b, c], [2 * a, b, 0], [0, 2 * a, b]]

    def test_degree_five_shape(self):
        m = sylvester_matrix(ALL_ONES_2G, poly_derivative(ALL_ONES_2G))
        assert len(m) == 9
        assert all(len(row) == 9 for row in m)

    def test_two_linear(self):
        assert sylvester_matrix(UniPoly([-1, 1]), UniPoly([1, 1])) == [[1, -1], [1, 1]]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            sylvester_matrix(UniPoly(), UniPoly([1, 1]))


class TestResultant:
    def test_linear_pair(self):
        assert resultant(UniPoly([-1, 1]), UniPoly([1, 1])) == 2

    def test_quadratic_and_derivative(self):
        assert resultant(X2_MINUS_1, UniPoly([0, 2])) == -4

    def test_shared_root_vanishes(self):
        assert resultant(X2_MINUS_1, UniPoly([-1, 1])) == 0

    def test_routes_agree_on_1000_random_pairs(self):
        # the discriminant read off the Sturm remainder sequence against the
        # Sylvester determinant of (p, p'), on both members of each pair
        rng = random.Random(20240)
        for _ in range(1000):
            a = random_poly(rng, rng.randint(1, 6))
            b = random_poly(rng, rng.randint(1, 6))
            for p in (a, b):
                if p.degree >= 2:
                    assert discriminant(p) == sylvester_discriminant(p)

    def test_zero_iff_nonconstant_gcd(self):
        rng = random.Random(7)
        for _ in range(200):
            shared = rational(rng)
            a = from_roots([shared, rational(rng)])
            b = from_roots([shared, rational(rng), rational(rng)])
            assert resultant(a, b) == 0
            disjoint = from_roots([shared + 1, shared + 2])
            if poly_eval(a, shared + 1) != 0 and poly_eval(a, shared + 2) != 0:
                assert resultant(a, disjoint) != 0

    def test_product_formula_on_factored_inputs(self):
        rng = random.Random(4242)
        for _ in range(200):
            ra = [rational(rng, 6, 3) for _ in range(rng.randint(1, 4))]
            rb = [rational(rng, 6, 3) for _ in range(rng.randint(1, 4))]
            ca, cb = Fraction(rng.randint(1, 4)), Fraction(rng.randint(1, 4))
            a = scale(from_roots(ra), ca)
            b = scale(from_roots(rb), cb)
            expected = ca ** len(rb) * cb ** len(ra)
            for x in ra:
                for y in rb:
                    expected *= x - y
            assert resultant(a, b) == expected
            if len(ra) >= 2:
                # discriminant = lc^(2n-2) * prod_{i<j} (x_i - x_j)^2
                expected_disc = ca ** (2 * len(ra) - 2)
                for i, x in enumerate(ra):
                    for y in ra[i + 1:]:
                        expected_disc *= (x - y) ** 2
                assert discriminant(a) == expected_disc == sylvester_discriminant(a)

    def test_routes_agree_on_sparse_degree_defect_inputs(self):
        # sparse polynomials force pseudo-division degree drops larger than one
        rng = random.Random(777)
        for _ in range(300):
            da, db = rng.randint(1, 8), rng.randint(1, 8)
            ac = [Fraction(0)] * da + [Fraction(rng.choice([1, 2, 3, -1, -2]))]
            bc = [Fraction(0)] * db + [Fraction(rng.choice([1, 2, 3, -1, -2]))]
            for _ in range(rng.randint(0, 2)):
                ac[rng.randrange(da)] = rational(rng, 6, 3)
            for _ in range(rng.randint(0, 2)):
                bc[rng.randrange(db)] = rational(rng, 6, 3)
            for p in (UniPoly(ac), UniPoly(bc)):
                if p.degree >= 2:
                    assert discriminant(p) == sylvester_discriminant(p)


class TestDiscriminant:
    def test_simple_roots_positive(self):
        assert discriminant(X2_MINUS_1) == 4

    def test_double_root_zero(self):
        assert discriminant(UniPoly([1, -2, 1])) == 0

    def test_all_ones_quintic_sign_matches_root_structure(self):
        d = discriminant(ALL_ONES_2G)
        assert d == -1294336  # 2^8 times the unscaled value -5056
        # degree five with three distinct real roots: one conjugate pair, negative
        assert sturm_count(SturmSequence(ALL_ONES_2G), -math.inf, math.inf) == 3
        assert d < 0

    def test_rejects_low_degree(self):
        with pytest.raises(ValueError):
            discriminant(UniPoly([1, 1]))


class TestSturm:
    def test_two_real_roots(self):
        assert sturm_count(SturmSequence(X2_MINUS_1), -math.inf, math.inf) == 2

    def test_no_real_roots(self):
        assert sturm_count(SturmSequence(UniPoly([1, 0, 1])), -math.inf, math.inf) == 0

    def test_all_ones_quintic_unit_interval(self):
        assert sturm_count(SturmSequence(ALL_ONES_2G), 0, 1) == 1

    def test_counts_match_construction(self):
        rng = random.Random(99)
        for _ in range(300):
            roots = sorted({rational(rng, 20, 6) for _ in range(rng.randint(1, 5))})
            p = UniPoly([1])
            for r in roots:
                for _ in range(rng.randint(1, 3)):
                    p = poly_mul(p, UniPoly([-r, 1]))
            assert sturm_count(SturmSequence(p), -math.inf, math.inf) == len(roots)


class TestSturmSequence:
    def test_prebuilt_sequence_answers_like_the_polynomial(self):
        # one sequence serves every query in turn, and answers each as a
        # sequence built fresh from the polynomial for that query alone
        rng = random.Random(12)
        width = Fraction(1, 2**40)
        for _ in range(60):
            roots = [rational(rng, 12, 4) for _ in range(rng.randint(1, 4))]
            p = from_roots(roots + roots[: rng.randint(0, 2)])
            seq = SturmSequence(p)
            assert (not seq.gcd_chains) == (square_free_part(p).degree == p.degree)
            assert sturm_count(seq, -math.inf, math.inf) == sturm_count(
                SturmSequence(p), -math.inf, math.inf
            )
            ivs = isolate_real_roots(seq)
            assert ivs == isolate_real_roots(SturmSequence(p))
            assert isolate_roots_in_interval(seq, -1, 1) == isolate_roots_in_interval(
                SturmSequence(p), -1, 1
            )
            assert [refine_root(seq, iv, width) for iv in ivs] == [
                refine_root(SturmSequence(p), iv, width) for iv in ivs
            ]
            assert sturm_count(seq, -math.inf, math.inf) == len(set(roots)) == len(ivs)

    def test_divided_chain_counts_like_a_fresh_square_free_chain(self):
        # p's own chain divided by gcd(p, p') against a new chain of p / gcd,
        # with every endpoint a root, where the undivided chain vanishes
        rng = random.Random(13)
        for _ in range(200):
            roots = sorted({rational(rng, 12, 4) for _ in range(rng.randint(1, 4))})
            mults = [rng.randint(1, 4) for _ in roots]
            p = from_roots([r for r, m in zip(roots, mults) for _ in range(m)])
            if rng.random() < 0.3:
                p = poly_mul(p, UniPoly([-2, 0, 1]))
            seq = SturmSequence(p)
            fresh = SturmSequence(UniPoly(seq.chain[0]))
            assert not fresh.gcd_chains and (not seq.gcd_chains) == (max(mults) == 1)
            points = [-math.inf, *roots, math.inf]
            for i, lo in enumerate(points):
                for hi in points[i + 1:]:
                    assert sturm_count(seq, lo, hi) == sturm_count(fresh, lo, hi)

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            SturmSequence(UniPoly([3]))


class TestIsolation:
    def test_double_plus_simple(self):
        ivs = isolate_real_roots(SturmSequence(from_roots([1, 1, -2])))
        assert len(ivs) == 2
        assert ivs[0].lo < -2 <= ivs[0].hi and ivs[0].multiplicity == 1
        assert ivs[1].lo < 1 <= ivs[1].hi and ivs[1].multiplicity == 2

    def test_no_real_roots(self):
        assert isolate_real_roots(SturmSequence(UniPoly([1, 0, 1]))) == []

    def test_all_ones_quintic_three_regions(self):
        seq = SturmSequence(ALL_ONES_2G)
        ivs = isolate_real_roots(seq)
        assert len(ivs) == 3
        width = Fraction(1, 2**30)
        roots = [refine_root(seq, iv, width) for iv in ivs]
        assert roots[0] < 0
        assert 0 < roots[1] < 1
        assert roots[2] > 1

    def test_intervals_disjoint_and_isolating(self):
        rng = random.Random(4)
        for _ in range(100):
            roots = sorted({rational(rng, 12, 4) for _ in range(rng.randint(2, 5))})
            ivs = isolate_real_roots(SturmSequence(from_roots(roots)))
            assert len(ivs) == len(roots)
            for iv, r in zip(ivs, roots):
                assert iv.lo < r <= iv.hi
            for prev, nxt in zip(ivs, ivs[1:]):
                assert prev.hi <= nxt.lo

    def test_reversed_bounds_are_rejected(self):
        # (2, -2] would count -2 roots of x^2 - 2, and bisection would never end
        seq = SturmSequence(UniPoly([-2, 0, 1]))
        with pytest.raises(ValueError, match="reversed"):
            isolate_roots_in_interval(seq, 2, -2)
        assert isolate_roots_in_interval(seq, 1, 1) == []


class TestRefine:
    def test_unit_root(self):
        iv = RootInterval(Fraction(0), Fraction(2), 1)
        width = Fraction(1, 2**30)
        assert abs(refine_root(SturmSequence(X2_MINUS_1), iv, width) - 1) <= width

    def test_symmetric_cubic_root(self):
        # independent bisection oracle, plain interval halving on Fractions
        lo, hi = Fraction(0), Fraction(1)
        for _ in range(80):
            mid = (lo + hi) / 2
            if poly_eval(SYMMETRIC_CUBIC, mid) > 0:
                lo = mid
            else:
                hi = mid
        oracle = (lo + hi) / 2
        seq = SturmSequence(SYMMETRIC_CUBIC)
        iv = isolate_roots_in_interval(seq, Fraction(0), Fraction(1))[0]
        got = refine_root(seq, iv, Fraction(1, 10**12))
        assert abs(got - oracle) < Fraction(2, 10**9)
        assert abs(float(got) - 0.3554157267758450) < 1e-9

    def test_double_root_exact_hit(self):
        seq = SturmSequence(UniPoly([1, -2, 1]))
        assert refine_root(seq, RootInterval(Fraction(0), Fraction(2), 2), Fraction(1, 2**30)) == 1

    def test_sign_change_across_result(self):
        rng = random.Random(31)
        width = Fraction(1, 2**40)
        for _ in range(50):
            roots = sorted({rational(rng, 8, 3) for _ in range(rng.randint(1, 4))})
            p = from_roots(roots)
            seq = SturmSequence(p)
            for iv in isolate_real_roots(seq):
                r = refine_root(seq, iv, width)
                sf = square_free_part(p)
                lo_val, hi_val = poly_eval(sf, r - width), poly_eval(sf, r + width)
                assert lo_val == 0 or hi_val == 0 or (lo_val < 0) != (hi_val < 0)

    @pytest.mark.parametrize(
        "roots, lo, hi, width, expected",
        [
            ([1, 3], 0, 1, Fraction(1, 2**30), 1),  # root at hi, returned before bisecting
            ([Fraction(3, 4)], 0, 1, Fraction(1, 2**30), Fraction(3, 4)),  # second midpoint
            ([Fraction(2, 3)], Fraction(1, 3), 1, Fraction(1, 2**30), Fraction(2, 3)),  # D = 3
            ([Fraction(1, 3)], 0, 1, 1, Fraction(1, 2)),  # the width covers the interval
        ],
    )
    def test_exact_exits(self, roots, lo, hi, width, expected):
        seq = SturmSequence(from_roots(roots))
        iv = RootInterval(Fraction(lo), Fraction(hi), 1)
        got = refine_root(seq, iv, width)
        assert got == expected == _reference_refine(seq, iv, width)
        assert isinstance(got, Fraction)

    @pytest.mark.parametrize("width", [0, -1, Fraction(-1, 2**60), 0.0])
    def test_nonpositive_width_is_rejected(self, width):
        # x^2 - 2 on (1, 2]: bisection towards width <= 0 would never stop
        seq = SturmSequence(UniPoly([-2, 0, 1]))
        with pytest.raises(ValueError, match="width"):
            refine_root(seq, RootInterval(Fraction(1), Fraction(2), 1), width)


coeff = st.fractions(min_value=-10, max_value=10, max_denominator=8)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(coeff, min_size=1, max_size=5),
    st.lists(coeff, min_size=1, max_size=5),
    st.fractions(min_value=-5, max_value=5, max_denominator=16),
)
def test_eval_is_ring_homomorphism(pc, qc, x):
    p, q = UniPoly(pc), UniPoly(qc)
    p_plus_q = UniPoly(a + b for a, b in itertools.zip_longest(pc, qc, fillvalue=0))
    assert poly_eval(poly_mul(p, q), x) == poly_eval(p, x) * poly_eval(q, x)
    assert poly_eval(p_plus_q, x) == poly_eval(p, x) + poly_eval(q, x)


@settings(max_examples=200, deadline=None)
@given(st.lists(coeff, min_size=2, max_size=6), st.lists(coeff, min_size=1, max_size=3))
def test_discriminant_matches_sylvester_route(pc, qc):
    # p * q^2 has a multiple root whenever q is nonconstant
    p, q = UniPoly(pc), UniPoly(qc)
    for f in (p, poly_mul(poly_mul(p, q), q)):
        if f.degree >= 2:
            assert discriminant(f) == sylvester_discriminant(f)


dyadic_root = st.integers(min_value=-12, max_value=12).map(lambda k: Fraction(k, 4))
irreducible_quadratic = st.sampled_from([None, (1, 0, 1), (5, -2, 1), (3, 3, 1), (7, 1, 4)])


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(dyadic_root, st.integers(min_value=1, max_value=4), min_size=1, max_size=4),
    irreducible_quadratic,
    st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(lambda c: c != 0),
)
def test_multiplicities_match_the_construction(mults, quadratic, c):
    # roots on a dyadic grid, so that bisection from the Cauchy bound lands on them
    roots = sorted(mults)
    p = scale(from_roots([r for r in roots for _ in range(mults[r])]), c)
    if quadratic is not None:
        p = poly_mul(p, UniPoly(quadratic))
    ivs = isolate_real_roots(SturmSequence(p))
    assert len(ivs) == len(roots)
    for iv, r in zip(ivs, roots):
        assert iv.lo < r <= iv.hi
        assert iv.multiplicity == mults[r]
    # one gcd chain per extra multiplicity of the highest root
    assert len(SturmSequence(p).gcd_chains) == max(mults.values()) - 1


refine_root_value = st.fractions(min_value=-6, max_value=6, max_denominator=8)
real_quadratic = st.sampled_from([None, (-2, 0, 1), (-3, 0, 1), (-5, 0, 3), (-1, -1, 1)])
refine_width = st.one_of(
    st.integers(min_value=0, max_value=70).map(lambda k: Fraction(1, 2**k)),
    st.sampled_from([Fraction(1, 10**12), Fraction(1, 3), None]),  # None: covers the interval
)


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(
        refine_root_value, st.integers(min_value=1, max_value=3), min_size=1, max_size=4
    ),
    real_quadratic,
    st.integers(min_value=1, max_value=40),
    st.sampled_from([3, 5, 7, 9]),
    refine_width,
)
def test_refine_matches_fraction_bisection(mults, quadratic, n, d, width):
    # dyadic roots are hit exactly by bisection from the Cauchy bound, and
    # roots k/2^m * n/d by bisection of the window (0, n/d]
    p = from_roots([r for r in mults for _ in range(mults[r])])
    if quadratic is not None:
        p = poly_mul(p, UniPoly(quadratic))
    seq = SturmSequence(p)
    for iv in isolate_real_roots(seq) + isolate_roots_in_interval(seq, 0, Fraction(n, d)):
        w = iv.hi - iv.lo if width is None else width
        got = refine_root(seq, iv, w)
        assert isinstance(got, Fraction)
        assert got == _reference_refine(seq, iv, w)
