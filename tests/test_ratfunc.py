from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qglk.poly import Poly
from qglk.ratfunc import PoleError, RationalFunction, _canonical_factor, common_denominator
from reference import reference_extract_unit
from rf_parser import parse

NV = 3  # x1, x2, q


def rf(text):
    return parse(text, NV)


def small_polys(max_terms=4, nvars=NV):
    exps = st.tuples(*([st.integers(-2, 2)] * nvars))
    return st.dictionaries(exps, st.integers(-6, 6), max_size=max_terms).map(
        lambda d: Poly(nvars, d)
    )


def units(nvars=NV):
    """c * X^e with mixed-sign exponents and c other than +-1."""
    exps = st.tuples(*([st.integers(-2, 2)] * nvars))
    coeffs = st.integers(-6, 6).filter(bool)
    return st.builds(lambda e, c: Poly.monomial(nvars, e, c), exps, coeffs)


def unit_binomials(nvars=NV):
    """c * X^s * (X^a - X^b): a binomial with a random sign, shift and
    content, the only shape of denominator factor besides a unit."""
    exps = st.tuples(*([st.integers(-2, 2)] * nvars))
    ends = st.lists(exps, min_size=2, max_size=2, unique=True)
    return st.builds(
        lambda ab, u: u * (Poly.monomial(nvars, ab[0]) - Poly.monomial(nvars, ab[1])),
        ends,
        units(nvars),
    )


def factors(nvars=NV):
    """Denominator factors: mostly units times binomials, sometimes units."""
    return st.one_of(unit_binomials(nvars), unit_binomials(nvars), units(nvars))


def binomial_shaped(p):
    """Whether p is a unit or a unit times X^a - X^b, as inv() requires of
    a numerator."""
    c = list(p.keys.values())
    return len(c) == 1 or len(c) == 2 and c[0] == -c[1]


def small_rfs():
    return st.tuples(small_polys(), factors()).map(
        lambda ab: RationalFunction(NV, ab[0], ((ab[1], 1),))
    )


def scaled_rfs(nvars=NV):
    """Fractions with two denominator factors and a signed integer scalar."""
    return st.tuples(
        small_polys(nvars=nvars),
        factors(nvars),
        factors(nvars),
        st.integers(-12, 12).filter(bool),
    ).map(lambda t: RationalFunction(nvars, 6 * t[0], ((t[1], 1), (t[2], 2)), t[3]))


class ReportsTwoTerms(dict):
    """A one-term numerator's key dict that reports a second term, so that
    the constructor runs its trial divisions on it."""

    def __len__(self):
        return 2


def fields(r):
    return r.nvars, r.num, r.den_factors, r.den_scalar


class TestNormalization:
    def test_monomial_factor_absorbed(self):
        # 1 / x1 is a Laurent polynomial, not a genuine fraction
        r = RationalFunction(NV, Poly.one(NV), ((Poly.x(NV, 1), 1),))
        assert r.is_polynomial()
        assert r.num == Poly.monomial(NV, (-1, 0, 0))

    def test_constant_and_sign_absorbed(self):
        r = RationalFunction(NV, Poly.const(NV, 4), ((Poly.const(NV, -6), 1),))
        assert r.is_polynomial() is False
        assert r.num == Poly.const(NV, -2)
        assert r.den_scalar == 3
        assert r.den_factors == ()

    def test_cancellation(self):
        p = Poly.x(NV, 1) - Poly.q(NV)
        r = RationalFunction(NV, p * p * Poly.x(NV, 2), ((p, 1),))
        assert r.is_polynomial()
        assert r.num == p * Poly.x(NV, 2)

    def test_zero_clears_denominator(self):
        p = Poly.x(NV, 1) - Poly.one(NV)
        r = RationalFunction(NV, Poly.zero(NV), ((p, 3),), 7)
        assert r.is_zero() and r.den_scalar == 1 and r.den_factors == ()

    def test_canonical_factor_orientation(self):
        # q - x1 and x1 - q must land on the same canonical factor
        a = rf("1/(q - x1)")
        b = rf("-1/(x1 - q)")
        assert a.den_factors == b.den_factors
        assert a == b


class TestReducedFastPaths:
    @given(scaled_rfs(), st.integers(-12, 12))
    @settings(max_examples=80, deadline=None)
    def test_neg_and_int_scaling_match_constructor(self, a, c):
        # negation and integer scaling skip the trial divisions; they must
        # still land on exactly what the full constructor produces
        assert fields(-a) == fields(
            RationalFunction(NV, -a.num, a.den_factors, a.den_scalar)
        )
        full = RationalFunction(NV, a.num * c, a.den_factors, a.den_scalar)
        assert fields(a * c) == fields(full)
        assert fields(c * a) == fields(full)

    @given(scaled_rfs(), units())
    @settings(max_examples=80, deadline=None)
    def test_unit_products_match_constructor(self, a, u):
        # a denominator-free one-term factor keeps a's reduced denominator
        full = RationalFunction(NV, a.num * u, a.den_factors, a.den_scalar)
        unit = RationalFunction.from_poly(u)
        for got in (a * unit, unit * a, a * u):
            assert fields(got) == fields(full)

    def test_unit_product_retakes_the_content_gcd(self):
        a = RationalFunction(NV, 2 * Poly.x(NV, 1), ((Poly.x(NV, 2) - Poly.q(NV), 1),), 9)
        u = RationalFunction.from_poly(Poly.monomial(NV, (-1, 2, 0), 6))
        assert a.den_scalar == 9
        full = RationalFunction(NV, a.num * u.num, a.den_factors, 9)
        assert fields(a * u) == fields(u * a) == fields(full)
        assert full.den_scalar == 3 and full.num == Poly.monomial(NV, (0, 2, 0), 4)

    @given(scaled_rfs(), units())
    @settings(max_examples=80, deadline=None)
    def test_one_term_numerator_matches_trial_division(self, a, u):
        # the constructor makes no trial division for a one-term numerator;
        # forced through them, every one fails and the fields are the same
        calls = []
        exact_div = Poly.exact_div

        def counted(p, f):
            calls.append(f)
            return exact_div(p, f)

        Poly.exact_div = counted
        try:
            got = RationalFunction(NV, u, a.den_factors, a.den_scalar)
            assert calls == []
            forced = Poly._raw(NV, ReportsTwoTerms(u.keys))
            trial = RationalFunction(NV, forced, a.den_factors, a.den_scalar)
        finally:
            Poly.exact_div = exact_div
        assert len(calls) == len(a.den_factors)
        assert fields(got) == fields(trial)


class TestFieldOps:
    @given(small_rfs(), small_rfs(), small_rfs())
    @settings(max_examples=40, deadline=None)
    def test_field_axioms(self, a, b, c):
        # the ring axioms: inverses exist only for unit or binomial numerators
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == RationalFunction.zero(NV)

    @given(factors(), factors())
    @settings(max_examples=40, deadline=None)
    def test_inverse(self, num, den):
        # inv() of a numerator that is a unit or a unit times a binomial;
        # cancellation can leave another shape, such as x^2 - 1 over x - 1
        a = RationalFunction(NV, num, ((den, 1),))
        assume(binomial_shaped(a.num))
        b = a.inv()
        assert a * b == RationalFunction.one(NV)
        if binomial_shaped(b.num):
            assert b.inv() == a
        with pytest.raises(ZeroDivisionError):
            RationalFunction.zero(NV).inv()

    def test_int_interop(self):
        a = rf("x1/(1 - q)")
        assert a + 0 == a and 1 * a == a
        assert a - a == 0
        assert (2 * a) * RationalFunction.const(NV, 2).inv() == a
        assert 1 - rf("q") == rf("1 - q")

    def test_sum_matches_pairwise(self):
        items = [rf("1/(x1 - x2)"), rf("1/(x2 - x1)"), rf("q/(1 - q^2)")]
        assert RationalFunction.sum(NV, items) == items[0] + items[1] + items[2]
        assert RationalFunction.sum(NV, []).is_zero()

    def test_common_denominator_keeps_a_numerator_already_over_it(self):
        a, b = rf("x1/(1 - q)"), rf("x2/(2*(1 - q))")
        parts, den, scalar = common_denominator(NV, [a, b])
        assert parts[1] is b.num and parts[0] == 2 * a.num
        assert den == b.den_factors and scalar == 2

    def test_telescoping_residue_sum(self):
        # 1/(x1-x2) + 1/(x2-x1) = 0 exactly, not just numerically
        total = rf("x1/(x1 - x2)") + rf("x2/(x2 - x1)")
        assert total == 1


NP = 4  # x1, x2, x3, q: room for a 3-cycle
PERMS = st.permutations((1, 2, 3)).map(tuple)


class TestDenominatorContract:
    """Every denominator factor is a unit or a unit times X^a - X^b."""

    @pytest.mark.parametrize("text", ["x1 + x2 - q", "2*x1 + 3*q", "x1 + q"])
    def test_rejects_any_other_factor(self, text):
        f = rf(text).num
        with pytest.raises(ValueError, match="not a unit times X\\^a - X\\^b"):
            RationalFunction(NV, Poly.one(NV), ((f, 1),))
        with pytest.raises(ValueError):
            RationalFunction(NV, f, ((Poly.x(NV, 1) - Poly.q(NV), 1),)).inv()

    @given(PERMS, st.one_of(unit_binomials(NP), units(NP)))
    @settings(max_examples=150, deadline=None)
    def test_canonicalizer_matches_the_reference(self, perm, f):
        canonical = _canonical_factor(f)[0]
        for g in (f, f.permute(perm), canonical, canonical.permute(perm)):
            canon, shift, sign, content = _canonical_factor(g)
            want, *rest = reference_extract_unit(g)
            assert canon.terms == want and (shift, sign, content) == tuple(rest)
            fresh = Poly(NP, dict(canon.terms))
            assert canon._box in (None, fresh._box_keys())
            assert canon._ends_cache in (None, fresh._ends())
        assert _canonical_factor(canonical)[0] is canonical


def permuted_denominators(a, perm):
    """The fully constructed fraction of a's parts, each permuted."""
    den = tuple((f.permute(perm), m) for f, m in a.den_factors)
    return RationalFunction(a.nvars, a.num.permute(perm), den, a.den_scalar)


class TestPermute:
    @given(PERMS, scaled_rfs(NP))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_constructor(self, perm, a):
        # the permuted factors may change sign; no trial division may succeed
        assert fields(a.permute(perm)) == fields(permuted_denominators(a, perm))

    @given(PERMS, scaled_rfs(NP), scaled_rfs(NP), scaled_rfs(NP))
    @settings(max_examples=40, deadline=None)
    def test_is_a_field_automorphism(self, perm, a, b, c):
        pa, pb, pc = (r.permute(perm) for r in (a, b, c))
        assert (a * b).permute(perm) == pa * pb
        assert (a + b).permute(perm) == pa + pb
        assert RationalFunction.sum(NP, [a, b, c]).permute(perm) == RationalFunction.sum(
            NP, [pa, pb, pc]
        )

    @given(st.sampled_from([(2, 1, 3), (1, 3, 2), (3, 2, 1)]), scaled_rfs(NP))
    @settings(max_examples=60, deadline=None)
    def test_a_transposition_is_an_involution(self, swap, a):
        assert fields(a.permute(swap).permute(swap)) == fields(a)

    @given(PERMS, scaled_rfs(NP), scaled_rfs(NP))
    @settings(max_examples=40, deadline=None)
    def test_shared_factors_give_the_same_result(self, perm, a, b):
        memo = {}
        for r in (a, b, a):
            assert fields(r.permute(perm, memo)) == fields(r.permute(perm))

    def test_a_flipped_factor_negates_the_numerator_at_odd_multiplicity(self):
        f = Poly.x(NP, 1) - Poly.x(NP, 2)  # canonical: x1 leads
        for m, sign in ((1, -1), (2, 1), (3, -1)):
            a = RationalFunction(NP, Poly.q(NP), ((f, m),))
            got = a.permute((2, 1, 3))
            assert got.den_factors == a.den_factors == ((f, m),)
            assert got.num == Poly.q(NP) * sign
            assert fields(got) == fields(permuted_denominators(a, (2, 1, 3)))


class TestEvaluationAndSampling:
    def test_evaluate(self):
        a = rf("(1 - q^2)/(x1 - x2)")
        pt = (Fraction(2), Fraction(5), Fraction(1, 2))
        assert a.evaluate(pt) == (1 - Fraction(1, 4)) / (2 - 5)

    def test_pole(self):
        with pytest.raises(PoleError):
            rf("1/(x1 - x2)").evaluate((Fraction(1), Fraction(1), Fraction(2)))

    def test_shared_factor_values(self):
        # fractions that share factors read each value from one dict per point
        d, e = Poly.x(NV, 1) - Poly.x(NV, 2), Poly.one(NV) - Poly.q(NV)
        items = [rf("1/(x1 - x2)"), RationalFunction(NV, Poly.q(NV), ((-d, 2), (e, 1))), rf("x1")]
        pt = (Fraction(2), Fraction(5), Fraction(1, 2))
        values = {}
        for r in items:
            assert r.evaluate(pt, values) == r.evaluate(pt)
        assert len(values) == 2
        pole = (Fraction(1), Fraction(1), Fraction(2))
        values = {}
        for r in items[:2]:
            with pytest.raises(PoleError):
                r.evaluate(pole, values)
        assert values[d] == 0


class TestParsePrintRoundtrip:
    CASES = [
        "x1",
        "q^-3",
        "(1 - q^2)/(x1 - x2)",
        "x1*x2/((1 - x1)*(1 - x2)^2)",
        "-(x1 + 1)/(2*(x2 - q))",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_roundtrip(self, text):
        v = rf(text)
        assert parse(str(v), NV) == v

    def test_parse_errors(self):
        for bad in ["x9", "x1 +", "(q", "x", "1/(0)"]:
            with pytest.raises((ValueError, ZeroDivisionError)):
                rf(bad)
