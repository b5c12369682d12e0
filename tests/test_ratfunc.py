import json
import re
from fractions import Fraction
from operator import add, mul, sub
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qglk.fm import SIDES
from qglk.grassmann import Space
from qglk.poly import P, PointResidues, Poly
from qglk.ratfunc import (
    PoleError,
    RationalFunction,
    _canonical_factor,
    common_denominator,
)
from reference import (
    find_intertwiner,
    inverse,
    raised_sum,
    reference_extract_unit,
    reference_permute,
    reference_permute_rf,
    reference_rf_evaluate,
    residue_mod_p,
    structure,
)
from rf_parser import parse

NV = 3  # x1, x2, q


def rf(text):
    return parse(text, NV)


def small_polys(max_terms=4, nvars=NV):
    exps = st.tuples(*([st.integers(-2, 2)] * nvars))
    return st.dictionaries(exps, st.integers(-6, 6), max_size=max_terms).map(
        lambda d: Poly(nvars, d)
    )


def monomials(nvars=NV):
    """c * X^e with mixed-sign exponents and c other than +-1: one-term
    numerators."""
    exps = st.tuples(*([st.integers(-2, 2)] * nvars))
    coeffs = st.integers(-6, 6).filter(bool)
    return st.builds(lambda e, c: Poly.monomial(nvars, e, c), exps, coeffs)


def units(nvars=NV):
    """+-X^e with mixed-sign exponents."""
    exps = st.tuples(*([st.integers(-2, 2)] * nvars))
    return st.builds(lambda e, c: Poly.monomial(nvars, e, c), exps, st.sampled_from([1, -1]))


def unit_binomials(nvars=NV):
    """+-X^s * (X^a - X^b): a binomial with a random sign and shift, the
    only shape of denominator factor besides a unit."""
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
    """Whether p is +-X^s or +-X^s (X^a - X^b), as inverse() requires of
    a numerator."""
    c = sorted(p.keys.values())
    return c in ([-1], [1], [-1, 1])


def small_rfs():
    return st.tuples(small_polys(), factors()).map(
        lambda ab: RationalFunction(NV, ab[0], ((ab[1], 1),))
    )


def two_factor_rfs(nvars=NV):
    """Fractions with two denominator factors, one of them squared."""
    return st.tuples(small_polys(nvars=nvars), factors(nvars), factors(nvars)).map(
        lambda t: RationalFunction(nvars, t[0], ((t[1], 1), (t[2], 2)))
    )


class ReportsTwoTerms(dict):
    """A one-term numerator's key dict that reports a second term, so that
    the constructor runs its trial divisions on it."""

    def __len__(self):
        return 2


class TestNormalization:
    def test_monomial_factor_absorbed(self):
        # 1 / x1 is a Laurent polynomial, not a genuine fraction
        r = RationalFunction(NV, Poly.one(NV), ((Poly.x(NV, 1), 1),))
        assert r.is_polynomial()
        assert r.num == Poly.monomial(NV, (-1, 0, 0))

    def test_constant_and_sign_absorbed(self):
        # a unit -X^s leaves its sign and its inverse monomial in the numerator
        r = RationalFunction(NV, Poly.const(NV, 4), ((-Poly.q(NV, 2), 1),))
        assert r.is_polynomial()
        assert r.num == Poly.monomial(NV, (0, 0, -2), -4)
        assert r.den_factors == ()

    def test_cancellation(self):
        p = Poly.x(NV, 1) - Poly.q(NV)
        r = RationalFunction(NV, p * p * Poly.x(NV, 2), ((p, 1),))
        assert r.is_polynomial()
        assert r.num == p * Poly.x(NV, 2)

    def test_zero_clears_denominator(self):
        p = Poly.x(NV, 1) - Poly.one(NV)
        r = RationalFunction(NV, Poly.zero(NV), ((p, 3),))
        assert not r and r.den_factors == ()

    def test_canonical_factor_orientation(self):
        # q - x1 and x1 - q must land on the same canonical factor
        a = rf("1/(q - x1)")
        b = rf("-1/(x1 - q)")
        assert a.den_factors == b.den_factors
        assert a == b


class TestReducedFastPaths:
    @given(two_factor_rfs(), st.integers(-12, 12))
    @settings(max_examples=80, deadline=None)
    def test_neg_and_int_scaling_match_constructor(self, a, c):
        # negation and scaling by an integer constant skip the trial
        # divisions; they must still land on exactly what the full
        # constructor produces
        assert structure(-a) == structure(
            RationalFunction(NV, -a.num, a.den_factors)
        )
        full = RationalFunction(NV, a.num * c, a.den_factors)
        const = RationalFunction.const(NV, c)
        assert structure(a * const) == structure(full)
        assert structure(const * a) == structure(full)

    @given(two_factor_rfs(), monomials())
    @settings(max_examples=80, deadline=None)
    def test_unit_products_match_constructor(self, a, u):
        # a denominator-free one-term factor keeps a's reduced denominator
        full = RationalFunction(NV, a.num * u, a.den_factors)
        unit = RationalFunction.from_poly(u)
        for got in (a * unit, unit * a):
            assert structure(got) == structure(full)

    @given(two_factor_rfs(), monomials())
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
            got = RationalFunction(NV, u, a.den_factors)
            assert calls == []
            forced = Poly._raw(NV, ReportsTwoTerms(u.keys))
            trial = RationalFunction(NV, forced, a.den_factors)
        finally:
            Poly.exact_div = exact_div
        assert len(calls) == len(a.den_factors)
        assert structure(got) == structure(trial)


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
        # inverse() of a numerator that is a unit or a unit times a binomial;
        # cancellation can leave another shape, such as x^2 - 1 over x - 1
        a = RationalFunction(NV, num, ((den, 1),))
        assume(binomial_shaped(a.num))
        b = inverse(a)
        assert a * b == RationalFunction.const(NV, 1)
        if binomial_shaped(b.num):
            assert inverse(b) == a
        with pytest.raises(ZeroDivisionError):
            inverse(RationalFunction.zero(NV))

    def test_int_interop(self):
        # +, - and * take RationalFunction operands only: an int or a Poly
        # on either side raises; == still compares with both
        a = rf("x1/(1 - q)")
        for other in (0, 1, Poly.one(NV)):
            for op in (add, sub, mul):
                with pytest.raises(TypeError):
                    op(a, other)
                with pytest.raises(TypeError):
                    op(other, a)
        assert a - a == 0 and a != 1
        assert rf("1 - q") == Poly.one(NV) - Poly.q(NV)

    def test_sum_matches_pairwise(self):
        items = [rf("1/(x1 - x2)"), rf("1/(x2 - x1)"), rf("q/(1 - q^2)")]
        assert RationalFunction.sum(NV, items) == items[0] + items[1] + items[2]
        assert not RationalFunction.sum(NV, [])

    def test_common_denominator_keeps_a_numerator_already_over_it(self):
        a, b = rf("x1/(1 - q)"), rf("x2/((1 - q)*(x1 - x2))")
        parts, den = common_denominator(NV, [(a.num, a.den_factors), (b.num, b.den_factors)])
        assert parts[1] is b.num and parts[0] == a.num * (Poly.x(NV, 1) - Poly.x(NV, 2))
        assert dict(den) == dict(b.den_factors)

    def test_telescoping_residue_sum(self):
        # 1/(x1-x2) + 1/(x2-x1) = 0 exactly, not just numerically
        total = rf("x1/(x1 - x2)") + rf("x2/(x2 - x1)")
        assert total == 1


NP = 4  # x1, x2, x3, q: room for a 3-cycle
PERMS = st.permutations((1, 2, 3)).map(tuple)


def signed_sum_of_products(products):
    return RationalFunction.sum(NV, [a * b if sign > 0 else -(a * b) for sign, a, b in products])


@st.composite
def sums_of_products(draw):
    """(products, target) for raised_sum: signed products of
    fractions whose denominators draw, at multiplicities 1 to 3, on one
    small pool of canonical binomials, so that factors recur across and
    within products.  Sometimes a product is cancelled by its negative,
    and the target is nothing, a fraction with its own denominator, the
    sum itself, or the sum plus that fraction."""
    pool = draw(st.lists(unit_binomials(), min_size=1, max_size=3))
    pool = [_canonical_factor(f)[0] for f in pool]

    def fraction():
        den = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 3)), max_size=2))
        return RationalFunction(NV, draw(small_polys(max_terms=3)), tuple(den))

    products = [
        (draw(st.sampled_from([1, -1])), fraction(), fraction())
        for _ in range(draw(st.integers(0, 3)))
    ]
    if products and draw(st.booleans()):
        sign, a, b = products[0]
        products.append((-sign, a, b))  # a * b - a * b
    total = signed_sum_of_products(products)
    target = draw(st.sampled_from([None, "own", "sum", "sum plus own"]))
    if target == "own":
        target = fraction()
    elif target == "sum":
        target = total
    elif target == "sum plus own":
        target = total + fraction()
    return products, target


def sums_to(products, target=None, sign=1):
    """Whether the signed products sum to sign * target, from raised_sum."""
    got, want, _ = raised_sum(NV, products, target)
    return got == (want if sign > 0 else -want)


class TestRaisedSum:
    @given(sums_of_products())
    @settings(max_examples=150, deadline=None)
    def test_holds_exactly_when_the_sum_is_the_target(self, case):
        products, target = case
        total = signed_sum_of_products(products)
        want = 0 if target is None else target
        assert sums_to(products, target) == (total == want)
        # one raising also decides the negated target
        assert sums_to(products, target, -1) == (total == -want)

    @given(sums_of_products(), st.sampled_from([1, -1]))
    @settings(max_examples=150, deadline=None)
    def test_numerators_over_the_denominator_are_the_difference(self, case, sign):
        # (N - sign * T) / den is the signed sum minus sign * target
        products, target = case
        num, want, den = raised_sum(NV, products, target)
        diff = signed_sum_of_products(products)
        if target is not None:
            diff = diff - target if sign > 0 else diff + target
        assert RationalFunction(NV, num - want if sign > 0 else num + want, den) == diff

    def test_named_cases(self):
        a, b = rf("x1/(1 - q)"), rf("1/((1 - q)^2*(x1 - x2))")
        assert sums_to([(1, a, b), (-1, a, b)])
        assert not sums_to([(1, a, b)])
        # 1 - q at multiplicities 1, 2 and 3 across the terms
        ab = a * b
        assert sums_to([(1, a, b), (1, b, a)], ab + ab)
        assert not sums_to([(1, a, b), (1, b, a)], ab)
        assert sums_to([(-1, a, b), (-1, b, a)], ab + ab, -1)
        assert not sums_to([(1, a, b), (1, b, a)], ab + ab, -1)


class TestDenominatorContract:
    """Every denominator factor is +-X^s or +-X^s (X^a - X^b)."""

    @pytest.mark.parametrize("text", ["x1 + x2 - q", "2*x1 + 3*q", "x1 + q", "2*x1 - 2", "2"])
    def test_rejects_any_other_factor(self, text):
        f = rf(text).num
        with pytest.raises(ValueError, match=f"factor {re.escape(str(f))} is not "):
            RationalFunction(NV, Poly.one(NV), ((f, 1),))
        with pytest.raises(ValueError):
            inverse(RationalFunction(NV, f, ((Poly.x(NV, 1) - Poly.q(NV), 1),)))

    def test_no_integer_denominator(self):
        with pytest.raises(ValueError, match="factor 2 is not "):
            inverse(RationalFunction.const(NV, 2))

    def test_cancellation_removes_whole_factors_only(self):
        # (1 - x1 q) / (1 - x1^2 q^2) equals 1 / (1 + x1 q) but keeps its
        # factor; its inverse is 1 + x1 q, which cannot be inverted back
        one, x1q = Poly.one(NV), Poly.monomial(NV, (1, 0, 1))
        r = RationalFunction(NV, one - x1q, ((one - x1q * x1q, 1),))
        assert r.den_factors == ((x1q * x1q - one, 1),)
        assert r * RationalFunction.from_poly(one + x1q) == 1
        assert inverse(r) == one + x1q
        with pytest.raises(ValueError, match="factor x1\\*q \\+ 1 is not "):
            inverse(inverse(r))

    @given(PERMS, st.one_of(unit_binomials(NP), units(NP)))
    @settings(max_examples=150, deadline=None)
    def test_canonicalizer_matches_the_reference(self, perm, f):
        canonical = _canonical_factor(f)[0]
        moved = [Poly(NP, reference_permute(g, perm)) for g in (f, canonical)]
        for g in (f, moved[0], canonical, moved[1]):
            canon, shift, sign = _canonical_factor(g)
            want, *rest = reference_extract_unit(g)
            assert canon.terms == want and (shift, sign) == tuple(rest)
            fresh = Poly(NP, dict(canon.terms))
            assert canon._box in (None, fresh._box_keys())
            assert canon._ends_cache in (None, fresh._ends())
        assert _canonical_factor(canonical)[0] is canonical


class TestPermute:
    """The constructor and the arithmetic commute with permuting x_1..x_N
    (reference_permute_rf permutes a fraction's parts and constructs it
    anew), which the equivariance gate of qglk.fm relies on."""

    @given(PERMS, two_factor_rfs(NP), two_factor_rfs(NP), two_factor_rfs(NP))
    @settings(max_examples=40, deadline=None)
    def test_is_a_field_automorphism(self, perm, a, b, c):
        pa, pb, pc = (reference_permute_rf(r, perm) for r in (a, b, c))
        assert reference_permute_rf(a * b, perm) == pa * pb
        assert reference_permute_rf(a + b, perm) == pa + pb
        assert reference_permute_rf(
            RationalFunction.sum(NP, [a, b, c]), perm
        ) == RationalFunction.sum(NP, [pa, pb, pc])

    @given(st.sampled_from([(2, 1, 3), (1, 3, 2), (3, 2, 1)]), two_factor_rfs(NP))
    @settings(max_examples=60, deadline=None)
    def test_a_transposition_is_an_involution(self, swap, a):
        twice = reference_permute_rf(reference_permute_rf(a, swap), swap)
        assert structure(twice) == structure(a)

    def test_a_flipped_factor_negates_the_numerator_at_odd_multiplicity(self):
        f = Poly.x(NP, 1) - Poly.x(NP, 2)  # canonical: x1 leads
        for m, sign in ((1, -1), (2, 1), (3, -1)):
            a = RationalFunction(NP, Poly.q(NP), ((f, m),))
            got = reference_permute_rf(a, (2, 1, 3))
            assert got.den_factors == a.den_factors == ((f, m),)
            assert got.num == Poly.q(NP) * sign


class TestEvaluationAndSampling:
    def test_evaluate(self):
        a = rf("(1 - q^2)/(x1 - x2)")
        pt = (Fraction(2), Fraction(5), Fraction(1, 2))
        assert a.evaluate(pt) == (1 - Fraction(1, 4)) / (2 - 5)

    def test_pole(self):
        with pytest.raises(PoleError):
            rf("1/(x1 - x2)").evaluate((Fraction(1), Fraction(1), Fraction(2)))

    @given(two_factor_rfs(), st.tuples(*([st.fractions(-3, 3, max_denominator=3)] * NV)))
    @settings(max_examples=200, deadline=None)
    def test_value_matches_the_reference_and_raises_at_a_vanishing_factor(self, r, point):
        try:
            want = reference_rf_evaluate(r, point)
        except PoleError:
            with pytest.raises(PoleError):
                r.evaluate(point)
            return
        except ZeroDivisionError:  # a zero coordinate to a negative power
            with pytest.raises(ZeroDivisionError):
                r.evaluate(point)
            return
        assert r.evaluate(point) == want

    def test_shared_factor_values(self):
        # fractions that share factors: their values, and a pole of the
        # shared factor in each fraction that divides by it
        d, e = Poly.x(NV, 1) - Poly.x(NV, 2), Poly.one(NV) - Poly.q(NV)
        items = [rf("1/(x1 - x2)"), RationalFunction(NV, Poly.q(NV), ((-d, 2), (e, 1))), rf("x1")]
        pt = (Fraction(2), Fraction(5), Fraction(1, 2))
        assert [r.evaluate(pt) for r in items] == [Fraction(-1, 3), Fraction(1, 9), 2]
        pole = (Fraction(1), Fraction(1), Fraction(2))
        for r in items[:2]:
            with pytest.raises(PoleError):
                r.evaluate(pole)
        assert items[2].evaluate(pole) == 1

    @given(
        two_factor_rfs(),
        st.tuples(*([st.fractions(-3, 3, max_denominator=3).filter(bool)] * NV)),
    )
    @settings(max_examples=200, deadline=None)
    def test_residue_is_the_value_mod_p_and_raises_at_a_vanishing_factor(self, r, point):
        at = PointResidues(point)
        try:
            want = reference_rf_evaluate(r, point)
        except PoleError:
            with pytest.raises(PoleError):
                r.residue(at)
            return
        assert r.residue(at) == residue_mod_p(want)

    def test_a_factor_that_vanishes_mod_p_only_raises(self):
        # x1 = 2 and x2 = 2 + P differ, but 1 / (x1 - x2) has no residue
        r, point = rf("1/(x1 - x2)"), (Fraction(2), Fraction(2 + P), Fraction(3))
        assert r.evaluate(point) == Fraction(-1, P)
        with pytest.raises(PoleError):
            r.residue(PointResidues(point))
        assert rf("x1 - x2").residue(PointResidues(point)) == 0


class TestParsePrintRoundtrip:
    CASES = [
        "x1",
        "q^-3",
        "(1 - q^2)/(x1 - x2)",
        "x1*x2/((1 - x1)*(1 - x2)^2)",
        "-(x1 + 1)/(x2 - q)^2",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_roundtrip(self, text):
        v = rf(text)
        assert parse(str(v), NV) == v

    def test_parse_errors(self):
        for bad in ["x9", "x1 +", "(q", "x", "1/(0)"]:
            with pytest.raises((ValueError, ZeroDivisionError)):
                rf(bad)


def printed_fractions():
    """str() of the det(tau)^m pushforwards on Gr(k, 6) (|m| <= 3) and on
    the fibered Gr(k, 4) (|m| <= 2), and of every entry of the
    find_intertwiner bases for n <= 3."""
    out = {}
    for n, fiber, ms in ((6, False, 3), (4, True, 2)):
        for k in range(n + 1):
            space = Space(n, k, with_fiber=fiber)
            for m in range(-ms, ms + 1):
                out[f"Space({n}, {k}, with_fiber={fiber}) det^{m}"] = str(
                    space.pushforward_det_tau_power(m)
                )
    for n in range(1, 4):
        bases, _ = find_intertwiner(n)
        for w, pair in bases.items():
            for side, mat in zip(SIDES, pair):
                out[f"find_intertwiner({n}) weight {w} {side}"] = [
                    [str(e) for e in row] for row in mat.rows
                ]
    return out


class TestFractionsGolden:
    def test_printed_fractions_are_byte_identical(self):
        golden = json.loads((Path(__file__).parent / "data" / "fractions_golden.json").read_text())
        assert printed_fractions() == golden
