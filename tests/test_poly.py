import re
from fractions import Fraction
from operator import add, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qglk.poly import P, PointResidues, Poly, _layout, _unpack
from qglk.ratfunc import _canonical_factor
from reference import (
    reference_exact_div,
    reference_floor,
    reference_table_evaluate,
    residue_mod_p,
    term_key,
)

LIMIT = 1 << 14  # exponents lie in [-LIMIT, LIMIT)


def small_polys(nvars=3, max_terms=5):
    exps = st.tuples(*([st.integers(-3, 3)] * nvars))
    return st.dictionaries(exps, st.integers(-9, 9), max_size=max_terms).map(
        lambda d: Poly(nvars, d)
    )


def reference_evaluate(p, point):
    """The Fraction-per-term evaluation: the reference for Poly.evaluate."""
    total = Fraction(0)
    for e, c in p.terms.items():
        v = Fraction(c)
        for base, exp in zip(point, e):
            if exp:
                v *= Fraction(base) ** exp
        total += v
    return total


def reference_mul(a, b):
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def reference_add(a, b):
    """The dict merge of two term dicts, zero coefficients dropped."""
    out = dict(a.terms)
    for e, c in b.terms.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def reference_ceil(p):
    return tuple(map(max, zip(*p.terms)))


def fresh(p):
    """The same polynomial built from its terms, with no cached fields."""
    return Poly(p.nvars, dict(p.terms))


def outcome(f, b):
    """f.exact_div(b), or OverflowError when it raises that."""
    try:
        return f.exact_div(b)
    except OverflowError:
        return OverflowError


def laurent_polys(nvars, max_terms):
    exps = st.tuples(*([st.integers(-2, 2)] * nvars))
    return st.dictionaries(exps, st.integers(-5, 5), max_size=max_terms).map(
        lambda d: Poly(nvars, d)
    )


@st.composite
def laurent_pairs(draw):
    """(nvars, a, b): 4-6 variables, negative exponents, b nonzero, a * b
    with up to 40 terms."""
    nvars = draw(st.integers(4, 6))
    a = draw(laurent_polys(nvars, 8))
    b = draw(laurent_polys(nvars, 5).filter(bool))
    return nvars, a, b


def exponents(nvars, span=3):
    return st.tuples(*([st.integers(-span, span)] * nvars))


@st.composite
def binomials(draw, exps):
    """+-(X^h - X^l), the only divisor exact_div takes, with h and l two
    distinct exponents drawn from ``exps``."""
    h, l = draw(st.lists(exps, min_size=2, max_size=2, unique=True))
    sign = draw(st.sampled_from([1, -1]))
    return Poly(len(h), {h: sign, l: -sign})


@st.composite
def division_pairs(draw):
    """(nvars, a, b): 4-6 variables, negative exponents, b a divisor
    +-(X^h - X^l), a * b with up to 16 terms."""
    nvars = draw(st.integers(4, 6))
    return nvars, draw(laurent_polys(nvars, 8)), draw(binomials(exponents(nvars, 2)))


@st.composite
def euler_factors(draw, nvars):
    """An Euler factor 1 - w^{-1}, as euler_class_rf hands it on."""
    w = draw(st.tuples(*([st.integers(-1, 1)] * nvars)).filter(any))
    return Poly.one(nvars) - Poly.monomial(nvars, [-a for a in w])


def not_two_terms(nvars=3):
    """Nonzero divisors with one term or with three or more."""
    return small_polys(nvars, max_terms=6).filter(lambda p: p and len(p.keys) != 2)


class TestBasics:
    def test_zero_terms_dropped(self):
        p = Poly(2, {(1, 0): 0, (0, 1): 3})
        assert p.terms == {(0, 1): 3}

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            Poly(2, {(1, 2, 3): 1})

    def test_constructors(self):
        assert Poly.x(3, 1) * Poly.x(3, 2) == Poly(3, {(1, 1, 0): 1})
        assert Poly.q(3, -2) == Poly(3, {(0, 0, -2): 1})
        assert Poly.one(2) == Poly.monomial(2, (0, 0))
        with pytest.raises(ValueError):
            Poly.x(3, 3)  # last slot is q, not an x variable

    def test_str(self):
        p = Poly.x(2, 1) ** 2 - 3 * Poly.q(2) + Poly.one(2)
        assert str(p) == "x1^2 - 3*q + 1"
        assert str(Poly.zero(2)) == "0"
        assert str(Poly.monomial(2, (-1, 0))) == "x1^-1"


class TestArithmetic:
    @given(small_polys(), small_polys(), small_polys())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + Poly.zero(3) == a
        assert a * Poly.one(3) == a
        assert a - a == Poly.zero(3)

    @given(small_polys(), small_polys())
    @settings(max_examples=60, deadline=None)
    def test_add_equals_the_dict_merge(self, a, b):
        # zero on either side takes the fast path that hands back the other
        zero = Poly.zero(3)
        for x, y in ((a, b), (a, zero), (zero, a), (zero, zero)):
            assert (x + y).terms == reference_add(x, y)
            assert (x - y).terms == reference_add(x, -y)

    @pytest.mark.parametrize("p", [Poly.zero(3), Poly.one(3)])
    def test_add_rejects_a_non_poly_and_a_variable_count_mismatch(self, p):
        for other in (Poly.zero(2), Poly.one(2)):
            with pytest.raises(ValueError, match="variable-count mismatch"):
                p + other
            with pytest.raises(ValueError, match="variable-count mismatch"):
                other + p
        for other in (0, 1, None):
            with pytest.raises(TypeError):
                p + other

    @given(st.lists(st.tuples(st.sampled_from([1, -1]), small_polys()), max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_signed_sum_equals_chained_add_and_sub(self, signed):
        chained = Poly.zero(3)
        for sign, p in signed:
            chained = chained + p if sign == 1 else chained - p
        total = Poly.signed_sum(3, signed)
        assert total == chained and total.keys == chained.keys
        assert all(total.keys.values())  # no zero coefficient kept
        # every addend cancelled by its negative, in reverse order
        cancelled = Poly.signed_sum(3, signed + [(-s, p) for s, p in reversed(signed)])
        assert cancelled == Poly.zero(3) and cancelled.keys == {}

    def test_signed_sum_of_nothing_is_zero(self):
        assert Poly.signed_sum(3, []) == Poly.zero(3)
        assert Poly.signed_sum(3, iter(())).keys == {}

    def test_signed_sum_rejects_a_variable_count_mismatch(self):
        with pytest.raises(ValueError, match="variable-count mismatch"):
            Poly.signed_sum(3, [(1, Poly.one(3)), (1, Poly.one(2))])

    def test_pow(self):
        x = Poly.x(2, 1)
        assert (x + Poly.one(2)) ** 3 == Poly(
            2, {(3, 0): 1, (2, 0): 3, (1, 0): 3, (0, 0): 1}
        )
        assert x**0 == Poly.one(2)

    @given(small_polys(max_terms=3))
    @settings(max_examples=40, deadline=None)
    def test_pow_equals_repeated_products(self, p):
        want = Poly.one(3)
        for m in range(6):
            assert p**m == want
            want = want * p

    @given(small_polys(), small_polys())
    @settings(max_examples=40, deadline=None)
    def test_evaluate_is_homomorphism(self, a, b):
        pt = (Fraction(3, 2), Fraction(-5, 7), Fraction(2, 3))
        assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
        assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)


class TestUnitsAndDivision:
    # a unit is pulled out of a denominator factor by the canonicalizer of
    # qglk.ratfunc; tests/test_ratfunc.py checks it against the reference

    def test_extract_unit(self):
        p = Poly(2, {(-1, 2): -1, (0, 2): 1})
        canon, shift, sign = _canonical_factor(p)
        assert (shift, sign) == ((-1, 2), 1)
        assert canon == Poly(2, {(1, 0): 1, (0, 0): -1})
        assert canon.shift_exps(shift) * sign == p
        assert _canonical_factor(-p) == (canon, (-1, 2), -1)

    def test_extract_unit_monomial(self):
        canon, shift, sign = _canonical_factor(Poly.monomial(2, (2, -1), -1))
        assert canon == Poly.one(2) and shift == (2, -1) and sign == -1

    @given(small_polys(), binomials(exponents(3)))
    @settings(max_examples=80, deadline=None)
    def test_exact_div_roundtrip(self, a, b):
        q = (a * b).exact_div(b)
        assert q is not None
        assert q == a

    @given(small_polys(), not_two_terms())
    @settings(max_examples=80, deadline=None)
    def test_divisor_without_exactly_two_terms_raises(self, a, b):
        with pytest.raises(ValueError, match="is not \\+-\\(X\\^a - X\\^b\\)"):
            (a * b).exact_div(b)

    def test_divisor_with_other_coefficients_raises(self):
        x1, x2, one = Poly.x(3, 1), Poly.x(3, 2), Poly.one(3)
        for b in (2 * x1 - 2 * one, x1 + 3 * one, 2 * x1 - 3 * x2 * x2):
            with pytest.raises(ValueError, match=f"divisor {re.escape(str(b))} is not "):
                (b * x1).exact_div(b)

    def test_exact_div_failure(self):
        x, q = Poly.x(2, 1), Poly.q(2)
        assert (x + q).exact_div(x - q) is None

    def test_exact_div_laurent(self):
        # monomial units never obstruct division in the Laurent ring
        x = Poly.x(2, 1)
        p = Poly.one(2) - Poly.monomial(2, (-1, 2))
        assert (p * x).exact_div(p) == x
        assert p.exact_div(p * x) == Poly.monomial(2, (-1, 0))


class TestDivisionAgainstReference:
    @given(division_pairs())
    @settings(max_examples=150, deadline=None)
    def test_exact_products(self, nab):
        _, a, b = nab
        p = a * b
        assert p.exact_div(b) == reference_exact_div(p, b) == a

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_perturbed_products(self, data):
        nvars, a, b = data.draw(division_pairs())
        r = data.draw(laurent_polys(nvars, 3))
        p = a * b + r
        assert p.exact_div(b) == reference_exact_div(p, b)
        if sorted(r.keys.values()) == [-1, 1]:
            assert p.exact_div(r) == reference_exact_div(p, r)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_euler_class_divisors(self, data):
        nvars, a, _ = data.draw(division_pairs())
        d = Poly.one(nvars)
        for _ in range(data.draw(st.integers(1, 3))):
            d = d * data.draw(euler_factors(nvars))
        f = data.draw(euler_factors(nvars))
        assert (a * d * f).exact_div(f) == a * d
        for p in (a * d, a * d * f, a * f + d):
            assert p.exact_div(f) == reference_exact_div(p, f)

    def test_rejects_on_leading_and_trailing_terms(self):
        x, q = Poly.x(2, 1), Poly.q(2)
        one = Poly.one(2)
        # the leading quotient exponent is negative in q
        assert (x + q).exact_div(x * q - one) is None
        # the leading quotient x lies in the box; the trailing one x q^-1 does not
        assert (x**3 + x).exact_div(x * x - q) is None
        assert reference_exact_div(x**3 + x, x * x - q) is None


class TestBinomialWalk:
    """The line walk must agree with the reference division."""

    def check(self, f, b):
        got = outcome(f, b)
        if got is not OverflowError:
            assert got == reference_exact_div(f, b)
        if isinstance(got, Poly) and got:
            fr = fresh(got)
            assert got._box == fr._box_keys() and got._ends_cache == fr._ends()
        return got

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_exact_and_perturbed_products(self, data):
        nvars = data.draw(st.integers(2, 5))
        b = data.draw(binomials(exponents(nvars)))
        a = data.draw(laurent_polys(nvars, 8))
        r = data.draw(laurent_polys(nvars, 3))
        assert self.check(a * b, b) == a
        self.check(a * b + r, b)
        self.check(a, b)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_lines_with_gaps(self, data):
        # X^(k v) - 1 over +-(X^v - 1): the dividend has two terms and the
        # walk crosses k - 1 keys that are not in it
        nvars = data.draw(st.integers(2, 4))
        v = data.draw(st.tuples(*([st.integers(-3, 3)] * nvars)).filter(any))
        k = data.draw(st.integers(1, 9))
        sign = data.draw(st.sampled_from([1, -1]))
        lift = data.draw(st.tuples(*([st.integers(-2, 2)] * nvars)))
        xv = Poly.monomial(nvars, v)
        b = (xv - Poly.one(nvars)) * sign
        f = (xv**k - Poly.one(nvars)).shift_exps(lift)
        line = (tuple(j * e + s for e, s in zip(v, lift)) for j in range(k))
        want = Poly(nvars, {e: sign for e in line})
        assert self.check(f, b) == want
        assert self.check(f + Poly.monomial(nvars, lift), b) is None

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_near_the_edges_of_the_exponent_range(self, data):
        edge = st.one_of(st.integers(-LIMIT, -LIMIT + 3), st.integers(LIMIT - 4, LIMIT - 1))
        exps = st.tuples(edge | st.integers(-3, 3), edge | st.integers(-3, 3))
        coeffs = st.integers(-3, 3).filter(bool)
        f = Poly(2, data.draw(st.dictionaries(exps, coeffs, min_size=1, max_size=4)))
        b = data.draw(binomials(exps))
        self.check(f, b)
        if all(-LIMIT <= x < LIMIT for e in reference_mul(f, b) for x in e):
            assert self.check(f * b, b) == f


class TestPackedRepresentation:
    @given(laurent_pairs())
    @settings(max_examples=100, deadline=None)
    def test_mul_matches_tuple_reference(self, nab):
        _, a, b = nab
        assert (a * b).terms == reference_mul(a, b)
        assert (a * 3).terms == {e: 3 * c for e, c in a.terms.items()}

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_shift_floor_and_leading_match_tuple_references(self, data):
        nvars = data.draw(st.integers(1, 6))
        p = data.draw(laurent_polys(nvars, 8).filter(bool))
        s = data.draw(st.tuples(*([st.integers(-5, 5)] * nvars)))
        assert p.shift_exps(s).terms == {
            tuple(map(add, e, s)): c for e, c in p.terms.items()
        }
        corners = (reference_floor(p), reference_ceil(p))
        assert p._box_keys() == tuple(next(iter(Poly.monomial(nvars, e).keys)) for e in corners)
        lead = p._ends()[0]
        assert _unpack(_layout(nvars), lead) == max(p.terms, key=term_key)
        assert p.keys[lead] == p.terms[max(p.terms, key=term_key)]
        assert str(p) == str(fresh(p))

    @given(small_polys(), st.tuples(*([st.fractions(max_denominator=9)] * 3)))
    @settings(max_examples=150, deadline=None)
    def test_evaluate_matches_fraction_reference(self, p, point):
        try:
            want = reference_evaluate(p, point)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                p.evaluate(point)
            return
        assert p.evaluate(point) == want

    def test_evaluate_at_integers_and_zero(self):
        p = Poly(3, {(-2, 1, 0): 3, (1, 0, -1): -5, (0, 0, 0): 7})
        assert p.evaluate((2, -3, 5)) == reference_evaluate(p, (2, -3, 5))
        assert Poly(3, {(1, 2, 0): 4}).evaluate((0, 1, 1)) == 0
        with pytest.raises(ZeroDivisionError):
            p.evaluate((0, 1, 1))
        assert Poly.zero(3).evaluate((1, 2, 3)) == 0

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_inherited_caches_equal_fresh_ones(self, data):
        nvars, a, b = data.draw(division_pairs())
        if not a:
            return
        p = a * b
        quo = p.exact_div(b)
        derived = [quo, -p, p * -4, quo * 7, -quo]
        for d in derived:
            f = fresh(d)
            assert d._box is not None and d._ends_cache is not None
            assert d._box == f._box_keys() and d._ends_cache == f._ends()
        shifted = p.shift_exps((1,) * nvars)
        f = fresh(shifted)
        assert shifted._box in (None, f._box_keys())
        assert shifted._ends_cache in (None, f._ends())


def point_polys(nvars):
    """Negative exponents, constants and zero, monomials."""
    exps = st.tuples(*([st.integers(-3, 3)] * nvars))
    return st.one_of(
        laurent_polys(nvars, 8),
        st.integers(-9, 9).map(lambda c: Poly.const(nvars, c)),
        st.builds(lambda e, c: Poly.monomial(nvars, e, c), exps, st.integers(-9, 9).filter(bool)),
    )


class TestEvaluation:
    """Poly.evaluate, Fraction arithmetic term by term, against
    reference_table_evaluate, which sums integers over power tables."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_polynomials_match_the_table_reference(self, data):
        nvars = data.draw(st.integers(1, 5))
        point = data.draw(st.tuples(*([st.fractions(-9, 9, max_denominator=9)] * nvars)))
        for p in data.draw(st.lists(point_polys(nvars), min_size=1, max_size=4)):
            try:
                want = reference_table_evaluate(p, point)
            except ZeroDivisionError:  # a zero coordinate to a negative power
                with pytest.raises(ZeroDivisionError):
                    p.evaluate(point)
                continue
            assert p.evaluate(point) == want
        with pytest.raises(ValueError, match="wrong length"):
            Poly.one(nvars + 1).evaluate(point)


class TestPointResidues:
    """PointResidues, the evaluator mod P of the intertwiner's point stage,
    against the reference values reduced mod P."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_polynomials_at_one_point_are_the_reference_values_mod_p(self, data):
        nvars = data.draw(st.integers(1, 5))
        nonzero = st.fractions(-9, 9, max_denominator=9).filter(bool)
        point = data.draw(st.tuples(*([nonzero] * nvars)))
        at = PointResidues(point)
        for p in data.draw(st.lists(point_polys(nvars), min_size=1, max_size=4)):
            want = reference_table_evaluate(p, point)
            assert at(p) == p.residue(at) == residue_mod_p(want)
        with pytest.raises(ValueError, match="wrong length"):
            at(Poly.one(nvars + 1))

    def test_monomial_residues_are_cached_by_key(self):
        at = PointResidues((Fraction(2, 3), Fraction(5), Fraction(-7, 2)))
        p = Poly(3, {(-1, 2, 0): 3, (1, 0, 1): -4})
        assert at(p) == residue_mod_p(3 * Fraction(3, 2) * 25 - 4 * Fraction(2, 3) * Fraction(-7, 2))
        assert sorted(at.monomials) == sorted(p.keys)
        at(p * Poly.const(3, 5))
        assert sorted(at.monomials) == sorted(p.keys)

    @pytest.mark.parametrize(
        "bad", [0, Fraction(P), Fraction(1, P), Fraction(3 * P, 2), Fraction(2, 5 * P)]
    )
    def test_a_coordinate_that_is_no_unit_mod_p_is_refused(self, bad):
        with pytest.raises(ValueError, match="not a unit mod P"):
            PointResidues((Fraction(2), bad, Fraction(3)))


class TestExponentRange:
    def test_constructor_checks_both_ends(self):
        assert Poly(2, {(-LIMIT, LIMIT - 1): 1}).terms == {(-LIMIT, LIMIT - 1): 1}
        with pytest.raises(OverflowError):
            Poly(2, {(LIMIT, 0): 1})
        with pytest.raises(OverflowError):
            Poly(2, {(0, -LIMIT - 1): 1})

    def test_products_crossing_either_end_raise(self):
        top = Poly.monomial(2, (LIMIT - 1, 0)) + Poly.one(2)
        bottom = Poly.monomial(2, (0, -LIMIT)) + Poly.one(2)
        assert (top * Poly.monomial(2, (0, 5))).terms == {(LIMIT - 1, 5): 1, (0, 5): 1}
        with pytest.raises(OverflowError):
            top * Poly.x(2, 1)
        with pytest.raises(OverflowError):
            bottom * Poly.monomial(2, (0, -1))
        with pytest.raises(OverflowError):
            top * top
        with pytest.raises(OverflowError):
            bottom ** 2

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_products_near_the_edges_raise_exactly_when_out_of_range(self, data):
        edge = st.one_of(st.integers(-LIMIT, -LIMIT + 3), st.integers(LIMIT - 4, LIMIT - 1))
        exps = st.tuples(edge | st.integers(-3, 3), edge | st.integers(-3, 3))
        a, b = (
            Poly(2, data.draw(st.dictionaries(exps, st.integers(-3, 3), max_size=4)))
            for _ in range(2)
        )
        want = reference_mul(a, b)
        if all(-LIMIT <= x < LIMIT for e in want for x in e):
            assert (a * b).terms == want
        else:
            with pytest.raises(OverflowError):
                a * b

    def test_shift_exps_checks_the_range(self):
        p = Poly.monomial(3, (LIMIT - 2, 0, -LIMIT + 2))
        assert p.shift_exps((1, 0, -2)).terms == {(LIMIT - 1, 0, -LIMIT): 1}
        for shift in ((2, 0, 0), (0, 0, -3), (0, 2 * LIMIT, 0), (0, -2 * LIMIT - 1, 0)):
            with pytest.raises(OverflowError):
                p.shift_exps(shift)

    def test_shift_exps_checks_the_length(self):
        p = Poly.monomial(3, (1, 2, 3))
        for shift in ((1, 0), (1, 0, 0, 0)):
            with pytest.raises(ValueError):
                p.shift_exps(shift)

    def test_extract_unit_out_of_range_raises(self):
        p = Poly(2, {(-LIMIT + 1, 0): 1, (LIMIT - 1, 0): -1})
        with pytest.raises(OverflowError):
            _canonical_factor(p)

    def test_division_spanning_the_range_returns_the_quotient(self):
        # floor + total-degree span would leave the range; every term fits
        for p in (
            Poly(3, {(-LIMIT + 400, 0, 0): 1, (0, LIMIT - 400, 0): 1}),
            Poly(3, {(-16000, 0, 0): 1, (0, 16000, 0): 1}),
        ):
            g = Poly.x(3, 1) - Poly.q(3)
            assert (p * g).exact_div(g) == p
            assert p.exact_div(g) is None

    # In both cases the line's running sum never cancels, so only the box
    # check ends the walk: returning at all shows that it stopped there.

    def test_division_stops_at_a_quotient_term_above_its_box(self):
        # The box of x1^15000 + x2^5 over x1^5 - x2^5 has x2 in [0, 0].  The
        # first quotient term x1^14995 passes; the second, x1^14990 x2^5,
        # lies above the box and ends the division.
        f = Poly(3, {(15000, 0, 0): 1, (0, 5, 0): 1})
        g = Poly(3, {(5, 0, 0): 1, (0, 5, 0): -1})
        assert f.exact_div(g) is None

    def test_division_stops_at_a_quotient_term_below_its_box(self):
        # The quotient floor of (x1 + 2) / (x1 - 1) is x1^0.  After the
        # first quotient term the running sum is 3 at x1^0, which would
        # need the quotient term x1^-1 below the box.
        f = Poly(2, {(1, 0): 1, (0, 0): 2})
        g = Poly(2, {(1, 0): 1, (0, 0): -1})
        assert f.exact_div(g) is None

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_division_near_the_edges_answers_whenever_its_box_fits(self, data):
        edge = st.one_of(st.integers(-LIMIT, -LIMIT + 3), st.integers(LIMIT - 4, LIMIT - 1))
        exps = st.tuples(edge | st.integers(-3, 3), edge | st.integers(-3, 3))
        coeffs = st.integers(-3, 3).filter(bool)
        a = Poly(2, data.draw(st.dictionaries(exps, coeffs, min_size=1, max_size=4)))
        b = data.draw(binomials(exps))
        dividends = [a]
        if all(-LIMIT <= x < LIMIT for e in reference_mul(a, b) for x in e):
            dividends.append(a * b)
        for f in dividends:
            # the quotient's box is [floor f - floor b, ceil f - ceil b]
            lows = map(sub, reference_floor(f), reference_floor(b))
            highs = map(sub, reference_ceil(f), reference_ceil(b))
            if all(-LIMIT <= lo and hi < LIMIT for lo, hi in zip(lows, highs)):
                assert f.exact_div(b) == reference_exact_div(f, b)
            else:
                # no quotient fits, so a reject and a raise are both right
                try:
                    assert f.exact_div(b) is None
                except OverflowError:
                    pass
        if len(dividends) == 2:
            assert dividends[1].exact_div(b) == a

    def test_division_whose_box_does_not_fit_raises(self):
        # each divisor is a shift of 1 - x1, so both rejects pass
        one_x = Poly.one(2) - Poly.x(2, 1)
        # the quotient x1^(2^14) leaves the range
        with pytest.raises(OverflowError):
            one_x.exact_div(one_x.shift_exps((-LIMIT, 0)))
        # the quotient floor x1^(-2^14 - 1) leaves the range; its top does not
        low = Poly(2, {(-LIMIT, 0): 1, (-LIMIT + 2, 0): 1})
        with pytest.raises(OverflowError):
            low.exact_div(one_x.shift_exps((1, 0)))
        # the quotient floor fits, its top x1^(2^14 + 1) does not
        high = Poly(2, {(0, 0): 1, (LIMIT - 1, 0): 1})
        with pytest.raises(OverflowError):
            high.exact_div(one_x.shift_exps((-3, 0)))
        assert one_x.exact_div(one_x.shift_exps((-LIMIT + 1, 0))) == Poly.monomial(
            2, (LIMIT - 1, 0)
        )

