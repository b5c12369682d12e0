from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qglk.fm import correspondence_tangent
from qglk.grassmann import (
    NonIsolatedFixedPointError,
    Space,
    det_tau_restrict,
    dual,
    euler_class_rf,
    exterior_powers,
    fixed_points,
    hom_fiber,
    ratio_character,
    tangent_gr,
)
from qglk.poly import Poly
from qglk.ratfunc import RationalFunction, _canonical_factor
from reference import (
    correspondence_pairs,
    inverse_euler,
    reference_permute,
    reference_permute_rf,
    reference_pushforward,
    structure,
    tangent,
)
from rf_parser import parse
from weights import mult, rank, weight_monomial


def schur_rectangular(n, k, m):
    """Schur polynomial of the k x m rectangle in x_1..x_n, by tableaux.

    Semistandard fillings: rows weakly increase, columns strictly increase.
    Serves as an independent oracle for Grassmannian pushforwards.
    """
    nvars = n + 1
    if k == 0 or m == 0:
        return Poly.one(nvars)
    if k > n:
        return Poly.zero(nvars)

    rows = []

    def extend_row(prefix, lower_bound_row):
        if len(prefix) == m:
            rows.append(tuple(prefix))
            return
        j = len(prefix)
        lo = max(prefix[-1] if prefix else 1, lower_bound_row[j] + 1 if lower_bound_row else 1)
        for v in range(lo, n + 1):
            extend_row(prefix + [v], lower_bound_row)

    total = Poly.zero(nvars)

    def build(tableau):
        nonlocal total
        if len(tableau) == k:
            exps = [0] * nvars
            for row in tableau:
                for v in row:
                    exps[v - 1] += 1
            total = total + Poly.monomial(nvars, tuple(exps))
            return
        rows.clear()
        extend_row([], tableau[-1] if tableau else None)
        for row in list(rows):
            build(tableau + [row])

    build([])
    return total


LIMIT = 1 << 14  # exponents lie in [-LIMIT, LIMIT)


def _times(a, b):
    return tuple(x + y for x, y in zip(a, b))


class ReferenceCharacter:
    """Tuple-keyed character arithmetic: one exponent tuple (x_1..x_N, q)
    per weight.  Slow but obviously right: the reference for characters
    on Poly's packed keys.
    """

    def __init__(self, weights=None):
        self.weights = {w: m for w, m in (weights or {}).items() if m}

    def monomial_list(self):
        if any(m < 0 for m in self.weights.values()):
            raise ValueError("virtual character has no weight list")
        out = []
        for w, m in sorted(self.weights.items()):
            out.extend([w] * m)
        return out

    def __add__(self, other):
        out = dict(self.weights)
        for w, m in other.weights.items():
            nm = out.get(w, 0) + m
            if nm:
                out[w] = nm
            else:
                del out[w]
        return ReferenceCharacter(out)

    def __neg__(self):
        return ReferenceCharacter({w: -m for w, m in self.weights.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for w1, m1 in self.weights.items():
            for w2, m2 in other.weights.items():
                w = _times(w1, w2)
                out[w] = out.get(w, 0) + m1 * m2
        return ReferenceCharacter(out)

    def twist(self, shift):
        if not any(shift):
            return self
        return ReferenceCharacter({_times(w, shift): m for w, m in self.weights.items()})

    def dual(self):
        return ReferenceCharacter({tuple(-a for a in w): m for w, m in self.weights.items()})

    def det(self):
        monos = self.monomial_list()
        if not monos:
            raise ValueError("determinant of the zero character")
        out = monos[0]
        for w in monos[1:]:
            out = _times(out, w)
        return out

    def all_exterior_powers(self, nvars):
        monos = self.monomial_list()
        levels = [ReferenceCharacter({(0,) * nvars: 1})]
        levels += [ReferenceCharacter() for _ in monos]
        for w in monos:
            for t in range(len(monos), 0, -1):
                levels[t] = levels[t] + levels[t - 1].twist(w)
        return levels


def exponents(nvars, lo=-3, hi=3):
    return st.tuples(*([st.integers(lo, hi)] * nvars))


@st.composite
def character_pairs(draw, genuine=False):
    """nvars (1-7 x variables and q), two weight dicts keyed by exponent
    tuples, and a twisting shift."""
    nvars = draw(st.integers(2, 8))
    mults = st.integers(1, 2) if genuine else st.integers(-3, 3)
    size = 4 if genuine else 6
    a, b = (draw(st.dictionaries(exponents(nvars), mults, max_size=size)) for _ in "ab")
    return nvars, a, b, draw(exponents(nvars))


def seed_euler_class_rf(char, invert=False):
    """Euler class with each binomial 1 - w^-1 built from the weight's
    exponent tuple and canonicalized by the RationalFunction constructor."""
    nvars = char.nvars
    num = Poly.one(nvars)
    den = []
    for w, m in char.terms.items():
        p = Poly.one(nvars) - Poly.monomial(nvars, [-a for a in w])
        e = -m if invert else m
        if e > 0:
            num = num * p**e
        else:
            den.append((p, -e))
    return RationalFunction(nvars, num, tuple(den))


class TestCharacter:
    def test_multiset_arithmetic(self):
        w1 = weight_monomial(2, (1,), (2,))
        w2 = weight_monomial(2, (2,), (1,))
        a = w1 + w1 + w2
        assert rank(a) == 3
        assert a - w1 == w1 + w2
        assert rank(a - a) == 0
        virt = w1 - w2
        with pytest.raises(ValueError, match="virtual character"):
            exterior_powers(virt)

    def test_tensor_and_dual(self):
        w1 = weight_monomial(2, (1,))
        w2 = weight_monomial(2, (2,))
        v = w1 + w2
        sq = v * v
        assert rank(sq) == 4
        assert mult(sq, w1 * w2) == 2
        assert dual(v) == weight_monomial(2, (), (1,)) + weight_monomial(2, (), (2,))

    def test_det_and_exterior(self):
        v = weight_monomial(3, (1,)) + weight_monomial(3, (2,)) + weight_monomial(3, (3,))
        powers = exterior_powers(v)
        assert powers[3] == weight_monomial(3, (1, 2, 3))  # the determinant
        assert rank(powers[2]) == 3
        assert mult(powers[2], weight_monomial(3, (1, 2))) == 1
        assert powers[0] == Poly.one(4)
        assert [rank(c) for c in powers] == [comb(3, j) for j in range(4)]


class TestPackedCharacter:
    """Characters on Poly's packed keys against the tuple-keyed reference."""

    @given(character_pairs())
    @settings(max_examples=150, deadline=None)
    def test_ring_operations_and_twists(self, case):
        nvars, a, b, shift = case
        A, B = Poly(nvars, a), Poly(nvars, b)
        RA, RB = ReferenceCharacter(a), ReferenceCharacter(b)
        assert A.terms == {w: m for w, m in a.items() if m}
        for got, want in (
            (A + B, RA + RB),
            (A - B, RA - RB),
            (-A, -RA),
            (A * B, RA * RB),
            (A.shift_exps(shift), RA.twist(shift)),
            (A * Poly.monomial(nvars, shift), RA.twist(shift)),
            (dual(A), RA.dual()),
            (dual(dual(A)), RA),
        ):
            assert dict(got.terms) == want.weights
        assert rank(A) == sum(a.values())
        assert (A - B == Poly.zero(nvars)) == (RA.weights == RB.weights)
        if any(m < 0 for m in a.values()):
            with pytest.raises(ValueError, match="virtual character"):
                exterior_powers(A)

    @given(character_pairs(genuine=True))
    @settings(max_examples=100, deadline=None)
    def test_det_and_exterior_powers(self, case):
        nvars, a, _, _ = case
        A, RA = Poly(nvars, a), ReferenceCharacter(a)
        got = exterior_powers(A)
        want = RA.all_exterior_powers(nvars)
        assert [dict(c.terms) for c in got] == [c.weights for c in want]
        if a:
            assert got[-1] == Poly.monomial(nvars, RA.det())

    def test_zero_character_and_arity_checks(self):
        w = weight_monomial(2, (1,), (2,))
        assert w - w == Poly.zero(3) == Poly(3, {(1, -1, 0): 0})
        assert exterior_powers(w - w) == [Poly.one(3)]
        assert w.shift_exps((0, 0, 0)) is w  # a trivial twist returns its input
        with pytest.raises(ValueError):
            w.shift_exps((1, 0))
        with pytest.raises(ValueError):
            w + Poly.zero(4)
        with pytest.raises(ValueError):
            Poly(3, {(1, -1, 0): 1, (1, 0): 1})

    def test_key_built_weights_match_monomials(self):
        for n in range(1, 5):
            for k in range(n + 1):
                for S in fixed_points(n, k):
                    out = [j for j in range(1, n + 1) if j not in S]
                    assert tangent_gr(n, S) == sum(
                        (weight_monomial(n, (j,), (i,)) for i in S for j in out),
                        Poly.zero(n + 1),
                    )
                    assert hom_fiber(n, S) == sum(
                        (weight_monomial(n, (i,), (j,), 2) for i in S for j in range(1, n + 1)),
                        Poly.zero(n + 1),
                    )


class TestCharacterRange:
    """Out-of-range exponents raise OverflowError and never wrap."""

    def line(self, *exps):
        return Poly.monomial(len(exps), exps)

    def test_twist_crossing_either_end(self):
        assert self.line(LIMIT - 2, 0).shift_exps((1, 0)) == self.line(LIMIT - 1, 0)
        with pytest.raises(OverflowError):
            self.line(LIMIT - 1, 0).shift_exps((1, 0))
        with pytest.raises(OverflowError):
            self.line(0, -LIMIT).shift_exps((0, -1))
        # a shift of 2^16 would carry into the next field with no guard bit
        for shift in ((2 * LIMIT, 0), (0, 1 << 16), (1 << 16, 0)):
            with pytest.raises(OverflowError):
                self.line(5, 0).shift_exps(shift)

    def test_dual_of_the_lowest_exponent(self):
        assert dual(self.line(LIMIT - 1, 3)) == self.line(1 - LIMIT, -3)
        with pytest.raises(OverflowError):
            dual(self.line(-LIMIT, 0))
        with pytest.raises(OverflowError):
            dual(self.line(1, -LIMIT))

    def test_product_crossing_either_end(self):
        half = LIMIT // 2
        assert (self.line(-half, 1) * self.line(-half, 1)) == self.line(-LIMIT, 2)
        with pytest.raises(OverflowError):
            self.line(half, 0) * self.line(half, 0)
        with pytest.raises(OverflowError):
            self.line(0, -half) * self.line(0, -half - 1)

    def test_exterior_power_crossing(self):
        v = 2 * self.line(LIMIT // 2, 0)
        with pytest.raises(OverflowError):
            exterior_powers(v)

    def test_key_built_q_weight(self):
        with pytest.raises(OverflowError):
            ratio_character(2, [(1, 2)], LIMIT)
        assert rank(ratio_character(2, [(1, 2)], 1 - LIMIT)) == 1

    @given(
        st.integers(-LIMIT, LIMIT - 1),
        st.integers(-LIMIT, LIMIT - 1),
        st.integers(-LIMIT, LIMIT - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_near_the_edges(self, a, b, c):
        x = self.line(a, c)
        for got, exps in (
            (lambda: x.shift_exps((b, 0)), (a + b, c)),
            (lambda: x * self.line(b, 0), (a + b, c)),
            (lambda: dual(x), (-a, -c)),
        ):
            if all(-LIMIT <= e < LIMIT for e in exps):
                assert got() == self.line(*exps)
            else:
                with pytest.raises(OverflowError):
                    got()


class TestTangentData:
    def test_fixed_points_lex(self):
        assert fixed_points(3, 2) == [(1, 2), (1, 3), (2, 3)]
        assert fixed_points(2, 0) == [()]
        assert fixed_points(2, 3) == []
        assert fixed_points(2, -1) == []

    def test_tangent_gr(self):
        t = tangent_gr(3, (1,))
        assert rank(t) == 2
        assert mult(t, weight_monomial(3, (2,), (1,))) == 1
        assert mult(t, weight_monomial(3, (3,), (1,))) == 1

    def test_hom_fiber_has_weight_two_scaling(self):
        f = hom_fiber(2, (1,))
        assert rank(f) == 2
        assert mult(f, weight_monomial(2, (), (), 2)) == 1  # x1/x1 * q^2
        assert mult(f, weight_monomial(2, (1,), (2,), 2)) == 1

    def test_tangent_dimensions(self):
        sp = Space(4, 2, with_fiber=True)
        for S in fixed_points(4, 2):
            assert rank(tangent(sp, S)) == 2 * 2 + 2 * 4
        base = Space(4, 2, with_fiber=False)
        for S in fixed_points(4, 2):
            assert rank(tangent(base, S)) == 4


class TestEulerClasses:
    def test_single_weight(self):
        c = weight_monomial(1, (1,), (), 2)  # q^2 x1
        e = euler_class_rf(c)
        assert e == parse("1 - q^-2*x1^-1", 2)

    def test_invert_builds_factored_denominator(self):
        c = weight_monomial(2, (1,), (2,)) + weight_monomial(2, (2,), (1,))
        inv = euler_class_rf(c, invert=True)
        assert len(inv.num.keys) == 1
        assert len(inv.den_factors) >= 1
        direct = euler_class_rf(c)
        assert inv * direct == RationalFunction.const(3, 1)

    def test_virtual_character_divides(self):
        a = weight_monomial(1, (1,))
        b = weight_monomial(1, (1,), (), 2)
        e = euler_class_rf(a - b)
        assert e == parse("(1 - x1^-1)/(1 - q^-2*x1^-1)", 2)

    def test_trivial_weight_rejected(self):
        with pytest.raises(NonIsolatedFixedPointError):
            euler_class_rf(Poly.one(2))

    def test_binomial_of_the_lowest_exponent_overflows(self):
        for invert in (False, True):
            with pytest.raises(OverflowError):
                euler_class_rf(Poly.monomial(2, (-LIMIT, 0)), invert)
            euler_class_rf(Poly.monomial(2, (1 - LIMIT, 0)), invert)

    def test_a_shared_weight_stores_one_factor_object(self):
        # x1/x2 alone, then beside q^2 x2/x1: both divide by 1 - x2/x1
        w = weight_monomial(2, (1,), (2,))
        alone = euler_class_rf(w, invert=True)
        beside = euler_class_rf(w + weight_monomial(2, (2,), (1,), 2), invert=True)
        (f, _), *_ = alone.den_factors
        assert [g for g, _ in beside.den_factors if g == f][0] is f
        assert _canonical_factor(f)[0] is f

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_binomials_are_born_canonical(self, n):
        """Field by field equal to the Euler class built from exponent
        tuples, for every tangent character and correspondence character
        at n, with every denominator factor canonical and its caches
        exact."""
        nvars = n + 1
        chars = [
            tangent(Space(n, k, fiber), S)
            for k in range(n + 1)
            for fiber in (False, True)
            for S in fixed_points(n, k)
        ]
        for k in range(n):
            for small, big in correspondence_pairs(n, k):
                for tgt in (small, big):
                    chars.append(
                        tangent_gr(n, tgt) + hom_fiber(n, tgt) - correspondence_tangent(n, small, big)
                    )
        for char in chars:
            for invert in (False, True):
                got = euler_class_rf(char, invert)
                want = seed_euler_class_rf(char, invert)
                assert got.nvars == nvars
                assert structure(got) == structure(want)
                for f, _ in got.den_factors:
                    assert _canonical_factor(f)[0] is f
                    fresh = Poly(nvars, f.terms)
                    assert (f._box, f._ends_cache) == (fresh._box_keys(), fresh._ends())


@st.composite
def permuted_entries(draw):
    """nvars, a virtual character (no trivial weight), a monomial twist
    sign * X^t and a permutation of 1..nvars - 1."""
    nvars = draw(st.integers(2, 8))
    chi = draw(st.dictionaries(exponents(nvars), st.integers(-3, 3).filter(bool), max_size=6))
    chi.pop((0,) * nvars, None)
    twist = Poly.monomial(nvars, draw(exponents(nvars)), draw(st.sampled_from((1, -1))))
    return nvars, Poly(nvars, chi), twist, tuple(draw(st.permutations(range(1, nvars))))


class TestNaturality:
    """Expanding Euler data commutes with permuting x_1..x_N, stored form
    and all: what lets the equivariance gate of qglk.fm compare permuted
    twists and characters instead of permuted fractions.  The permutation
    is the reference one of tests/reference.py, on exponent tuples and,
    for a fraction, through its constructor."""

    @given(permuted_entries())
    @settings(max_examples=200, deadline=None)
    def test_expansion_commutes_with_permutations(self, case):
        nvars, chi, twist, perm = case
        moved_chi, moved_twist = (Poly(nvars, reference_permute(p, perm)) for p in (chi, twist))
        assert structure(euler_class_rf(moved_chi)) == structure(
            reference_permute_rf(euler_class_rf(chi), perm)
        )
        moved = RationalFunction.from_poly(moved_twist) * euler_class_rf(moved_chi)
        entry = RationalFunction.from_poly(twist) * euler_class_rf(chi)
        assert structure(moved) == structure(reference_permute_rf(entry, perm))


class TestPushforwards:
    def test_p1_structure_sheaf(self):
        # chi(P^1, O) = 1
        sp = Space(2, 1, with_fiber=False)
        assert sp.pushforward_det_tau_power(0) == RationalFunction.const(3, 1)

    def test_p1_tautological(self):
        # chi(P^1, O(-1)) = 0
        sp = Space(2, 1, with_fiber=False)
        assert not sp.pushforward_det_tau_power(1)

    def test_p1_canonical(self):
        # chi(P^1, O(-2)) = -x1*x2 by Serre duality
        sp = Space(2, 1, with_fiber=False)
        expected = RationalFunction.from_poly(-Poly.x(3, 1) * Poly.x(3, 2))
        assert sp.pushforward_det_tau_power(2) == expected

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 2), (6, 3)])
    def test_structure_sheaf_all_grassmannians(self, n, k):
        sp = Space(n, k, with_fiber=False)
        assert sp.pushforward_det_tau_power(0) == RationalFunction.const(n + 1, 1)

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 2)])
    @pytest.mark.parametrize("m", [-3, -2, -1, 1, 2, 3])
    def test_det_tau_powers_are_laurent(self, n, k, m):
        sp = Space(n, k, with_fiber=False)
        val = sp.pushforward_det_tau_power(m)
        assert val.is_polynomial(), f"n={n} k={k} m={m}: {val}"

    @pytest.mark.parametrize("n,k,m", [(2, 1, 1), (3, 1, 2), (3, 2, 1), (4, 2, 2)])
    def test_dual_det_powers_match_schur_oracle(self, n, k, m):
        # chi(Gr, (det tau^dual)^m) = s_{(m^k)} in the inverted variables
        sp = Space(n, k, with_fiber=False)
        val = sp.pushforward_det_tau_power(-m)
        oracle = schur_rectangular(n, k, m)
        inverted = Poly(n + 1, {tuple(-e for e in ex): c for ex, c in oracle.terms.items()})
        assert val == RationalFunction.from_poly(inverted)

    def test_det_tau_restrict(self):
        assert det_tau_restrict(3, (1, 3), 2) == Poly.monomial(4, (2, 0, 2, 0))
        assert det_tau_restrict(3, (), 5) == Poly.one(4)

    def test_inverse_euler_classes_are_shared(self):
        # one localization form per (n, k, fiber), shared by every Space of that shape
        a, b = Space(4, 2), Space(4, 2)
        assert a.form is b.form
        assert Space(4, 3).form is not a.form
        assert Space(4, 2, with_fiber=False).form is not a.form
        assert Space(4, 2, with_fiber=False).form is Space(4, 2, with_fiber=False).form
        numerators, den = a.form
        assert list(numerators) == fixed_points(4, 2)
        for S, part in numerators.items():
            assert RationalFunction(5, part, den) == inverse_euler(a, S)

    def test_pushforward_values_must_be_polys(self):
        sp = Space(3, 1, with_fiber=False)
        with pytest.raises(TypeError):
            sp.pushforward(lambda S: RationalFunction.const(4, 1))
        x1 = RationalFunction.from_poly(Poly.x(4, 1))
        with pytest.raises(TypeError):
            sp.pushforward({S: x1 for S in fixed_points(3, 1)})


class TestLocalizationForm:
    """Pushforwards over the shared localization form against the sum of
    fractions built afresh: the same numerator keys and the same reduced
    denominator, not merely equal values."""

    @pytest.mark.parametrize(
        "n,k,fiber,ms",
        [(n, k, False, range(-3, 4)) for n in range(6) for k in range(n + 1)]
        + [(6, 3, False, range(-3, 4))]
        + [(n, k, True, range(-2, 3)) for n in range(5) for k in range(n + 1)],
    )
    def test_det_tau_powers_match_reference(self, n, k, fiber, ms):
        sp = Space(n, k, fiber)
        for m in ms:
            values = lambda S: det_tau_restrict(n, S, m)  # noqa: E731
            want = reference_pushforward(sp, values)
            assert structure(sp.pushforward(values)) == structure(want)

    @pytest.mark.parametrize(
        "n,k,fiber", [(3, 1, False), (4, 2, False), (3, 1, True), (3, 2, True)]
    )
    def test_non_global_values_keep_their_poles(self, n, k, fiber):
        # values that restrict no global class: the shared denominator hides no pole
        sp = Space(n, k, fiber)
        one, zero = Poly.one(n + 1), Poly.zero(n + 1)
        for S0 in fixed_points(n, k):
            indicator = lambda S: one if S == S0 else zero  # noqa: E731
            bumped = lambda S: det_tau_restrict(n, S) + (one if S == S0 else zero)  # noqa: E731
            for values in (indicator, bumped):
                got = sp.pushforward(values)
                assert not got.is_polynomial()
                assert structure(got) == structure(reference_pushforward(sp, values))
            # the bumped values add this point's inverse Euler class to det tau's pushforward
            assert got == sp.pushforward_det_tau_power(1) + inverse_euler(sp, S0)

    # Gr(4, 3) has no fixed points at all
    @pytest.mark.parametrize(
        "n,k,fiber", [(0, 0, False), (3, 1, False), (4, 2, True), (3, 4, False)]
    )
    def test_zero_values_push_forward_to_zero(self, n, k, fiber):
        sp = Space(n, k, fiber)
        got = sp.pushforward(lambda S: Poly.zero(n + 1))
        assert structure(got) == structure(RationalFunction.zero(n + 1))


class TestSchurOracle:
    def test_known_values(self):
        # s_(1)(x1,x2) = x1 + x2
        assert schur_rectangular(2, 1, 1) == Poly.x(3, 1) + Poly.x(3, 2)
        # s_(1,1)(x1,x2) = x1*x2
        assert schur_rectangular(2, 2, 1) == Poly.x(3, 1) * Poly.x(3, 2)
        # s_(2)(x1,x2) = x1^2 + x1 x2 + x2^2
        expect = Poly(3, {(2, 0, 0): 1, (1, 1, 0): 1, (0, 2, 0): 1})
        assert schur_rectangular(2, 1, 2) == expect
        assert schur_rectangular(3, 0, 2) == Poly.one(4)
        assert not schur_rectangular(2, 3, 1)

    def test_dimension_count(self):
        # number of SSYT of the 2x2 rectangle with entries in [3] is 6
        val = schur_rectangular(3, 2, 2)
        assert sum(val.terms.values()) == 6
