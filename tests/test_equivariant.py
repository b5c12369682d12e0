from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qglk.fm import correspondence_pairs, correspondence_tangent
from qglk.grassmann import (
    Character,
    NonIsolatedFixedPointError,
    Space,
    det_tau_restrict,
    euler_class_rf,
    fixed_points,
    hom_fiber,
    ratio_character,
    tangent_gr,
    weight_monomial,
)
from qglk.poly import Monomial, Poly
from qglk.ratfunc import RationalFunction
from rf_parser import parse


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


class ReferenceCharacter:
    """Monomial-keyed character arithmetic, one exponent tuple per weight.

    Slow but obviously right: the reference for the packed Character.
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
                w = w1.mul(w2)
                out[w] = out.get(w, 0) + m1 * m2
        return ReferenceCharacter(out)

    def twist(self, mono):
        if mono.is_trivial():
            return self
        return ReferenceCharacter({w.mul(mono): m for w, m in self.weights.items()})

    def dual(self):
        return ReferenceCharacter({w.inverse(): m for w, m in self.weights.items()})

    def det(self):
        monos = self.monomial_list()
        if not monos:
            raise ValueError("determinant of the zero character")
        out = monos[0]
        for w in monos[1:]:
            out = out.mul(w)
        return out

    def all_exterior_powers(self):
        monos = self.monomial_list()
        n_x = len(monos[0].x_exps) if monos else 0
        levels = [ReferenceCharacter({Monomial.one(n_x): 1})]
        levels += [ReferenceCharacter() for _ in monos]
        for w in monos:
            for t in range(len(monos), 0, -1):
                levels[t] = levels[t] + levels[t - 1].twist(w)
        return levels

    def exterior_power(self, j):
        levels = self.all_exterior_powers()
        return levels[j] if j < len(levels) else ReferenceCharacter()


def monomials(n_x, lo=-3, hi=3):
    return st.builds(
        Monomial, st.tuples(*([st.integers(lo, hi)] * n_x)), st.integers(lo, hi)
    )


@st.composite
def character_pairs(draw, genuine=False):
    """Two weight dicts over 1-7 x variables, and a twisting monomial."""
    n_x = draw(st.integers(1, 7))
    mults = st.integers(1, 2) if genuine else st.integers(-3, 3)
    size = 4 if genuine else 6
    a, b = (draw(st.dictionaries(monomials(n_x), mults, max_size=size)) for _ in "ab")
    return a, b, draw(monomials(n_x))


def seed_euler_class_rf(char, nvars, invert=False):
    """Euler class with each binomial 1 - w^-1 built from a Monomial and
    canonicalized by the RationalFunction constructor."""
    num = Poly.one(nvars)
    den = []
    for w, m in char.items():
        p = Poly.one(nvars) - w.inverse().to_poly()
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
        a = Character.from_monomials([w1, w1, w2])
        assert a.rank() == 3
        assert (a - Character.line(w1)).weights == {w1: 1, w2: 1}
        assert (a - a).rank() == 0
        virt = Character.line(w1) - Character.line(w2)
        assert not virt.is_genuine()
        with pytest.raises(ValueError):
            virt.monomial_list()

    def test_tensor_and_dual(self):
        w1 = weight_monomial(2, (1,))
        w2 = weight_monomial(2, (2,))
        v = Character.from_monomials([w1, w2])
        sq = v * v
        assert sq.rank() == 4
        assert sq.weights[w1.mul(w2)] == 2
        assert v.dual().weights == {w1.inverse(): 1, w2.inverse(): 1}

    def test_det_and_exterior(self):
        ws = [weight_monomial(3, (i,)) for i in (1, 2, 3)]
        v = Character.from_monomials(ws)
        assert v.det() == weight_monomial(3, (1, 2, 3))
        e2 = v.exterior_power(2)
        assert e2.rank() == 3
        assert e2.weights[weight_monomial(3, (1, 2))] == 1
        assert v.exterior_power(0).rank() == 1
        assert v.exterior_power(3) == Character.line(v.det())
        allp = v.all_exterior_powers()
        assert [c.rank() for c in allp] == [comb(3, j) for j in range(4)]


class TestPackedCharacter:
    """The packed Character against the Monomial-keyed reference."""

    @given(character_pairs())
    @settings(max_examples=150, deadline=None)
    def test_ring_operations_and_twists(self, case):
        a, b, mono = case
        A, B = Character(a), Character(b)
        RA, RB = ReferenceCharacter(a), ReferenceCharacter(b)
        assert A.weights == {w: m for w, m in a.items() if m}
        for got, want in (
            (A + B, RA + RB),
            (A - B, RA - RB),
            (-A, -RA),
            (A * B, RA * RB),
            (A.twist(mono), RA.twist(mono)),
            (A.dual(), RA.dual()),
            (A.dual().dual(), RA),
        ):
            assert dict(got.weights) == want.weights
        assert A.rank() == sum(a.values())
        assert A.is_genuine() == all(m >= 0 for m in a.values())
        assert (A - B == Character.zero()) == (RA.weights == RB.weights)

    @given(character_pairs(genuine=True))
    @settings(max_examples=100, deadline=None)
    def test_det_and_exterior_powers(self, case):
        a, _, _ = case
        A, RA = Character(a), ReferenceCharacter(a)
        assert A.monomial_list() == RA.monomial_list()
        if a:
            assert A.det() == RA.det()
        got = A.all_exterior_powers()
        want = RA.all_exterior_powers()
        assert [dict(c.weights) for c in got] == [c.weights for c in want]
        for j in (0, 1, len(got) - 1, len(got)):
            assert dict(A.exterior_power(j).weights) == RA.exterior_power(j).weights

    def test_views_are_read_only_and_zero_has_every_arity(self):
        w = weight_monomial(2, (1,), (2,))
        c = Character.line(w)
        with pytest.raises(TypeError):
            c.weights[w] = 2
        assert c - c == Character.zero() == Character({w: 0})
        assert hash(c - c) == hash(Character.zero())
        assert Character.zero() + c == c == c + Character.zero()
        assert (c * Character.zero()).rank() == 0
        assert c.as_poly(3) == w.to_poly()
        assert Character.zero().as_poly(4) == Poly.zero(4)
        with pytest.raises(ValueError):
            c.as_poly(4)
        with pytest.raises(ValueError):
            c.twist(Monomial((1,), 0))
        with pytest.raises(ValueError):
            Character({w: 1, Monomial((1,), 0): 1})

    def test_key_built_weights_match_monomials(self):
        for n in range(1, 5):
            for k in range(n + 1):
                for S in fixed_points(n, k):
                    out = [j for j in range(1, n + 1) if j not in S]
                    assert tangent_gr(n, S) == Character.from_monomials(
                        weight_monomial(n, (j,), (i,)) for i in S for j in out
                    )
                    assert hom_fiber(n, S) == Character.from_monomials(
                        weight_monomial(n, (i,), (j,), 2) for i in S for j in range(1, n + 1)
                    )


class TestCharacterRange:
    """Out-of-range exponents raise OverflowError and never wrap."""

    def line(self, *exps):
        return Character.line(Monomial.from_exps(exps))

    def test_twist_crossing_either_end(self):
        assert self.line(LIMIT - 2, 0).twist(Monomial((1,), 0)) == self.line(LIMIT - 1, 0)
        with pytest.raises(OverflowError):
            self.line(LIMIT - 1, 0).twist(Monomial((1,), 0))
        with pytest.raises(OverflowError):
            self.line(0, -LIMIT).twist(Monomial((0,), -1))
        # a shift of 2^16 would carry into the next field with no guard bit
        for shift in (Monomial((2 * LIMIT,), 0), Monomial((0,), 1 << 16), Monomial((1 << 16,), 0)):
            with pytest.raises(OverflowError):
                self.line(5, 0).twist(shift)

    def test_dual_of_the_lowest_exponent(self):
        assert self.line(LIMIT - 1, 3).dual() == self.line(1 - LIMIT, -3)
        with pytest.raises(OverflowError):
            self.line(-LIMIT, 0).dual()
        with pytest.raises(OverflowError):
            self.line(1, -LIMIT).dual()

    def test_product_crossing_either_end(self):
        half = LIMIT // 2
        assert (self.line(-half, 1) * self.line(-half, 1)) == self.line(-LIMIT, 2)
        with pytest.raises(OverflowError):
            self.line(half, 0) * self.line(half, 0)
        with pytest.raises(OverflowError):
            self.line(0, -half) * self.line(0, -half - 1)

    def test_exterior_power_crossing(self):
        v = Character.from_monomials([Monomial((LIMIT // 2,), 0)] * 2)
        with pytest.raises(OverflowError):
            v.exterior_power(2)

    def test_key_built_q_weight(self):
        with pytest.raises(OverflowError):
            ratio_character(2, [(1, 2)], LIMIT)
        assert ratio_character(2, [(1, 2)], 1 - LIMIT).rank() == 1

    @given(
        st.integers(-LIMIT, LIMIT - 1),
        st.integers(-LIMIT, LIMIT - 1),
        st.integers(-LIMIT, LIMIT - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_near_the_edges(self, a, b, c):
        x = self.line(a, c)
        for got, exps in (
            (lambda: x.twist(Monomial((b,), 0)), (a + b, c)),
            (lambda: x * self.line(b, 0), (a + b, c)),
            (lambda: x.dual(), (-a, -c)),
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
        assert t.rank() == 2
        assert t.weights[weight_monomial(3, (2,), (1,))] == 1
        assert t.weights[weight_monomial(3, (3,), (1,))] == 1

    def test_hom_fiber_has_weight_two_scaling(self):
        f = hom_fiber(2, (1,))
        assert f.rank() == 2
        assert f.weights[weight_monomial(2, (), (), 2)] == 1  # x1/x1 * q^2
        assert f.weights[weight_monomial(2, (1,), (2,), 2)] == 1

    def test_tangent_dimensions(self):
        sp = Space(4, 2, with_fiber=True)
        for S in sp.points:
            assert sp.tangent(S).rank() == 2 * 2 + 2 * 4
        base = Space(4, 2, with_fiber=False)
        for S in base.points:
            assert base.tangent(S).rank() == 4


class TestEulerClasses:
    def test_single_weight(self):
        c = Character.line(weight_monomial(1, (1,), (), 2))  # q^2 x1
        e = euler_class_rf(c, 2)
        assert e == parse("1 - q^-2*x1^-1", 2)

    def test_invert_builds_factored_denominator(self):
        c = Character.from_monomials(
            [weight_monomial(2, (1,), (2,)), weight_monomial(2, (2,), (1,))]
        )
        inv = euler_class_rf(c, 3, invert=True)
        assert len(inv.num.keys) == 1
        assert len(inv.den_factors) >= 1
        direct = euler_class_rf(c, 3)
        assert inv * direct == RationalFunction.one(3)

    def test_virtual_character_divides(self):
        a = Character.line(weight_monomial(1, (1,)))
        b = Character.line(weight_monomial(1, (1,), (), 2))
        e = euler_class_rf(a - b, 2)
        assert e == parse("(1 - x1^-1)/(1 - q^-2*x1^-1)", 2)

    def test_trivial_weight_rejected(self):
        with pytest.raises(NonIsolatedFixedPointError):
            euler_class_rf(Character.line(Monomial((0,), 0)), 2)

    def test_binomial_of_the_lowest_exponent_overflows(self):
        for invert in (False, True):
            with pytest.raises(OverflowError):
                euler_class_rf(Character.line(Monomial((-LIMIT,), 0)), 2, invert)
            euler_class_rf(Character.line(Monomial((1 - LIMIT,), 0)), 2, invert)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_binomials_are_born_canonical(self, n):
        """Field by field equal to the Euler class built from Monomials,
        for every tangent character and correspondence character at n."""
        nvars = n + 1
        chars = [
            Space(n, k, fiber).tangent(S)
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
                got = euler_class_rf(char, nvars, invert)
                want = seed_euler_class_rf(char, nvars, invert)
                assert got.nvars == want.nvars
                assert got.num == want.num
                assert got.den_scalar == want.den_scalar
                assert got.den_factors == want.den_factors
                for f, _ in got.den_factors:
                    assert f.extract_unit()[0] is f
                    fresh = Poly(nvars, f.terms)
                    assert (f._box, f._ends_cache) == (fresh._box_keys(), fresh._ends())


class TestPushforwards:
    def test_p1_structure_sheaf(self):
        # chi(P^1, O) = 1
        sp = Space(2, 1, with_fiber=False)
        assert sp.pushforward_det_tau_power(0) == RationalFunction.one(3)

    def test_p1_tautological(self):
        # chi(P^1, O(-1)) = 0
        sp = Space(2, 1, with_fiber=False)
        assert sp.pushforward_det_tau_power(1).is_zero()

    def test_p1_canonical(self):
        # chi(P^1, O(-2)) = -x1*x2 by Serre duality
        sp = Space(2, 1, with_fiber=False)
        expected = -RationalFunction.x(3, 1) * RationalFunction.x(3, 2)
        assert sp.pushforward_det_tau_power(2) == expected

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 2), (6, 3)])
    def test_structure_sheaf_all_grassmannians(self, n, k):
        sp = Space(n, k, with_fiber=False)
        assert sp.pushforward_det_tau_power(0) == RationalFunction.one(n + 1)

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
        assert det_tau_restrict(3, (1, 3), 2) == Monomial((2, 0, 2), 0)
        assert det_tau_restrict(3, (), 5) == Monomial((0, 0, 0), 0)


class TestSchurOracle:
    def test_known_values(self):
        # s_(1)(x1,x2) = x1 + x2
        assert schur_rectangular(2, 1, 1) == Poly.x(3, 1) + Poly.x(3, 2)
        # s_(1,1)(x1,x2) = x1*x2
        assert schur_rectangular(2, 2, 1) == Poly.x(3, 1) * Poly.x(3, 2)
        # s_(2)(x1,x2) = x1^2 + x1 x2 + x2^2
        expect = Poly(3, {(2, 0, 0): 1, (1, 1, 0): 1, (0, 2, 0): 1})
        assert schur_rectangular(2, 1, 2) == expect
        assert schur_rectangular(3, 0, 2).is_one()
        assert schur_rectangular(2, 3, 1).is_zero()

    def test_dimension_count(self):
        # number of SSYT of the 2x2 rectangle with entries in [3] is 6
        val = schur_rectangular(3, 2, 2)
        assert sum(val.terms.values()) == 6
