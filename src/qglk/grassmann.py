"""Torus-fixed-point data on Grassmannians and their Hom-bundle total spaces.

Everything is indexed by k-subsets S of {1..n}: the coordinate subspace
spanned by the chosen basis lines is the fixed point.  Weights are Laurent
monomials in x_1..x_n and q; a Character is a finite multiset of weights
with integer (possibly negative, i.e. virtual) multiplicities.

The ambient torus acts with weight x_i on the i-th line.  The total space
adds the fiber Hom(C^n, tau) whose scaling circle acts with weight 2, so
fiber weights carry q^2.  Pushforwards to a point follow the fixed-point
localization rule: sum restrictions divided by tangent Euler classes
prod(1 - w^{-1}).
"""

from itertools import combinations
from operator import mul
from types import MappingProxyType

from .poly import _BIAS, Monomial, Poly, _check_fields, _layout, _unpack
from .ratfunc import RationalFunction


class NonIsolatedFixedPointError(ValueError):
    """A trivial tangent weight means the fixed locus is not isolated."""


class Character:
    """Finite multiset of monomial weights with integer multiplicities.

    A thin view over a :class:`Poly`: the packed key of each weight maps
    to its multiplicity.  Sums, differences and tensor products are Poly's
    key arithmetic, a twist adds one integer to every key and the dual
    reflects each key about ``2 * zero``, all with Poly's range checks.
    Monomials appear only at the boundary: the constructors, ``weights``,
    ``monomial_list`` and ``det``.  A character built from no weights has
    no variables and is the zero of every arity.
    """

    __slots__ = ("poly",)

    def __init__(self, weights=None):
        terms = {w.exps(): m for w, m in weights.items()} if weights else {}
        self.poly = Poly(len(next(iter(terms), ())), terms)

    @classmethod
    def _of(cls, poly):
        out = object.__new__(cls)
        out.poly = poly
        return out

    @classmethod
    def zero(cls):
        return cls._of(Poly.zero(0))

    @classmethod
    def from_monomials(cls, monos):
        out = {}
        for w in monos:
            out[w] = out.get(w, 0) + 1
        return cls(out)

    @classmethod
    def line(cls, mono):
        return cls._of(mono.to_poly())

    @property
    def nvars(self):
        return self.poly.nvars

    @property
    def weights(self):
        """Read-only {Monomial: multiplicity} view, built on access."""
        return MappingProxyType(
            {Monomial.from_exps(e): m for e, m in self.poly.terms.items()}
        )

    def items(self):
        return self.weights.items()

    def __bool__(self):
        return bool(self.poly.keys)

    def rank(self):
        return sum(self.poly.keys.values())

    def is_genuine(self):
        return all(m >= 0 for m in self.poly.keys.values())

    def _key_list(self):
        if not self.is_genuine():
            raise ValueError("virtual character has no weight list")
        return [k for k, m in self.poly.keys.items() for _ in range(m)]

    def monomial_list(self):
        lay = _layout(self.poly.nvars)
        return sorted(Monomial.from_exps(_unpack(lay, k)) for k in self._key_list())

    def __add__(self, other):
        if not other.poly.keys:
            return self
        if not self.poly.keys:
            return other
        return Character._of(self.poly + other.poly)

    def __neg__(self):
        return Character._of(-self.poly)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Tensor product of (virtual) characters."""
        if not self.poly.keys or not other.poly.keys:
            return Character.zero()
        return Character._of(self.poly * other.poly)

    def twist(self, mono):
        if mono.is_trivial() or not self.poly.keys:
            # identity twist; also keeps rank-0 characters (whose trivial
            # weight carries no x variables) out of arity checks
            return self
        return Character._of(self.poly.shift_exps(mono.exps()))

    def dual(self):
        """Each key k becomes 2 * zero - k; a field -e + 2^14 that reaches
        2^15 (e = -2^14) shows its guard bit."""
        p = self.poly
        lay = _layout(p.nvars)
        keys = {2 * lay.zero - k: m for k, m in p.keys.items()}
        _check_fields(lay, keys)
        return Character._of(Poly._raw(p.nvars, keys))

    def det(self):
        """Top weight of a genuine character, as a Monomial."""
        monos = self.monomial_list()
        if not monos:
            raise ValueError("determinant of the zero character")
        out = monos[0]
        for w in monos[1:]:
            out = out.mul(w)
        return out

    def _exterior_levels(self, j):
        """Lambda^0 .. Lambda^j by the elementary symmetric recursion, one
        key offset per weight."""
        keys = self._key_list()
        nvars = self.poly.nvars or 1
        zero = _layout(nvars).zero
        levels = [Poly.one(nvars)] + [Poly.zero(nvars)] * j
        for i, k in enumerate(keys):
            d = k - zero
            for t in range(min(j, i + 1), 0, -1):
                levels[t] = levels[t] + levels[t - 1]._translate(d)
        return [Character._of(p) for p in levels]

    def exterior_power(self, j):
        """Elementary symmetric expansion over the weight multiset."""
        if j < 0:
            raise ValueError("negative exterior power")
        return self._exterior_levels(j)[j]

    def all_exterior_powers(self):
        return self._exterior_levels(self.rank())

    def as_poly(self, nvars):
        if not self.poly.keys:
            return Poly.zero(nvars)
        if nvars != self.poly.nvars:
            raise ValueError("variable-count mismatch")
        return self.poly

    def __eq__(self, other):
        if not isinstance(other, Character):
            return NotImplemented
        a, b = self.poly, other.poly
        return a.keys == b.keys and (not a.keys or a.nvars == b.nvars)

    def __hash__(self):
        return hash(frozenset(self.poly.keys.items()))

    def __str__(self):
        if not self.poly.keys:
            return "0"
        parts = []
        for w, m in sorted(self.weights.items()):
            body = str(w.to_poly())
            parts.append(body if m == 1 else f"{m}*{body}")
        return " + ".join(parts)


def weight_monomial(n, num=(), den=(), q_exp=0):
    """Monomial q^q_exp * prod x_i (i in num) / prod x_j (j in den)."""
    exps = [0] * n
    for i in num:
        exps[i - 1] += 1
    for j in den:
        exps[j - 1] -= 1
    return Monomial(tuple(exps), q_exp)


def ratio_character(n, pairs, q_exp=0):
    """Character with one weight x_i / x_j * q^q_exp per pair (i, j),
    packed straight into keys."""
    if not -_BIAS <= q_exp < _BIAS:
        raise OverflowError("exponent outside [-2^14, 2^14)")
    lay = _layout(n + 1)
    w = lay.weights
    base = lay.zero + q_exp * w[n]
    keys = {}
    for i, j in pairs:
        k = base + w[i - 1] - w[j - 1]
        keys[k] = keys.get(k, 0) + 1
    return Character._of(Poly._raw(n + 1, keys))


def fixed_points(n, k):
    if k < 0 or k > n:
        return []
    return list(combinations(range(1, n + 1), k))


def tangent_gr(n, S):
    """Tangent weights of Gr(k,n) at S: x_j/x_i for i in S, j outside."""
    Sset = set(S)
    return ratio_character(n, [(j, i) for i in S for j in range(1, n + 1) if j not in Sset])


def hom_fiber(n, S):
    """Weights of Hom(C^n, tau) at S, scaled by q^2."""
    return ratio_character(n, [(i, j) for i in S for j in range(1, n + 1)], 2)


def euler_class_rf(char, nvars, invert=False):
    """prod (1 - w^{-1})^m over the (virtual) character, as a fraction.

    Positive multiplicities land in the numerator and negative ones in the
    factored denominator; invert=True swaps the roles, which is the cheap
    way to divide by the Euler class of a large genuine character.

    Each binomial is built canonical from the weight's key: with w = X^e
    and e = e+ - e- split into its positive and negative parts,
    1 - X^-e = X^-e+ (X^e+ - X^e-), and X^e+ - X^e- is primitive with
    floor zero; its sign is fixed so the leading term is positive.  The
    units X^-e+ and the signs collect into the numerator.
    """
    if char and char.nvars != nvars:
        raise ValueError("variable-count mismatch")
    lay = _layout(nvars)
    zero = lay.zero
    num = Poly.one(nvars)
    den = []
    shift = [0] * nvars
    sign = 1
    for k, m in char.poly.keys.items():
        if k == zero:
            raise NonIsolatedFixedPointError(
                "trivial weight of multiplicity %d in an Euler class" % m
            )
        power = -m if invert else m
        pos = [max(a, 0) for a in _unpack(lay, k)]
        hi = zero + sum(map(mul, pos, lay.weights))
        lo = hi - k + zero
        # a field of X^e- holds -a for a negative exponent a: -2^14 overflows
        _check_fields(lay, (lo,))
        if hi < lo:
            hi, lo = lo, hi
            if power % 2:
                sign = -sign
        # hi and lo share no variable, so hi + lo - zero keys the ceiling
        canon = Poly._raw(nvars, {hi: 1, lo: -1}, (zero, hi + lo - zero), (hi, lo))
        shift = [s - a * power for s, a in zip(shift, pos)]
        if power > 0:
            num = num * canon**power
        else:
            den.append((canon, -power))
    num = num.shift_exps(shift)
    return RationalFunction(nvars, num if sign > 0 else -num, tuple(den))


def det_tau_restrict(n, S, m=1):
    """Restriction of (det tau)^m to the fixed point S."""
    Sset = set(S)
    return Monomial(tuple((m if i + 1 in Sset else 0) for i in range(n)), 0)


class Space:
    """Fixed-point model of Gr(k,n), optionally with the scaled Hom fiber."""

    __slots__ = ("n", "k", "with_fiber", "points", "_inv_euler")

    def __init__(self, n, k, with_fiber=True):
        self.n = n
        self.k = k
        self.with_fiber = with_fiber
        self.points = fixed_points(n, k)
        self._inv_euler = {}

    @property
    def weight(self):
        return self.n - 2 * self.k

    @property
    def nvars(self):
        return self.n + 1

    def tangent(self, S):
        t = tangent_gr(self.n, S)
        if self.with_fiber:
            t = t + hom_fiber(self.n, S)
        return t

    def inv_euler(self, S):
        if S not in self._inv_euler:
            self._inv_euler[S] = euler_class_rf(self.tangent(S), self.nvars, invert=True)
        return self._inv_euler[S]

    def pushforward(self, values):
        """Localized pushforward to the point: sum of value/euler over S."""
        items = []
        for S in self.points:
            v = values[S] if isinstance(values, dict) else values(S)
            if not isinstance(v, RationalFunction):
                v = RationalFunction.from_poly(v)
            items.append(v * self.inv_euler(S))
        return RationalFunction.sum(self.nvars, items)

    def pushforward_det_tau_power(self, m):
        n = self.n
        return self.pushforward(
            lambda S: RationalFunction.from_poly(
                det_tau_restrict(n, S, m).to_poly()
            )
        )
