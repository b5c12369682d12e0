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

from .poly import Monomial, Poly
from .ratfunc import RationalFunction


class NonIsolatedFixedPointError(ValueError):
    """A trivial tangent weight means the fixed locus is not isolated."""


class Character:
    """Finite multiset of monomial weights with integer multiplicities."""

    __slots__ = ("weights",)

    def __init__(self, weights=None):
        clean = {}
        if weights:
            for w, m in weights.items():
                if m:
                    clean[w] = m
        self.weights = clean

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def from_monomials(cls, monos):
        out = {}
        for w in monos:
            out[w] = out.get(w, 0) + 1
        return cls(out)

    @classmethod
    def line(cls, mono):
        return cls({mono: 1})

    def items(self):
        return self.weights.items()

    def rank(self):
        return sum(self.weights.values())

    def is_genuine(self):
        return all(m >= 0 for m in self.weights.values())

    def monomial_list(self):
        if not self.is_genuine():
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
        return Character(out)

    def __neg__(self):
        return Character({w: -m for w, m in self.weights.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Tensor product of (virtual) characters."""
        out = {}
        for w1, m1 in self.weights.items():
            for w2, m2 in other.weights.items():
                w = w1.mul(w2)
                nm = out.get(w, 0) + m1 * m2
                if nm:
                    out[w] = nm
                else:
                    del out[w]
        return Character(out)

    def twist(self, mono):
        if mono.is_trivial():
            # identity twist; also keeps rank-0 characters (whose trivial
            # monomial carries no variable slots) out of arity checks
            return self
        return Character({w.mul(mono): m for w, m in self.weights.items()})

    def dual(self):
        return Character({w.inverse(): m for w, m in self.weights.items()})

    def det(self):
        """Top weight of a genuine character, as a Monomial."""
        monos = self.monomial_list()
        if not monos:
            raise ValueError("determinant of the zero character")
        out = monos[0]
        for w in monos[1:]:
            out = out.mul(w)
        return out

    def exterior_power(self, j):
        """Elementary symmetric expansion over the weight multiset."""
        if j < 0:
            raise ValueError("negative exterior power")
        monos = self.monomial_list()
        n_x = len(monos[0].x_exps) if monos else 0
        # dp over e_0..e_j, adding one weight at a time
        levels = [Character({Monomial.one(n_x): 1})] + [Character.zero()] * j
        for w in monos:
            for t in range(j, 0, -1):
                levels[t] = levels[t] + levels[t - 1].twist(w)
        return levels[j]

    def all_exterior_powers(self):
        monos = self.monomial_list()
        n_x = len(monos[0].x_exps) if monos else 0
        r = len(monos)
        levels = [Character({Monomial.one(n_x): 1})] + [Character.zero()] * r
        for w in monos:
            for t in range(r, 0, -1):
                levels[t] = levels[t] + levels[t - 1].twist(w)
        return levels

    def as_poly(self, nvars):
        return Poly(nvars, {w.exps(): m for w, m in self.weights.items()})

    def __eq__(self, other):
        if not isinstance(other, Character):
            return NotImplemented
        return self.weights == other.weights

    def __hash__(self):
        return hash(frozenset(self.weights.items()))

    def __str__(self):
        if not self.weights:
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


def fixed_points(n, k):
    if k < 0 or k > n:
        return []
    return list(combinations(range(1, n + 1), k))


def tangent_gr(n, S):
    """Tangent weights of Gr(k,n) at S: x_j/x_i for i in S, j outside."""
    Sset = set(S)
    monos = []
    for i in S:
        for j in range(1, n + 1):
            if j not in Sset:
                monos.append(weight_monomial(n, (j,), (i,)))
    return Character.from_monomials(monos)


def hom_fiber(n, S):
    """Weights of Hom(C^n, tau) at S, scaled by q^2."""
    monos = []
    for i in S:
        for j in range(1, n + 1):
            monos.append(weight_monomial(n, (i,), (j,), 2))
    return Character.from_monomials(monos)


def euler_class_rf(char, nvars, invert=False):
    """prod (1 - w^{-1})^m over the (virtual) character, as a fraction.

    Positive multiplicities land in the numerator and negative ones in the
    factored denominator; invert=True swaps the roles, which is the cheap
    way to divide by the Euler class of a large genuine character.
    """
    num = Poly.one(nvars)
    den = []
    for w, m in char.items():
        if m == 0:
            continue
        if w.is_trivial():
            raise NonIsolatedFixedPointError(
                "trivial weight of multiplicity %d in an Euler class" % m
            )
        p = Poly.one(nvars) - w.inverse().to_poly()
        e = -m if invert else m
        if e > 0:
            num = num * p**e
        else:
            den.append((p, -e))
    return RationalFunction(nvars, num, tuple(den))


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
