"""Sparse Laurent polynomials with integer coefficients.

The variables are x_1, ..., x_N and q, in that fixed global order.  A term
exponent is a tuple of N+1 integers with the q exponent in the last slot;
exponents may be negative.  ``nvars`` always counts q, so a polynomial in
x_1, x_2, q has ``nvars == 3``.

Values are immutable once constructed and every operation returns a fresh
value, so instances can be shared freely.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from operator import add, mul, sub
from typing import NamedTuple


def term_key(exps):
    """Total-degree-then-lexicographic sort key for an exponent tuple."""
    return (sum(exps), exps)


def _term_divides(e, c, de, dc, off):
    """Whether the term dc * X^de divides c * X^e with quotient exponent >= off."""
    return not c % dc and all(a - b >= o for a, b, o in zip(e, de, off))


class Monomial(NamedTuple):
    """A single Laurent monomial: x_1^a_1 ... x_N^a_N q^b."""

    x_exps: tuple
    q_exp: int

    @classmethod
    def from_exps(cls, exps):
        return cls(tuple(exps[:-1]), exps[-1])

    @classmethod
    def one(cls, n_x):
        return cls((0,) * n_x, 0)

    def exps(self):
        return self.x_exps + (self.q_exp,)

    def mul(self, other):
        if len(other.x_exps) != len(self.x_exps):
            raise ValueError("variable-count mismatch")
        return Monomial(
            tuple(a + b for a, b in zip(self.x_exps, other.x_exps)),
            self.q_exp + other.q_exp,
        )

    def inverse(self):
        return Monomial(tuple(-a for a in self.x_exps), -self.q_exp)

    def power(self, m):
        return Monomial(tuple(a * m for a in self.x_exps), self.q_exp * m)

    def is_trivial(self):
        return self.q_exp == 0 and not any(self.x_exps)

    def to_poly(self, coeff=1):
        return Poly(len(self.x_exps) + 1, {self.exps(): coeff})


class Poly:
    """Sparse Laurent polynomial over the integers."""

    # _floor and _ends_cache hold exponent_floor() and _ends() once computed
    __slots__ = ("nvars", "terms", "_hash", "_floor", "_ends_cache")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff:
                    if len(exps) != nvars:
                        raise ValueError("exponent tuple has wrong length")
                    clean[tuple(exps)] = coeff
        self.terms = clean
        self._hash = None
        self._floor = None
        self._ends_cache = None

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def one(cls, nvars):
        return cls.const(nvars, 1)

    @classmethod
    def x(cls, nvars, i):
        """The variable x_i (1-based); valid for 1 <= i <= nvars - 1."""
        if not 1 <= i <= nvars - 1:
            raise ValueError("x index out of range")
        exps = [0] * nvars
        exps[i - 1] = 1
        return cls(nvars, {tuple(exps): 1})

    @classmethod
    def q(cls, nvars, e=1):
        exps = [0] * nvars
        exps[-1] = e
        return cls(nvars, {tuple(exps): 1})

    @classmethod
    def monomial(cls, nvars, exps, coeff=1):
        return cls(nvars, {tuple(exps): coeff})

    def _check(self, other):
        if not isinstance(other, Poly):
            raise TypeError("expected a Poly")
        if other.nvars != self.nvars:
            raise ValueError("variable-count mismatch")

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {(0,) * self.nvars: 1}

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def is_monomial(self):
        return len(self.terms) == 1

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            nc = terms.get(e, 0) + c
            if nc:
                terms[e] = nc
            else:
                terms.pop(e, None)
        return Poly(self.nvars, terms)

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Poly(self.nvars, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        if len(self.terms) > len(other.terms):
            big, small = self.terms, other.terms
        else:
            big, small = other.terms, self.terms
        n = self.nvars
        out = {}
        for e1, c1 in small.items():
            for e2, c2 in big.items():
                e = tuple(map(add, e1, e2))
                nc = out.get(e, 0) + c1 * c2
                if nc:
                    out[e] = nc
                else:
                    del out[e]
        return Poly(n, out)

    __rmul__ = __mul__

    def __pow__(self, m):
        if m < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.one(self.nvars)
        base = self
        while m:
            if m & 1:
                out = out * base
            base = base * base
            m >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    def _ends(self):
        """(leading, trailing) exponents in the term order."""
        if self._ends_cache is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading term")
            self._ends_cache = (
                max(self.terms, key=term_key),
                min(self.terms, key=term_key),
            )
        return self._ends_cache

    def leading_exps(self):
        return self._ends()[0]

    def leading_coeff(self):
        return self.terms[self.leading_exps()]

    def content(self):
        """gcd of the absolute values of all coefficients (0 for the zero poly)."""
        g = 0
        for c in self.terms.values():
            g = gcd(g, abs(c))
            if g == 1:
                return 1
        return g

    def exponent_floor(self):
        """Componentwise minimum exponent over all terms."""
        if self._floor is None:
            if not self.terms:
                raise ValueError("zero polynomial")
            self._floor = tuple(map(min, zip(*self.terms)))
        return self._floor

    def shift_exps(self, shift):
        n = self.nvars
        return Poly(
            n, {tuple(e[i] + shift[i] for i in range(n)): c for e, c in self.terms.items()}
        )

    def extract_unit(self):
        """Write self = sign * content * X^shift * canonical.

        ``canonical`` is primitive, has exponent floor zero in every variable
        and a positive leading coefficient.  Returns
        (canonical, shift, sign, content); self must be nonzero.
        """
        shift = self.exponent_floor()
        g = self.content()
        sign = 1 if self.leading_coeff() > 0 else -1
        if g == 1 and sign > 0 and not any(shift):
            return self, shift, 1, 1
        n = self.nvars
        canonical = Poly(
            n,
            {
                tuple(e[i] - shift[i] for i in range(n)): c // (sign * g)
                for e, c in self.terms.items()
            },
        )
        return canonical, shift, sign, g

    def exact_div(self, other):
        """Exact quotient self / other, or None when it does not divide.

        Division is taken in the Laurent ring, so monomial factors never
        obstruct divisibility.

        This is sparse heap division (Johnson 1974; Monagan and Pearce,
        CASC 2007).  Exponents are packed into single integers whose
        order is the term order, so a monomial product is one integer
        addition, and the leading term of the remainder is taken from a
        heap with cancelled terms deleted lazily.

        Two cheap rejects come first.  The term order is compatible with
        multiplication, so the leading and trailing terms of h * other
        are the products of those of h and other; floors add because the
        integers have no zero divisors, so every term of h lies at or
        above ``floor(self) - floor(other)``.  Hence if self = h * other,
        the leading (and trailing) term of other divides that of self
        with a quotient exponent at or above that offset.  Both tests are
        only necessary: a pair that passes them may still fail below.
        """
        self._check(other)
        if not other.terms:
            raise ZeroDivisionError("polynomial division by zero")
        if not self.terms:
            return Poly.zero(self.nvars)
        n = self.nvars
        floor_s = self.exponent_floor()
        floor_o = other.exponent_floor()
        off = tuple(map(sub, floor_s, floor_o))
        lead, trail = self._ends()
        dlead, dtrail = other._ends()
        dlc = other.terms[dlead]
        if not (
            _term_divides(lead, self.terms[lead], dlead, dlc, off)
            and _term_divides(trail, self.terms[trail], dtrail, other.terms[dtrail], off)
        ):
            return None

        # Packed key of e relative to a floor f: the total degree of e - f
        # in the top field, then each coordinate of e - f, most significant
        # first.  Every remainder term t satisfies floor_s <= t with total
        # degree at most that of lead, so each field lies in [0, span] and
        # one spare top bit per field catches a negative quotient
        # coordinate as a borrow.
        span = sum(lead) - sum(floor_s)
        bits = span.bit_length() + 1
        weights = [(1 << (bits * n)) + (1 << (bits * (n - 1 - i))) for i in range(n)]
        guard = sum(1 << (bits * i + bits - 1) for i in range(n + 1))
        base_s = sum(map(mul, floor_s, weights))
        base_o = sum(map(mul, floor_o, weights))
        rem = {sum(map(mul, e, weights)) - base_s: c for e, c in self.terms.items()}
        dkey = sum(map(mul, dlead, weights)) - base_o
        den = [
            (sum(map(mul, e, weights)) - base_o, c)
            for e, c in other.terms.items()
            if e != dlead
        ]
        heap = [-k for k in rem]
        heapify(heap)
        quo = []
        while heap:
            k = -heappop(heap)
            c = rem.pop(k, 0)
            if not c:
                continue
            qk = k - dkey
            if qk & guard or c % dlc:
                return None
            qc = c // dlc
            quo.append((qk, qc))
            for e, dc in den:
                t = qk + e
                old = rem.get(t)
                if old is None:
                    rem[t] = -qc * dc
                    heappush(heap, -t)
                elif old == qc * dc:
                    del rem[t]
                else:
                    rem[t] = old - qc * dc

        mask = (1 << bits) - 1
        shifts = [bits * (n - 1 - i) for i in range(n)]
        return Poly(
            n,
            {
                tuple([((k >> s) & mask) + o for s, o in zip(shifts, off)]): c
                for k, c in quo
            },
        )

    def evaluate(self, point):
        """Evaluate at a tuple of Fractions ordered (x_1, ..., x_N, q)."""
        if len(point) != self.nvars:
            raise ValueError("point has wrong length")
        total = Fraction(0)
        for e, c in self.terms.items():
            v = Fraction(c)
            for base, exp in zip(point, e):
                if exp:
                    v *= Fraction(base) ** exp
            total += v
        return total

    def var_name(self, i):
        return "q" if i == self.nvars - 1 else f"x{i + 1}"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=term_key, reverse=True):
            c = self.terms[e]
            factors = []
            for i, exp in enumerate(e):
                if exp == 0:
                    continue
                name = self.var_name(i)
                factors.append(name if exp == 1 else f"{name}^{exp}")
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self):
        return f"Poly({self})"
