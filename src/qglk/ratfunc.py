"""Exact rational functions in x_1, ..., x_N and q over the integers.

A denominator is a multiset of canonical binomial factors X^a - X^b
(floor zero, leading coefficient 1).  That is the contract: every factor
handed to a RationalFunction must be +-X^s, which is absorbed into the
numerator, or +-X^s (X^a - X^b); any other factor, an integer other than
+-1 included, raises ValueError.  _canonical_factor alone applies this
rule.  It holds because qglk only ever divides by K-theoretic Euler
factors 1 - w^-1 of torus weights (qglk.grassmann) and by the commutator
scalar 1 - q^(2n) (qglk.fm).  Cancellation runs factor by factor through
exact division by canonical factors, so no multivariate gcd is ever
needed.  It removes whole canonical factors only, so a fraction need not
print in lowest terms: (1 - x1 q) / (1 - x1^2 q^2) keeps its factor.

Units skip that cancellation.  A one-term numerator c * X^e is a unit
times an integer, which no canonical factor (two terms) divides
(Ostrowski).  Negation and multiplication by c or by c * X^e keep the
reduced denominator: X^e is a unit, and a canonical factor that divides
c * num already divides num (it is primitive: Gauss's lemma), so trial
divisions would fail.
"""

from fractions import Fraction

from .poly import Poly, _layout, _unpack


class PoleError(ZeroDivisionError):
    """Raised when a rational function is evaluated at a denominator zero."""


class RationalFunction:
    __slots__ = ("nvars", "num", "den_factors")

    def __init__(self, nvars, num, den_factors=()):
        if not isinstance(num, Poly) or num.nvars != nvars:
            raise ValueError("numerator must be a Poly in the same variables")
        merged = {}
        for f, m in den_factors:
            if m == 0:
                continue
            if m < 0:
                raise ValueError("denominator multiplicities must be positive")
            if f.is_zero():
                raise ZeroDivisionError("zero denominator factor")
            canon, shift, sign = _canonical_factor(f)
            if sign < 0 and m % 2:
                num = -num
            if any(shift):
                num = num.shift_exps(tuple(-s * m for s in shift))
            if len(canon.keys) == 2:
                merged[canon] = merged.get(canon, 0) + m

        if num.is_zero():
            merged = {}

        # no binomial divides a monomial
        order = sorted(merged, key=term_sort_key)
        for f in order if len(num.keys) > 1 else ():
            m = merged[f]
            while m > 0:
                quo = num.exact_div(f)
                if quo is None:
                    break
                num = quo
                m -= 1
            merged[f] = m

        self.nvars = nvars
        self.num = num
        self.den_factors = tuple((f, merged[f]) for f in order if merged[f])

    # -- constructors ----------------------------------------------------

    @classmethod
    def _reduced(cls, nvars, num, den_factors):
        """Wrap parts that are already in canonical form, skipping __init__."""
        out = object.__new__(cls)
        out.nvars = nvars
        out.num = num
        out.den_factors = den_factors
        return out

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, Poly.zero(nvars))

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, Poly.const(nvars, c))

    @classmethod
    def from_poly(cls, p):
        return cls(p.nvars, p)

    @classmethod
    def q(cls, nvars, e=1):
        return cls(nvars, Poly.q(nvars, e))

    # -- structure -------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def is_polynomial(self):
        return not self.den_factors

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, RationalFunction):
            raise TypeError("expected a RationalFunction")
        if other.nvars != self.nvars:
            raise ValueError("variable-count mismatch")

    def __add__(self, other):
        if isinstance(other, int):
            other = RationalFunction.const(self.nvars, other)
        self._check(other)
        return RationalFunction.sum(self.nvars, (self, other))

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._reduced(self.nvars, -self.num, self.den_factors)

    def __sub__(self, other):
        if isinstance(other, int):
            other = RationalFunction.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _times_unit(self, c, d=0):
        """self * c * X^s for an integer c != 0 and d the key offset of X^s
        (see Poly._translate); the reduced denominator stays."""
        return RationalFunction._reduced(self.nvars, self.num._translate(d, c), self.den_factors)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0 or self.num.is_zero():
                return RationalFunction.zero(self.nvars)
            return self._times_unit(other)
        if isinstance(other, Poly):
            other = RationalFunction.from_poly(other)
        self._check(other)
        for a, b in ((self, other), (other, self)):
            if b.is_polynomial() and len(b.num.keys) == 1:
                ((k, c),) = b.num.keys.items()
                return a._times_unit(c, k - _layout(self.nvars).zero)
        return RationalFunction(
            self.nvars, self.num * other.num, self.den_factors + other.den_factors
        )

    __rmul__ = __mul__

    def inv(self):
        """1 / self.  The numerator becomes the one denominator factor, so
        it must be +-X^s or +-X^s (X^a - X^b)."""
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero")
        num = Poly.one(self.nvars)
        for f, m in self.den_factors:
            num = num * f**m
        return RationalFunction(self.nvars, num, ((self.num, 1),))

    @classmethod
    def sum(cls, nvars, items):
        """Sum of RationalFunctions over their one shared denominator."""
        parts, den_factors = common_denominator(nvars, items)
        return cls(nvars, Poly.signed_sum(nvars, ((1, p) for p in parts)), den_factors)

    def permute(self, perm, factors=None):
        """self with each x_i replaced by x_perm[i-1] (see Poly.permute).

        A permuted canonical factor keeps floor zero, but its leading
        term, and so its sign, can change: _canonical_factor
        re-canonicalizes it, and an odd multiplicity of a flipped factor
        negates the numerator.  No factor divides the numerator, and an
        automorphism keeps it so: nothing is divided.  ``factors``, a
        dict of factors already permuted by this same perm, lets fractions
        share that work."""
        memo = {} if factors is None else factors
        num = self.num.permute(perm)
        den = []
        for f, m in self.den_factors:
            hit = memo.get(f)
            if hit is None:
                canon, _, sign = _canonical_factor(f.permute(perm))
                hit = memo[f] = canon, sign
            if hit[1] < 0 and m % 2:
                num = -num
            den.append((hit[0], m))
        den.sort(key=lambda fm: term_sort_key(fm[0]))
        return RationalFunction._reduced(self.nvars, num, tuple(den))

    # -- comparison and evaluation ---------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = RationalFunction.const(self.nvars, other)
        elif isinstance(other, Poly):
            other = RationalFunction.from_poly(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if self.nvars != other.nvars:
            return False
        if self.den_factors == other.den_factors:
            return self.num == other.num
        return (self - other).is_zero()

    def evaluate(self, point, factor_values=None):
        """Exact value at a rational point.  ``factor_values``, a dict of factor
        values at this same point, lets fractions evaluate shared factors once."""
        values = {} if factor_values is None else factor_values
        den = Fraction(1)
        for f, m in self.den_factors:
            v = values.get(f)
            if v is None:
                v = values[f] = f.evaluate(point)
            if v == 0:
                raise PoleError("denominator vanishes at the sample point")
            den *= v**m
        return self.num.evaluate(point) / den

    def __str__(self):
        num = str(self.num)
        if not self.den_factors:
            return num
        dparts = [f"({f})" if m == 1 else f"({f})^{m}" for f, m in self.den_factors]
        if len(self.num.keys) > 1:
            num = f"({num})"
        den = "*".join(dparts)
        if len(dparts) > 1:
            den = f"({den})"
        return f"{num} / {den}"

    def __repr__(self):
        return f"RationalFunction({self})"


def _canonical_factor(f):
    """Write a nonzero denominator factor as f = sign * X^shift * canon.

    The one place that fixes a factor's sign and floor.  A unit +-X^s
    gives canon = 1.  A binomial +-X^s (X^a - X^b), s the exponent floor,
    gives the canonical binomial canon = X^(a-s) - X^(b-s): floor zero,
    leading coefficient 1.  Returns (canon, shift, sign) with shift an
    exponent tuple; any other factor, a coefficient other than +-1
    included, raises ValueError.  A canonical factor is returned as it is.
    """
    keys, lay = f.keys, _layout(f.nvars)
    lead, trail = f._ends()
    c = keys[lead]
    if c not in (1, -1) or not (lead == trail or len(keys) == 2 and keys[trail] == -c):
        raise ValueError(f"denominator factor {f} is not +-X^s or +-X^s (X^a - X^b)")
    floor = f._box_keys()[0]
    if c == 1 and floor == lay.zero:
        return f, (0,) * f.nvars, 1
    return f._translate(lay.zero - floor, c), _unpack(lay, floor), c


def common_denominator(nvars, items):
    """(parts, den_factors): the sequence of RationalFunctions ``items``
    raised to their least common denominator, parts[i] the numerator of
    items[i] over it.  Each numerator is multiplied by each missing factor
    power."""
    common = {}
    for it in items:
        if it.nvars != nvars:
            raise ValueError("variable-count mismatch")
        for f, m in it.den_factors:
            if common.get(f, 0) < m:
                common[f] = m
    parts = []
    for it in items:
        part = it.num
        have = dict(it.den_factors)
        for f, m in common.items():
            deficit = m - have.get(f, 0)
            if deficit:
                part = part * f**deficit
        parts.append(part)
    return parts, tuple(common.items())


def term_sort_key(p):
    """Deterministic order on canonical polynomials, for stable factor tuples."""
    return tuple(sorted(p.keys.items()))
