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
Equality is the one exact zero test: of the difference, where the
denominators differ.

Units skip that cancellation.  A one-term numerator c * X^e is a unit
times an integer, which no canonical factor (two terms) divides
(Ostrowski).  Negation and multiplication by such a unit keep the
reduced denominator: X^e is a unit, and a canonical factor that divides
c * num already divides num (it is primitive: Gauss's lemma), so trial
divisions would fail.

Arithmetic takes RationalFunction operands only; equality also compares
with an int or a Poly.  Zero is tested by truthiness.
"""

from .poly import P, Poly, _layout, _unpack


class PoleError(ZeroDivisionError):
    """Raised when a rational function is evaluated at a denominator zero,
    or reduced mod P where a denominator's residue is 0."""


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
            if not f:
                raise ZeroDivisionError("zero denominator factor")
            canon, shift, sign = _canonical_factor(f)
            if sign < 0 and m % 2:
                num = -num
            if any(shift):
                num = num.shift_exps(tuple(-s * m for s in shift))
            if len(canon.keys) == 2:
                merged[canon] = merged.get(canon, 0) + m

        if not num:
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

    def __bool__(self):
        return bool(self.num)

    def is_polynomial(self):
        return not self.den_factors

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, RationalFunction):
            raise TypeError("expected a RationalFunction")
        if other.nvars != self.nvars:
            raise ValueError("variable-count mismatch")

    def __add__(self, other):
        self._check(other)
        return RationalFunction.sum(self.nvars, (self, other))

    def __neg__(self):
        return RationalFunction._reduced(self.nvars, -self.num, self.den_factors)

    def __sub__(self, other):
        return self + (-other)

    def _times_unit(self, c, d):
        """self * c * X^s for an integer c != 0 and d the key offset of X^s
        (see Poly._translate); the reduced denominator stays."""
        return RationalFunction._reduced(self.nvars, self.num._translate(d, c), self.den_factors)

    def __mul__(self, other):
        self._check(other)
        for a, b in ((self, other), (other, self)):
            if b.is_polynomial() and len(b.num.keys) == 1:
                ((k, c),) = b.num.keys.items()
                return a._times_unit(c, k - _layout(self.nvars).zero)
        return RationalFunction(
            self.nvars, self.num * other.num, self.den_factors + other.den_factors
        )

    def inv(self):
        """1 / self.  The numerator becomes the one denominator factor, so
        it must be +-X^s or +-X^s (X^a - X^b)."""
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        num = Poly.one(self.nvars)
        for f, m in self.den_factors:
            num = num * f**m
        return RationalFunction(self.nvars, num, ((self.num, 1),))

    @classmethod
    def sum(cls, nvars, items):
        """Sum of RationalFunctions over their one shared denominator."""
        parts, den_factors = common_denominator(nvars, ((it.num, it.den_factors) for it in items))
        return cls(nvars, Poly.signed_sum(nvars, ((1, p) for p in parts)), den_factors)

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
        return not (self - other)

    def evaluate(self, point):
        """Exact value at a rational point; PoleError where a denominator
        factor vanishes there."""
        den = 1
        for f, m in self.den_factors:
            v = f.evaluate(point)
            if not v:
                raise PoleError("denominator vanishes at the sample point")
            den *= v**m
        return self.num.evaluate(point) / den

    def residue(self, at):
        """The value mod P at the point of ``at``, a qglk.poly.PointResidues:
        the numerator's residue over each denominator factor's, and
        PoleError where a factor's residue is 0."""
        den = 1
        for f, m in self.den_factors:
            r = at(f)
            if not r:
                raise PoleError("denominator vanishes mod P at the sample point")
            den = den * r**m % P
        return at(self.num) * pow(den, -1, P) % P

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


def common_denominator(nvars, pairs):
    """(parts, den_factors): the fractions num / prod f^m, given as
    (num, factors) pairs with factors a sequence of (canonical factor,
    multiplicity) in which a factor may repeat (its multiplicities add),
    raised to their least common denominator: parts[i] is the numerator
    of the i-th over it.  Each numerator is multiplied once, by the
    product of its missing factor powers formed first, so a large
    numerator takes one product, not one per missing factor; one that
    misses none is returned as it is."""
    raised, common = [], {}
    for num, factors in pairs:
        if num.nvars != nvars:
            raise ValueError("variable-count mismatch")
        have = {}
        for f, m in factors:
            have[f] = have.get(f, 0) + m
        for f, m in have.items():
            if common.get(f, 0) < m:
                common[f] = m
        raised.append((num, have))
    parts = []
    for part, have in raised:
        lift = None
        for f, m in common.items():
            deficit = m - have.get(f, 0)
            if deficit:
                power = f**deficit
                lift = power if lift is None else lift * power
        parts.append(part if lift is None else part * lift)
    return parts, tuple(common.items())


def term_sort_key(p):
    """Deterministic order on canonical polynomials, for stable factor tuples."""
    return tuple(sorted(p.keys.items()))
