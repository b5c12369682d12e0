"""Sparse Laurent polynomials with integer coefficients.

The variables are x_1, ..., x_N and q, in that fixed global order.  A term
exponent is a tuple of N+1 integers with the q exponent in the last slot;
exponents may be negative.  ``nvars`` always counts q, so a polynomial in
x_1, x_2, q has ``nvars == 3``.

Inside a Poly each exponent is one packed integer key (``Poly.keys``).
The top field holds the total degree; below it sits one 16-bit field per
variable, x_1 first and q last, holding the exponent plus a bias of 2^14.
Integer order on keys is then the term order (total degree, then
lexicographic on exponent tuples), and the key of a monomial product is
``k1 + k2 - zero``.  Exponents must lie in [-2^14, 2^14): the
constructor checks both ends, products and shifts check the top (guard)
bit of each field, and exact division checks its exponent box up
front.  Out of range raises ``OverflowError``; nothing returns a wrong
polynomial.  Exponent tuples exist only at the boundary.

Exact division takes divisors +-(X^a - X^b) only: qglk divides by nothing
but the canonical denominator factors of qglk.ratfunc, which Euler factors
1 - w^-1 and the commutator scalar 1 - q^(2n) become.

Evaluation at a rational point runs in integers through PointValues,
whose power tables every polynomial evaluated at that point shares.

Values are immutable once constructed and every operation returns a fresh
value, so instances can be shared freely.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cache, reduce
from operator import mul, or_
from types import MappingProxyType

_BITS = 16
_BIAS = 1 << 14
_MASK = (1 << _BITS) - 1

# per nvars: key step of each variable, field offsets, degree-field offset,
# key of the exponent 0, a 1 in every field, the guard bit of every field
_Layout = namedtuple("_Layout", "weights shifts top zero ones guard")


@cache
def _layout(n):
    top = _BITS * n
    shifts = tuple(_BITS * (n - 1 - i) for i in range(n))
    ones = sum(1 << s for s in shifts)
    weights = tuple((1 << top) + (1 << s) for s in shifts)
    return _Layout(weights, shifts, top, _BIAS * ones, ones, ones << (_BITS - 1))


def _unpack(lay, k):
    return tuple([(k >> s & _MASK) - _BIAS for s in lay.shifts])


@cache
def _permutation(n, perm):
    """(keep, moves) of _permute_keys: the mask that clears the fields of
    the moved x's, and their (from, to) field offsets."""
    if sorted(perm) != list(range(1, n)):
        raise ValueError(f"{perm} is not a permutation of 1..{n - 1}")
    shifts = _layout(n).shifts
    moves = tuple((shifts[i], shifts[p - 1]) for i, p in enumerate(perm) if p != i + 1)
    return ~sum(_MASK << s for s, _ in moves), moves


def _permute_keys(n, perm, keys):
    """The packed keys with the field of each x_i moved to x_perm[i-1],
    for perm a permutation of 1..n-1: the degree and q fields stay."""
    keep, moves = _permutation(n, tuple(perm))
    return [(k & keep) + sum((k >> s & _MASK) << t for s, t in moves) for k in keys]


def _check_fields(lay, keys):
    """Raise unless no key has a guard bit set.  Sound when every field
    value before wrapping lies in [-2^15, 2^16): the lowest bad field then
    borrows nothing from below and shows its guard bit."""
    if reduce(or_, keys, 0) & lay.guard:
        raise OverflowError("exponent outside [-2^14, 2^14)")


class Poly:
    """Sparse Laurent polynomial over the integers."""

    # _box and _ends_cache hold the keys of _box_keys() and _ends()
    __slots__ = ("nvars", "keys", "_hash", "_box", "_ends_cache")

    def __init__(self, nvars, terms=None):
        lay = _layout(nvars)
        keys = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff:
                    if len(exps) != nvars:
                        raise ValueError("exponent tuple has wrong length")
                    if not all(-_BIAS <= a < _BIAS for a in exps):
                        raise OverflowError("exponent outside [-2^14, 2^14)")
                    keys[lay.zero + sum(map(mul, exps, lay.weights))] = coeff
        self.nvars, self.keys, self._hash, self._box, self._ends_cache = nvars, keys, None, None, None

    @classmethod
    def _raw(cls, nvars, keys, box=None, ends=None):
        """Wrap a key dict that Poly built itself: nonzero coefficients,
        every key in range, and the caches, when given, exact."""
        out = object.__new__(cls)
        out.nvars, out.keys, out._hash, out._box, out._ends_cache = nvars, keys, None, box, ends
        return out

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars, c):
        return cls._raw(nvars, {_layout(nvars).zero: c} if c else {})

    @classmethod
    def one(cls, nvars):
        return cls.const(nvars, 1)

    @classmethod
    def x(cls, nvars, i):
        """The variable x_i (1-based); valid for 1 <= i <= nvars - 1."""
        if not 1 <= i <= nvars - 1:
            raise ValueError("x index out of range")
        return cls.monomial(nvars, [int(j == i - 1) for j in range(nvars)])

    @classmethod
    def q(cls, nvars, e=1):
        return cls.monomial(nvars, (0,) * (nvars - 1) + (e,))

    @classmethod
    def monomial(cls, nvars, exps, coeff=1):
        return cls(nvars, {tuple(exps): coeff})

    @property
    def terms(self):
        """Read-only {exponent tuple: coefficient} view, built on access."""
        lay = _layout(self.nvars)
        return MappingProxyType({_unpack(lay, k): c for k, c in self.keys.items()})

    @classmethod
    def signed_sum(cls, nvars, signed):
        """Sum of sign * p over (sign, p) pairs, sign an int, in one key
        dict: no intermediate Poly per addend."""
        keys = {}
        for sign, p in signed:
            if p.nvars != nvars:
                raise ValueError("variable-count mismatch")
            for k, c in p.keys.items():
                keys[k] = keys.get(k, 0) + sign * c
        return cls._raw(nvars, {k: c for k, c in keys.items() if c})

    def _check(self, other):
        if not isinstance(other, Poly):
            raise TypeError("expected a Poly")
        if other.nvars != self.nvars:
            raise ValueError("variable-count mismatch")

    def __bool__(self):
        return bool(self.keys)

    def __add__(self, other):
        self._check(other)
        # values are immutable, so a zero operand hands back the other one
        if not other.keys:
            return self
        if not self.keys:
            return other
        keys = dict(self.keys)
        for k, c in other.keys.items():
            nc = keys.get(k, 0) + c
            if nc:
                keys[k] = nc
            else:
                keys.pop(k, None)
        return Poly._raw(self.nvars, keys)

    def __neg__(self):
        return Poly._raw(
            self.nvars, {k: -c for k, c in self.keys.items()}, self._box, self._ends_cache
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return Poly.zero(self.nvars)
            return Poly._raw(
                self.nvars,
                {k: c * other for k, c in self.keys.items()},
                self._box,
                self._ends_cache,
            )
        self._check(other)
        if len(self.keys) > len(other.keys):
            big, small = self.keys, other.keys
        else:
            big, small = other.keys, self.keys
        lay = _layout(self.nvars)
        zero = lay.zero
        out = {}
        for k1, c1 in small.items():
            k1 -= zero
            for k2, c2 in big.items():
                k = k1 + k2
                nc = out.get(k, 0) + c1 * c2
                if nc:
                    out[k] = nc
                else:
                    del out[k]
        # each field sums two in-range exponents, so the check is sound
        _check_fields(lay, out)
        return Poly._raw(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, m):
        if m < 0:
            raise ValueError("negative power of a polynomial")
        out = None
        base = self
        while m:
            if m & 1:
                out = base if out is None else out * base
            m >>= 1
            if m:
                base = base * base
        return Poly.one(self.nvars) if out is None else out

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.keys == other.keys

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.keys.items())))
        return self._hash

    def _ends(self):
        """(leading, trailing) keys in the term order."""
        if self._ends_cache is None:
            if not self.keys:
                raise ValueError("zero polynomial has no leading term")
            self._ends_cache = (max(self.keys), min(self.keys))
        return self._ends_cache

    def _box_keys(self):
        """Keys of the componentwise minimum and maximum exponents over all
        terms: the floor and the ceiling of the exponent box."""
        if self._box is None:
            if not self.keys:
                raise ValueError("zero polynomial")
            lay = _layout(self.nvars)
            fields = [[k >> s & _MASK for k in self.keys] for s in lay.shifts]
            self._box = tuple(
                lay.zero + sum(map(mul, [pick(f) - _BIAS for f in fields], lay.weights))
                for pick in (min, max)
            )
        return self._box

    def _translate(self, d, scale=1):
        """self * scale * X^s for d = sum(s_i * weights_i), every s_i in
        [-2^15, 2^15), and an integer scale != 0; caches move along."""
        items = self.keys.items()
        if scale == 1:  # a pure shift, as in the character sweeps
            keys = {k + d: c for k, c in items}
        else:
            keys = {k + d: c * scale for k, c in items}
        _check_fields(_layout(self.nvars), keys)
        box = self._box and (self._box[0] + d, self._box[1] + d)
        ends = self._ends_cache and (self._ends_cache[0] + d, self._ends_cache[1] + d)
        return Poly._raw(self.nvars, keys, box, ends)

    def shift_exps(self, shift):
        """self * X^shift; a zero shift returns self."""
        if len(shift) != self.nvars:
            raise ValueError("exponent shift has wrong length")
        if not any(shift):
            return self
        if min(shift, default=0) < -2 * _BIAS or max(shift, default=0) >= 2 * _BIAS:
            raise OverflowError("exponent shift outside [-2^15, 2^15)")
        return self._translate(sum(map(mul, shift, _layout(self.nvars).weights)))

    def exact_div(self, other):
        """Exact quotient self / other, or None when it does not divide.

        Division is taken in the Laurent ring, so monomial factors never
        obstruct divisibility.  The divisor must be +-(X^h - X^l); any
        other divisor raises ``ValueError``.  Every denominator factor of a
        RationalFunction is such a binomial (see qglk.ratfunc), and those
        are the only divisions qglk makes.

        Two cheap rejects come first.  The term order is compatible with
        multiplication, so the leading and trailing terms of h * other
        are the products of those of h and other; floors add because the
        integers have no zero divisors, so every term of h lies at or
        above ``off = floor(self) - floor(other)``.  Hence if self = h *
        other, the leading (and trailing) term of other divides that of
        self with a quotient exponent at or above ``off``.  Both tests
        are only necessary: a pair that passes them may still fail below.
        The same facts make the quotient's floor ``off`` and its end
        terms the quotients of the end terms, so it is born with them.

        The division itself walks lines of keys.  A quotient term at X^e
        touches only X^(e+h) and X^(e+l), so keys differing by multiples
        of h - l form lines that never meet.  Dividing by X^h - X^l, the
        quotient term at X^(k-h) is the running sum of the dividend's
        coefficients along the line from its top down to X^k: from each
        dividend key still in the remainder, in descending order, walk down
        its line until the sum cancels.  Dividing by -(X^h - X^l) negates
        the quotient.  The quotient is unique, so the walk returns it when
        it exists and None otherwise.
        """
        self._check(other)
        if not other.keys:
            raise ZeroDivisionError("polynomial division by zero")
        dlead, dtrail = other._ends()
        sign = other.keys[dlead]
        if len(other.keys) != 2 or sign not in (1, -1) or other.keys[dtrail] != -sign:
            raise ValueError(f"divisor {other} is not +-(X^a - X^b)")
        if not self.keys:
            return Poly.zero(self.nvars)
        lay = _layout(self.nvars)
        zero, guard = lay.zero, lay.guard
        num = self.keys
        lead, trail = self._ends()
        floor_s, ceil_s = self._box_keys()
        floor_o, ceil_o = other._box_keys()
        off = floor_s - floor_o + zero
        # field i of k - base is (quotient exponent - off)_i, in (-2^15,
        # 2^15): a negative one borrows and shows its guard bit
        dshift = dlead - zero
        base = dshift + off
        if ((lead - base) | (trail - dtrail - off + zero)) & guard:
            return None

        # Newt(h * other) = Newt(h) + Newt(other) (Ostrowski), so field by
        # field the quotient lies in the box [off, ceil], the dividend's
        # box minus the divisor's.  A quotient term outside it returns
        # None, so every remainder key stays inside the dividend's box.
        ceil = ceil_s - ceil_o + zero
        if (off | ceil) & guard:
            raise OverflowError("division leaves the exponent range [-2^14, 2^14)")

        rem = dict(num)
        quo = {}
        step = dlead - dtrail
        for k in sorted(num, reverse=True):
            c = rem.pop(k, 0)
            while c:
                qk = k - dshift
                if ((k - base) | (ceil - qk)) & guard:
                    return None
                quo[qk] = c
                k -= step
                c += rem.pop(k, 0)
        if sign < 0:
            quo = {k: -c for k, c in quo.items()}
        return Poly._raw(self.nvars, quo, (off, ceil), (lead - dshift, trail - dtrail + zero))

    def value(self, at):
        """(N, D) with self = N / D at the point of ``at``, a PointValues."""
        return at(self)

    def evaluate(self, point):
        """Exact value at a tuple of rationals ordered (x_1, ..., x_N, q)."""
        return Fraction(*self.value(PointValues(point)))

    def __str__(self):
        if not self.keys:
            return "0"
        lay = _layout(self.nvars)
        parts = []
        for k in sorted(self.keys, reverse=True):
            c = self.keys[k]
            factors = []
            for i, exp in enumerate(_unpack(lay, k)):
                if exp == 0:
                    continue
                name = "q" if i == self.nvars - 1 else f"x{i + 1}"
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


def kronecker(p, bits, shift):
    """(2^(bits*shift) * p(2^bits), ||p||_1), or None unless p lies in q
    alone with every exponent at least -shift and every |coefficient|
    below 2^bits.  On the polynomials it accepts the packing is
    injective: the lowest term of a difference survives modulo the next
    power of 2^bits.  It is evaluation at q = 2^bits times a power of
    it, so products pack to products with the shifts added."""
    lay = _layout(p.nvars)
    step, zero, top = lay.weights[-1], lay.zero, 1 << bits
    value = norm = 0
    for k, c in p.keys.items():
        e = (k >> lay.shifts[-1] & _MASK) - _BIAS
        if k != zero + e * step or e < -shift or not -top < c < top:
            return None
        value += c << bits * (e + shift)
        norm += abs(c)
    return value, norm


class PointValues:
    """Values of Laurent polynomials at one rational point (x_1, ..., x_N,
    q), as integer pairs (N, D) with value N / D, not reduced.

    With x_i = a_i / b_i and exponents of x_i in [lo_i, hi_i], a term
    c * X^e is the integer c * prod a_i^(e_i - lo_i) b_i^(hi_i - e_i)
    times prod a_i^lo_i / b_i^hi_i, so the terms sum as integers.  The
    powers of each (variable, lo, hi) are tabulated once per point and
    shared by every polynomial evaluated there.  D is zero only where a
    coordinate is zero and p has a negative power of it.
    """

    __slots__ = ("coords", "tables", "memo")

    def __init__(self, point):
        self.coords = [(v.numerator, v.denominator) for v in map(Fraction, point)]
        self.tables = {}  # (variable, lo, hi) -> (powers, num factor, den factor)
        self.memo = {}  # shared(): polynomial -> pair

    def _table(self, i, lo, hi):
        """([a^j b^(hi-lo-j) for j = 0..hi-lo], a^lo / b^hi as a pair) of x_i."""
        key = (i, lo, hi)
        if key not in self.tables:
            a, b = self.coords[i]
            powers = [a**j * b ** (hi - lo - j) for j in range(hi - lo + 1)]
            num = a ** max(lo, 0) * b ** max(-hi, 0)
            self.tables[key] = powers, num, a ** max(-lo, 0) * b ** max(hi, 0)
        return self.tables[key]

    def __call__(self, p):
        """(N, D) with p = N / D at the point."""
        if p.nvars != len(self.coords):
            raise ValueError("point has wrong length")
        if not p.keys:
            return 0, 1
        floor, ceil = p._box_keys()
        num = den = 1
        varying = []
        for i, s in enumerate(_layout(p.nvars).shifts):
            lo, hi = floor >> s & _MASK, ceil >> s & _MASK
            if lo == hi == _BIAS:
                continue
            powers, n, d = self._table(i, lo - _BIAS, hi - _BIAS)
            num *= n
            den *= d
            if hi > lo:
                varying.append((s, lo, powers))
        keys, terms = p.keys, list(p.keys.values())
        for s, lo, powers in varying:
            terms = [c * powers[(k >> s & _MASK) - lo] for k, c in zip(keys, terms)]
        return sum(terms) * num, den

    def shared(self, p):
        """self(p), computed once per polynomial at this point: for the
        denominator factors that many fractions share."""
        if p not in self.memo:
            self.memo[p] = self(p)
        return self.memo[p]
