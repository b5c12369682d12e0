"""Torus-fixed-point data on Grassmannians and their Hom-bundle total spaces.

Everything is indexed by k-subsets S of {1..n}: the coordinate subspace
spanned by the chosen basis lines is the fixed point.  A character is an
element of the representation ring Z[x_1^+-1..x_n^+-1, q^+-1], so it is a
:class:`Poly`: each weight's key maps to its multiplicity, negative for a
virtual character.  A weight or a line bundle is a one-term Poly.  Sums
and tensor products are Poly arithmetic and a twist is one translation
of the packed keys (``Poly._translate``, or ``shift_exps`` from an
exponent tuple), all with Poly's range checks.

The ambient torus acts with weight x_i on the i-th line.  The total space
adds the fiber Hom(C^n, tau) whose scaling circle acts with weight 2, so
fiber weights carry q^2.  Pushforwards to a point follow the fixed-point
localization rule: sum restrictions divided by tangent Euler classes
prod(1 - w^{-1}), over one localization form per (n, k, fiber): the
inverse Euler classes raised once to their shared denominator.
"""

from functools import cache
from itertools import combinations

from .poly import _BIAS, Poly, _check_fields, _layout
from .ratfunc import RationalFunction, _canonical_factor, common_denominator


class NonIsolatedFixedPointError(ValueError):
    """A trivial tangent weight means the fixed locus is not isolated."""


def dual(char):
    """The dual character: each key k becomes 2 * zero - k.  A field
    -e + 2^14 that reaches 2^15 (e = -2^14) shows its guard bit."""
    lay = _layout(char.nvars)
    keys = {2 * lay.zero - k: m for k, m in char.keys.items()}
    _check_fields(lay, keys)
    return Poly._raw(char.nvars, keys)


def exterior_powers(char):
    """[Lambda^0, ..., Lambda^rank] of a genuine character, by the
    elementary symmetric recursion: one key offset per weight."""
    if any(m < 0 for m in char.keys.values()):
        raise ValueError("virtual character has no weight list")
    zero = _layout(char.nvars).zero
    levels = [Poly.one(char.nvars)]
    for k, m in char.keys.items():
        for _ in range(m):
            levels.append(Poly.zero(char.nvars))
            for t in range(len(levels) - 1, 0, -1):
                levels[t] = levels[t] + levels[t - 1]._translate(k - zero)
    return levels


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
    return Poly._raw(n + 1, keys)


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


@cache
def _euler_factor(nvars, k):
    """(1 - w^-1, canon, unit) for the weight w of key k, with
    1 - w^-1 = canon / unit and canon its canonical form
    (ratfunc._canonical_factor): built once per process, so every
    fraction that divides by it shares one factor object and its caches."""
    factor = Poly.one(nvars) - dual(Poly._raw(nvars, {k: 1}))
    canon, shift, sign = _canonical_factor(factor)
    return factor, canon, Poly.monomial(nvars, [-s for s in shift], sign)


def euler_class_rf(char, invert=False):
    """prod (1 - w^{-1})^m over the (virtual) character, as a fraction.

    Positive multiplicities land in the numerator and negative ones in the
    factored denominator; invert=True swaps the roles, which is the cheap
    way to divide by the Euler class of a large genuine character.  A
    denominator factor enters as its shared canonical form, its unit
    moved into the numerator (see _euler_factor).
    """
    nvars = char.nvars
    zero = _layout(nvars).zero
    num = Poly.one(nvars)
    den = []
    for k, m in char.keys.items():
        if k == zero:
            raise NonIsolatedFixedPointError(
                "trivial weight of multiplicity %d in an Euler class" % m
            )
        power = -m if invert else m
        factor, canon, unit = _euler_factor(nvars, k)
        if power > 0:
            num = num * factor**power
        else:
            num = num * unit**-power
            den.append((canon, -power))
    return RationalFunction(nvars, num, tuple(den))


def det_tau_restrict(n, S, m=1):
    """Restriction of (det tau)^m to the fixed point S."""
    Sset = set(S)
    return Poly.monomial(n + 1, [m if i in Sset else 0 for i in range(1, n + 1)] + [0])


@cache
def _localization_form(n, k, with_fiber):
    """(numerators, den_factors) with 1 / e(T_S) equal to
    numerators[S] / prod f^m at each fixed point S of
    Gr(k, n), with the fiber when asked: the classes raised to their
    shared denominator by common_denominator, once per process."""
    points = fixed_points(n, k)
    classes = []
    for S in points:
        t = tangent_gr(n, S)
        classes.append(euler_class_rf(t + hom_fiber(n, S) if with_fiber else t, invert=True))
    parts, den_factors = common_denominator(n + 1, ((c.num, c.den_factors) for c in classes))
    return dict(zip(points, parts)), den_factors


class Space:
    """Fixed-point model of Gr(k,n), optionally with the scaled Hom fiber.
    Spaces of one (n, k, fiber) share one localization form."""

    __slots__ = ("n", "k", "with_fiber")

    def __init__(self, n, k, with_fiber=True):
        self.n = n
        self.k = k
        self.with_fiber = with_fiber

    @property
    def nvars(self):
        return self.n + 1

    @property
    def form(self):
        return _localization_form(self.n, self.k, self.with_fiber)

    def pushforward(self, values):
        """Localized pushforward to the point: sum of value/euler over S.
        ``values`` (a dict or a callable) gives each fixed point a Poly, the
        restriction of a representation-ring class; other values raise TypeError."""
        numerators, den = self.form

        def restriction(S):
            v = values[S] if isinstance(values, dict) else values(S)
            if not isinstance(v, Poly):
                raise TypeError("pushforward values must be Poly restrictions")
            return v

        signed = ((1, restriction(S) * part) for S, part in numerators.items())
        return RationalFunction(self.nvars, Poly.signed_sum(self.nvars, signed), den)

    def pushforward_det_tau_power(self, m):
        n = self.n
        return self.pushforward(lambda S: det_tau_restrict(n, S, m))
