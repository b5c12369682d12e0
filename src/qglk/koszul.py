"""Graded complexes of equivariant characters and their cone identities.

A GradedComplex stores, per cohomological degree, the character of that
term; homotopy data is not modeled, so a cone is the class-level operation
tgt + src[1].  The total class is the alternating sum over degrees, and
all identities here are checked at total-class level.  merge, shift(1)
and total_class are linear over Z, so a cone's class is the target's minus
the source's, and class(K^{I'}) - class(K^I) is the signed sum of the
terms where the two twist profiles differ: for a one-step move that is the
one degree of the moved index.  The one-step sweep reads those terms from
a table keyed (degree, twist height) and rebuilds full complexes only for
a failure witness.

The interpolating complexes K^I twist the j-th exterior power by
(L^dual)^{d(I,j)} with d(I,j) = |I cap [1,j]|.  Sections may carry a
circle weight: section_q_weight = c puts q^(c j) on the degree -j term,
matching a differential of weight c.  A twist (L^dual)^p q^e adds one
integer to every packed key of a character (see qglk.poly), and a
battery call reads one set of exterior powers of V^dual for all checks.

Two iterated-cone routes rebuild K^{[1,N-k]} from the extreme complexes.
Walking the step profile of K^I as k tokens that climb off the top edge
(descending route), or N-k tokens that are injected at the bottom and
climb into place (ascending route), every single move is one cone whose
source is K(L^dual, f) tensored with a 2-term twist block; the executor
below performs exactly those moves and records the index ranges it used.
The ascending route accumulates one global L^dual twist per injected
token, which is where its overall (L^dual)^(k-N) twist comes from.
"""

from collections import namedtuple
from functools import cache
from itertools import combinations
from operator import mul

from .grassmann import dual, exterior_powers
from .poly import _BIAS, Poly, _layout
from .report import Report


def d_of(I, j):
    """Number of elements of I lying in [1, j]."""
    return len([i for i in I if 1 <= i <= j])


class GradedComplex:
    """Characters in nvars variables indexed by cohomological degree;
    a missing degree holds the zero character."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {d: char for d, char in (terms or {}).items() if char}

    def term(self, d):
        return self.terms.get(d) or Poly.zero(self.nvars)

    def merge(self, other):
        acc = dict(self.terms)
        for d, char in other.terms.items():
            acc[d] = self.term(d) + char
        return GradedComplex(self.nvars, acc)

    def shift(self, n):
        """Homological shift [n]: cohomological degree d moves to d - n."""
        return GradedComplex(self.nvars, {d - n: char for d, char in self.terms.items()})

    def twist(self, ell_inv, power):
        """Every term times (L^dual)^power, ell_inv the exponents of L^dual."""
        return GradedComplex(
            self.nvars, {d: _twist(char, ell_inv, power) for d, char in self.terms.items()}
        )

    def total_class(self):
        return Poly.signed_sum(self.nvars, ((_sign(d), char) for d, char in self.terms.items()))

    def __eq__(self, other):
        if not isinstance(other, GradedComplex):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms


def _dual_line(L):
    """Exponents of L^dual for a line bundle L: one weight, multiplicity 1."""
    if list(L.keys.values()) != [1]:
        raise ValueError("line bundle character must have rank 1")
    [exps] = L.terms
    return tuple(-a for a in exps)


def koszul_complex(V, section_q_weight=0):
    """Exterior algebra resolution: degree -j term is Lambda^j of V^dual
    times q^(c j), c = section_q_weight."""
    duals = exterior_powers(dual(V))
    trivial = (0,) * V.nvars  # the exponents of the trivial line
    return GradedComplex(
        V.nvars, {-j: _twist(duals[j], trivial, 0, section_q_weight * j) for j in range(len(duals))}
    )


@cache
def _line_offset(nvars, ell_inv):
    """(key offset of L^dual, key offset of q, largest |exponent| of L^dual)."""
    if len(ell_inv) != nvars:
        raise ValueError("exponent shift has wrong length")
    weights = _layout(nvars).weights
    return sum(map(mul, ell_inv, weights)), weights[-1], max(map(abs, ell_inv))


def _twist(char, ell_inv, power, q_exp=0):
    """char (L^dual)^power q^q_exp as one key offset, char itself for 0.
    Within the bound every field moves by less than 2^15, where the guard
    bits of Poly._translate are sound; past it shift_exps checks the shift."""
    ell, qstep, reach = _line_offset(char.nvars, ell_inv)
    if reach * abs(power) + abs(q_exp) >= 2 * _BIAS:
        return char.shift_exps([a * power for a in ell_inv[:-1]] + [ell_inv[-1] * power + q_exp])
    offset = power * ell + q_exp * qstep
    return char._translate(offset) if offset else char


def _sign(degree):
    """Sign of a term of this cohomological degree in the total class."""
    return 1 if degree % 2 == 0 else -1


def _term(duals, ell_inv, j, d, section_q_weight):
    """Degree -j term of an interpolating complex at twist height d:
    Lambda^j V^dual (L^dual)^d q^(c j)."""
    return _twist(duals[j], ell_inv, d, section_q_weight * j)


def _interpolating(duals, ell_inv, I, section_q_weight):
    """K^I from the exterior powers of V^dual."""
    return GradedComplex(
        duals[0].nvars,
        {-j: _term(duals, ell_inv, j, d_of(I, j), section_q_weight) for j in range(len(duals))},
    )


def cone_class(src, tgt):
    """Class of the cone on a map src -> tgt: tgt plus src shifted by one."""
    return tgt.merge(src.shift(1))


def _step_block(char_top, ell_inv, degree):
    """Two-term block at (degree, degree+1) with an L^dual on the lower leg.

    This is the class of K(L^dual, f) tensored with char_top placed so
    its untwisted copy sits in cohomological degree degree+1.
    """
    return GradedComplex(
        char_top.nvars, {degree: _twist(char_top, ell_inv, 1), degree + 1: char_top}
    )


def _source(duals, ell_inv, I, i, section_q_weight):
    if i not in I:
        raise ValueError(f"{i} is not in I")
    if i + 1 in I:
        raise ValueError(f"{i + 1} already in I")
    if i < 0:
        raise ValueError("negative exterior power")
    lam = duals[i] if i < len(duals) else Poly.zero(duals[0].nvars)
    top = _twist(lam, ell_inv, d_of(I, i) - 1, section_q_weight * i)
    return _step_block(top, ell_inv, -i)


def _proposition(duals, ell_inv, I, i, section_q_weight):
    """The two sides of the one-step cone identity, as complexes:
    K^{I'} and the cone on the source into K^I."""
    I = sorted(set(I))
    Iprime = sorted((set(I) - {i}) | {i + 1})
    lhs = _interpolating(duals, ell_inv, Iprime, section_q_weight)
    src = _source(duals, ell_inv, I, i, section_q_weight)
    return lhs, cone_class(src, _interpolating(duals, ell_inv, I, section_q_weight))


def located_witness(a, b, names, by_class=False):
    """Where two complexes differ: a degree, a weight (as a monomial) and
    the weight's multiplicity in both complexes at that degree.

    By terms, the degree is the first whose terms differ and the weight
    the leading one of their difference.  By class, the weight is the
    leading one of the total-class difference and the degree the first
    where its multiplicities differ (one does, or the classes would agree
    there); both class multiplicities follow.
    """
    degrees = sorted(set(a.terms) | set(b.terms))
    if by_class:
        ca, cb = a.total_class(), b.total_class()
        diff = ca - cb
        k = max(diff.keys)
        d = next(d for d in degrees if _mult(a.term(d), k) != _mult(b.term(d), k))
    else:
        d = next(d for d in degrees if a.term(d) != b.term(d))
        diff = a.term(d) - b.term(d)
        k = max(diff.keys)
    weight = str(Poly._raw(diff.nvars, {k: 1}))[:80]
    text = (
        f"degree {d:+d}, weight {weight}: "
        f"{names[0]} {_mult(a.term(d), k)}, {names[1]} {_mult(b.term(d), k)}"
    )
    if by_class:
        text += f"; total class {_mult(ca, k)} vs {_mult(cb, k)}"
    return text


def _mult(char, key):
    return char.keys.get(key, 0)


# both iterated-cone presentations with their targets and index logs
IteratedCones = namedtuple(
    "IteratedCones", "minus plus minus_indices plus_indices target_minus target_plus"
)


def _iterated_cones(N, k, ell_inv, duals, qw):
    """Run both cone routes toward K^{[1,N-k]} and report the endpoints,
    from L^dual's exponents and V^dual's exterior powers (rank N).

    The descending route starts from the fully twisted complex K^{[1,N]}
    and peels the top k steps; piece (a, p) is used while the a-th peeled
    token sits at position p, where its profile height is N-k+a.  The
    ascending route starts from the plain Koszul complex; token a first
    costs a bare (L^dual)^{-a} block (index (a, 1)) and then climbs with
    profile height 1 under an accumulated (L^dual)^{-a} global twist
    (indices (a, j), j >= 2).  Index ranges: descending a = 1..k with
    p = N-k+a..N; ascending a = 1..N-k with j = 1..N-k-a+1.
    """
    if not 0 <= k <= N:
        raise ValueError(f"need 0 <= k <= {N}, got {k}")
    P = N - k

    def lam_twisted(j, ell_power):
        return _twist(duals[j], ell_inv, ell_power, qw * j)

    # descending route: seed K^{[1,N]}, peel tokens top-first
    minus = _interpolating(duals, ell_inv, range(1, N + 1), qw)
    minus_indices = []
    for a in range(k, 0, -1):
        for p in range(P + a, N + 1):
            piece = _step_block(lam_twisted(p, P + a - 1), ell_inv, -p)
            minus = cone_class(piece, minus)
            minus_indices.append((a, p))
    minus_indices.sort()

    # ascending route: seed the plain Koszul complex, inject then climb
    plus = _interpolating(duals, ell_inv, (), qw)
    plus_indices = []
    for a in range(1, P + 1):
        piece = _step_block(_twist(Poly.one(duals[0].nvars), ell_inv, -a), ell_inv, 0)
        plus = cone_class(piece, plus)
        plus_indices.append((a, 1))
        for i in range(1, P - a + 1):
            piece = _step_block(lam_twisted(i, -a), ell_inv, -i)
            plus = cone_class(piece, plus)
            plus_indices.append((a, i + 1))

    target_minus = _interpolating(duals, ell_inv, range(1, P + 1), qw)
    target_plus = target_minus.twist(ell_inv, -P)
    return IteratedCones(minus, plus, minus_indices, plus_indices, target_minus, target_plus)


def generic_bundle_data(N):
    """Rank-N bundle with weights x_1..x_N and an independent line x_{N+1}.

    The extra slot keeps the line-bundle class transcendental over the
    bundle weights, so endpoint identities are checked generically.
    """
    nvars = N + 2
    V = Poly(nvars, {tuple(int(t == i) for t in range(nvars)): 1 for i in range(N)})
    return V, Poly.x(nvars, N + 1)


def _bundle(rank):
    """V, L, L^dual's exponents and V^dual's exterior powers at this rank."""
    V, L = generic_bundle_data(rank)
    return V, L, _dual_line(L), exterior_powers(dual(V))


def _move_defects(duals, ell_inv, rank, section_q_weight):
    """Every valid move (I, i) with its defect class(K^{I'}) - class(K^I)
    + class(source), zero exactly when the one-step identity holds.

    K^I and K^{I'} share each term whose twist height agrees, so their
    class difference is the signed sum of the terms at the degrees where
    their profiles (d(., 0), ..., d(., rank)) differ; for the true d(I, j)
    that is degree -i alone, at heights d(I, i) - 1 and d(I, i).  Terms
    come from a table keyed (j, d), profiles from one d_of pass per index
    set.  _source reads I only through checks every valid move passes and
    through d_of(I, i), so a defect is built once per key (i, d_of(I, i),
    changed (j, d, d')), as one signed sum of the source's two legs and
    the changed terms, and shared.  All three tables are local to the call."""
    nvars, degrees = duals[0].nvars, range(len(duals))
    term = cache(lambda j, d: _term(duals, ell_inv, j, d, section_q_weight))
    profile = cache(lambda I: tuple([d_of(I, j) for j in degrees]))
    defects = {}
    for size in range(rank + 1):
        for I in combinations(range(1, rank + 1), size):
            here = profile(I)
            for a, i in enumerate(I):
                if i + 1 in I:
                    continue
                # i + 1 is not in I, so I' stays sorted
                there = profile(I[:a] + (i + 1,) + I[a + 1 :])
                changed = tuple(
                    (j, d, dp) for j, d, dp in zip(degrees, here, there) if d != dp
                )
                key = (i, here[i], changed)
                if key not in defects:
                    src = _source(duals, ell_inv, I, i, section_q_weight)
                    signed = [(_sign(d), char) for d, char in src.terms.items()]
                    for j, d, dp in changed:
                        signed += [(_sign(-j), term(j, dp)), (-_sign(-j), term(j, d))]
                    defects[key] = Poly.signed_sum(nvars, signed)
                yield I, i, defects[key]


def _one_step_sweep(duals, ell_inv, rank, section_q_weight):
    """Move count, failing moves (I, i) in order, witness at the first."""
    total, bad, first = 0, [], ""
    for I, i, defect in _move_defects(duals, ell_inv, rank, section_q_weight):
        total += 1
        if defect:
            if not bad:
                lhs, rhs = _proposition(duals, ell_inv, I, i, section_q_weight)
                first = located_witness(lhs, rhs, ("K^I'", "cone"), by_class=True)
            bad.append((I, i))
    return total, bad, first


def endpoint_report(rank, section_q_weight=2):
    """Interpolation endpoints: an empty index set reproduces the plain
    complex, and the full set [1, rank] reproduces the complex of the
    L-twisted bundle, one L^dual per exterior degree.  Then the one-step
    cone identity class(K^{I'}) == class(K^I) - class(source) for every
    valid move, checked on the one degree the move changes, from one set of
    exterior powers and one table of twisted terms."""
    return _endpoint_report(*_bundle(rank), rank, section_q_weight)


def _endpoint_report(V, L, ell_inv, duals, rank, qw):
    rep = Report(f"interpolating complex endpoints, rank {rank}")
    empty = _interpolating(duals, ell_inv, (), qw)
    plain = koszul_complex(V, qw)
    ok = empty == plain
    rep.add(
        "empty index set gives the plain complex",
        ok,
        "" if ok else located_witness(empty, plain, ("K^()", "plain")),
    )
    full = _interpolating(duals, ell_inv, range(1, rank + 1), qw)
    twisted = koszul_complex(V * L, qw)
    ok = full == twisted
    rep.add(
        "full index set gives the complex of the twisted bundle",
        ok,
        "" if ok else located_witness(full, twisted, ("K^[1,r]", "twisted")),
    )
    total, bad, first = _one_step_sweep(duals, ell_inv, rank, qw)
    witness = ""
    if bad:
        shown = ", ".join(f"({I}, {i})" for I, i in bad[:3]) + (", ..." if len(bad) > 3 else "")
        witness = f"{len(bad)} of {total} moves fail, (I, i) = {shown}; at the first, {first}"
    rep.add(f"one-step cone identity holds for all {total} valid (I, i)", not bad, witness)
    return rep


def koszul_battery_report(rank, k, section_q_weight=2):
    """Endpoints, the one-step cone sweep, and both iterated routes from
    one _bundle; the plain and twisted Koszul complexes build their own."""
    bundle = _bundle(rank)
    rep = Report(f"koszul battery, rank {rank}, k={k}")
    rep.extend(_endpoint_report(*bundle, rank, section_q_weight))
    rep.extend(_cone_report(*bundle, rank, k, section_q_weight))
    return rep


def _cone_report(V, L, ell_inv, duals, N, k, qw):
    res = _iterated_cones(N, k, ell_inv, duals, qw)
    rep = Report(f"iterated cone routes, rank {N}, k={k}")
    ok = res.minus.total_class() == res.target_minus.total_class()
    rep.add(
        "descending route reaches the interpolating complex",
        ok,
        "" if ok else located_witness(res.minus, res.target_minus, ("route", "target"), True),
    )
    ok = res.plus.total_class() == res.target_plus.total_class()
    rep.add(
        "ascending route reaches it after the global twist",
        ok,
        "" if ok else located_witness(res.plus, res.target_plus, ("route", "target"), True),
    )
    rep.note(
        "descending indices (a,p): a=1..k, p=N-k+a..N; used "
        + (str(res.minus_indices) if res.minus_indices else "none")
    )
    rep.note(
        "ascending indices (a,j): a=1..N-k, j=1..N-k-a+1; used "
        + (str(res.plus_indices) if res.plus_indices else "none")
    )
    return rep
