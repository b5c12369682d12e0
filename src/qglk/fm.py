"""Fixed-point matrices of the geometric raising and lowering operators.

The weight-(n-2k) space is modelled by the total space Y of the scaled
Hom(C^n, tau) bundle over Gr(k, n).  Raising and lowering act through the
one-step correspondence W whose torus-fixed points are nested pairs
S_small < S_big differing by one index b.  Push-pull against the kernel
localizes to a matrix over the fraction field: the (S_t, S_s) entry is
the kernel value at the pair divided by the Euler class of the source
tangent space, which collapses to

    twist * e(T_{S_t} Y_target - T_W)

with all cancellation done at the character level.  The twist is the
restriction of det(tau) on the big side for raising and of x_b^(n - k_big)
for lowering.

Lowering is normalized by the global unit q^(2n) / (x_1 ... x_n); with it
the commutator of the two functors is the scalar
(-1)^(n-k-1) * (1 - q^(2n)) on each weight block, the scalar of the
normalized algebra blocks (normalized_rep_report).

An entry is kept in the form above, as an EulerEntry (its twist and
character), which is no fraction: it expands (EulerEntry.expand) only
where the matrices dump prints it or find_intertwiner lifts its blocks,
never in a check or a witness.

Every matrix here is a weight block, a :class:`qglk.matrix.Matrix` that
carries its two weights, rows and columns labelled by fixed points:
geometric blocks of EulerEntrys, algebra blocks the Poly blocks of
:mod:`qglk.superrep` times a unit (Blocks.op).  Only find_intertwiner
lifts both into the fraction field, once its proof has passed, and it
returns phi as the pair of bases it maps between, inverting nothing.

The intertwiner's proof reads ranks, pivot columns and invertibility
from both actions at a seeded rational point, over F_P with the fixed
prime P = 2^61 - 1: each E and F entry's residue there
(qglk.poly.PointResidues; an EulerEntry from its twist and Euler
factors, unexpanded, and an algebra entry from superrep's unscaled block
times its unit's residue), the products F_{w+2} E_w in place of the
projectors p_w = F_{w+2} E_w / s_w, a unit scaling where s_w has a
nonzero residue, and Gaussian elimination mod P
(linalg.pivot_columns).  A point where a denominator's residue or some
s_w's is 0 is skipped like a pole.  Elsewhere evaluation followed by
reduction mod P is a ring homomorphism, so columns independent mod P
have a minor over Q with a nonzero residue, which is then nonzero, and
a determinant nonzero mod P proves the symbolic one nonzero; an unlucky
P, like an unlucky point, can only lose pivots or skip the point, never
fake a certificate.

Every position of each geometric square and commutator is checked, in
row-major order, and first given an exact value proven from Euler data
(Blocks._first_bad, _proven).  A term a * b is again
sign * X^key * e(chi).  Its normal form folds each weight w onto
whichever of w and w^-1 has the larger packed key: where that is
c = w^-1, 1 - w^-1 = -c (1 - c^-1), so the sign flips for odd m and
m (zero - k) joins the key.  Zero multiplicities are dropped.  Each
entry folds its form once (EulerEntry.form), and a term's form merges
its factors' forms.  Over the UFD Z[x^+-1, q^+-1] equal normal forms
are equal fractions and conversely: for d primitive, 1 - X^d is
irreducible (a monomial change of coordinates makes it 1 - y_1),
1 - X^(g d) is the product of the cyclotomic Phi_k(X^d), k | g, whose
exponents form a triangular system in the folded multiplicities, and
distinct d give non-associate factors, so e(chi) is a unit only when
every folded multiplicity is 0.  Two rules prove a value:

* 0, when the signed terms cancel by normal form: every nonzero square
  position and off-diagonal commutator position;
* sigma * (q^(2n) - 1) at a diagonal position of the commutator, when the
  terms' normal forms are sigma times those of R_1, ..., R_n (residue).
  R_j = q^(2n) e(chi_j) is the residue at z = x_j of
  G(z) = prod_l (q^2 z - x_l) / (z prod_l (z - x_l)); with Res_0 G = 1
  and Res_oo G = -q^(2n) the residue theorem on P^1 gives
  sum_j R_j = q^(2n) - 1.  G is typed in, but the terms it is matched
  with are computed from the fixed-point characters.

A proven value is compared with the target, a Poly, exactly.  A
position that Euler data do not prove, or with a factor that is no
EulerEntry, fails for both signs, so a PASS always rests on an exact
proof.  A failing position's witness is read from its decision: the
proven value minus the target; else, reduced mod P at the first witness
point, where no denominator has residue 0 that is a ring homomorphism,
so a residue other than that of the target refutes it, the exact value
minus the target there, read from the terms' Euler data; else the
position alone, not proven from Euler data.  No entry is formed.
"""

from functools import cache, partial
from itertools import chain, product
from math import comb

from .grassmann import (
    NonIsolatedFixedPointError,
    det_tau_restrict,
    euler_class_rf,
    hom_fiber,
    ratio_character,
    tangent_gr,
)
from .linalg import columns, hstack, pivot_columns, sample_points
from .matrix import Matrix, bad_entry, entry_witness, k_of, weights, witness, witness_points
from .poly import P, PointResidues, Poly, _check_fields, _layout
from .ratfunc import PoleError, RationalFunction
from .report import Report
from .superrep import Relations


def correspondence_tangent(n, S_small, S_big):
    """Tangent character of the correspondence at a nested fixed pair.

    Flag part: the small Grassmannian directions plus the line spanned by
    b moving inside the quotient by S_big.  Fiber part: the scaled Hom
    bundle through the small space.
    """
    small = set(S_small)
    big = set(S_big)
    extra = big - small
    if len(extra) != 1 or not small <= big:
        raise ValueError("expected nested subsets differing by one index")
    b = next(iter(extra))
    line = ratio_character(n, [(j, b) for j in range(1, n + 1) if j not in big])
    return tangent_gr(n, S_small) + line + hom_fiber(n, S_small)


def _twist(n, S_small, S_big, raising):
    if raising:
        return det_tau_restrict(n, S_big)
    (b,) = set(S_big) - set(S_small)
    return Poly.x(n + 1, b) ** (n - len(S_big))


class EulerEntry:
    """twist * e(chi), a geometric entry kept as its Euler data: the
    monomial twist sign * X^e as its packed key and sign, and the virtual
    character chi as one flat tuple (key, multiplicity, key, ...) in key
    order.  form is its normal form (_normal_form), folded once when the
    entry is made.

    It is no fraction: truthiness, negation, residue and evaluate read the
    data alone, and == compares normal forms, equal exactly when the
    fractions are (module docstring).  expand() forms the fraction,
    from_poly(twist) * euler_class_rf(chi), and str prints it.
    """

    __slots__ = ("nvars", "key", "sign", "chi", "form")

    def __init__(self, nvars, key, sign, chi):
        self.nvars, self.key, self.sign, self.chi = nvars, key, sign, chi
        self.form = _normal_form(nvars, sign, key, self._pairs())

    def _twist(self):
        return Poly._raw(self.nvars, {self.key: self.sign})

    def _pairs(self):
        return zip(self.chi[::2], self.chi[1::2])

    def expand(self):
        """The entry as a RationalFunction."""
        chi = Poly._raw(self.nvars, dict(self._pairs()))
        return RationalFunction.from_poly(self._twist()) * euler_class_rf(chi)

    def __str__(self):
        return str(self.expand())

    def __eq__(self, other):
        if not isinstance(other, EulerEntry):
            return NotImplemented
        return self.nvars == other.nvars and self.form == other.form

    def __bool__(self):
        return True  # sign != 0, and no Euler factor 1 - w^-1 (w != 1) is zero

    def __neg__(self):
        return EulerEntry(self.nvars, self.key, -self.sign, self.chi)

    def residue(self, at):
        """The twist's residue times that of each Euler factor 1 - w^-1 to
        its multiplicity m, w^-1 the monomial of key 2 * zero - k, with
        nothing expanded; as RationalFunction.residue, PoleError where a
        factor with m < 0 has residue 0."""
        num, den, zero = at(self._twist()), 1, _layout(self.nvars).zero
        for k, m in self._pairs():
            f = 1 - at.monomial(2 * zero - k)  # in (-P, 1]: 0 exactly when 0 mod P
            if m > 0:
                num = num * f**m % P
            elif f:
                den = den * f**-m % P
            else:
                raise PoleError("an Euler factor vanishes mod P at the sample point")
        return num * pow(den, -1, P) % P

    def evaluate(self, point):
        """The exact value at a rational point, read as residue reads the
        data; PoleError where a factor with m < 0 vanishes there."""
        value, zero = self._twist().evaluate(point), _layout(self.nvars).zero
        for k, m in self._pairs():
            f = 1 - Poly._raw(self.nvars, {2 * zero - k: 1}).evaluate(point)
            if not f and m < 0:
                raise PoleError("an Euler factor vanishes at the sample point")
            value *= f**m
        return value


def _flat(pairs):
    """(k1, m1, k2, m2, ...) of the (key, multiplicity) pairs in key order."""
    return tuple(chain.from_iterable(sorted(pairs)))


def _pair_entry(n, S_small, S_big, raising, unit, at_target):
    """The entry at a nested pair, times the monomial unit unless None,
    given at_target, the character T_{S_t} Y at the target fixed point."""
    char = at_target - correspondence_tangent(n, S_small, S_big)
    if _layout(n + 1).zero in char.keys:  # as euler_class_rf would, and __bool__ relies on
        raise NonIsolatedFixedPointError("trivial weight in an Euler class")
    twist = _twist(n, S_small, S_big, raising)
    ((key, sign),) = (twist if unit is None else twist * unit).keys.items()
    return EulerEntry(n + 1, key, sign, _flat(char.keys.items()))


def lowering_unit(n):
    """The unit q^(2n) / (x_1 ... x_n) applied to every lowering matrix."""
    return Poly.monomial(n + 1, (-1,) * n + (2 * n,))


def _functor_matrix(n, source_weight, raising):
    """The one loop behind raising_matrix and lowering_matrix."""
    target_weight = source_weight + (2 if raising else -2)
    out = Matrix.zero_block(n, source_weight, target_weight, RationalFunction.zero(n + 1))
    unit = None if raising else lowering_unit(n)  # a monomial: it joins the twist
    targets = {}  # T_{S_t} Y of each target fixed point, formed once per block
    for j, Ss in enumerate(out.cols_points):
        for i, St in enumerate(out.rows_points):
            small, big = (St, Ss) if raising else (Ss, St)
            if set(small) <= set(big):
                if St not in targets:
                    targets[St] = tangent_gr(n, St) + hom_fiber(n, St)
                out.rows[i][j] = _pair_entry(n, small, big, raising, unit, targets[St])
    return out


def raising_matrix(n, source_weight):
    """Localized matrix of the raising functor from the given weight."""
    return _functor_matrix(n, source_weight, raising=True)


def lowering_matrix(n, source_weight):
    """The same for lowering, times lowering_unit(n)."""
    return _functor_matrix(n, source_weight, raising=False)


def epsilon_sign(n, k):
    return 1 if (n - k) % 2 else -1


@cache
def _signed_scalars(n):
    """{+1: 1 - q^(2n), -1: q^(2n) - 1}, the candidate commutator scalars."""
    base = Poly.one(n + 1) - Poly.q(n + 1, 2 * n)
    return {1: base, -1: -base}


def commutator_scalar(n, k):
    """(-1)^(n-k-1) * (1 - q^(2n)), a Poly."""
    return _signed_scalars(n)[epsilon_sign(n, k)]


def _normal_form(nvars, sign, key, pairs):
    """(sign, key, folded) of sign * X^key * prod (1 - w^-1)^m over the
    (key of w, m) pairs: each w folded onto whichever of w and w^-1 has
    the larger key, by 1 - w^-1 = -c (1 - c^-1) with c = w^-1, and the
    zero multiplicities dropped, folded a tuple of (key, m) in key order.
    Equal forms are equal fractions, and conversely (module docstring)."""
    lay = _layout(nvars)
    zero, folded = lay.zero, {}
    for k, m in pairs:
        if k < zero:  # the key 2 * zero - k of c = w^-1 is the larger
            sign, key, k = -sign if m % 2 else sign, key + m * (zero - k), 2 * zero - k
        folded[k] = folded.get(k, 0) + m
    _check_fields(lay, (key, *folded))  # as Poly's products do
    return sign, key, tuple(sorted(item for item in folded.items() if item[1]))


def _collected(nvars, terms):
    """{(key, folded): coefficient} of the signed sum of the products of
    the EulerEntrys in each (sign, *factors) of terms: each term's normal
    form from its factors' (signs multiplied, keys added, folded
    multiplicities merged, folded a frozenset of (key, m)), with the
    terms' signs added and zero coefficients dropped."""
    lay = _layout(nvars)
    out = {}
    for sign, first, *rest in terms:
        s, key, folded = first.form
        sign, merged = sign * s, dict(folded)
        for e in rest:
            s, k, folded = e.form
            sign, key = sign * s, key + k - lay.zero
            for w, m in folded:
                m += merged.get(w, 0)
                if m:
                    merged[w] = m
                else:
                    del merged[w]
        _check_fields(lay, (key,))  # as Poly's products do; the folded keys are the factors'
        form = key, frozenset(merged.items())
        out[form] = out.get(form, 0) + sign
    return {form: c for form, c in out.items() if c}


def residue(n, j):
    """R_j = q^(2n) e(chi_j), chi_j = sum_l q^2 x_j / x_l - sum_(l != j)
    x_j / x_l, as an EulerEntry: the residue at z = x_j of
    G(z) = prod_l (q^2 z - x_l) / (z prod_l (z - x_l))."""
    others = [(j, l) for l in range(1, n + 1) if l != j]
    chi = ratio_character(n, [(j, l) for l in range(1, n + 1)], 2) - ratio_character(n, others)
    ((key, sign),) = Poly.q(n + 1, 2 * n).keys.items()
    return EulerEntry(n + 1, key, sign, _flat(chi.keys.items()))


@cache
def _residues(n):
    """_collected of R_1, ..., R_n (residue), whose sum is q^(2n) - 1."""
    return _collected(n + 1, [(1, residue(n, j)) for j in range(1, n + 1)])


def _proven(n, terms, diagonal):
    """sigma where the signed sum of the products a * b over the
    (sign, a, b) in terms is proven from Euler data (module docstring) to
    be sigma * (q^(2n) - 1), else None: 0 when the terms' normal forms
    cancel, and at a diagonal position +-1 when they are sigma times those
    of the residues R_j.  None also when a factor is no EulerEntry."""
    if not terms:
        return 0
    if not all(isinstance(e, EulerEntry) for _, a, b in terms for e in (a, b)):
        return None
    got = _collected(n + 1, terms)
    if not got:
        return 0
    if diagonal:
        for sigma in (1, -1):
            if got == {form: sigma * c for form, c in _residues(n).items()}:
                return sigma
    return None


def _terms(ops):
    """{(i, j): [(sign, a, b), ...]} of the signed sum of the products
    A @ B over the (A, B) in ops, signs +1 and -1: each position's nonzero
    products a * b, the first product's first, each in order of the inner
    index, gathered in one pass over the nonzero entries."""
    terms = {}
    for sign, (left, right) in zip((1, -1), ops):
        nonzero = [[(j, b) for j, b in enumerate(row) if b] for row in right.rows]
        for i, row in enumerate(left.rows):
            for a, inner in zip(row, nonzero):
                if a:
                    for j, b in inner:
                        terms.setdefault((i, j), []).append((sign, a, b))
    return terms


def _refuted(terms, want, at):
    """Whether the signed sum of the products a * b over terms is proven
    to differ from want, a Poly, by residues mod P at the point of ``at``,
    a PointResidues (module docstring); False where a denominator has
    residue 0."""
    try:
        got = sum(sign * a.residue(at) * b.residue(at) for sign, a, b in terms) % P
    except PoleError:
        return False
    return got != want.residue(at)


SIDES = ("algebra", "geometric")


class Blocks:
    """The E and F blocks of both sides at one n, the geometric relation
    checks on them and the algebra's Relations, each built once.

    The batteries and the intertwiner of one verification share an
    instance, so every premise the intertwiner cites is the outcome its
    battery reports; cmd_verify hands relations to verify_relations too.
    Blocks come from raising_matrix, lowering_matrix and relations times
    _unit on first use.  A geometric entry holds its Euler data
    (EulerEntry), which the proofs, the refutations, the witnesses and the
    intertwiner's point stage read without expanding it.

    A geometric square or commutator is checked at every entry, each
    position by a value proven from Euler data; one not proven fails
    (module docstring).  A check whose every position holds passes;
    otherwise the witness names the first position in row-major order
    that fails, with the difference its decision gave, if any.
    """

    def __init__(self, n):
        self.n = n
        self.relations = Relations(n)
        self._memo = {}

    def _once(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def op(self, side, gen, w):
        """The normalized generator gen (E or F) from weight w on one side.
        The scaled algebra blocks are find_intertwiner's alone: the checks
        read relations' decisions, and the point stage its unscaled
        blocks."""
        if side == "algebra":
            block = self.relations.block
            return self._once((side, gen, w), lambda: block(gen, w).scale(_unit(self.n, gen, w)))
        build = raising_matrix if gen == "E" else lowering_matrix
        return self._once((side, gen, w), lambda: build(self.n, w))

    def _point(self):
        """The first of witness_points and its PointResidues, made on first
        use: the true action makes none."""
        point = self._once("point", lambda: next(witness_points(self.n + 1)))
        return point, self._once("residues", lambda: PointResidues(point))

    def _first_bad(self, products, s=None):
        """(witness, flipped) for A @ B, or A @ B - C @ D for two products,
        against s, a Poly, times the identity (zero when s is None): the
        witness of the first position in row-major order where it is not
        s Id, "" if none, and whether -s Id fails at some position.  Each
        position is decided for both signs from its terms (_terms) by the
        sign _proven from Euler data, and one not proven fails for both.
        The witness reads the decision that failed: the proven value
        minus s; else the exact value minus s at the first witness point,
        where residues refute s (_refuted); else the position alone, not
        proven from Euler data."""
        n, op = self.n, partial(self.op, "geometric")
        ops = [(op(*left), op(*right)) for left, right in products]
        first, last = ops[0]
        block = (n, last.source_weight, first.target_weight)
        gathered = _terms(ops)
        zero, scalars = Poly.zero(n + 1), _signed_scalars(n)
        bad, flipped = "", False
        for i, j in product(range(first.nrows), range(last.ncols)):
            diagonal = s is not None and i == j
            terms = gathered.get((i, j), [])
            sigma = _proven(n, terms, diagonal)
            if sigma == 0 and not diagonal:
                continue  # 0 holds against the target 0 with either sign
            want = s if diagonal else zero
            # None, not proven, equals neither target
            got = None if sigma is None else scalars[-sigma] if sigma else zero
            if not bad and got != want:
                if got is not None:
                    bad = witness(block, i, j, got - want)
                elif _refuted(terms, want, self._point()[1]):
                    at = self._point()[0]
                    value = sum(c * a.evaluate(at) * b.evaluate(at) for c, a, b in terms)
                    bad = witness(block, i, j, value=value - want.evaluate(at))
                else:
                    bad = f"{bad_entry(block, i, j)} is not proven from Euler data"
            flipped = flipped or got != -want
            if bad and flipped:
                break
        return bad, flipped

    def square(self, gen, w):
        """(name, witness) of the check that the geometric gen twice from
        weight w vanishes."""
        name = f"{'raising' if gen == 'E' else 'lowering'} twice from weight {w} vanishes"
        products = [((gen, w + (2 if gen == "E" else -2)), (gen, w))]
        return name, self._once(name, lambda: self._first_bad(products)[0])

    def commutator(self, w):
        """[(name, witness)] of the geometric commutator checks at weight
        w, and the note on the observed sign (else None)."""
        return self._once(("commutator", w), lambda: self._commutator(w))

    def _commutator(self, w):
        n, k = self.n, k_of(self.n, w)
        products = [(("F", w + 2), ("E", w)), (("E", w - 2), ("F", w))]
        name = f"weight {w} commutator is a (1-q^{2*n}) scalar on a dim-{comb(n, k)} block"
        pred = epsilon_sign(n, k)
        s = _signed_scalars(n)[pred]
        # where s fails, flipped is False exactly when -s holds everywhere
        bad, flipped = self._first_bad(products, s)
        if bad and flipped:
            return [(name, bad)], None
        eps = -pred if bad else pred
        sign = f"observed {eps:+d}, parity {pred:+d}; {bad}" if bad else ""
        note = f"weight {w}: epsilon={eps:+d}, parity (-1)^(n-k-1)={pred:+d}"
        return [(name, ""), (f"weight {w} sign matches (-1)^(n-k-1)", sign)], note


def _add(rep, checks):
    for name, bad in checks:
        rep.add(name, not bad, bad)


def nilpotency_report(n, max_weight=None, blocks=None):
    blocks = Blocks(n) if blocks is None else blocks
    rep = Report(f"geometric nilpotency at n={n}")
    for w in weights(n, max_weight):
        _add(rep, [blocks.square(gen, w) for gen in "EF"])
    return rep


def commutator_report(n, max_weight=None, blocks=None):
    """Checks FE - EF = eps * (1 - q^(2n)) Id per weight block and records
    the observed sign against the parity (-1)^(n-k-1)."""
    blocks = Blocks(n) if blocks is None else blocks
    rep = Report(f"geometric commutator scalars at n={n}")
    for w in weights(n, max_weight):
        checks, note = blocks.commutator(w)
        _add(rep, checks)
        if note:
            rep.note(note)
    return rep


def _unit(n, gen, source_weight):
    """The unit that normalizes the algebra generator gen from the weight:
    q^(-n) for E and (-1)^(n-k-1) q^(2n) for F, k taken at the source."""
    if gen == "E":
        return Poly.q(n + 1, -n)
    return Poly.q(n + 1, 2 * n) * epsilon_sign(n, k_of(n, source_weight))


def _normalized_square(relations, gen, w):
    """(name, witness) of a normalized square (see normalized_rep_report)."""
    n, step = relations.n, 2 if gen == "E" else -2
    failed = relations.failing(f"{gen}^2", w)
    unit = _unit(n, gen, w + step) * _unit(n, gen, w)
    bad = "" if failed is None else entry_witness(failed[0].scale(unit))
    return f"{gen}^2 vanishes from weight {w}", bad


def _normalized_commutator(relations, w):
    """[(name, witness)] of the normalized commutator (see
    normalized_rep_report)."""
    n, k = relations.n, k_of(relations.n, w)
    s = commutator_scalar(n, k)
    signs = (-epsilon_sign(n, k), epsilon_sign(n, k - 1))  # of EF and FE
    c, signs = (signs[0], None) if signs[0] == signs[1] else (1, signs)
    failed = relations.failing("EF + FE", w, s * Poly.q(n + 1, -n) * c, signs)
    got = failed and failed[0].scale(Poly.q(n + 1, n) * c)
    bad = "" if got is None else entry_witness(got, Matrix.scalar_block(n, w, s))
    return [(f"FE - EF is eps*(1-q^{2*n}) at weight {w}", bad)]


def normalized_rep_report(n, max_weight=None, blocks=None):
    """Nilpotency of the normalized algebra blocks E_norm = q^(-n) E and
    F_norm = eps_k q^(2n) F (_unit; eps_k = epsilon_sign(n, k), k at F's
    source) and their commutator scalar matching the geometric one,
    s_w = commutator_scalar(n, k).  K centrality and the H-grading
    conjugation are not checked here: on weight blocks they hold for any
    block-scalar K and H, whatever E and F are.  The algebra's own K and
    H are checked by superrep.verify_relations and "H acts by q^m".

    Each check reads a decision of blocks.relations through exact unit
    algebra.  E_norm(w+2) E_norm(w) = q^(-2n) E(w+2) E(w) and
    F_norm(w-2) F_norm(w) = eps_(k+1) eps_k q^(4n) F(w-2) F(w), so a
    square vanishes exactly when E^2 = 0 (F^2 = 0) holds from w.  And
    F_norm(w+2) E_norm(w) - E_norm(w-2) F_norm(w)
    = q^n (eps_(k-1) FE - eps_k EF), so the check is the one signed
    decision eps_(k-1) FE - eps_k EF = q^(-n) s_w Id.  Where
    eps_k = -eps_(k-1) the common sign joins the target: FE + EF = t_w Id
    with t_w = eps_(k-1) q^(-n) s_w, on the true action q^n - q^(-n) =
    K - Kinv, so it is the decision of "EF + FE = K - Kinv".  A witness
    names the first bad entry in row-major order of the signed Poly sum
    times its unit, with the value a fraction-field check gives."""
    rel = (Blocks(n) if blocks is None else blocks).relations
    rep = Report(f"normalized algebra blocks at n={n}")
    for w in weights(n, max_weight):
        _add(rep, [_normalized_square(rel, gen, w) for gen in "EF"])
        _add(rep, _normalized_commutator(rel, w))
    return rep


def _block_keys(n):
    """The (side, gen, w) keys of the E and F blocks the intertwiner uses."""
    return [(side, gen, w) for side in SIDES for w in weights(n) + [n + 2] for gen in "EF"]


def _with_projectors(at, n, inverse_scalars=None):
    """Adds to the blocks at[side, gen, w] the projectors
    at[side, "p", w] = F_{w+2} E_w / s_w of both sides, given 1 / s_w by
    weight, or without them the products F_{w+2} E_w, as at a sample
    point (see _at_points)."""
    for side in SIDES:
        for w in weights(n):
            p = at[side, "F", w + 2] @ at[side, "E", w]
            at[side, "p", w] = p if inverse_scalars is None else p.scale(inverse_scalars[w])
    return at


def _residue_block(block, at, unit=1):
    """The block's residues mod P at the point of ``at`` (a PointResidues),
    each times unit, a residue."""
    rows = [[e.residue(at) * unit % P if e else 0 for e in row] for row in block.rows]
    return Matrix(block.nrows, block.ncols, rows, 0, block.block)


def _at_points(blocks, seed):
    """Yields, at successive seeded rational points, the residues mod P of
    the E and F blocks of both sides and the products F_{w+2} E_w in
    place of the projectors p_w, skipping a point where a denominator of
    an E or F entry has residue 0 or some s_w does (q = 1 can be drawn).
    An algebra block is relations' unscaled Poly block, each residue times
    its unit's (_unit)."""
    n = blocks.n

    def reduced(at, side, gen, w):
        if side == "geometric":
            return _residue_block(blocks.op(side, gen, w), at)
        return _residue_block(blocks.relations.block(gen, w), at, _unit(n, gen, w).residue(at))

    for point in sample_points(n + 1, seed):
        at = PointResidues(point)
        if not all(commutator_scalar(n, k_of(n, w)).residue(at) for w in weights(n)):
            continue
        try:
            residues = {key: reduced(at, *key) for key in _block_keys(n)}
        except PoleError:
            continue
        yield _with_projectors(residues, n)


def _transported_basis(at, side, w, pivots):
    """B[w] = [P_w | E_{w-2} P_{w-2}] on one side (B[-n] = P_-n), where
    P_v holds the columns pivots[side, v] of the projector at[side, "p", v]
    and E_v is at[side, "E", v]."""
    proj = columns(at[side, "p", w], pivots[side, w])
    if (side, w - 2) not in pivots:
        return proj
    below = columns(at[side, "p", w - 2], pivots[side, w - 2])
    return hstack(proj, at[side, "E", w - 2] @ below)


def _failed_premises(blocks, gen, w):
    """A witness for each failing premise of "phi intertwines gen at
    weight w" (see find_intertwiner), algebra side first."""
    n, rel = blocks.n, blocks.relations
    out = []
    for side, square, commutator in (
        ("algebra", partial(_normalized_square, rel), partial(_normalized_commutator, rel)),
        ("geometric", blocks.square, lambda v: blocks.commutator(v)[0]),
    ):
        checks = [square("F", w + 2)] if gen == "F" and w < n else []
        checks += [square("E", w - 2)] if w > -n else []
        checks += commutator(w) if gen == "F" else []
        out += [(side, name, bad) for name, bad in checks]
    if gen == "F":
        s = [commutator_scalar(n, k) for k in (k_of(n, w), k_of(n, w) + 1)]
        geo = [_signed_scalars(n)[epsilon_sign(n, k)] for k in (k_of(n, w), k_of(n, w) + 1)]
        ok = s[0] == -s[1] and s == geo
        bad = "" if ok else f"s = {s[0]}, {s[1]}; geometric {geo[0]}, {geo[1]}"
        out.append(("algebra", f"sign relation s_{w} = -s_{w - 2}", bad))
    return [f"{side} side, weight {w}: {name} fails: {bad}" for side, name, bad in out if bad]


def _prove_intertwiner(n, seed, blocks):
    """The proof described in find_intertwiner.  Returns the report and,
    when the transported bases are square, the pivot columns
    {(side, w): indices} of each p_w."""
    rep = Report(f"intertwiner at n={n}")
    dims = {w: comb(n, k_of(n, w)) for w in weights(n)}
    points = _at_points(blocks, seed)
    first = next(points, None)
    if first is None:
        drawn = sum(1 for _ in sample_points(n + 1, seed))
        why = f"all {drawn} points drawn with seed {seed:#x} hit a pole or a vanishing s_w"
        rep.add("a pole-free sample point exists", False, why)
        return rep, None
    pivots = {}
    ok_bases = True
    for w in reversed(dims):
        for side in SIDES:
            pivots[side, w] = pivot_columns(first[side, "p", w])
        r_alg, r_geo = (len(pivots[side, w]) for side in SIDES)
        if r_alg != r_geo:
            why = f"algebra rank {r_alg}, geometric rank {r_geo}"
            rep.add(f"projector ranks agree at weight {w}", False, why)
            ok_bases = False
            continue
        short = []
        for side in SIDES:
            ncols = len(pivots[side, w]) + (len(pivots[side, w - 2]) if w > -n else 0)
            if ncols != dims[w]:
                short.append(f"{side}: {ncols} columns for a dim-{dims[w]} block")
        rep.add(f"transported bases fill the weight-{w} block", not short, "; ".join(short))
        ok_bases = ok_bases and not short
    if not ok_bases:
        return rep, None

    evaluated = [first]

    def tries():
        """The pivot point first, then further points with the same pivots,
        each evaluated once for every (w, side) that needs it."""
        yield from evaluated
        for at in points:
            evaluated.append(at)
            yield at

    for w in dims:
        why = []
        for side in SIDES:
            bases = (_transported_basis(at, side, w, pivots) for at in tries())
            if all(len(pivot_columns(b)) < dims[w] for b in bases):
                why.append(f"{side} basis: determinant vanished at every pole-free sample point")
        rep.add(f"phi at weight {w} is invertible", not why, "; ".join(why))

    for w in dims:
        for gen in [g for g, applies in (("E", w < n), ("F", w > -n)) if applies]:
            bad = next(iter(_failed_premises(blocks, gen, w)), "")
            rep.add(f"phi intertwines {gen} at weight {w}", not bad, bad)
    return rep, pivots


def find_intertwiner(n, seed=0xC0FFEE):
    """Proves that the normalized algebra action and the geometric one are
    intertwined by a block-diagonal phi, and returns phi in factored form.

    On each side, with s_w the commutator scalar and p_w = F_{w+2} E_w / s_w,
    the pivot columns P_w of p_w and E_{w-2} P_{w-2} form the basis
    B[w] = [P_w | E_{w-2} P_{w-2}].  Ranks, squareness and "phi at weight
    w is invertible" (det B[w] nonzero on both sides) come from E and F
    reduced mod P at one seeded point (over F_P: see the module
    docstring), redrawn while a denominator or an s_w has residue 0
    there, so reduction is a ring homomorphism.  A determinant nonzero
    mod P is then nonzero at the point over Q, so det B[w] is nonzero;
    an unlucky P or point can only lose pivots, never fake one.
    If B is singular there, further points are tried with the same
    pivots: the certificate is one-sided.  The other checks are derived
    from premises that the relation batteries prove exactly:

    * "phi intertwines E at weight w", E_w B[w] = [E_w P_w | 0], follows
      from E_w E_{w-2} = 0: "E^2 vanishes from weight w-2" and "raising
      twice from weight w-2 vanishes".  At w = -n it has no premise.
    * "phi intertwines F at weight w", F_w B[w] = [0 | s_{w-2} P_{w-2}]:
      F_w P_w = 0 by F^2 = 0 from w+2, and F^2 = 0, E^2 = 0 and the
      commutator at w give p_{w-2}^2 = (-s_w / s_{w-2}) p_{w-2}.  Its
      premises on both sides: F^2 from w+2, E^2 from w-2, the commutator
      at w (geometric: the scalar and its sign), and the exact sign
      relation s_w = -s_{w-2} with s the geometric scalar.

    A failure quotes the first failing premise and its witness.  E and F
    then act on B_alg and B_geo by the same structure matrices, so
    phi_w = B_geo[w] B_alg[w]^-1 intertwines.  Returns (bases, report):
    bases maps each weight w to (B_alg[w], B_geo[w]), square matrices
    over the fraction field, and is empty unless every check passed.
    Nothing is inverted; the bases are built only after the proof passes.
    """
    blocks = Blocks(n)
    rep, pivots = _prove_intertwiner(n, seed, blocks)
    if not rep.passed:
        return {}, rep
    scalars = {w: RationalFunction.from_poly(commutator_scalar(n, k_of(n, w))) for w in weights(n)}
    inverse = {w: s.inv() for w, s in scalars.items()}
    lift = {"algebra": RationalFunction.from_poly, "geometric": lambda e: e and e.expand()}
    at = {key: blocks.op(*key).map(lift[key[0]]) for key in _block_keys(n)}
    _with_projectors(at, n, inverse)
    bases = {
        w: tuple(_transported_basis(at, side, w, pivots) for side in SIDES) for w in weights(n)
    }
    return bases, rep


def intertwiner_report(n, seed=0xC0FFEE, blocks=None):
    """The checks of find_intertwiner, without building phi.  With its
    premises already in `blocks` it forms no symbolic product."""
    return _prove_intertwiner(n, seed, Blocks(n) if blocks is None else blocks)[0]
