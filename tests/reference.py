"""Slow references and accessors that only the tests use.

Polynomial references: plain division by any divisor and the unit
extraction of a nonzero polynomial, the references for Poly.exact_div
and for the denominator-factor canonicalizer of qglk.ratfunc; a line
bundle twist as an exponent shift, the reference for the key offset of
qglk.koszul.  x_i -> x_perm[i-1] on exponent tuples, and on a fraction
through its constructor: the references for the naturality of the
denominator canonicalizer and of Euler classes.  The
stored form of a fraction, to compare reductions and not just values.
Evaluation with power tables built for each polynomial, summed as
integers and returned as one Fraction, the reference for the Fraction
arithmetic of Poly.evaluate and RationalFunction.evaluate; a Fraction's
residue mod P, the reference for qglk.poly.PointResidues and the residue
methods.

Linear algebra over the fraction field: the inverse of a fraction whose
numerator is a unit or a binomial; pivot columns by fraction-free
(Bareiss) elimination over Poly, which needs no inverse of a general
polynomial; symbolic Gauss-Jordan inverses, whose pivots must have unit
or binomial numerators (they do for n <= 2); and the point-sampled pivot
and invertibility certificates the intertwiner's proof once called.  They
are references for the proof of qglk.fm.intertwiner_report and for phi:
find_intertwiner runs that proof and then builds phi over the fraction
field as the pair of bases B_alg, B_geo with
phi_w = B_geo[w] B_alg[w]^-1, which phi_from_bases inverts.  The proof's
point stage over Q: the blocks evaluated to Fractions, the projectors
scaled by 1 / s_w and Gaussian elimination over Q, the reference for the
stage over F_P of qglk.fm and qglk.linalg.pivot_columns.

The full sweeps: every entry of each geometric square and commutator,
formed as whole matrices of lifted entries, the reference for the checks of
qglk.fm.Blocks; each position's products read from dense rows, decided
by raised_sum alone (one exact zero test over a common denominator with
no cancellation), and a failing check's entry formed afresh
from its products, the reference for the terms qglk.fm gathers from
the nonzero entries, the Euler-data proofs of qglk.fm.Blocks._first_bad
and the witnesses it reads from its decisions; the normalized algebra checks multiplied out
over the fraction field, the reference for those qglk.fm reads from
superrep's decisions through unit algebra, from the algebra blocks
times their units lifted to the fraction field (algebra_block); and the
row-major scan for
the first entry where two matrices differ, the reference for
qglk.matrix.entry_witness.  The dense
tensor representation: the 2^n x 2^n matrix of a generator on all basis
vectors, the reference for the block-by-block relation battery, and the
letter-by-letter action on 0/1 words, the reference for the action on
subsets.  The relation battery with every relation multiplied out as
block products, the reference for the grouplike relations decided from
block scalars.  Fixed-point bookkeeping: the nested pairs of the
one-step correspondence and block entries looked up by their subset
labels.  Test-only views of the package: the failed checks of a report,
and the iterated Koszul cone routes and their report on their own.

The functor-matrix entries multiplied out as soon as they are built,
the reference for the entries of qglk.fm, which keep their Euler data
and form their fraction only through EulerEntry.expand; fraction, the
one lift of an EulerEntry or a Poly into the fraction field, which every
fraction-field reference here and in the tests reads them through.

Localization: tangent characters and inverse Euler classes of a fixed-point
space built from scratch at each call, and the pushforward as one
RationalFunction.sum of value times inverse Euler class, the reference for
the shared localization form of qglk.grassmann.
"""

from fractions import Fraction
from functools import partial
from itertools import combinations, product
from math import comb
from operator import add, sub

from qglk import fm, koszul, superrep
from qglk.grassmann import (
    dual,
    euler_class_rf,
    exterior_powers,
    fixed_points,
    hom_fiber,
    tangent_gr,
)
from qglk.linalg import columns, pivot_columns, sample_points
from qglk.matrix import Matrix, entry_witness, k_of, weights, witness
from qglk.poly import P, Poly
from qglk.ratfunc import PoleError, RationalFunction, common_denominator
from qglk.report import Report


def term_key(exps):
    """Total-degree-then-lexicographic sort key for an exponent tuple: the
    reference term order that Poly's packed keys must follow."""
    return (sum(exps), exps)


def reference_floor(p):
    """Componentwise minimum exponent over the terms of p."""
    return tuple(map(min, zip(*p.terms)))


def reference_exact_div(a, b):
    """Plain sparse division by any divisor, rescanning the remainder for
    its leading term.

    Slow but obviously right: the reference for Poly.exact_div.  Terms are
    keyed by term_key of their exponents above the floor, so the leading
    term is the largest key.
    """
    if not b.terms:
        raise ZeroDivisionError("polynomial division by zero")
    if not a.terms:
        return Poly.zero(a.nvars)
    shift_s, shift_o = reference_floor(a), reference_floor(b)

    def keyed(p, shift):
        return {term_key(tuple(map(sub, e, shift))): c for e, c in p.terms.items()}

    num, den = keyed(a, shift_s), keyed(b, shift_o)
    dlead = max(den)
    dlc = den[dlead]
    quo = {}
    while num:
        lead = max(num)
        c = num[lead]
        qexp = tuple(map(sub, lead[1], dlead[1]))
        if any(e < 0 for e in qexp) or c % dlc:
            return None
        qc = c // dlc
        quo[qexp] = qc
        for (_, e), dc in den.items():
            t = term_key(tuple(map(add, qexp, e)))
            nc = num.get(t, 0) - qc * dc
            if nc:
                num[t] = nc
            else:
                num.pop(t, None)
    off = tuple(map(sub, shift_s, shift_o))
    return Poly(a.nvars, {tuple(map(add, e, off)): c for e, c in quo.items()})


def reference_twist(char, ell_inv, power, q_exp=0):
    """char (L^dual)^power q^q_exp, ell_inv the exponents of L^dual, as
    one exponent shift through Poly.shift_exps: the reference for the key
    offset of qglk.koszul._twist."""
    shift = [a * power for a in ell_inv]
    shift[-1] += q_exp
    return char.shift_exps(shift)


def reference_extract_unit(p):
    """(canonical terms, shift, sign) of a nonzero p = sign * X^shift *
    canonical whose leading coefficient is +-1, with canonical of floor
    zero and leading coefficient 1: the reference for the
    denominator-factor canonicalizer of qglk.ratfunc."""
    shift = reference_floor(p)
    sign = p.terms[max(p.terms, key=term_key)]
    canonical = {tuple(a - s for a, s in zip(e, shift)): c * sign for e, c in p.terms.items()}
    return canonical, shift, sign


def reference_table_evaluate(p, point):
    """p at a tuple of rationals ordered (x_1, ..., x_N, q), one Fraction.

    With x_i = a_i / b_i and exponents of x_i in [lo_i, hi_i], a term
    c * X^e is the integer c * prod a_i^(e_i - lo_i) b_i^(hi_i - e_i)
    times prod a_i^lo_i / b_i^hi_i, so the terms sum as integers.
    """
    if len(point) != p.nvars:
        raise ValueError("point has wrong length")
    terms = p.terms
    num = den = 1
    tables = []
    for v, col in zip(map(Fraction, point), zip(*terms)):
        a, b = v.numerator, v.denominator
        lo, hi = min(col), max(col)
        num *= a ** max(lo, 0) * b ** max(-hi, 0)
        den *= a ** max(-lo, 0) * b ** max(hi, 0)
        tables.append((lo, [a**i * b ** (hi - lo - i) for i in range(hi - lo + 1)]))
    total = 0
    for e, c in terms.items():
        for x, (lo, table) in zip(e, tables):
            c *= table[x - lo]
        total += c
    return Fraction(total * num, den)


def reference_rf_evaluate(r, point):
    """A RationalFunction at a rational point, one Fraction, each factor
    by reference_table_evaluate; PoleError where a factor vanishes."""
    den = Fraction(1)
    for f, m in r.den_factors:
        v = reference_table_evaluate(f, point)
        if v == 0:
            raise PoleError("denominator vanishes at the sample point")
        den *= v**m
    return reference_table_evaluate(r.num, point) / den


def residue_mod_p(v):
    """The residue mod P of a rational whose denominator P does not divide."""
    v = Fraction(v)
    return v.numerator * pow(v.denominator, -1, P) % P


def reference_permute(p, perm):
    """x_i -> x_perm[i-1] on exponent tuples: the exponent of x_i moves to
    slot perm[i-1], q stays last."""
    out = {}
    for e, c in p.terms.items():
        moved = list(e)
        for i, target in enumerate(perm):
            moved[target - 1] = e[i]
        out[tuple(moved)] = c
    return out


def reference_permute_rf(r, perm):
    """A RationalFunction with x_i -> x_perm[i-1], built by the constructor
    from its numerator and denominator factors, each permuted by
    reference_permute."""

    def moved(p):
        return Poly(p.nvars, reference_permute(p, perm))

    den = tuple((moved(f), m) for f, m in r.den_factors)
    return RationalFunction(r.nvars, moved(r.num), den)


def fraction(e):
    """An EulerEntry (expanded), a Poly or a RationalFunction as a
    RationalFunction: the one lift into the fraction field of the tests'
    references.  A block lifts entry by entry, block.map(fraction)."""
    if isinstance(e, fm.EulerEntry):
        return e.expand()
    return RationalFunction.from_poly(e) if isinstance(e, Poly) else e


def structure(r):
    """(nvars, numerator keys, denominator factors) of a RationalFunction:
    equal exactly when two fractions are stored alike, not merely when
    they are equal."""
    return r.nvars, r.num.keys, r.den_factors


def complexity(entry):
    """Size of a rational function: numerator terms plus denominator
    factors with multiplicity; symbolic elimination pivots on the
    smallest entry."""
    return len(entry.num.keys) + sum(m for _, m in entry.den_factors)


def specializations(mat, nvars, seed, attempts=72):
    """Yields mat evaluated exactly (a Matrix over Q) at successive seeded
    random rational points, skipping points where an entry has a pole.
    At most `attempts` points are drawn."""
    for point in sample_points(nvars, seed, attempts):
        try:
            at = mat.map(lambda e: e.evaluate(point))
        except PoleError:
            continue
        yield at


def column_basis(mat, nvars, seed=0xC0FFEE):
    """Indices of independent columns, chosen at one seeded sample point.

    The columns returned are independent over the fraction field.  They
    span the column space unless the point is a common root of the
    maximal minors, in which case fewer columns come back.
    """
    for at in specializations(mat, nvars, seed):
        return pivot_columns(at)
    raise PoleError("every sample point hit a pole")


def certify_invertible(mat, nvars, seed=0xC0FFEE, attempts=72):
    """Certificate that a matrix over the fraction field is invertible:
    a nonsingular specialization at a rational point proves the symbolic
    determinant nonzero.  Points hitting poles or a vanishing determinant
    are redrawn."""
    if mat.nrows != mat.ncols:
        return False, "not square"
    if mat.nrows == 0:
        return True, "empty matrix"
    for at in specializations(mat, nvars, seed, attempts):
        if len(pivot_columns(at)) == mat.nrows:
            return True, "nonzero determinant at a sample point"
    return False, f"determinant vanished or hit poles at {attempts} sample points"


def reference_pivot_columns(mat):
    """Pivot columns by Gaussian elimination over Q, in Fractions: the
    reference for linalg.pivot_columns."""
    rows = [[Fraction(a) for a in r] for r in mat.rows]
    pivots = []
    for col in range(mat.ncols):
        top = len(pivots)
        piv = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        head = rows[top]
        inv = 1 / head[col]
        for r in range(top + 1, len(rows)):
            f = rows[r][col] * inv
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], head)]
        pivots.append(col)
    return pivots


def lifted_block(blocks, side, gen, w):
    """The normalized E or F block of gen from weight w on one side over
    the fraction field: algebra_block, or the geometric block of blocks
    lifted entry by entry (fraction)."""
    if side == "algebra":
        return algebra_block(blocks.n, gen, w)
    return blocks.op(gen, w).map(fraction)


def with_projectors(at, n, inverse_scalars):
    """Adds to the blocks at[side, gen, w] the projectors
    at[side, "p", w] = F_{w+2} E_w / s_w of both sides, given 1 / s_w by
    weight: where fm._at_points keeps the products F_{w+2} E_w mod P."""
    for side in fm.SIDES:
        for w in weights(n):
            p = at[side, "F", w + 2] @ at[side, "E", w]
            at[side, "p", w] = p.scale(inverse_scalars[w])
    return at


def fraction_points(blocks, seed):
    """The proof's point stage over Q, the reference for fm._at_points:
    at successive seeded rational points, the E and F blocks of both
    sides (lifted_block) evaluated to Fractions and the projectors
    p_w = F_{w+2} E_w / s_w, skipping a point where an entry has a pole
    or some s_w vanishes."""
    n = blocks.n
    for point in sample_points(n + 1, seed):
        s = {
            w: reference_rf_evaluate(fraction(fm.commutator_scalar(n, k_of(n, w))), point)
            for w in weights(n)
        }
        if not all(s.values()):
            continue
        try:
            at = {
                key: lifted_block(blocks, *key).map(
                    lambda e: reference_rf_evaluate(e, point) if e else 0
                )
                for key in fm._block_keys(n)
            }
        except PoleError:
            continue
        yield with_projectors(at, n, {w: 1 / v for w, v in s.items()})


def reference_column_basis(mat):
    """Pivot columns by fraction-free (Bareiss) elimination over Poly.

    Each column is first raised to its shared binomial denominator, which
    scales it by a nonzero factor and so changes no pivot.  After the k-th
    pivot every entry below it is a (k+1)-minor, so the update
    (p * a - b * c) / previous pivot divides exactly (Sylvester's
    identity); the division is the reference's own, reference_exact_div.
    """
    nvars = mat.zero.nvars
    cols = [
        common_denominator(nvars, [(row[j].num, row[j].den_factors) for row in mat.rows])[0]
        for j in range(mat.ncols)
    ]
    work = [list(r) for r in zip(*cols)] if cols else [[] for _ in range(mat.nrows)]
    nr, nc = mat.nrows, mat.ncols
    pivots = []
    prev = Poly.one(nvars)
    row = 0
    for col in range(nc):
        if row >= nr:
            break
        live = [r for r in range(row, nr) if work[r][col]]
        if not live:
            continue
        r = min(live, key=lambda r: len(work[r][col].keys))
        work[row], work[r] = work[r], work[row]
        head = work[row]
        for r2 in range(row + 1, nr):
            lead = work[r2][col]
            for c2 in range(col + 1, nc):
                minor = head[col] * work[r2][c2] - lead * head[c2]
                work[r2][c2] = reference_exact_div(minor, prev)
                assert work[r2][c2] is not None, "a Bareiss step did not divide"
        prev = head[col]
        pivots.append(col)
        row += 1
    return pivots


def full_symbolic_rank(mat):
    """Whether mat is square with full rank over the fraction field, by
    reference_column_basis on its columns sparsest first: the rank does not
    depend on the column order, and sparse leading columns keep the minors
    small."""
    order = sorted(range(mat.ncols), key=lambda j: sum(len(r[j].num.keys) for r in mat.rows))
    return mat.nrows == mat.ncols and len(reference_column_basis(columns(mat, order))) == mat.ncols


def inverse(r):
    """1 / r for a nonzero RationalFunction r.  The numerator becomes the
    one denominator factor, so it must be +-X^s or +-X^s (X^a - X^b)."""
    if not r.num:
        raise ZeroDivisionError("inverse of zero")
    num = Poly.one(r.nvars)
    for f, m in r.den_factors:
        num = num * f**m
    return RationalFunction(r.nvars, num, ((r.num, 1),))


def invert_matrix(mat, one):
    """Exact inverse by symbolic Gauss-Jordan elimination; raises
    ValueError if the matrix turns out singular."""
    n = mat.nrows
    if mat.ncols != n:
        raise ValueError("only square matrices invert")
    work = [list(r) for r in mat.rows]
    aug = [[one if i == j else mat.zero for j in range(n)] for i in range(n)]
    for col in range(n):
        best = None
        for r in range(col, n):
            if work[r][col]:
                c = complexity(work[r][col])
                if best is None or c < best[1]:
                    best = (r, c)
        if best is None:
            raise ValueError(f"matrix is singular at column {col}")
        r = best[0]
        work[col], work[r] = work[r], work[col]
        aug[col], aug[r] = aug[r], aug[col]
        inv = inverse(work[col][col])
        work[col] = [e * inv for e in work[col]]
        aug[col] = [e * inv for e in aug[col]]
        for r2 in range(n):
            if r2 != col and work[r2][col]:
                f = work[r2][col]
                work[r2] = [a - f * b for a, b in zip(work[r2], work[col])]
                aug[r2] = [a - f * b for a, b in zip(aug[r2], aug[col])]
    return Matrix(n, n, aug, mat.zero)


def find_intertwiner(n, seed=0xC0FFEE):
    """The proof of fm.intertwiner_report, then phi in factored form:
    (bases, report), bases mapping each weight w to (B_alg[w], B_geo[w]),
    the square bases B[w] = [P_w | E_{w-2} P_{w-2}] over the fraction
    field on the pivot columns the proof chose (fm._prove_intertwiner),
    empty unless every check passed.  Nothing is inverted; the bases are
    built only after the proof passes."""
    blocks = fm.Blocks(n)
    rep, pivots = fm._prove_intertwiner(n, seed, blocks)
    if not rep.passed:
        return {}, rep
    at = {key: lifted_block(blocks, *key) for key in fm._block_keys(n)}
    scalars = {w: fraction(fm.commutator_scalar(n, k_of(n, w))) for w in weights(n)}
    with_projectors(at, n, {w: inverse(s) for w, s in scalars.items()})
    bases = {
        w: tuple(fm._transported_basis(at, side, w, pivots) for side in fm.SIDES)
        for w in weights(n)
    }
    return bases, rep


def phi_from_bases(n, bases):
    """The intertwiner blocks phi_w = B_geo[w] B_alg[w]^-1 from the bases
    {w: (B_alg[w], B_geo[w])} that find_intertwiner returns; n <= 2,
    where invert_matrix meets only unit or binomial pivots."""
    one = RationalFunction.const(n + 1, 1)
    return {w: geo @ invert_matrix(alg, one) for w, (alg, geo) in bases.items()}


def entry(block, S_t, S_s):
    """The entry of a weight block at row subset S_t and column subset S_s."""
    return block[block.rows_points.index(tuple(S_t)), block.cols_points.index(tuple(S_s))]


def correspondence_pairs(n, k_small):
    """Fixed points of the one-step correspondence: nested pairs."""
    out = []
    for Sb in fixed_points(n, k_small + 1):
        for b in Sb:
            out.append((tuple(i for i in Sb if i != b), Sb))
    return out


def reference_pair_entry(n, S_small, S_big, raising):
    """The functor-matrix entry at a nested pair, multiplied out at once:
    the twist times euler_class_rf of T_{S_t} Y - T_W."""
    S_tgt = S_small if raising else S_big
    char = (
        tangent_gr(n, S_tgt) + hom_fiber(n, S_tgt) - fm.correspondence_tangent(n, S_small, S_big)
    )
    return fraction(fm._twist(n, S_small, S_big, raising)) * euler_class_rf(char)


def reference_functor_matrix(n, source_weight, raising):
    """The raising or lowering block from reference_pair_entry, each
    lowering entry times fm.lowering_unit(n) as a fraction."""
    target = source_weight + (2 if raising else -2)
    out = Matrix.zero_block(n, source_weight, target, RationalFunction.zero(n + 1))
    unit = fraction(fm.lowering_unit(n))
    for j, Ss in enumerate(out.cols_points):
        for i, St in enumerate(out.rows_points):
            small, big = (St, Ss) if raising else (Ss, St)
            if set(small) <= set(big):
                e = reference_pair_entry(n, small, big, raising)
                out.rows[i][j] = e if raising else e * unit
    return out


def tangent(space, S):
    """Tangent character of a fixed-point space at S: the Grassmannian
    directions, plus the Hom fiber when the space carries it."""
    t = tangent_gr(space.n, S)
    return t + hom_fiber(space.n, S) if space.with_fiber else t


def inverse_euler(space, S):
    """1 / e(T_S), built afresh at each call."""
    return euler_class_rf(tangent(space, S), invert=True)


def reference_pushforward(space, values):
    """Sum over the fixed points of value / e(T_S), each term a fraction of
    its own, added by RationalFunction.sum."""
    return RationalFunction.sum(
        space.nvars,
        [
            RationalFunction.from_poly(values(S)) * inverse_euler(space, S)
            for S in fixed_points(space.n, space.k)
        ],
    )


def word_weight(word):
    return len(word) - 2 * sum(word)


def subset_from_word(word):
    return tuple(i + 1 for i, p in enumerate(word) if p)


def basis_subsets(n):
    """All subsets of {1..n}, the odd slots of the basis vectors, weight
    block after weight block."""
    return [S for k in range(n + 1) for S in combinations(range(1, n + 1), k)]


def basis_words(n):
    """All 0/1 words of length n, in the basis_subsets order."""
    return [superrep.word_from_subset(n, S) for S in basis_subsets(n)]


def word_action(gen, word):
    """Image of a basis word under a generator, as (word, coefficient)
    pairs: the action on 0/1 words, letter by letter, the reference for
    superrep.apply_generator on subsets."""
    n = len(word)
    k = sum(word)

    def q(e):
        return Poly.q(n + 1, e)

    if gen == "K":
        return [(word, q(n))]
    if gen == "Kinv":
        return [(word, q(-n))]
    if gen == "H":
        return [(word, q(n - 2 * k))]
    if gen == "Hinv":
        return [(word, q(2 * k - n))]
    out = []
    sign = 1
    if gen == "E":
        for j in range(1, n + 1):
            if word[j - 1] == 1:
                flipped = word[: j - 1] + (0,) + word[j:]
                out.append((flipped, (q(1 + j - n) - q(j - n - 1)) * sign))
                sign = -sign
        return out
    if gen == "F":
        for j in range(1, n + 1):
            if word[j - 1] == 0:
                flipped = word[: j - 1] + (1,) + word[j:]
                out.append((flipped, q(j - 1) * sign))
            else:
                sign = -sign
        return out
    raise ValueError(f"unknown generator {gen!r}")


def full_matrix(n, gen):
    """The dense 2^n x 2^n matrix of a generator in the basis_subsets
    order, from superrep.apply_generator on every basis vector."""
    subsets, zero = basis_subsets(n), Poly.zero(n + 1)
    index = {S: i for i, S in enumerate(subsets)}
    d = len(subsets)
    rows = [[zero] * d for _ in range(d)]
    for j, S in enumerate(subsets):
        for S2, coeff in superrep.apply_generator(gen, n, S):
            rows[index[S2]][j] += coeff
    return Matrix(d, d, rows, zero)


def old_first_difference(got, want=None):
    """(row, column, got - want) at the first entry in row-major order
    where the matrices differ (want None standing for zero), or None."""
    for i, row in enumerate(got.rows):
        for j, a in enumerate(row):
            if want is None:
                if a:
                    return i, j, a
            elif a != want.rows[i][j]:
                return i, j, a - want.rows[i][j]
    return None


class FullSweepBlocks(fm.Blocks):
    """fm.Blocks with every geometric square and commutator checked on
    whole matrices, at every entry.  It overrides square and _commutator,
    so it inherits neither fm.Blocks._first_bad nor the Euler-data proofs
    inside it: each geometric block is lifted into the fraction field
    (fraction) and each entry formed by Matrix.__matmul__ there."""

    def lifted(self, gen, w):
        """The geometric block of gen from weight w over the fraction field."""
        return self._once(("lifted", gen, w), lambda: self.op(gen, w).map(fraction))

    def difference(self, w):
        """FE - EF on the geometric weight-w block."""
        op = self.lifted
        return op("F", w + 2) @ op("E", w) - op("E", w - 2) @ op("F", w)

    def square(self, gen, w):
        name = f"{'raising' if gen == 'E' else 'lowering'} twice from weight {w} vanishes"
        step = 2 if gen == "E" else -2
        op = self.lifted
        return name, self._once(name, lambda: entry_witness(op(gen, w + step) @ op(gen, w)))

    def _commutator(self, w):
        n, k = self.n, k_of(self.n, w)
        d = self.difference(w)
        signed = {c: fraction(s) for c, s in fm._signed_scalars(n).items()}
        eps = next((c for c, s in signed.items() if d == Matrix.scalar_block(n, w, s)), None)
        pred = fm.epsilon_sign(n, k)
        bad = "" if eps == pred else entry_witness(d, Matrix.scalar_block(n, w, signed[pred]))
        name = f"weight {w} commutator is a (1-q^{2*n}) scalar on a dim-{comb(n, k)} block"
        if eps is None:
            return [(name, bad)], None
        sign = f"observed {eps:+d}, parity {pred:+d}; {bad}" if bad else ""
        note = f"weight {w}: epsilon={eps:+d}, parity (-1)^(n-k-1)={pred:+d}"
        return [(name, ""), (f"weight {w} sign matches (-1)^(n-k-1)", sign)], note


def reference_dot(zero, row, col):
    """The entry of a fraction-field product from one row and one column:
    the nonzero products, one alone or else summed in one
    RationalFunction.sum."""
    terms = [a * b for a, b in zip(row, col) if a and b]
    if len(terms) == 1:
        return terms[0]
    return RationalFunction.sum(zero.nvars, terms) if terms else zero


def raised_sum(nvars, products, target=None):
    """(N, T, den_factors): the sum of sign * a * b over the (sign, a, b)
    in products, a and b RationalFunctions, and target (zero when None)
    as numerators over one common denominator L != 0, the product of
    den_factors, raised without cancellation: each a * b is a.num * b.num
    over the factors of a and b together, and all of them and target go
    through one common_denominator.  (N - sigma T) / L is the signed sum
    minus sigma * target, so the sum is sigma * target exactly when
    N = sigma * T: one raising decides the identity against target and
    against -target.  The reference for the decisions of
    qglk.fm.Blocks._first_bad."""
    signs, pairs = [], []
    for sign, a, b in products:
        signs.append(sign)
        pairs.append((a.num * b.num, a.den_factors + b.den_factors))
    if target:
        pairs.append((target.num, target.den_factors))
    parts, den_factors = common_denominator(nvars, pairs)
    want = parts.pop() if target else Poly.zero(nvars)
    return Poly.signed_sum(nvars, zip(signs, parts)), want, den_factors


class RaisedSumBlocks(fm.Blocks):
    """fm.Blocks with every geometric position, in row-major order, decided
    by raised_sum alone on the products read from dense rows of the
    blocks lifted into the fraction field (fraction), and the witness of a
    failing check formed afresh from its products: each product's entry
    by reference_dot, their difference, and minus s on the diagonal.  The
    reference for the terms fm.Blocks._first_bad gathers, the Euler-data
    proofs it makes and the witnesses it reads from its decisions."""

    def _first_bad(self, products, s=None):
        op = self.op
        ops = [(op(*left).map(fraction), op(*right).map(fraction)) for left, right in products]
        s = None if s is None else fraction(s)
        first, last = ops[0]
        block = (self.n, last.source_weight, first.target_weight)
        bad, flipped = None, False
        for i, j in product(range(first.nrows), range(last.ncols)):
            terms = [
                (sign, a, row[j])
                for sign, (left, right) in zip((1, -1), ops)
                for a, row in zip(left.rows[i], right.rows)
                if a and row[j]
            ]
            got, want, _ = raised_sum(self.n + 1, terms, s if i == j else None)
            if bad is None and got != want:
                bad = i, j
            flipped = flipped or got != -want
            if bad and flipped:
                break
        if bad is None:
            return "", flipped
        i, j = bad
        parts = [reference_dot(a.zero, a.rows[i], [r[j] for r in b.rows]) for a, b in ops]
        diff = parts[0] if len(parts) == 1 else parts[0] - parts[1]
        return witness(block, i, j, diff - s if s is not None and i == j else diff), flipped


def algebra_block(n, gen, w):
    """The normalized algebra block of gen (E or F) from weight w, the
    superrep block times fm._unit, lifted to the fraction field."""
    block = superrep.block_matrix(n, gen, w).scale(fm._unit(n, gen, w))
    return block.map(RationalFunction.from_poly)


def reference_normalized_square(relations, gen, w):
    """fm._normalized_square multiplied out: the product of the normalized
    blocks lifted to the fraction field (algebra_block), formed whole.
    Only relations.n is read."""
    step = 2 if gen == "E" else -2
    op = partial(algebra_block, relations.n, gen)
    return f"{gen}^2 vanishes from weight {w}", entry_witness(op(w + step) @ op(w))


def reference_normalized_commutator(relations, w):
    """fm._normalized_commutator multiplied out: F E - E F of the lifted
    normalized blocks against s_w times the identity, formed whole."""
    n = relations.n
    op = partial(algebra_block, n)
    d = op("F", w + 2) @ op("E", w) - op("E", w - 2) @ op("F", w)
    target = Matrix.scalar_block(n, w, fraction(fm.commutator_scalar(n, k_of(n, w))))
    return [(f"FE - EF is eps*(1-q^{2*n}) at weight {w}", entry_witness(d, target))]


def reference_normalized_rep_report(n, max_weight=None):
    """fm.normalized_rep_report with each check decided over the fraction
    field, the reference for the checks read from superrep's decisions
    through unit algebra."""
    rep = Report(f"normalized algebra blocks at n={n}")
    relations = superrep.Relations(n)
    for w in weights(n, max_weight):
        checks = [reference_normalized_square(relations, gen, w) for gen in "EF"]
        for name, bad in checks + reference_normalized_commutator(relations, w):
            rep.add(name, not bad, bad)
    return rep


def reference_verify_relations(n):
    """superrep.verify_relations with every relation multiplied out: both
    sides of each identity formed as block products at every weight, K,
    Kinv, H and Hinv read as general blocks.  The reference for the
    relations decided from block scalars."""
    rep = Report(f"defining relations on {n} tensor factors")
    nvars = n + 1
    g = {
        (x, w): superrep.block_matrix(n, x, w)
        for x in superrep.GENERATORS
        for w in range(-n - 2, n + 3, 2)
    }
    one = Poly.one(nvars)
    q2 = Poly.q(nvars, 2)
    qm2 = Poly.q(nvars, -2)
    relations = {
        "E^2 = 0": lambda w: (g["E", w + 2] @ g["E", w], None),
        "F^2 = 0": lambda w: (g["F", w - 2] @ g["F", w], None),
        "EF + FE = K - Kinv": lambda w: (
            g["E", w - 2] @ g["F", w] + g["F", w + 2] @ g["E", w],
            g["K", w] - g["Kinv", w],
        ),
        "HE = q^2 EH": lambda w: (g["H", w + 2] @ g["E", w], (g["E", w] @ g["H", w]).scale(q2)),
        "HF = q^-2 FH": lambda w: (g["H", w - 2] @ g["F", w], (g["F", w] @ g["H", w]).scale(qm2)),
    }
    for x in "EFH":
        relations[f"K central against {x}"] = lambda w, x=x: (
            g["K", w + superrep.WEIGHT_STEP[x]] @ g[x, w],
            g[x, w] @ g["K", w],
        )
    relations["K Kinv = 1"] = lambda w: (g["K", w] @ g["Kinv", w], Matrix.scalar_block(n, w, one))
    relations["H Hinv = 1"] = lambda w: (g["H", w] @ g["Hinv", w], Matrix.scalar_block(n, w, one))
    for name, relation in relations.items():
        bad = ""
        for got, want in map(relation, weights(n)):
            bad = entry_witness(got, want)
            if bad:
                bad = f"weight {got.source_weight} -> {got.target_weight}: {bad}"
                break
        rep.add(name, not bad, bad)
    rep.note(f"EF + FE acts by K - Kinv = {Poly.q(nvars, n) - Poly.q(nvars, -n)}")
    rep.note(
        f"naming: K is the global scalar q^{n} and H grades blocks by q^lambda; "
        "swapping the two names is incompatible with the anticommutator value"
    )
    return rep


def failed_checks(report):
    """The checks of a report that failed, in order."""
    return [c for c in report.checks if not c.passed]


def iterated_cone_classes(N, k, L, V, section_q_weight=2):
    """koszul's two iterated cone routes toward K^{[1,N-k]} for the rank-N
    bundle V and the line L (see koszul._iterated_cones)."""
    if sum(V.keys.values()) != N:
        raise ValueError(f"V must have rank {N}")
    duals = exterior_powers(dual(V))
    return koszul._iterated_cones(N, k, koszul._dual_line(L), duals, section_q_weight)


def iterated_cone_report(N, k, section_q_weight=2):
    """The iterated-cone half of koszul.koszul_battery_report at rank N."""
    return koszul._cone_report(*koszul._bundle(N), N, k, section_q_weight)
