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
(-1)^(n-k-1) * (1 - q^(2n)) on each weight block, matching the algebra
side after E is scaled by q^(-n) and F by (-1)^(n-k-1) q^(2n).

An entry is kept in the form above, as an EulerEntry: the twist, for
lowering times that unit (a monomial), and the character
chi = T_{S_t} Y - T_W.  It is a RationalFunction whose numerator and
denominator factors are formed on first read, as
from_poly(twist) * euler_class_rf(chi), the fraction every reader sees.
The equivariance gate permutes and compares twists and characters, and
the point stage multiplies the values of the twist and of the Euler
factors, so only the entries that a symbolic decision or a witness
reads are ever expanded: 32 of the 64 at n = 4, 72 of the 384 at n = 6.

Every matrix here is a weight block, a :class:`qglk.matrix.Matrix` over
the fraction field that carries its two weights, rows and columns
labelled by fixed points.  algebra_matrix lifts the algebra blocks of
:mod:`qglk.superrep`, the same type over Poly, into that field, so the
two actions are compared block by block.  find_intertwiner returns phi
as the pair of bases it maps between, never inverting a matrix.

The intertwiner's proof reads ranks, pivot columns and invertibility
from both actions at a seeded rational point, in integers alone: each
E and F block's values there times the lcm of their denominators, the
products F_{w+2} E_w of those in place of the projectors
p_w = F_{w+2} E_w / s_w, and fraction-free elimination
(linalg.pivot_columns).  Pivot columns, ranks and whether a determinant
vanishes do not change under nonzero scalings of rows, of columns or of
whole blocks, nor under invertible row operations, and these are all
that set the integer matrices apart from the values over Q: so every
reading is the one over Q.

S_n permutes x_1..x_n and the fixed points together, and the geometric
blocks are equivariant: E[sigma S, sigma T] = sigma(E[S, T]).  So the
squares and commutators are checked on one entry per S_n-orbit of
positions.  sigma is a ring automorphism of Q(x, q), so products and
differences of equivariant blocks are equivariant, and the targets 0
and s * Id are S_n-invariant.  Orbits of (S, T) with fixed sizes are
classified by |S & T|.  An exact gate, is_equivariant, first checks
each factor block against the two generators (1 2) and (1 2 ... n) of
S_n; if any factor fails it, every position is checked.  On geometric
blocks the gate checks twists and characters: permuted Euler data equal
to the data at the image position give the same fraction there, since
expansion commutes with sigma (stored form and all, which a property
test pins), and any other pair is compared as fractions.  That
arithmetic is trusted the way raised_sum's already is.

Each checked position is decided by one exact zero test
(ratfunc.raised_sum), with no cancellation and no trial division:
every product a * b is a.num * b.num over the factors of a and b,
multiplicities added, the target (0 or +-s) is one more term, and all of
them are raised to the least common denominator L, a product of
canonical binomials, each by one product with the powers it misses.
The signed numerators of the products sum to a Poly N and the target's
numerator is T, with N / L = sum(+-a * b) and T / L = target, and
L != 0, so the identity holds exactly when N = T, and with the target
negated exactly when N = -T: one raising decides both signs of the
geometric commutator.  A check that fails forms one entry: the first
bad one, which its witness names.
"""

from functools import cache
from itertools import chain, product
from math import comb, gcd, lcm

from .grassmann import (
    NonIsolatedFixedPointError,
    _euler_factor,
    det_tau_restrict,
    euler_class_rf,
    hom_fiber,
    ratio_character,
    tangent_gr,
)
from .linalg import columns, hstack, pivot_columns, sample_points
from .matrix import Matrix, block_points, dot, k_of, weights, witness
from .poly import PointValues, Poly, _layout, _permute_keys
from .ratfunc import PoleError, RationalFunction, raised_sum
from .report import Report
from .superrep import block_matrix


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


class EulerEntry(RationalFunction):
    """twist * e(chi), a geometric entry kept as its Euler data: the
    monomial twist sign * X^e as its packed key and sign, and the virtual
    character chi as one flat tuple (key, multiplicity, key, ...) in key
    order.

    num and den_factors are formed on the first read of either, as
    from_poly(twist) * euler_class_rf(chi), so every reader of the
    fraction sees exactly that.  Truthiness, permute, == and value read
    the data alone (see is_equivariant): building, gating and evaluating
    a block expand nothing, and only the entries a decision reads expand.
    """

    __slots__ = ("key", "sign", "chi")

    def __init__(self, nvars, key, sign, chi):
        self.nvars, self.key, self.sign, self.chi = nvars, key, sign, chi

    def __getattr__(self, name):
        # num and den_factors are unset slots until one of them is read
        if name not in ("num", "den_factors"):
            raise AttributeError(name)
        self._expand()
        return getattr(self, name)

    def _twist(self):
        return Poly._raw(self.nvars, {self.key: self.sign})

    def _pairs(self):
        return zip(self.chi[::2], self.chi[1::2])

    def _expand(self):
        chi = Poly._raw(self.nvars, dict(self._pairs()))
        full = RationalFunction.from_poly(self._twist()) * euler_class_rf(chi)
        self.num, self.den_factors = full.num, full.den_factors

    def __bool__(self):
        return True  # sign != 0, and no Euler factor 1 - w^-1 (w != 1) is zero

    def permute(self, perm):
        """The twist and chi with x_i replaced by x_perm[i-1]."""
        key, *keys = _permute_keys(self.nvars, perm, (self.key, *self.chi[::2]))
        return EulerEntry(self.nvars, key, self.sign, _flat(zip(keys, self.chi[1::2])))

    def __eq__(self, other):
        same = isinstance(other, EulerEntry) and self.chi == other.chi
        if same and (self.nvars, self.key, self.sign) == (other.nvars, other.key, other.sign):
            return True
        return RationalFunction.__eq__(self, other)

    def value(self, at):
        """The twist's value times each Euler factor's (shared at the
        point), in lowest terms, so integer blocks stay small; where a
        factor in the denominator vanishes, the expanded fraction's value,
        which may have cancelled it, or PoleError."""
        num, den = at(self._twist())
        for k, m in self._pairs():
            fn, fd = at.shared(_euler_factor(self.nvars, k)[0])
            if m < 0:
                fn, fd, m = fd, fn, -m
            num *= fn**m
            den *= fd**m
        if not den:
            return RationalFunction.value(self, at)
        g = gcd(num, den)
        return num // g, den // g


def _flat(pairs):
    """(k1, m1, k2, m2, ...) of the (key, multiplicity) pairs in key order."""
    return tuple(chain.from_iterable(sorted(pairs)))


def _pair_entry(n, S_small, S_big, raising, unit):
    """The entry at a nested pair, times the monomial unit unless None."""
    S_tgt = S_small if raising else S_big
    char = (
        tangent_gr(n, S_tgt)
        + hom_fiber(n, S_tgt)
        - correspondence_tangent(n, S_small, S_big)
    )
    if _layout(n + 1).zero in char.keys:  # as euler_class_rf would, and __bool__ relies on
        raise NonIsolatedFixedPointError("trivial weight in an Euler class")
    twist = _twist(n, S_small, S_big, raising)
    ((key, sign),) = (twist if unit is None else twist * unit).keys.items()
    return EulerEntry(n + 1, key, sign, _flat(char.keys.items()))


def lowering_unit(n):
    """The unit q^(2n) / (x_1 ... x_n) applied to every lowering matrix."""
    return RationalFunction.from_poly(Poly.monomial(n + 1, (-1,) * n + (2 * n,)))


def _functor_matrix(n, source_weight, raising):
    """The one loop behind raising_matrix and lowering_matrix."""
    target_weight = source_weight + (2 if raising else -2)
    out = Matrix.zero_block(n, source_weight, target_weight, RationalFunction.zero(n + 1))
    unit = None if raising else lowering_unit(n).num  # a monomial: it joins the twist
    for j, Ss in enumerate(out.cols_points):
        for i, St in enumerate(out.rows_points):
            small, big = (St, Ss) if raising else (Ss, St)
            if set(small) <= set(big):
                out.rows[i][j] = _pair_entry(n, small, big, raising, unit)
    return out


def raising_matrix(n, source_weight):
    """Localized matrix of the raising functor from the given weight."""
    return _functor_matrix(n, source_weight, raising=True)


def lowering_matrix(n, source_weight):
    """The same for lowering, times lowering_unit(n)."""
    return _functor_matrix(n, source_weight, raising=False)


def epsilon_sign(n, k):
    return 1 if (n - k) % 2 else -1


def _signed_scalars(n):
    """{+1: 1 - q^(2n), -1: q^(2n) - 1}, the candidate commutator scalars."""
    base = RationalFunction(n + 1, Poly.one(n + 1) - Poly.q(n + 1, 2 * n))
    return {1: base, -1: -base}


def commutator_scalar(n, k):
    """(-1)^(n-k-1) * (1 - q^(2n)) in the fraction field."""
    return _signed_scalars(n)[epsilon_sign(n, k)]


SIDES = ("algebra", "geometric")


def _generators(n):
    """(1 2) and (1 2 ... n), which generate S_n, as tuples of images."""
    return ((2, 1, *range(3, n + 1)), (*range(2, n + 1), 1)) if n > 1 else ()


def _image(perm, S):
    return tuple(sorted(perm[i - 1] for i in S))


def is_equivariant(block):
    """Whether block[sigma S, sigma T] == sigma(block[S, T]) for every
    sigma in S_n, with sigma permuting x_1..x_n and the subsets.

    Checking the two generators suffices, and so does checking nonzero
    entries only: sigma is a bijection on positions, so if it maps every
    nonzero entry onto a nonzero one it maps the zeros onto zeros.  Two
    EulerEntry objects compare by their twists and characters first,
    which expands neither (see the module docstring); other entries,
    such as a fixture's plain fractions, compare as fractions."""
    rows = {S: i for i, S in enumerate(block.rows_points)}
    cols = {T: j for j, T in enumerate(block.cols_points)}
    for perm in _generators(block.n):
        for S, i in rows.items():
            row = block.rows[rows[_image(perm, S)]]
            for T, j in cols.items():
                e = block.rows[i][j]
                if e and row[cols[_image(perm, T)]] != e.permute(perm):
                    return False
    return True


@cache
def orbit_representatives(n, source_weight, target_weight):
    """The first position (i, j) in row-major order of each S_n-orbit of
    the entries of a block: pairs (S, T) of subsets of fixed sizes lie in
    one orbit exactly when their |S & T| agree."""
    first = {}
    for i, S in enumerate(block_points(n, target_weight)):
        for j, T in enumerate(block_points(n, source_weight)):
            first.setdefault(len(set(S) & set(T)), (i, j))
    return sorted(first.values())


class Blocks:
    """The E and F blocks of both sides at one n, and the relation checks
    on them, each built once.

    The batteries and the intertwiner of one verification share an
    instance, so every premise the intertwiner cites is the outcome its
    battery reports.  Blocks come from the module-level raising_matrix,
    lowering_matrix and algebra_matrix on first use.  A geometric entry
    holds its Euler data (EulerEntry) and expands when a decision or a
    witness first reads its fraction; the gate and the intertwiner's
    point stage never do.

    A square or commutator is checked on orbit representatives when every
    factor block passed is_equivariant, else on every entry, each by the
    zero test of the module docstring.  A check whose every position
    holds passes; otherwise the first position that fails is the one
    entry formed, and the witness names it.  Every entry of a bad orbit
    is bad, so the first bad representative is the first bad entry: the
    witness is the same as on the full sweep.
    """

    def __init__(self, n):
        self.n = n
        self._memo = {}

    def _once(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def op(self, side, gen, w):
        """The normalized generator gen (E or F) from weight w on one side."""
        if side == "algebra":
            return self._once((side, gen, w), lambda: algebra_matrix(self.n, gen, w))
        build = raising_matrix if gen == "E" else lowering_matrix
        return self._once((side, gen, w), lambda: build(self.n, w))

    def equivariant(self, side, gen, w):
        """is_equivariant of the block op(side, gen, w)."""
        return self._once(("gate", side, gen, w), lambda: is_equivariant(self.op(side, gen, w)))

    def _positions(self, side, products):
        """The factor blocks [(A, B), ...] of the products A @ B, the block
        they form, and its positions (i, j) to check in row-major order:
        orbit representatives when every factor is equivariant, else all."""
        ops = [(self.op(side, *left), self.op(side, *right)) for left, right in products]
        first, last = ops[0]
        block = (self.n, last.source_weight, first.target_weight)
        if all(self.equivariant(side, *key) for pair in products for key in pair):
            return ops, block, orbit_representatives(*block)
        return ops, block, product(range(first.nrows), range(last.ncols))

    def _first_bad(self, side, products, s=None, signs=(1,)):
        """For each sign in signs, the first position (i, j), in
        _positions order, where A @ B, or A @ B - C @ D for two products,
        is not sign * s times the identity (zero when s is None), else
        None.  Each position is raised once (ratfunc.raised_sum), which
        forms no entry and decides every sign: sign * s holds there
        exactly when N = sign * T."""
        ops, _, positions = self._positions(side, products)
        bad = dict.fromkeys(signs)
        for i, j in positions:
            terms = [
                (sign, a, row[j])
                for sign, (left, right) in zip((1, -1), ops)
                for a, row in zip(left.rows[i], right.rows)
                if a and row[j]
            ]
            got, want = raised_sum(self.n + 1, terms, s if i == j else None)
            for sign in signs:
                if bad[sign] is None and got != (want if sign > 0 else -want):
                    bad[sign] = i, j
            if None not in bad.values():
                break
        return [bad[sign] for sign in signs]

    def _witness(self, side, products, s, bad):
        """The empty witness when bad is None, else that of the entry
        bad = (i, j) against s times the identity (zero when s is None),
        the one entry formed, as Matrix.__matmul__ forms it."""
        if bad is None:
            return ""
        i, j = bad
        ops, block, _ = self._positions(side, products)
        parts = [dot(a.zero, a.rows[i], [r[j] for r in b.rows]) for a, b in ops]
        diff = parts[0] if len(parts) == 1 else parts[0] - parts[1]
        return witness(block, i, j, diff - s if s is not None and i == j else diff)

    def square(self, side, gen, w):
        """(name, witness) of the check that gen twice from weight w vanishes."""
        if side == "algebra":
            name = f"{gen}^2 vanishes from weight {w}"
        else:
            name = f"{'raising' if gen == 'E' else 'lowering'} twice from weight {w} vanishes"
        products = [((gen, w + (2 if gen == "E" else -2)), (gen, w))]
        return name, self._once(
            name, lambda: self._witness(side, products, None, *self._first_bad(side, products))
        )

    def commutator(self, side, w):
        """[(name, witness)] of the commutator checks at weight w, and on
        the geometric side the note on the observed sign (else None)."""
        return self._once(("commutator", side, w), lambda: self._commutator(side, w))

    def _commutator(self, side, w):
        n, k = self.n, k_of(self.n, w)
        products = [(("F", w + 2), ("E", w)), (("E", w - 2), ("F", w))]
        if side == "algebra":
            s = commutator_scalar(n, k)
            bad = self._witness(side, products, s, *self._first_bad(side, products, s))
            return [(f"FE - EF is eps*(1-q^{2*n}) at weight {w}", bad)], None
        name = f"weight {w} commutator is a (1-q^{2*n}) scalar on a dim-{comb(n, k)} block"
        pred = epsilon_sign(n, k)
        s = _signed_scalars(n)[pred]
        # where s fails, flipped is None exactly when -s holds everywhere
        at, flipped = self._first_bad(side, products, s, (1, -1))
        bad = self._witness(side, products, s, at)
        if bad and flipped is not None:
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
        _add(rep, [blocks.square("geometric", gen, w) for gen in "EF"])
    return rep


def commutator_report(n, max_weight=None, blocks=None):
    """Checks FE - EF = eps * (1 - q^(2n)) Id per weight block and records
    the observed sign against the parity (-1)^(n-k-1)."""
    blocks = Blocks(n) if blocks is None else blocks
    rep = Report(f"geometric commutator scalars at n={n}")
    for w in weights(n, max_weight):
        checks, note = blocks.commutator("geometric", w)
        _add(rep, checks)
        if note:
            rep.note(note)
    return rep


def algebra_matrix(n, gen, source_weight):
    """Algebra generator on a weight block, lifted to the fraction field.

    Normalization: E picks up q^(-n) and F picks up (-1)^(n-k-1) q^(2n),
    where k is taken at the source weight; with these units the algebra
    and geometry commutator scalars agree block by block.
    """
    if gen not in ("E", "F"):
        raise ValueError("only E and F have functor counterparts")
    if gen == "E":
        unit = Poly.q(n + 1, -n)
    else:
        unit = Poly.q(n + 1, 2 * n) * epsilon_sign(n, k_of(n, source_weight))
    return block_matrix(n, gen, source_weight).scale(unit).map(RationalFunction.from_poly)


def normalized_rep_report(n, max_weight=None, blocks=None):
    """Nilpotency of the normalized algebra blocks and their commutator
    scalar matching the geometric one.  K centrality and the H-grading
    conjugation are not checked here: on weight blocks they hold for any
    block-scalar K and H, whatever E and F are.  The algebra's own K and
    H are checked by superrep.verify_relations and "H acts by q^m"."""
    blocks = Blocks(n) if blocks is None else blocks
    rep = Report(f"normalized algebra blocks at n={n}")
    for w in weights(n, max_weight):
        _add(rep, [blocks.square("algebra", gen, w) for gen in "EF"])
        _add(rep, blocks.commutator("algebra", w)[0])
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


def _integer_block(block, at):
    """The block's values at the point of ``at`` (a PointValues) times the
    lcm of their denominators: an integer block, a nonzero multiple of
    the block over Q."""
    pairs = [[e.value(at) if e else (0, 1) for e in row] for row in block.rows]
    den = lcm(*(d for row in pairs for _, d in row))
    rows = [[a * (den // d) for a, d in row] for row in pairs]
    return Matrix(block.nrows, block.ncols, rows, 0, block.block)


def _at_points(blocks, seed):
    """Yields, at successive seeded rational points, the E and F blocks of
    both sides and the products F_{w+2} E_w in place of the projectors
    p_w, each a nonzero multiple of its value over Q that has integer
    entries (see _integer_block), skipping a point where an entry of an
    E or F block has a pole or some s_w vanishes (q = 1 can be drawn)."""
    n = blocks.n
    for point in sample_points(n + 1, seed):
        at = PointValues(point)
        if not all(commutator_scalar(n, k_of(n, w)).value(at)[0] for w in weights(n)):
            continue
        try:
            ints = {key: _integer_block(blocks.op(*key), at) for key in _block_keys(n)}
        except PoleError:
            continue
        yield _with_projectors(ints, n)


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
    n = blocks.n
    out = []
    for side in SIDES:
        checks = [blocks.square(side, "F", w + 2)] if gen == "F" and w < n else []
        checks += [blocks.square(side, "E", w - 2)] if w > -n else []
        checks += blocks.commutator(side, w)[0] if gen == "F" else []
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
    evaluated at one seeded point (in integers: see the module
    docstring), redrawn while an entry has a pole or an s_w vanishes
    there, so evaluation is a ring homomorphism.
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
    inverse = {w: commutator_scalar(n, k_of(n, w)).inv() for w in weights(n)}
    at = _with_projectors({key: blocks.op(*key) for key in _block_keys(n)}, n, inverse)
    bases = {
        w: tuple(_transported_basis(at, side, w, pivots) for side in SIDES) for w in weights(n)
    }
    return bases, rep


def intertwiner_report(n, seed=0xC0FFEE, blocks=None):
    """The checks of find_intertwiner, without building phi.  With its
    premises already in `blocks` it forms no symbolic product."""
    return _prove_intertwiner(n, seed, Blocks(n) if blocks is None else blocks)[0]
