"""The quantum gl(1|1) action on N-fold tensor space.

The one-site space has an even basis vector (letter 0) and an odd one
(letter 1).  An N-site basis vector is indexed by its odd slots, a
k-subset S of {1..N}; its 0/1 word (word_from_subset) is only a label,
printed by the CLI's algebra dump and the H witness.  Generators act
through the iterated coproduct

    Delta(E) = E (x) Kinv + 1 (x) E,      Delta(F) = F (x) 1 + K (x) F,

with K and H grouplike, and the Koszul sign (-1)^a whenever the odd
operators E or F move past the a odd slots left of the active slot j.
The raising operator E removes a slot from S and sends the weight-m
block to weight m+2, F adds one and sends it to m-2, and H acts on a
k-subset by q^(N-2k).

Coefficients are Poly in x_1..x_N and q (nvars = N + 1) that depend on q
alone: the ring whose fraction field holds the functor matrices of
:mod:`qglk.fm`.  block_matrix builds each generator as a weight block, a
:class:`qglk.matrix.Matrix` that carries its two weights, rows and
columns in lexicographic subset order: the fixed points of the
localization side are the same subsets in the same order, so block
indices line up across the two models.  The relation batteries check
every identity block by block, with located witnesses.

A passing verify_relations forms no block product of Poly entries.  K,
Kinv, H and Hinv act on each weight block by a scalar and the
coefficients have no zero divisors, so (a - b) X = 0 exactly when a = b
or X = 0 decides each relation with them.  E^2 = 0, F^2 = 0 and
EF + FE = K - Kinv are decided on packed integers: each entry p of an
E or F block becomes 2^(b s) p(2^b) (Kronecker substitution,
poly.kronecker), so the block products run on ints and are exact under
a coefficient bound that is computed for every product.  A weight where
either test does not apply or fails forms the Poly products, for the
witness.
"""

from bisect import bisect_left
from functools import cache, reduce
from operator import add

from .matrix import Matrix, block_points, entry_witness, subset_label, weights
from .poly import Poly, kronecker
from .report import Report

GENERATORS = ("E", "F", "K", "Kinv", "H", "Hinv")

WEIGHT_STEP = {"E": 2, "F": -2, "K": 0, "Kinv": 0, "H": 0, "Hinv": 0}

# the packed relation checks evaluate at q = 2^PACK_BITS
PACK_BITS = 16


def word_from_subset(n, subset):
    """The 0/1 word with odd letters at the slots in subset: a label only."""
    w = [0] * n
    for i in subset:
        w[i - 1] = 1
    return tuple(w)


@cache
def _q(nvars, e):
    """q^e, built once per (nvars, e) and shared: Poly values are immutable."""
    return Poly.q(nvars, e)


def apply_generator(gen, n, S):
    """Image of the basis vector with odd slots S, a sorted k-subset of
    {1..n}, under a generator, as (subset, coefficient) pairs."""

    def q(e):
        return _q(n + 1, e)

    k = len(S)
    scalar = {"K": n, "Kinv": -n, "H": n - 2 * k, "Hinv": 2 * k - n}
    if gen in scalar:
        return [(S, q(scalar[gen]))]
    if gen == "E":
        # the one-site entry q - q^-1 times the Kinv tail q^-(n-j) on slots
        # j+1..n, and the Koszul sign of the a odd slots left of j
        return [
            (S[:a] + S[a + 1 :], (q(1 + j - n) - q(j - n - 1)) * (-1) ** a)
            for a, j in enumerate(S)
        ]
    if gen == "F":
        out = []
        for j in range(1, n + 1):
            if j not in S:
                a = bisect_left(S, j)
                # K head on slots 1..j-1 contributes q^(j-1)
                out.append((S[:a] + (j,) + S[a:], q(j - 1) * (-1) ** a))
        return out
    raise ValueError(f"unknown generator {gen!r}")


def block_matrix(n, gen, source_weight):
    """Generator matrix from the weight block to its image block.

    A block outside [-n, n] is empty.  Raises ValueError when the
    generator sends a subset of the source block outside the target
    block, so the blocks of a generator are the whole generator."""
    mat = Matrix.zero_block(n, source_weight, source_weight + WEIGHT_STEP[gen], Poly.zero(n + 1))
    row = {S: i for i, S in enumerate(mat.rows_points)}
    for j, S in enumerate(mat.cols_points):
        for S2, coeff in apply_generator(gen, n, S):
            i = row.get(S2)
            if i is None:
                raise ValueError(
                    f"image subset {subset_label(S2)} of {gen} falls outside the target block"
                )
            mat.rows[i][j] = mat.rows[i][j] + coeff
    return mat


def _witness(pairs):
    """The located witness of the first (got, want) pair of blocks that
    differ, want None standing for zero; "" if none does."""
    for got, want in pairs:
        bad = entry_witness(got, want)
        if bad:
            return f"weight {got.source_weight} -> {got.target_weight}: {bad}"
    return ""


def _scalar(block):
    """c when the block is c times the identity, else None (also when it
    is empty, which names no c)."""
    if not block.nrows:
        return None
    c = block.rows[0][0]
    for i, row in enumerate(block.rows):
        if row[i] != c or any(row[:i]) or any(row[i + 1 :]):
            return None
    return c


def pack(block, shift):
    """(M, row, top): the block with each entry p packed as
    2^(b*shift) p(2^b), b = PACK_BITS, by poly.kronecker, an int Matrix
    with the same labels, and the largest l1 norm of a row and of an
    entry; None when some entry does not pack."""
    rows, row, top = [], 0, 0
    for r in block.rows:
        cells = [kronecker(p, PACK_BITS, shift) if p else (0, 0) for p in r]
        if None in cells:
            return None
        rows.append([v for v, _ in cells])
        norms = [m for _, m in cells]
        row, top = max(row, sum(norms)), max(top, *norms, 0)
    return Matrix(block.nrows, block.ncols, rows, 0, block.block), row, top


def packed_holds(products, target=None):
    """Whether the sum of A @ C over the pairs (A, C) of pack results in
    products is the packed target (zero when None), decided on ints, or
    None when a block did not pack or the coefficient bound reaches
    2^PACK_BITS.  The bound, sum(row(A) * top(C)) + top(target), is at least
    sum_k ||a_ik||_1 ||c_kj||_1 + ||t_ij||_1 at every (i, j)."""
    if not all(map(all, products)):
        return None
    bound = sum(a[1] * c[2] for a, c in products) + (target[2] if target else 0)
    if bound >> PACK_BITS:
        return None
    got = reduce(add, (a[0] @ c[0] for a, c in products))
    return got == target[0] if target else not any(map(any, got.rows))


def verify_relations(n):
    """Check the defining relations on the N-site space, block by block.

    Every generator is the direct sum of its weight blocks (block_matrix
    raises otherwise), so a relation holds on the whole space exactly
    when it holds from every weight block.  Each check aggregates the
    blocks and reports the first failing one; no 2^N x 2^N matrix is
    formed.

    The grouplike relations are decided from block scalars.  K acts on
    each weight block by q^N and H by q^m, so each K, Kinv, H and Hinv
    block is read once as c times the identity.  Entries lie in
    Z[x^+-1, q^+-1], which has no zero divisors, so with scalars a_hi and
    a_lo of a on the blocks X maps to and from, a X = s X a reads
    (a_hi - s a_lo) X = 0: it holds when X = 0 and otherwise exactly
    when a_hi = s a_lo.  Likewise a b = 1 holds exactly when the product
    of the two scalars is 1, and K - Kinv is the scalar block of their
    difference.  A weight where a block is not a scalar (or is empty), or
    where the scalars fail the test, forms the two block products as
    before, so a failing check keeps its first bad weight and witness.

    E^2 = 0, F^2 = 0 and EF + FE = K - Kinv are decided on packed
    integers.  Each E and F block is packed once (pack) with shift s = n,
    the lowest exponent of E, at b = PACK_BITS, and K - Kinv with shift
    2s.  Packing is evaluation at q = 2^b times a power of 2^b, so
    pack_s(a) pack_t(c) = pack_(s+t)(a c) and the int block products are
    the packed Poly products.  Lemma: let P = sum(a c) - t at one entry,
    every exponent at least -2s and every |coefficient| below 2^b; then
    pack(P) = 0 exactly when P = 0, since the lowest nonzero term of P
    cannot be cancelled modulo the next power of 2^b.  The bound
    sum_k ||a_ik||_1 ||c_kj||_1 + ||t_ij||_1 on those coefficients is
    computed for every product (packed_holds), never assumed.  A weight
    falls back to the Poly products when an entry involves some x_i, has
    an exponent below -s (-2s in the target) or a coefficient of 2^b or
    more, or when the bound reaches 2^b; a weight that fails the packed
    test forms them too, so its witness is the one the products give.
    A passing battery forms no block product of Poly entries.
    """
    rep = Report(f"defining relations on {n} tensor factors")
    nvars = n + 1
    # the empty blocks one step beyond either end close every product
    g = {(x, w): block_matrix(n, x, w) for x in GENERATORS for w in range(-n - 2, n + 3, 2)}
    scalar = {key: _scalar(block) for key, block in g.items() if not WEIGHT_STEP[key[0]]}
    packed = {key: pack(block, n) for key, block in g.items() if key[0] in ("E", "F")}
    one = Poly.one(nvars)

    def products(pairs, target=lambda w: None):
        """The sum of the block products over pairs(w) is target(w) (zero
        when None): None when the packed blocks decide that it holds, else
        the sum of the Poly products and the target."""

        def relation(w):
            keys, want = pairs(w), target(w)
            t = want and pack(want, 2 * n)
            if (want is None or t) and packed_holds([(packed[a], packed[c]) for a, c in keys], t):
                return None
            return reduce(add, (g[a] @ g[c] for a, c in keys)), want

        return relation

    def commutes(a, x, s):
        """a X = s X a from the weight-w block of X: None when X = 0 or
        the scalars of a decide that it holds, else the two products."""

        def relation(w):
            X, hi, lo = g[x, w], scalar[a, w + WEIGHT_STEP[x]], scalar[a, w]
            if not any(map(any, X.rows)) or (hi is not None and lo is not None and hi == s * lo):
                return None
            return g[a, w + WEIGHT_STEP[x]] @ X, (X @ g[a, w]).scale(s)

        return relation

    def inverse(a, b):
        """a b = 1 on the weight-w block, None when the scalars decide it."""

        def relation(w):
            s, t = scalar[a, w], scalar[b, w]
            if s is not None and t is not None and s * t == one:
                return None
            return g[a, w] @ g[b, w], Matrix.scalar_block(n, w, one)

        return relation

    def k_minus_kinv(w):
        k, kinv = scalar["K", w], scalar["Kinv", w]
        if k is None or kinv is None:
            return g["K", w] - g["Kinv", w]
        return Matrix.scalar_block(n, w, k - kinv)

    relations = {
        "E^2 = 0": products(lambda w: [(("E", w + 2), ("E", w))]),
        "F^2 = 0": products(lambda w: [(("F", w - 2), ("F", w))]),
        "EF + FE = K - Kinv": products(
            lambda w: [(("E", w - 2), ("F", w)), (("F", w + 2), ("E", w))], k_minus_kinv
        ),
        "HE = q^2 EH": commutes("H", "E", Poly.q(nvars, 2)),
        "HF = q^-2 FH": commutes("H", "F", Poly.q(nvars, -2)),
    }
    for x in "EFH":
        relations[f"K central against {x}"] = commutes("K", x, one)
    relations["K Kinv = 1"] = inverse("K", "Kinv")
    relations["H Hinv = 1"] = inverse("H", "Hinv")
    for name, relation in relations.items():
        bad = _witness(filter(None, map(relation, weights(n))))
        rep.add(name, not bad, bad)
    rep.note(f"EF + FE acts by K - Kinv = {Poly.q(nvars, n) - Poly.q(nvars, -n)}")
    rep.note(
        f"naming: K is the global scalar q^{n} and H grades blocks by q^lambda; "
        "swapping the two names is incompatible with the anticommutator value"
    )
    return rep


def weight_structure_report(n):
    """H is diagonal with value q^m on the weight-m block."""
    rep = Report(f"weight decomposition on {n} tensor factors")
    for m in weights(n):
        expected = Poly.q(n + 1, m)
        bad = [S for S in block_points(n, m) if apply_generator("H", n, S) != [(S, expected)]]
        rep.add(
            f"H acts by q^{m} on weight {m}",
            not bad,
            "" if not bad else f"wrong H value on {word_from_subset(n, bad[0])}",
        )
    return rep


def antipode_report():
    """One-site antipode axioms: S(E) = -E K and S(F) = -Kinv F make S a
    convolution inverse of the identity on both sides.  On one site E
    raises the weight -1 block to 1 and F lowers 1 to -1."""
    rep = Report("one-site antipode axioms")
    g = {(x, w): block_matrix(1, x, w) for x in GENERATORS for w in (1, -1)}
    E, F = g["E", -1], g["F", 1]
    SE = -(E @ g["K", -1])
    SF = -(g["Kinv", -1] @ F)
    one = {w: Matrix.scalar_block(1, w, Poly.one(2)) for w in (1, -1)}
    checks = {
        # Delta(E) = E (x) Kinv + 1 (x) E, counit 0
        "S * id on E": [(SE @ g["Kinv", -1] + E, None)],
        "id * S on E": [(E @ g["K", -1] + SE, None)],
        # Delta(F) = F (x) 1 + K (x) F, counit 0
        "S * id on F": [(SF + g["Kinv", -1] @ F, None)],
        "id * S on F": [(F + g["K", -1] @ SF, None)],
    }
    # grouplike generators: S(K) = Kinv and S(H) = Hinv
    for x in "KH":
        checks[f"S on {x} inverts it"] = [
            (a @ b, one[w])
            for w in (1, -1)
            for a, b in ((g[x + "inv", w], g[x, w]), (g[x, w], g[x + "inv", w]))
        ]
    for name, pairs in checks.items():
        bad = _witness(pairs)
        rep.add(name, not bad, bad)
    return rep
