"""Slow references and accessors that only the tests use.

Linear algebra over the fraction field: symbolic Gauss-Jordan
elimination (pivots and inverses) and the point-sampled pivot and
invertibility certificates the intertwiner's proof once called, kept as
references for the proof in qglk.fm and for phi, which qglk.fm returns
as the pair of bases B_alg, B_geo with phi_w = B_geo[w] B_alg[w]^-1.

The full sweeps: every entry of each square and commutator, formed as
whole matrices, the reference for the orbit-representative checks of
qglk.fm.Blocks.  The dense tensor representation: the 2^n x 2^n matrix
of a generator in the basis of all words, the reference for the
block-by-block relation battery.  Fixed-point bookkeeping: the nested pairs of the one-step
correspondence and block entries looked up by their subset labels.

Localization: tangent characters and inverse Euler classes of a fixed-point
space built from scratch at each call, and the pushforward as one
RationalFunction.sum of value times inverse Euler class, the reference for
the shared localization form of qglk.grassmann.
"""

from math import comb

from qglk import fm, superrep
from qglk.grassmann import euler_class_rf, fixed_points, hom_fiber, tangent_gr
from qglk.linalg import pivot_columns, sample_points
from qglk.matrix import Matrix, entry_witness, k_of
from qglk.poly import Poly
from qglk.ratfunc import PoleError, RationalFunction


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


def reference_column_basis(mat):
    """Pivot columns by symbolic elimination over the fraction field."""
    work = [list(r) for r in mat.rows]
    nr, nc = mat.nrows, mat.ncols
    pivots = []
    row = 0
    for col in range(nc):
        if row >= nr:
            break
        best = None
        for r in range(row, nr):
            if not work[r][col].is_zero():
                c = complexity(work[r][col])
                if best is None or c < best[1]:
                    best = (r, c)
        if best is None:
            continue
        r = best[0]
        work[row], work[r] = work[r], work[row]
        inv = work[row][col].inv()
        work[row] = [e * inv for e in work[row]]
        for r2 in range(nr):
            if r2 != row and not work[r2][col].is_zero():
                f = work[r2][col]
                work[r2] = [a - f * b for a, b in zip(work[r2], work[row])]
        pivots.append(col)
        row += 1
    return pivots


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
            if not work[r][col].is_zero():
                c = complexity(work[r][col])
                if best is None or c < best[1]:
                    best = (r, c)
        if best is None:
            raise ValueError(f"matrix is singular at column {col}")
        r = best[0]
        work[col], work[r] = work[r], work[col]
        aug[col], aug[r] = aug[r], aug[col]
        inv = work[col][col].inv()
        work[col] = [e * inv for e in work[col]]
        aug[col] = [e * inv for e in aug[col]]
        for r2 in range(n):
            if r2 != col and not work[r2][col].is_zero():
                f = work[r2][col]
                work[r2] = [a - f * b for a, b in zip(work[r2], work[col])]
                aug[r2] = [a - f * b for a, b in zip(aug[r2], aug[col])]
    return Matrix(n, n, aug, mat.zero)


def phi_from_bases(n, bases):
    """The intertwiner blocks phi_w = B_geo[w] B_alg[w]^-1 from the bases
    {w: (B_alg[w], B_geo[w])} that fm.find_intertwiner returns."""
    one = RationalFunction.one(n + 1)
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
        [RationalFunction.from_poly(values(S)) * inverse_euler(space, S) for S in space.points],
    )


def word_weight(word):
    return len(word) - 2 * sum(word)


def subset_from_word(word):
    return tuple(i + 1 for i, p in enumerate(word) if p)


def basis_words(n):
    """All 0/1 words of length n, weight block after weight block."""
    out = []
    for k in range(n + 1):
        out.extend(superrep.weight_block_words(n, n - 2 * k))
    return out


def full_matrix(n, gen):
    """The dense 2^n x 2^n matrix of a generator in the basis_words order."""
    words = basis_words(n)
    return superrep._image_matrix(
        gen, words, words, Matrix.zeros(2**n, 2**n, Poly.zero(n + 1))
    )


class FullSweepBlocks(fm.Blocks):
    """fm.Blocks with every square and commutator checked on whole
    matrices, at every entry, whatever the equivariance gate says."""

    def difference(self, side, w):
        """FE - EF on the weight-w block of one side."""
        op = self.op
        return op(side, "F", w + 2) @ op(side, "E", w) - op(side, "E", w - 2) @ op(side, "F", w)

    def square(self, side, gen, w):
        if side == "algebra":
            name = f"{gen}^2 vanishes from weight {w}"
        else:
            name = f"{'raising' if gen == 'E' else 'lowering'} twice from weight {w} vanishes"
        step = 2 if gen == "E" else -2
        return name, self._once(
            name, lambda: entry_witness(self.op(side, gen, w + step) @ self.op(side, gen, w))
        )

    def _commutator(self, side, w):
        n, k = self.n, k_of(self.n, w)
        d = self.difference(side, w)
        if side == "algebra":
            bad = entry_witness(d, Matrix.scalar_block(n, w, fm.commutator_scalar(n, k)))
            return [(f"FE - EF is eps*(1-q^{2*n}) at weight {w}", bad)], None
        signed = fm._signed_scalars(n)
        eps = next((c for c, s in signed.items() if d == Matrix.scalar_block(n, w, s)), None)
        pred = fm.epsilon_sign(n, k)
        bad = "" if eps == pred else entry_witness(d, Matrix.scalar_block(n, w, signed[pred]))
        name = f"weight {w} commutator is a (1-q^{2*n}) scalar on a dim-{comb(n, k)} block"
        if eps is None:
            return [(name, bad)], None
        sign = f"observed {eps:+d}, parity {pred:+d}; {bad}" if bad else ""
        note = f"weight {w}: epsilon={eps:+d}, parity (-1)^(n-k-1)={pred:+d}"
        return [(name, ""), (f"weight {w} sign matches (-1)^(n-k-1)", sign)], note
