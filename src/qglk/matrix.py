"""Dense matrices over Poly, RationalFunction, EulerEntry, Fraction or int; weight blocks.

A Matrix carries the zero of its ring explicitly so that empty and
all-zero matrices stay well defined.  Weight blocks at the extreme
weights give genuinely empty (0 x m) matrices, so the degenerate shapes
matter.  Entries test zero by truthiness, so the same type holds the
symbolic blocks and their residues mod P at a sample point.

Products of rational-function matrices (the intertwiner's bases for
library callers) sum the nonzero products of each entry in one
:meth:`RationalFunction.sum`, which cancels against the shared
denominator once instead of after every pairwise addition.  The
geometric relation checks of :mod:`qglk.fm` form no such product: each
position is decided from Euler data, and a failing check's witness is
read from the decision that failed it.

A weight block is a Matrix that also carries n, source_weight and
target_weight: one operator between two weight blocks of the N-site
space, with its rows and columns labelled by k-subsets.  Both
realizations use it: the algebra blocks over Poly in x_1..x_N, q (they
depend on q alone) and the functor matrices over the fraction field.
Sums, products and comparisons of two blocks check their labels and
give a block; with a plain matrix on either side they give a plain one.
A failing block is reported by :func:`witness`, which formats the one
bad entry a check names: its first in row-major order against zero or
another block (:func:`entry_witness`), or against zero or s times the
identity in :mod:`qglk.fm`; every witness opens with :func:`bad_entry`.
"""

import random
from functools import cache
from operator import add, sub

from .grassmann import fixed_points
from .ratfunc import PoleError, RationalFunction


def k_of(n, weight):
    """Number of odd tensor slots for the given weight; may fall outside
    [0, n], in which case the corresponding block is empty."""
    if (n - weight) % 2:
        raise ValueError(f"weight {weight} has wrong parity for n={n}")
    return (n - weight) // 2


def weights(n, max_weight=None):
    """The weights n, n-2, ..., -n of the nonempty blocks; with max_weight
    only those of absolute value at most max_weight."""
    ws = [n - 2 * k for k in range(n + 1)]
    return ws if max_weight is None else [w for w in ws if abs(w) <= max_weight]


@cache
def block_points(n, weight):
    """The k-subsets labelling the weight block, shared by every block of
    that weight; empty outside [-n, n]."""
    return tuple(fixed_points(n, k_of(n, weight)))


class Matrix:
    """A dense matrix; with block = (n, source_weight, target_weight) the
    operator from the weight-source_weight block of the n-site space to
    the weight-target_weight block.

    A block's rows are the target block's k-subsets of {1..n} and its
    columns the source block's, in lexicographic order: the odd slots of
    the tensor basis vectors on the algebra side, the torus-fixed points
    of Gr(k, n) on the geometry side.  On a plain matrix the three labels are None.
    """

    __slots__ = ("nrows", "ncols", "rows", "zero", "n", "source_weight", "target_weight")

    def __init__(self, nrows, ncols, rows, zero, block=(None, None, None)):
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise ValueError("row data does not match the declared shape")
        self.nrows = nrows
        self.ncols = ncols
        self.rows = [list(r) for r in rows]
        self.zero = zero
        self.n, self.source_weight, self.target_weight = block
        if self.n is not None and (nrows, ncols) != (
            len(self.rows_points),
            len(self.cols_points),
        ):
            raise ValueError("matrix shape does not match the weight blocks")

    @classmethod
    def zero_block(cls, n, source_weight, target_weight, zero):
        nr, nc = len(block_points(n, target_weight)), len(block_points(n, source_weight))
        rows = [[zero] * nc for _ in range(nr)]
        return cls(nr, nc, rows, zero, (n, source_weight, target_weight))

    @classmethod
    def scalar_block(cls, n, weight, s):
        """s (a Poly or a RationalFunction) times the identity on the block."""
        d, zero = len(block_points(n, weight)), type(s).zero(s.nvars)
        rows = [[s if i == j else zero for j in range(d)] for i in range(d)]
        return cls(d, d, rows, zero, (n, weight, weight))

    @property
    def block(self):
        return self.n, self.source_weight, self.target_weight

    @property
    def rows_points(self):
        return block_points(self.n, self.target_weight)

    @property
    def cols_points(self):
        return block_points(self.n, self.source_weight)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def _labels(self, other, compose=False):
        """The block of self + other, or with compose of self @ other:
        all None unless both are blocks, which must then match."""
        if not isinstance(other, Matrix):
            raise TypeError("expected a Matrix")
        if self.n is None or other.n is None:
            return None, None, None
        if self.n != other.n:
            raise ValueError("mixed n")
        if not compose:
            if self.block != other.block:
                raise ValueError("weight mismatch")
            return self.block
        if self.source_weight != other.target_weight:
            raise ValueError(
                f"cannot compose: left source weight {self.source_weight} "
                f"!= right target weight {other.target_weight}"
            )
        return self.n, other.source_weight, self.target_weight

    def _zip(self, other, op):
        block = self._labels(other)
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")
        rows = [list(map(op, ra, rb)) for ra, rb in zip(self.rows, other.rows)]
        return Matrix(self.nrows, self.ncols, rows, self.zero, block)

    def __add__(self, other):
        return self._zip(other, add)

    def __sub__(self, other):
        return self._zip(other, sub)

    def __neg__(self):
        return self.map(lambda a: -a)

    def scale(self, s):
        """s times every entry; zero entries stay as they are."""
        rows = [[s * a if a else a for a in r] for r in self.rows]
        return Matrix(self.nrows, self.ncols, rows, self.zero, self.block)

    def __matmul__(self, other):
        block = self._labels(other, compose=True)
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions do not match")
        out = [[self.zero] * other.ncols for _ in range(self.nrows)]
        if isinstance(self.zero, RationalFunction):
            cols = list(zip(*other.rows)) if self.ncols else [()] * other.ncols
            for row, orow in zip(self.rows, out):
                for j, col in enumerate(cols):
                    terms = [a * b for a, b in zip(row, col) if a and b]
                    if len(terms) == 1:
                        orow[j] = terms[0]
                    elif terms:
                        orow[j] = RationalFunction.sum(self.zero.nvars, terms)
        else:
            # each row of other as its nonzero (column, entry) pairs, once
            sparse = [[(j, b) for j, b in enumerate(brow) if b] for brow in other.rows]
            for row, orow in zip(self.rows, out):
                for a, brow in zip(row, sparse):
                    if brow and a:
                        for j, b in brow:
                            orow[j] = orow[j] + a * b
        return Matrix(self.nrows, other.ncols, out, self.zero, block)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols, self.block) != (other.nrows, other.ncols, other.block):
            return False
        return all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    def map(self, fn):
        """fn applied to every entry and to the zero; a block stays one."""
        return Matrix(
            self.nrows,
            self.ncols,
            [[fn(a) for a in r] for r in self.rows],
            fn(self.zero),
            self.block,
        )

    def __str__(self):
        if self.nrows == 0 or self.ncols == 0:
            return f"<empty {self.nrows}x{self.ncols} matrix>"
        cells = [[str(a) for a in r] for r in self.rows]
        widths = [max(len(cells[i][j]) for i in range(self.nrows)) for j in range(self.ncols)]
        lines = [
            "[ " + "  ".join(c.rjust(w) for c, w in zip(r, widths)) + " ]"
            for r in cells
        ]
        return "\n".join(lines)


def subset_label(S):
    return "{" + ",".join(str(x) for x in S) + "}"


def witness_points(nvars):
    """The seeded integer points (coordinates 2..99) a witness reads."""
    rng = random.Random(0xC0FFEE)
    return (tuple(rng.randint(2, 99) for _ in range(nvars)) for _ in range(64))


def bad_entry(block, i, j):
    """Where entry (i, j) of a weight block sits: its row and column with
    their subsets, the head of every located witness."""
    n, source_weight, target_weight = block
    row, col = block_points(n, target_weight)[i], block_points(n, source_weight)[j]
    return (
        f"first bad entry at row {i} (subset {subset_label(row)}), "
        f"column {j} (subset {subset_label(col)})"
    )


def witness(block, i, j, diff=None, value=None):
    """Entry (i, j) of a weight block, off by diff, as a short witness:
    bad_entry and diff at the first of witness_points where it has no
    pole, or value, the difference already evaluated at the first of
    them."""
    where = bad_entry(block, i, j)
    for point in witness_points(block[0] + 1):
        if value is None:
            try:
                value = diff.evaluate(point)
            except PoleError:
                continue
        text = str(value)
        text = text if len(text) <= 80 else text[:77] + "..."
        return f"{where} is off by {text} at (x1, ..., q) = {point}"
    return f"{where} is off by a nonzero rational function"


def entry_witness(got, want=None):
    """The witness of the first entry in row-major order where the block
    got differs from want (zero when None), "" if none does; got - want
    is formed at that entry only."""
    for i, row in enumerate(got.rows):
        for j, a in enumerate(row):
            if want is None:
                if a:
                    return witness(got.block, i, j, a)
            elif a != want.rows[i][j]:
                return witness(got.block, i, j, a - want.rows[i][j])
    return ""
