"""Dense matrices over Poly or RationalFunction, and labelled weight blocks.

A Matrix carries the zero of its ring explicitly so that empty and
all-zero matrices stay well defined.  Weight blocks at the extreme
weights give genuinely empty (0 x m) matrices, so the degenerate shapes
matter.

Products of rational-function matrices sum each dot product in one
:meth:`RationalFunction.sum`, which cancels against the shared
denominator once instead of after every pairwise addition.

A WeightBlock is one operator between two weight blocks of the N-site
space, with its rows and columns labelled by k-subsets.  Both
realizations use it: the algebra blocks over Poly in x_1..x_N, q (they
depend on q alone) and the functor matrices over the fraction field.
A failing comparison of two blocks is reported by :func:`entry_witness`.
"""

import random

from .grassmann import fixed_points
from .ratfunc import PoleError, RationalFunction


class Matrix:
    __slots__ = ("nrows", "ncols", "rows", "zero")

    def __init__(self, nrows, ncols, rows, zero):
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise ValueError("row data does not match the declared shape")
        self.nrows = nrows
        self.ncols = ncols
        self.rows = [list(r) for r in rows]
        self.zero = zero

    @classmethod
    def zeros(cls, nrows, ncols, zero):
        return cls(nrows, ncols, [[zero] * ncols for _ in range(nrows)], zero)

    @classmethod
    def diagonal(cls, diag, zero):
        m = cls.zeros(len(diag), len(diag), zero)
        for i, d in enumerate(diag):
            m.rows[i][i] = d
        return m

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def _check_shape(self, other, same=True):
        if not isinstance(other, Matrix):
            raise TypeError("expected a Matrix")
        if same and (self.nrows != other.nrows or self.ncols != other.ncols):
            raise ValueError("shape mismatch")

    def __add__(self, other):
        self._check_shape(other)
        return Matrix(
            self.nrows,
            self.ncols,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
            self.zero,
        )

    def __sub__(self, other):
        self._check_shape(other)
        return Matrix(
            self.nrows,
            self.ncols,
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
            self.zero,
        )

    def __neg__(self):
        return Matrix(
            self.nrows, self.ncols, [[-a for a in r] for r in self.rows], self.zero
        )

    def scale(self, s):
        return Matrix(
            self.nrows, self.ncols, [[s * a for a in r] for r in self.rows], self.zero
        )

    def __matmul__(self, other):
        self._check_shape(other, same=False)
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions do not match")
        out = Matrix.zeros(self.nrows, other.ncols, self.zero)
        if isinstance(self.zero, RationalFunction):
            cols = list(zip(*other.rows)) if self.ncols else [()] * other.ncols
            for row, orow in zip(self.rows, out.rows):
                for j, col in enumerate(cols):
                    terms = [a * b for a, b in zip(row, col) if a and b]
                    if len(terms) == 1:
                        orow[j] = terms[0]
                    elif terms:
                        orow[j] = RationalFunction.sum(self.zero.nvars, terms)
            return out
        # each row of other as its nonzero (column, entry) pairs, once
        sparse = [[(j, b) for j, b in enumerate(brow) if not b.is_zero()] for brow in other.rows]
        for row, orow in zip(self.rows, out.rows):
            for a, brow in zip(row, sparse):
                if brow and not a.is_zero():
                    for j, b in brow:
                        orow[j] = orow[j] + a * b
        return out

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        return all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    def is_zero(self):
        return all(a.is_zero() for r in self.rows for a in r)

    def map(self, fn):
        return Matrix(
            self.nrows, self.ncols, [[fn(a) for a in r] for r in self.rows], fn(self.zero)
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


def k_of(n, weight):
    """Number of odd tensor slots for the given weight; may fall outside
    [0, n], in which case the corresponding block is empty."""
    if (n - weight) % 2:
        raise ValueError(f"weight {weight} has wrong parity for n={n}")
    return (n - weight) // 2


class WeightBlock:
    """An operator from the weight-source_weight block of the n-site space
    to the weight-target_weight block, as a Matrix.

    Rows are the target block's k-subsets of {1..n} and columns the
    source block's, in lexicographic order: the odd slots of the tensor
    basis words on the algebra side (``superrep.subset_from_word``), the
    torus-fixed points of Gr(k, n) on the geometry side.  A weight
    outside [-n, n] has an empty block.
    """

    __slots__ = ("n", "source_weight", "target_weight", "cols_points", "rows_points", "mat")

    def __init__(self, n, source_weight, target_weight, mat):
        self.n = n
        self.source_weight = source_weight
        self.target_weight = target_weight
        self.cols_points = fixed_points(n, k_of(n, source_weight))
        self.rows_points = fixed_points(n, k_of(n, target_weight))
        if mat.nrows != len(self.rows_points) or mat.ncols != len(self.cols_points):
            raise ValueError("matrix shape does not match the weight blocks")
        self.mat = mat

    @classmethod
    def zeros(cls, n, source_weight, target_weight, zero):
        nr = len(fixed_points(n, k_of(n, target_weight)))
        nc = len(fixed_points(n, k_of(n, source_weight)))
        return cls(n, source_weight, target_weight, Matrix.zeros(nr, nc, zero))

    @classmethod
    def scalar(cls, n, weight, s):
        """s (a Poly or a RationalFunction) times the identity on the block."""
        d = len(fixed_points(n, k_of(n, weight)))
        return cls(n, weight, weight, Matrix.diagonal([s] * d, type(s).zero(s.nvars)))

    def entry(self, S_t, S_s):
        return self.mat[(self.rows_points.index(tuple(S_t)), self.cols_points.index(tuple(S_s)))]

    def _same_shape(self, other):
        if self.n != other.n:
            raise ValueError("mixed n")
        if (
            self.source_weight != other.source_weight
            or self.target_weight != other.target_weight
        ):
            raise ValueError("weight mismatch")

    def __add__(self, other):
        self._same_shape(other)
        return WeightBlock(self.n, self.source_weight, self.target_weight, self.mat + other.mat)

    def __sub__(self, other):
        self._same_shape(other)
        return WeightBlock(self.n, self.source_weight, self.target_weight, self.mat - other.mat)

    def __neg__(self):
        return WeightBlock(self.n, self.source_weight, self.target_weight, -self.mat)

    def scale(self, s):
        return WeightBlock(self.n, self.source_weight, self.target_weight, self.mat.scale(s))

    def __matmul__(self, other):
        if self.n != other.n:
            raise ValueError("mixed n")
        if self.source_weight != other.target_weight:
            raise ValueError(
                f"cannot compose: left source weight {self.source_weight} "
                f"!= right target weight {other.target_weight}"
            )
        return WeightBlock(self.n, other.source_weight, self.target_weight, self.mat @ other.mat)

    def __eq__(self, other):
        if not isinstance(other, WeightBlock):
            return NotImplemented
        return (
            self.n == other.n
            and self.source_weight == other.source_weight
            and self.target_weight == other.target_weight
            and self.mat == other.mat
        )

    def is_zero(self):
        return self.mat.is_zero()


def first_difference(got, want=None):
    """(row, column, got - want) at the first entry where two matrices
    differ, or None; want=None stands for the zero matrix."""
    for i, row in enumerate(got.rows):
        for j, a in enumerate(row):
            if want is None:
                if not a.is_zero():
                    return i, j, a
            elif a != want.rows[i][j]:
                return i, j, a - want.rows[i][j]
    return None


def subset_label(S):
    return "{" + ",".join(str(x) for x in S) + "}"


def entry_witness(got, want=None):
    """Where the WeightBlock got first differs from want (zero when
    None), as a short witness: the entry's row and column with their
    subsets and the difference at a seeded integer point; "" if equal."""
    bad = first_difference(got.mat, None if want is None else want.mat)
    if bad is None:
        return ""
    i, j, diff = bad
    where = (
        f"first bad entry at row {i} (subset {subset_label(got.rows_points[i])}), "
        f"column {j} (subset {subset_label(got.cols_points[j])})"
    )
    rng = random.Random(0xC0FFEE)
    for _ in range(64):
        point = tuple(rng.randint(2, 99) for _ in range(diff.nvars))
        try:
            value = str(diff.evaluate(point))
        except PoleError:
            continue
        value = value if len(value) <= 80 else value[:77] + "..."
        return f"{where} is off by {value} at (x1, ..., q) = {point}"
    return f"{where} is off by a nonzero rational function"
