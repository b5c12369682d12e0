"""Dense matrices over an arbitrary exact coefficient ring.

Entries can be anything supporting +, -, *, ==, and is_zero(); a zero
element of the ring is carried explicitly so that empty and all-zero
matrices stay well defined.  Weight blocks at the extreme weights give
genuinely empty (0 x m) matrices, so the degenerate shapes matter.

Products of rational-function matrices sum each dot product in one
:meth:`RationalFunction.sum`, which cancels against the shared
denominator once instead of after every pairwise addition.
"""

from .ratfunc import RationalFunction


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
    def identity(cls, n, one, zero):
        m = cls.zeros(n, n, zero)
        for i in range(n):
            m.rows[i][i] = one
        return m

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
